"""Every setting combination of the round loop, run through it.

Each run's ``RunResult.to_dict()`` JSON, or the error class and message of
its ``RunConfig`` or its run, is hashed per algorithm and mode. The digests
pin answers, round logs, pull counts and error messages byte for byte, so a
rewrite of the loop must leave every one of them unchanged.

Each run is hashed twice. The float digests cover the whole JSON. Its round
``gaps`` and ``estimates`` come from BLAS reductions, whose last bits depend on
the kernel OpenBLAS dispatches to at load, so they hold on the kernel they were
recorded on (``SkylakeX``). The decision digests drop those two keys and keep
the answers, pull counts, active sets, rankings, fronts, acceptances and error
texts, which hold on every kernel.
"""

import ctypes
import hashlib
import json
import warnings
from itertools import product
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from oracles import random_linear_instance
from mopx import algorithms, allocators
from mopx.algorithms import RunConfig, run_algorithm
from mopx.core import Instance
from mopx.environments import (
    GaussianEnvironment,
    LinearEnvironment,
    ReplayEnvironment,
    load_replay_csv,
)
from mopx.harness import load_experiment_config, run_experiment, write_outputs

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# 0.25-grid means with exact ties, observed without noise
TIED = np.array([[0.75, 0.5], [0.5, 0.75], [0.75, 0.5], [0.25, 0.25], [0.5, 0.5]])

# recorded on OpenBLAS's SkylakeX kernel
DIGESTS = {
    ("gensec", "constrained"): "7fc2f0cf47c44f3b1ca40b5f6a6268efbb81aecb1a391019f858cd1c66a2acad",
    ("genpsi", "pareto"): "b6086830cf322a17b8cd625b9bf6964e06ebd96122c98bdf3bcab76d5823ca0a",
    ("uniform", "constrained"): "77d2a6b54489e55692b84a761e521fad36e972dd220728b7bb869a3a133baa28",
    ("uniform", "pareto"): "3f8421f3cc3ebd0307fab90109d811f7626b908e4ee82c11d425d7e8d75e8296",
}
DECISION_DIGESTS = {
    ("gensec", "constrained"): "3b0579b54925effce6d8ecff2476bc968080ec37d7fbc9a095ffc9e684714b9f",
    ("genpsi", "pareto"): "7741eb84d47e8aecedbeb00ca738d9a790c3c12f14f14e7aedcced9b8deb3eb8",
    ("uniform", "constrained"): "ef0dbc927150361156ee6c8284fa497b08a3bb0eaa64f0c551cd8653a8d052fb",
    ("uniform", "pareto"): "def62d52e1a35fd8033a5a89ea971c28eac8169b1bf2e434ec9a0759ffe29765",
}

# 4 instances x 4 seeds of the linear G-optimal path at K = 64, d = 6
G_OPTIMAL_DIGEST = "91b6123bd9a80a0efd7432ce9c7eeda52e7be367dd84667172f740068050f5fa"
G_OPTIMAL_DECISION_DIGEST = "c0c6a9d76b143445dd00c7fe1d3d70a5bd70c74d74d830356e05dbee4477dd88"

_FLOAT_KEYS = ("gaps", "estimates")  # the round-log entries a BLAS kernel can move


def openblas_core() -> str:
    """The kernel numpy's bundled OpenBLAS dispatched to at load, such as
    ``SkylakeX`` or ``Haswell``, or ``unknown`` where it cannot be read."""
    try:
        library = next((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))
        corename = ctypes.CDLL(str(library)).scipy_openblas_get_corename64_
    except (StopIteration, OSError, AttributeError):
        return "unknown"
    corename.restype = ctypes.c_char_p
    return corename().decode()


def _float_digest_note(decisions_held: bool) -> str:
    return (f"float digests differ on OpenBLAS kernel {openblas_core()}, recorded on SkylakeX; "
            f"the decision digests {'held' if decisions_held else 'differ too'}")


def benchmark_linear_instance(instance_seed: int) -> Instance:
    """The linear-gopt benchmark's recipe at K = 64, d = 6: an intercept plus five Gaussian features."""
    rng = np.random.default_rng([8, instance_seed])
    features = np.hstack([np.ones((64, 1)), rng.normal(size=(64, 5)) / np.sqrt(5.0)])
    theta = rng.normal(size=(6, 2))
    theta[0] = 3.0
    return Instance(means=features @ theta, sigma=0.5, features=features, theta=theta)


def _environments():
    linear = random_linear_instance(np.random.default_rng(5), 6, 3, sigma=0.3)
    yield "linear", lambda: LinearEnvironment(linear), float(np.median(linear.means[:, 1]))
    yield "tied", lambda: GaussianEnvironment(Instance(means=TIED, sigma=0.0)), 0.5
    table = load_replay_csv(FIXTURES / "replay_small.csv")
    yield "replay", lambda: ReplayEnvironment(table, mode="sequential"), 0.5


def _settings(algorithm: str):
    loop = algorithm != "uniform"
    return product(
        ("sequential_halving", "successive_rejects"),
        ("uniform", "g-optimal") if loop else ("uniform",),
        ("mean", "linear", "mlp") if loop else ("mean",),
        ("ege", "truncate") if loop else ("ege",),
        ("cumulative", "round"),
        (1, 6),  # per-arm budget; 1 starves round 1 of some arms
        (False, True),  # enforce_design_budget
        (False, True),  # redistribute_leftover
    )


class Outcome(NamedTuple):
    """One run's JSON and its decisions' JSON, or twice the error of its
    ``RunConfig`` or of the run; ``rounds`` is None for an error."""

    text: str
    decisions: str
    rounds: int | None


def run_outcome(settings: dict, env) -> Outcome:
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = run_algorithm(RunConfig(**settings), env)
            rounds = len(result.rounds)  # before to_dict(), which alone formats the round logs
            log = result.to_dict()
    except Exception as err:
        text = f"{type(err).__name__}: {err}"
        return Outcome(text, text, None)
    decisions = dict(log, rounds=[{k: v for k, v in entry.items() if k not in _FLOAT_KEYS} for entry in log["rounds"]])
    return Outcome(json.dumps(log, sort_keys=True), json.dumps(decisions, sort_keys=True), rounds)


def _setting_runs(algorithm: str, mode: str | None):
    """(label, outcome) of every setting run of one algorithm and mode, in hashing order."""
    for name, make_env, tau in _environments():
        for seed, setting in enumerate(_settings(algorithm)):
            scheduler, allocator, estimator, eliminator, scope, per_arm, enforce, redistribute = setting
            settings = dict(
                algorithm=algorithm,
                mode=mode,
                scheduler=scheduler,
                allocator=allocator,
                estimator=estimator,
                eliminator=eliminator,
                mlp_data_scope=scope,
                enforce_design_budget=enforce,
                redistribute_leftover=redistribute,
                tau=tau if mode == "constrained" else None,
                per_arm_budget=per_arm,
                seed=seed,
                mlp_hidden=4,
                mlp_iters=3,
            )
            yield f"{name}|{setting}", run_outcome(settings, make_env())


def _digest(runs, field: str) -> str:
    sha = hashlib.sha256()
    for label, outcome in runs:
        sha.update(f"{label}|{getattr(outcome, field)}\n".encode())
    return sha.hexdigest()


@pytest.fixture(scope="module")
def setting_runs():
    """Every setting run of the digests, made once for the tests below, with
    ``_round_log`` refused in each run until its ``to_dict()``. A refusal is
    kept as well as raised, since the run's error text would only move a digest."""
    formatter, to_dict = algorithms._round_log, algorithms.RunResult.to_dict
    reading, refusals = [], []

    def guarded(record):
        if not reading:
            refusals.append(record.round)
            _refuse(record)
        return formatter(record)

    def read(result):
        reading.append(result)
        try:
            return to_dict(result)
        finally:
            reading.pop()

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(algorithms, "_round_log", guarded)
        patch.setattr(algorithms.RunResult, "to_dict", read)
        runs = {key: list(_setting_runs(*key)) for key in DIGESTS}
    return runs, refusals


@pytest.fixture(scope="module")
def g_optimal_runs():
    """gensec + halving + G-optimal + linear fit on intercept-plus-Gaussian
    features, as in the linear-gopt benchmark workload: every round's design,
    pull counts and fit feed the JSON hashed here."""
    allocators._DESIGNS.clear()
    runs = []
    for instance_seed in range(4):
        instance = benchmark_linear_instance(instance_seed)
        tau = float(np.median(instance.means[:, 1]))
        for seed in range(4):
            settings = dict(
                algorithm="gensec",
                scheduler="sequential_halving",
                allocator="g-optimal",
                estimator="linear",
                tau=tau,
                per_arm_budget=20,
                seed=seed,
            )
            runs.append((f"{instance_seed}|{seed}", run_outcome(settings, LinearEnvironment(instance))))
    return runs


def test_every_setting_combination_matches_its_recorded_decision_digest(setting_runs):
    runs, _ = setting_runs
    assert {key: _digest(runs[key], "decisions") for key in DIGESTS} == DECISION_DIGESTS


def test_every_setting_combination_matches_its_recorded_digest(setting_runs):
    runs, _ = setting_runs
    held = {key: _digest(runs[key], "decisions") for key in DIGESTS} == DECISION_DIGESTS
    got = {key: _digest(runs[key], "text") for key in DIGESTS}
    assert got == DIGESTS, _float_digest_note(held)


def test_linear_g_optimal_runs_match_their_recorded_decision_digest(g_optimal_runs):
    assert _digest(g_optimal_runs, "decisions") == G_OPTIMAL_DECISION_DIGEST


def test_linear_g_optimal_runs_match_their_recorded_digest(g_optimal_runs):
    held = _digest(g_optimal_runs, "decisions") == G_OPTIMAL_DECISION_DIGEST
    assert _digest(g_optimal_runs, "text") == G_OPTIMAL_DIGEST, _float_digest_note(held)


def _refuse(record):
    raise AssertionError(f"round {record.round} was formatted before its log was read")


def test_a_sweep_formats_no_round_log(tmp_path, monkeypatch):
    monkeypatch.setattr(algorithms, "_round_log", _refuse)
    outcome = run_experiment(load_experiment_config(FIXTURES / "regression_config.json"), jobs=1)
    assert not outcome.failures
    paths = write_outputs(tmp_path, outcome)
    assert paths["summary"].read_bytes() == (FIXTURES / "golden_summary.csv").read_bytes()
    assert paths["records"].read_bytes() == (FIXTURES / "golden_records.csv").read_bytes()


def test_the_golden_config_run_twice_in_one_process_gives_the_golden_files_both_times(tmp_path):
    """Nothing a run leaves in the process, such as the last pair terms kept
    by the gaps layer, changes what the next run in it draws or answers."""
    config = load_experiment_config(FIXTURES / "regression_config.json")
    for attempt in range(2):
        paths = write_outputs(tmp_path / str(attempt), run_experiment(config, jobs=1))
        assert paths["summary"].read_bytes() == (FIXTURES / "golden_summary.csv").read_bytes()
        assert paths["records"].read_bytes() == (FIXTURES / "golden_records.csv").read_bytes()


def test_the_golden_replay_file_in_other_spellings_gives_the_golden_answers(tmp_path):
    """CRLF line ends, quoted cells, spaces after commas, a leading + and a
    blank line send the replay file to the per-line reader; every run's
    answer stays the same."""
    head, *rows = (FIXTURES / "replay_small.csv").read_text().splitlines()
    cells = [row.split(",") for row in rows]
    lines = [head] + [f'"{arm}", +{a}, {b}' for arm, a, b in cells[:5]] + [""] + [", ".join(c) for c in cells[5:]]
    (tmp_path / "replay_small.csv").write_bytes("\r\n".join(lines).encode() + b"\r\n")
    (tmp_path / "regression_config.json").write_bytes((FIXTURES / "regression_config.json").read_bytes())
    paths = write_outputs(tmp_path / "out", run_experiment(load_experiment_config(tmp_path / "regression_config.json")))
    assert paths["summary"].read_bytes() == (FIXTURES / "golden_summary.csv").read_bytes()
    assert paths["records"].read_bytes() == (FIXTURES / "golden_records.csv").read_bytes()


def test_round_logs_are_formatted_only_when_read(setting_runs):
    """Every run of the digests above formats nothing until its ``to_dict()``,
    not even when ``len(result.rounds)`` counts its rounds; the digest tests
    hash the JSON these same guarded runs give."""
    runs, refusals = setting_runs
    assert refusals == []
    counts = [outcome.rounds for key in DIGESTS for _, outcome in runs[key] if outcome.rounds is not None]
    assert len(counts) == 864 and min(counts) >= 1  # every run that returns a result
