"""Every setting combination of the round loop, run through it.

Each run's ``RunResult.to_dict()`` JSON, or the error class and message of
its ``RunConfig`` or its run, is hashed per algorithm and mode. The digests
pin answers, round logs, pull counts and error messages byte for byte, so a
rewrite of the loop must leave every one of them unchanged.
"""

import hashlib
import json
import sys
import warnings
from itertools import product
from pathlib import Path

import numpy as np

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

DIGESTS = {
    ("gensec", "constrained"): "7fc2f0cf47c44f3b1ca40b5f6a6268efbb81aecb1a391019f858cd1c66a2acad",
    ("genpsi", "pareto"): "b6086830cf322a17b8cd625b9bf6964e06ebd96122c98bdf3bcab76d5823ca0a",
    ("uniform", "constrained"): "77d2a6b54489e55692b84a761e521fad36e972dd220728b7bb869a3a133baa28",
    ("uniform", "pareto"): "3f8421f3cc3ebd0307fab90109d811f7626b908e4ee82c11d425d7e8d75e8296",
}

# 4 instances x 4 seeds of the linear G-optimal path at K = 64, d = 6
G_OPTIMAL_DIGEST = "91b6123bd9a80a0efd7432ce9c7eeda52e7be367dd84667172f740068050f5fa"


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


def _outcome(settings: dict, env) -> str:
    """The run's JSON, or the error of its ``RunConfig`` or of the run."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return json.dumps(run_algorithm(RunConfig(**settings), env).to_dict(), sort_keys=True)
    except Exception as err:
        return f"{type(err).__name__}: {err}"


def _digest(algorithm: str, mode: str | None) -> str:
    sha = hashlib.sha256()
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
            sha.update(f"{name}|{setting}|{_outcome(settings, make_env())}\n".encode())
    return sha.hexdigest()


def test_every_setting_combination_matches_its_recorded_digest():
    got = {key: _digest(*key) for key in DIGESTS}
    assert got == DIGESTS


def test_linear_g_optimal_runs_match_their_recorded_digest():
    """gensec + halving + G-optimal + linear fit on intercept-plus-Gaussian
    features, as in the linear-gopt benchmark workload: every round's design,
    pull counts and fit feed the JSON hashed here."""
    allocators._DESIGNS.clear()
    sha = hashlib.sha256()
    for instance_seed in range(4):
        rng = np.random.default_rng([8, instance_seed])
        features = np.hstack([np.ones((64, 1)), rng.normal(size=(64, 5)) / np.sqrt(5.0)])
        theta = rng.normal(size=(6, 2))
        theta[0] = 3.0
        instance = Instance(means=features @ theta, sigma=0.5, features=features, theta=theta)
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
            outcome = _outcome(settings, LinearEnvironment(instance))
            sha.update(f"{instance_seed}|{seed}|{outcome}\n".encode())
    assert sha.hexdigest() == G_OPTIMAL_DIGEST


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


def test_round_logs_are_formatted_only_when_read(monkeypatch):
    """Every run of the digests above formats nothing until its ``to_dict()``,
    not even when ``len(result.rounds)`` counts its rounds, and the JSON it
    then gives still hashes to the recorded digests."""
    formatter, runner = algorithms._round_log, algorithms.run_algorithm
    running, counts = [], []

    def guarded(record):
        return _refuse(record) if running else formatter(record)

    def run(config, env):
        running.append(config)
        try:
            result = runner(config, env)
            counts.append(len(result.rounds))
            return result
        finally:
            running.pop()

    monkeypatch.setattr(algorithms, "_round_log", guarded)
    monkeypatch.setattr(sys.modules[__name__], "run_algorithm", run)
    assert {key: _digest(*key) for key in DIGESTS} == DIGESTS
    assert len(counts) == 864 and min(counts) >= 1  # every run that returns a result
