import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mopx.allocators as allocators
import mopx.harness as harness
from mopx.core import ConfigurationError
from mopx.harness import (
    MetricRecord,
    aggregate,
    experiment_config_from_dict,
    run_experiment,
    write_outputs,
)
from oracles import reference_ci_half_width

INSTANCE = {
    "K": 4,
    "m": 2,
    "sigma": 0.2,
    "means": [[0.8, 0.6], [0.9, 0.4], [0.6, 0.7], [0.3, 0.3]],
}


def _config(**overrides):
    data = {
        "environment": {"kind": "gaussian", "instance": INSTANCE},
        "tau": 0.5,
        "algorithms": [
            {"label": "csr", "algorithm": "gensec", "scheduler": "successive_rejects"},
            {"label": "sh", "algorithm": "gensec", "scheduler": "sequential_halving"},
            {"label": "uniform", "algorithm": "uniform", "mode": "constrained"},
        ],
        "k_values": [4],
        "per_arm_budgets": [3, 4, 5, 6],
        "seeds": list(range(20)),
    }
    data.update(overrides)
    return experiment_config_from_dict(data)


def test_grid_arithmetic_three_algorithms_four_budgets_twenty_seeds():
    outcome = run_experiment(_config())
    assert outcome.ok
    per_metric = {}
    for rec in outcome.records:
        per_metric[rec.metric] = per_metric.get(rec.metric, 0) + 1
    assert per_metric["soft_reward"] == 240
    assert per_metric["soft_reward_norm"] == 240
    assert per_metric["misidentified"] == 240


def test_rerun_is_byte_identical(tmp_path):
    texts = []
    for attempt in range(2):
        outcome = run_experiment(_config(per_arm_budgets=[3], seeds=[1, 2, 3]))
        out = tmp_path / f"run{attempt}"
        write_outputs(out, outcome)
        texts.append((out / "records.csv").read_bytes() + (out / "summary.csv").read_bytes())
    assert texts[0] == texts[1]


def test_parallel_jobs_match_serial(tmp_path):
    config = _config(per_arm_budgets=[3], seeds=[1, 2, 3, 4])
    serial = run_experiment(config, jobs=1)
    parallel = run_experiment(config, jobs=2)
    assert serial.records == parallel.records


def test_a_pool_starts_no_more_workers_than_it_has_cells(monkeypatch):
    import concurrent.futures

    sizes = []
    real = concurrent.futures.ProcessPoolExecutor

    def recording_pool(max_workers):
        sizes.append(max_workers)
        return real(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool)
    csr = {"label": "csr", "algorithm": "gensec", "scheduler": "successive_rejects"}
    config = _config(algorithms=[csr], per_arm_budgets=[3], seeds=[1, 2])
    assert run_experiment(config, jobs=4).records == run_experiment(config).records
    assert sizes == [2]


def test_pareto_mode_emits_hv_metrics():
    config = _config(
        algorithms=[
            {"label": "ege", "algorithm": "genpsi", "scheduler": "successive_rejects"},
            {"label": "uniform", "algorithm": "uniform", "mode": "pareto"},
        ],
        per_arm_budgets=[5],
        seeds=[0, 1],
    )
    outcome = run_experiment(config)
    assert outcome.ok
    metrics = {rec.metric for rec in outcome.records}
    assert metrics == {"hv", "hv_recovery", "misidentified"}


# with the design solver capped at one iteration, round 1's design over these
# features misses its target, so every "capped" cell fails in round 1 while the
# one-round uniform baseline runs
_CAPPED = [
    {"label": "ok", "algorithm": "uniform", "mode": "constrained"},
    {"label": "capped", "algorithm": "gensec", "allocator": "g-optimal"},
]
_FEATURED = {"kind": "gaussian", "instance": dict(INSTANCE, features=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]])}


@pytest.fixture
def capped_design(monkeypatch):
    monkeypatch.setattr(allocators, "MAX_DESIGN_ITERS", 1)
    allocators._DESIGNS.clear()  # its key holds no cap; a failed solve is not kept


def test_cell_failures_are_recorded_and_sweep_continues(capped_design):
    outcome = run_experiment(_config(environment=_FEATURED, algorithms=_CAPPED, per_arm_budgets=[3], seeds=[0, 1]))
    assert not outcome.ok
    assert [(f["algorithm"], f["seed"]) for f in outcome.failures] == [("capped", 0), ("capped", 1)]
    assert {rec.algorithm for rec in outcome.records} == {"ok"}
    error = "DesignConvergenceError: round 1: design solver did not reach objective 2.2 within 1 iterations (best 2.66667)"
    assert all(f["error"] == error for f in outcome.failures)


def test_a_variant_without_label_or_algorithm_is_labelled_by_the_algorithm_it_runs():
    outcome = run_experiment(_config(algorithms=[{}], per_arm_budgets=[3], seeds=[0]))
    assert outcome.ok
    assert {(rec.run_id, rec.algorithm) for rec in outcome.records} == {("gensec-K4-b3-s0", "gensec")}


def test_aggregate_worked_examples():
    records = [
        MetricRecord(f"r{i}", i, "alg", 4, 3, "m", v)
        for i, v in enumerate([0.1, 0.2, 0.3])
    ]
    row = aggregate(records)[0]
    assert row.mean == pytest.approx(0.2)
    assert row.ci_half_width == pytest.approx(1.96 * 0.1 / np.sqrt(3))
    assert row.n_seeds == 3

    same = [MetricRecord(f"r{i}", i, "alg", 4, 3, "m", 0.7) for i in range(4)]
    assert aggregate(same)[0].ci_half_width == pytest.approx(0.0)

    single = aggregate([MetricRecord("r0", 0, "alg", 4, 3, "m", 0.5)])[0]
    assert single.ci_half_width is None and single.n_seeds == 1


def test_aggregate_half_width_survives_seeds_that_differ_by_less_than_the_squares_hold():
    # soft_reward reads 0.0, 1e-200 and 1e-200 over these seeds: its squared deviations underflow
    instance = {"means": [[1e-200, 1.0], [0.0, 1.0]], "sigma": 0.1}
    config = _config(environment={"kind": "gaussian", "instance": instance}, algorithms=[{"algorithm": "gensec"}],
                     k_values=[2], per_arm_budgets=[4], seeds=[0, 1, 2])
    records = run_experiment(config).records
    assert sorted(rec.value for rec in records if rec.metric == "soft_reward") == [0.0, 1e-200, 1e-200]
    rows = {row.metric: row for row in aggregate(records)}
    assert rows["soft_reward"].ci_half_width > 0.0
    assert rows["soft_reward"].ci_half_width == pytest.approx(1e-200 * rows["soft_reward_norm"].ci_half_width, rel=1e-12)


def _half_width(values):
    return aggregate([MetricRecord(f"r{i}", i, "alg", 4, 3, "m", v) for i, v in enumerate(values)])[0].ci_half_width


@settings(max_examples=400, deadline=None)
@given(
    mantissas=st.lists(
        st.integers(-1000, 1000) | st.floats(-1000, 1000).filter(lambda x: x == 0 or abs(x) >= 1e-3),
        min_size=1,
        max_size=8,
    ),
    exponent=st.integers(-300, 290),  # squared deviations underflow below 1e-154 and overflow past 1e154
    shift=st.sampled_from([0.0, 0.0, 0.5, -3e5]),
)
@example(mantissas=[1, 3], exponent=160, shift=0.0)  # [1e160, 3e160]: squares overflow; 1.96e160 exactly
@example(mantissas=[0, 1, 1], exponent=-200, shift=0.0)  # squares underflow to zero
@example(mantissas=[0, 2], exponent=-160, shift=0.0)  # squares underflow into subnormals, losing bits
@example(mantissas=[1, 1, 1], exponent=-1, shift=0.0)  # [0.1] * 3: the float mean is not 0.1
def test_aggregate_half_width_matches_the_exact_standard_deviation(mantissas, exponent, shift):
    values = [shift + m * 10.0**exponent for m in mantissas]
    n, half, want = len(values), _half_width(values), reference_ci_half_width(values)
    if n == 1:
        assert half is None and want is None
    elif min(values) == max(values):
        assert half == 0.0 and want == 0.0
    else:
        assert math.isfinite(half) and half > 0.0
        # Tolerance: the float mean is off by up to about n ulps of the largest |value|, every
        # deviation inherits that offset, and it moves the spread by at most sqrt(n / (n - 1))
        # times as much; the squares, sums and square roots add a relative rounding of n ulps.
        eps = sys.float_info.epsilon
        assert abs(half - want) <= 4 * n * eps * (want + 1.96 * max(map(abs, values)) / math.sqrt(n))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-1e300, 1e300, allow_nan=False), min_size=1, max_size=8))
def test_aggregate_half_width_is_none_zero_or_finite_and_positive(values):
    half = _half_width(values)  # any finite values, subnormal ones included
    if len(values) == 1:
        assert half is None
    elif min(values) == max(values):
        assert half == 0.0
    else:
        assert math.isfinite(half) and half > 0.0


def test_aggregate_is_permutation_invariant():
    rng = np.random.default_rng(0)
    records = [
        MetricRecord(f"r{i}", i, "alg", 4, 3, "m", float(v))
        for i, v in enumerate(rng.uniform(size=10))
    ]
    forward = aggregate(records)
    backward = aggregate(list(reversed(records)))
    assert forward == backward


def test_summary_round_trips_at_six_significant_digits(tmp_path):
    outcome = run_experiment(_config(per_arm_budgets=[3], seeds=[1, 2, 3]))
    rows = aggregate(outcome.records)
    with write_outputs(tmp_path, outcome)["summary"].open(newline="") as handle:
        loaded = list(csv.DictReader(handle))
    assert len(loaded) == len(rows)
    for a, b in zip(rows, loaded):
        assert (b["algorithm"], int(b["K"]), int(b["b"]), b["metric"], int(b["n_seeds"])) == (
            a.algorithm, a.n_arms, a.per_arm_budget, a.metric, a.n_seeds
        )
        assert f"{a.mean:.6g}" == f"{float(b['mean']):.6g}"
        if a.ci_half_width is None:
            assert b["ci_half_width"] == ""
        else:
            assert f"{a.ci_half_width:.6g}" == f"{float(b['ci_half_width']):.6g}"


def test_config_validation():
    with pytest.raises(ConfigurationError):
        experiment_config_from_dict({})
    with pytest.raises(ConfigurationError):
        _config(seeds=[])
    with pytest.raises(ConfigurationError):
        _config(algorithms=[{"label": "x", "algorithm": "gensec", "bogus_key": 1}])


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"per_arm_budget": [3]}, "per_arm_budget"),
        ({"seed": [1]}, "seed"),
        ({"environment": {"kind": "gaussian", "instance": INSTANCE, "mdoe": "iid"}}, "mdoe"),
        (
            {"algorithms": [{"algorithm": "genpsi", "estimator": "mlp", "mlp": {"hiden": 8}}]},
            "hiden",
        ),
        (
            {"algorithms": [{"algorithm": "gensec", "g_optimal": {"epsilon": 0.1, "kapa": 0.3}}]},
            "kapa",
        ),
        (
            {"algorithms": [{"algorithm": "gensec", "g_optimal": {"epsilon": 0.1, "kappa": 0.3}}]},
            "kappa",
        ),
    ],
)
def test_unknown_config_keys_are_rejected_by_name(overrides, key):
    with pytest.raises(ConfigurationError, match=key):
        _config(**overrides)


def test_known_nested_keys_load():
    config = _config(
        algorithms=[
            {
                "algorithm": "genpsi",
                "estimator": "mlp",
                "mlp": {"hidden": 8, "lambda": 0.0, "iters": 5, "step_size": 0.1, "data_scope": "round"},
                "g_optimal": {"epsilon": 0.2},
            }
        ]
    )
    assert config.algorithms[0]["mlp"]["hidden"] == 8


@pytest.mark.parametrize(
    "variant, tau, match",
    [
        ({"algorithm": "gensec"}, None, "tau"),
        ({"algorithm": "uniform", "mode": "constrained"}, None, "tau"),
        ({"algorithm": "uniform"}, 0.5, "mode"),
        ({"algorithm": "gensec", "mode": "pareto"}, 0.5, "pareto"),
        ({"algorithm": "genpsi", "mode": "constrained"}, 0.5, "constrained"),
        ({"algorithm": "gensec", "allocator": "greedy"}, 0.5, "allocator"),
        ({"algorithm": "gensec", "estimator": "knn"}, 0.5, "estimator"),
        ({"algorithm": "genpsi", "eliminator": "drop"}, 0.5, "eliminator"),
        ({"algorithm": "genpsi", "estimator": "mlp", "mlp": {"data_scope": "all"}}, 0.5, "scope"),
        ({"algorithm": "uniform", "mode": "pareto", "allocator": "g-optimal"}, 0.5, "uniform"),
        ({"algorithm": "uniform", "mode": "pareto", "estimator": "linear"}, 0.5, "uniform"),
        ({"algorithm": "uniform", "mode": "pareto", "eliminator": "truncate"}, 0.5, "uniform"),
        ({"algorithm": "gensec", "scheduler": "halving"}, 0.5, "scheduler"),
    ],
)
def test_setting_errors_fail_at_load(variant, tau, match):
    with pytest.raises(ConfigurationError, match=match):
        _config(algorithms=[variant], tau=tau)


@pytest.mark.parametrize("k_values", [[1], [5], [2, 4, 5]])
def test_k_values_outside_arm_range_fail_at_load(k_values):
    with pytest.raises(ConfigurationError, match="k_values"):
        _config(k_values=k_values)


@pytest.mark.parametrize(
    "key, value",
    [
        ("enforce_design_budget", "false"),
        ("enforce_design_budget", 0),
        ("redistribute_leftover", "true"),
        ("redistribute_leftover", None),
        ("scheduler", 5),
        ("mlp.iters", "many"),
        ("mlp.iters", 5.5),
        ("label", 7),
    ],
)
def test_mistyped_algorithm_values_are_rejected_by_key(key, value):
    section, _, name = key.rpartition(".")
    variant = {"algorithm": "genpsi"}
    if section:
        variant[section] = {name: value}
    else:
        variant[name] = value
    with pytest.raises(ConfigurationError, match=key):
        _config(algorithms=[variant])


def test_boolean_keys_take_json_booleans():
    config = _config(
        algorithms=[
            {"label": "off", "algorithm": "gensec", "enforce_design_budget": False},
            {"label": "on", "algorithm": "gensec", "redistribute_leftover": True},
        ],
        per_arm_budgets=[3],
        seeds=[0],
    )
    assert run_experiment(config).ok


_PARENT_PID = os.getpid()
_execute_cell = harness._execute_cell


_CRASHES = [("csr", 3), ("uniform", 1)]  # in cell order, with cells between them


def _failing_cell(args):
    """Fails the cells of ``_CRASHES``: kills its worker process when run in
    one, raises otherwise (never kills the test process itself)."""
    _, variant, _, _, seed = args
    if (variant["label"], seed) in _CRASHES:
        if os.getpid() != _PARENT_PID:
            os._exit(1)
        raise RuntimeError("cell exploded")
    return _execute_cell(args)


@pytest.mark.parametrize("jobs", [1, 2])
def test_crashing_cell_is_recorded_and_sweep_continues(monkeypatch, tmp_path, jobs):
    config = _config(per_arm_budgets=[3], seeds=[1, 2, 3, 4])
    clean = run_experiment(config)
    monkeypatch.setattr(harness, "_execute_cell", _failing_cell)
    outcome = run_experiment(config, jobs=jobs)
    assert [(f["algorithm"], f["seed"]) for f in outcome.failures] == _CRASHES
    for failure in outcome.failures:
        assert failure["error"].startswith("BrokenProcessPool:" if jobs > 1 else "RuntimeError: cell exploded")
    assert outcome.records == [
        rec for rec in clean.records if (rec.algorithm, rec.seed) not in _CRASHES
    ]
    paths = write_outputs(tmp_path, outcome)
    assert json.loads(paths["failures"].read_text()) == outcome.failures


# on the four featureless arms of INSTANCE, halving over 2 rounds: at b=1 round 1
# pulls 2 times over 4 active arms; at b=6 every round pulls 12 times
_THIN = {"label": "thin", "algorithm": "gensec", "estimator": "linear"}
_ACCEPTING = {"label": "accepting", "algorithm": "genpsi", "estimator": "mlp", "mlp": {"data_scope": "round"}}


def _load_warnings(**overrides):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _config(**overrides)
    return [str(w.message) for w in caught if issubclass(w.category, UserWarning)]


@pytest.mark.parametrize(
    "variant, b, cause",
    [
        (_THIN, 1, "uniform allocation pulls fewer times than there are active arms in rounds [1]"),
        (_ACCEPTING, 6, "EGE keeps accepted arms in scope, and a round-scoped fit has no rows of theirs"),
    ],
)
def test_a_fit_that_scores_featureless_arms_from_no_rows_warns_once_at_load(variant, b, cause):
    got = _load_warnings(algorithms=[variant], per_arm_budgets=[b])
    assert got == [f"variant {variant['label']!r} at K=4, b={b} scores arms without features from no rows of their own: {cause}"]


def test_a_grid_warns_once_per_flagged_variant_k_and_b():
    got = _load_warnings(algorithms=[_THIN, _ACCEPTING], per_arm_budgets=[1, 6], k_values=[3, 4])
    assert [message.partition(" scores ")[0] for message in got] == [
        "variant 'thin' at K=3, b=1",
        "variant 'thin' at K=4, b=1",
        "variant 'accepting' at K=3, b=1",
        "variant 'accepting' at K=4, b=1",
        "variant 'accepting' at K=3, b=6",
        "variant 'accepting' at K=4, b=6",
    ]


@pytest.mark.parametrize(
    "overrides, error",
    [({"seeds": [0, 0]}, "seeds must be distinct, repeated: [0]"), ({"tau": 0.0}, "need tau > 0, got 0.0")],
)
def test_a_refused_config_prints_its_error_and_no_load_warning(overrides, error):
    with warnings.catch_warnings(record=True) as caught, pytest.raises(ConfigurationError) as err:
        warnings.simplefilter("always")
        _config(algorithms=[_THIN], per_arm_budgets=[1], **overrides)
    assert str(err.value).endswith(error)
    assert caught == []


@pytest.mark.parametrize("variant, b", [(_THIN, 1), (_ACCEPTING, 6)])
def test_featured_arms_and_sample_means_load_without_warning(variant, b):
    assert _load_warnings(environment=_FEATURED, algorithms=[variant], per_arm_budgets=[b]) == []
    mean = {key: value for key, value in variant.items() if key != "mlp"} | {"estimator": "mean"}
    assert _load_warnings(algorithms=[mean], per_arm_budgets=[6]) == []


def test_a_clean_sweep_removes_the_failures_of_an_earlier_sweep_in_its_directory(tmp_path, capped_design):
    failed = write_outputs(tmp_path, run_experiment(_config(environment=_FEATURED, algorithms=_CAPPED, per_arm_budgets=[3], seeds=[0])))
    assert failed["failures"].exists()
    clean = write_outputs(tmp_path, run_experiment(_config(per_arm_budgets=[3], seeds=[0])))
    assert "failures" not in clean
    assert sorted(path.name for path in tmp_path.iterdir()) == ["records.csv", "summary.csv", "table.txt"]


def test_environment_subsetting_takes_first_k():
    config = _config(k_values=[2], per_arm_budgets=[4], seeds=[0, 1])
    outcome = run_experiment(config)
    assert outcome.ok
    assert all(rec.n_arms == 2 for rec in outcome.records)


def test_table_rendering_smoke(tmp_path):
    outcome = run_experiment(_config(per_arm_budgets=[3, 5], seeds=[1, 2]))
    paths = write_outputs(tmp_path / "out", outcome)
    table = paths["table"].read_text()
    assert "soft_reward" in table and "b=3" in table and "+/-" in table
    assert (tmp_path / "out" / "records.csv").exists()


def _replay_config(**environment):
    return experiment_config_from_dict(
        {
            "environment": {"kind": "replay", "path": "replay_small.csv", **environment},
            "tau": 0.5,
            "algorithms": [{"algorithm": "gensec"}],
            "per_arm_budgets": [3],
            "seeds": [0],
        },
        base_dir=Path(__file__).resolve().parent.parent / "fixtures",
    )


@pytest.mark.parametrize(
    "overrides, match",
    [
        ({"tau": "0.5"}, "'tau' must be a JSON number"),
        ({"seeds": [1.7]}, r"'seeds\[0\]' must be a JSON integer"),
        ({"seeds": 3}, "'seeds' must be a JSON list"),
        ({"per_arm_budgets": ["three"]}, r"'per_arm_budgets\[0\]'"),
        ({"k_values": [True]}, r"'k_values\[0\]'"),
        ({"hv_reference": ["a", "b"]}, r"'hv_reference\[0\]'"),
        ({"algorithms": [{"algorithm": "gensec"}, {"algorithm": "gensec"}]}, "distinct"),
        (
            {"algorithms": [{"label": "a", "algorithm": "gensec"}, {"label": "a", "algorithm": "genpsi"}]},
            "distinct",
        ),
    ],
)
def test_config_faults_fail_at_load(overrides, match):
    with pytest.raises(ConfigurationError, match=match):
        _config(**overrides)


@pytest.mark.parametrize(
    "environment, match",
    [
        ({"mode": "sequentail"}, "replay mode"),
        ({"brevity": {"tau_low": 0.1}}, "brevity"),
        ({"brevity": {"tau_low": 0.1, "tau_high": "0.9"}}, "brevity.tau_high"),
    ],
)
def test_replay_environment_faults_fail_at_load(environment, match):
    with pytest.raises(ConfigurationError, match=match):
        _replay_config(**environment)


@pytest.mark.parametrize(
    "overrides, match",
    [
        ({"algorithms": ["gensec"]}, r"'algorithms\[0\]' must be a JSON object"),
        ({"algorithms": "gensec"}, "'algorithms' must be a JSON list"),
        ({"algorithms": [{"algorithm": "gensec", "mlp": 5}]}, r"'algorithms\[0\]\.mlp' must be a JSON object"),
        (
            {"algorithms": [{"algorithm": "gensec", "g_optimal": []}]},
            r"'algorithms\[0\]\.g_optimal' must be a JSON object",
        ),
        ({"environment": 3}, "'environment' must be a JSON object"),
        (
            {"environment": {"kind": "gaussian", "instance": [1, 2]}},
            "'environment.instance' must be a JSON object",
        ),
    ],
)
def test_non_object_config_entries_fail_at_load(overrides, match):
    with pytest.raises(ConfigurationError, match=match):
        _config(**overrides)


def test_non_object_config_fails_at_load():
    with pytest.raises(ConfigurationError, match="must be a JSON object"):
        experiment_config_from_dict([{"environment": {}}])


_SERIAL_SWEEP = """
import sys
from mopx.cli import main
main(["run", "--config", sys.argv[1], "--out", sys.argv[2]])
print(sorted(name for name in sys.modules if name.startswith("concurrent")))
"""


def test_serial_sweeps_do_not_import_the_process_pool(tmp_path):
    config = Path(__file__).resolve().parent.parent / "fixtures" / "regression_config.json"
    done = subprocess.run(
        [sys.executable, "-c", _SERIAL_SWEEP, str(config), str(tmp_path)], capture_output=True, text=True, check=True
    )
    assert done.stdout.splitlines()[-1] == "[]"
