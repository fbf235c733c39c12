import json
import os
from pathlib import Path

import numpy as np
import pytest

import mopx.harness as harness
from mopx.core import ConfigurationError
from mopx.harness import (
    MetricRecord,
    aggregate,
    experiment_config_from_dict,
    read_summary_csv,
    run_experiment,
    write_outputs,
    write_summary_csv,
)

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


def test_cell_failures_are_recorded_and_sweep_continues():
    config = _config(
        algorithms=[
            {"label": "ok", "algorithm": "uniform", "mode": "constrained"},
            # K=4, b=3 gives B=12 < 45*d*ceil(log2 K): the strict variant must fail
            {
                "label": "strict",
                "algorithm": "gensec",
                "allocator": "g-optimal",
                "estimator": "linear",
                "enforce_design_budget": True,
            },
        ],
        per_arm_budgets=[3],
        seeds=[0, 1],
    )
    outcome = run_experiment(config)
    assert not outcome.ok
    assert len(outcome.failures) == 2
    assert all(f["algorithm"] == "strict" for f in outcome.failures)
    assert {rec.algorithm for rec in outcome.records} == {"ok"}
    assert all("45" in f["error"] for f in outcome.failures)


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
    path = tmp_path / "summary.csv"
    write_summary_csv(path, rows)
    loaded = read_summary_csv(path)
    assert len(loaded) == len(rows)
    for a, b in zip(rows, loaded):
        assert f"{a.mean:.6g}" == f"{b.mean:.6g}"
        if a.ci_half_width is None:
            assert b.ci_half_width is None
        else:
            assert f"{a.ci_half_width:.6g}" == f"{b.ci_half_width:.6g}"


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


def _failing_cell(args):
    """Fails the ``sh`` cell of seed 2: kills its worker process when run in
    one, raises otherwise (never kills the test process itself)."""
    _, variant, _, _, seed = args
    if variant["label"] == "sh" and seed == 2:
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
    assert [(f["algorithm"], f["seed"]) for f in outcome.failures] == [("sh", 2)]
    error = outcome.failures[0]["error"]
    assert error.startswith("BrokenProcessPool:" if jobs > 1 else "RuntimeError: cell exploded")
    assert outcome.records == [
        rec for rec in clean.records if (rec.algorithm, rec.seed) != ("sh", 2)
    ]
    paths = write_outputs(tmp_path, outcome)
    assert json.loads(paths["failures"].read_text()) == outcome.failures


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
