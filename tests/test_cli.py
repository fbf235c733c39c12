import json
from pathlib import Path

import numpy as np
import pytest

import mopx.allocators as allocators
import mopx.harness as harness
from mopx.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_schedule_command_prints_json(capsys):
    assert main(["schedule", "--k", "30", "--budget", "300", "--scheduler", "sh"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["R"] == 5
    assert payload["pulls_per_round"] == [60] * 5
    assert payload["keep_counts"] == [15, 8, 4, 2, 1]


def test_schedule_command_configuration_error_exit_code(capsys):
    assert main(["schedule", "--k", "1", "--budget", "10"]) == 2
    assert "error:" in capsys.readouterr().err


def test_gaps_command_constrained_and_pareto(tmp_path, capsys):
    instance = {
        "K": 3,
        "m": 2,
        "sigma": 0.0,
        "means": [[0.8, 0.6], [0.9, 0.4], [0.6, 0.7]],
    }
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance))

    assert main(["gaps", "--instance", str(path), "--tau", "0.5"]) == 0
    constrained = json.loads(capsys.readouterr().out)
    assert constrained["optimal_arm"] == 0
    assert constrained["hardness"] == pytest.approx(100.0)
    assert constrained["entries"][1]["gap"] == pytest.approx(0.1)

    assert main(["gaps", "--instance", str(path)]) == 0
    pareto = json.loads(capsys.readouterr().out)
    assert [e["classification"] for e in pareto["entries"]] == ["pareto", "pareto", "pareto"]


def test_gaps_command_serialises_inf_as_string(tmp_path, capsys):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"means": [[1.0, 0.0], [0.0, 1.0]]}))
    assert main(["gaps", "--instance", str(path)]) == 0
    out = capsys.readouterr().out
    assert "Infinity" not in out
    assert '"inf"' in out


def test_hv_command(tmp_path, capsys):
    path = tmp_path / "points.csv"
    path.write_text("obj_1,obj_2\n0.8,0.2\n0.5,0.5\n0.2,0.8\n")
    assert main(["hv", "--points", str(path), "--ref", "0,0"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(0.37)


def test_features_command(tmp_path, capsys):
    emb = tmp_path / "emb.csv"
    emb.write_text("arm_id,e_1,e_2\n0,1.0,0.0\n1,-1.0,0.0\n2,0.0,0.0\n")
    out = tmp_path / "feat.csv"
    assert main(["features", "--embeddings", str(emb), "--dim", "1", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "arm_id,phi_1"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values == pytest.approx([1.0, -1.0, 0.0])


def test_run_command_writes_outputs_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "results"
    code = main(
        ["run", "--config", str(FIXTURES / "regression_config.json"), "--out", str(out)]
    )
    assert code == 0
    assert (out / "records.csv").exists()
    assert (out / "summary.csv").exists()
    assert (out / "table.txt").exists()


def test_run_command_golden_summary_with_two_jobs(tmp_path, capsys):
    out = tmp_path / "golden"
    config = FIXTURES / "regression_config.json"
    assert main(["run", "--config", str(config), "--jobs", "2", "--out", str(out)]) == 0
    assert (out / "summary.csv").read_bytes() == (FIXTURES / "golden_summary.csv").read_bytes()


def test_g_optimal_sweep_output_does_not_depend_on_jobs_or_design_cache(tmp_path, monkeypatch, capsys):
    config = str(FIXTURES / "linear_gopt_config.json")

    def run(name, jobs=1):
        out = tmp_path / name
        assert main(["run", "--config", config, "--jobs", str(jobs), "--out", str(out)]) == 0
        return [(out / f).read_bytes() for f in ("summary.csv", "records.csv")]

    two_jobs = run("jobs2", jobs=2)
    solves = []
    solve = allocators._mirror_descent
    monkeypatch.setattr(allocators, "_mirror_descent", lambda *a: solves.append(a) or solve(*a))
    allocators._DESIGNS.clear()
    one_job = run("jobs1")
    cached_solves = len(solves)

    run_cell = harness.run_algorithm

    def run_uncached(*args):
        allocators._DESIGNS.clear()
        return run_cell(*args)

    monkeypatch.setattr(harness, "run_algorithm", run_uncached)
    uncached = run("uncached")
    assert one_job == two_jobs == uncached
    assert cached_solves < len(solves) - cached_solves  # the cached run did reuse designs


def test_near_singular_g_optimal_cells_fail_explicitly(tmp_path, capsys):
    """Round 4's design solve meets a restricted Gram of condition 8.86e12 on
    three seeds; those cells fail with that text, and seed 2 is scored."""
    out = tmp_path / "singular"
    config = str(FIXTURES / "linear_gopt_singular_config.json")
    assert main(["run", "--config", config, "--out", str(out)]) == 1
    error = (
        "NumericalError: round 4: restricted Gram matrix is numerically singular "
        "(condition 8.86e+12)"
    )
    cell = {"algorithm": "gensec-gopt", "K": 64, "b": 20}
    failures = json.loads((out / "failures.json").read_text())
    assert failures == [{**cell, "seed": seed, "error": error} for seed in (0, 1, 3)]
    assert (out / "records.csv").read_text() == (
        "run_id,seed,algorithm,K,b,metric,value\n"
        "gensec-gopt-K64-b20-s2,2,gensec-gopt,64,20,misidentified,0.0\n"
        "gensec-gopt-K64-b20-s2,2,gensec-gopt,64,20,soft_reward,4.70549751215188\n"
        "gensec-gopt-K64-b20-s2,2,gensec-gopt,64,20,soft_reward_norm,1.0\n"
    )


def test_mlp_sweep_output_does_not_depend_on_jobs(tmp_path, capsys):
    config = str(FIXTURES / "mlp_config.json")
    outputs = []
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        assert main(["run", "--config", config, "--jobs", str(jobs), "--out", str(out)]) == 0
        outputs.append([(out / f).read_bytes() for f in ("summary.csv", "records.csv")])
    assert outputs[0] == outputs[1]


def test_run_command_partial_failure_exit_code(tmp_path, capsys):
    config = {
        "environment": {
            "kind": "gaussian",
            "instance": {"means": [[0.8, 0.6], [0.9, 0.4], [0.6, 0.7], [0.2, 0.2]], "sigma": 0.2},
        },
        "tau": 0.5,
        "algorithms": [
            {"label": "ok", "algorithm": "uniform", "mode": "constrained"},
            {
                "label": "strict",
                "algorithm": "gensec",
                "allocator": "g-optimal",
                "estimator": "linear",
                "enforce_design_budget": True,
            },
        ],
        "per_arm_budgets": [3],
        "seeds": [0, 1],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "res")]) == 1
    assert (tmp_path / "res" / "failures.json").exists()


def test_run_command_missing_config_is_configuration_error(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2


def test_run_command_malformed_json_is_configuration_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"environment": {"kind": "replay",}')
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "res")]) == 2
    err = capsys.readouterr().err
    assert "broken.json" in err and "not valid JSON" in err


def test_run_command_mistyped_value_is_configuration_error(tmp_path, capsys):
    config = json.loads((FIXTURES / "regression_config.json").read_text())
    config["environment"]["path"] = str(FIXTURES / "replay_small.csv")
    config["per_arm_budgets"] = ["three"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "res")]) == 2
    assert "per_arm_budgets" in capsys.readouterr().err


def test_hv_command_rejects_non_numeric_rows_after_the_first(tmp_path, capsys):
    path = tmp_path / "points.csv"
    path.write_text("obj_1,obj_2\n0.8,0.2\n0.9,abc\n0.2,0.8\n")
    assert main(["hv", "--points", str(path), "--ref", "0,0"]) == 2
    assert "line 3" in capsys.readouterr().err
    path.write_text("0.8,0.2\nobj_1,obj_2\n")
    assert main(["hv", "--points", str(path), "--ref", "0,0"]) == 2


def test_run_command_non_object_algorithm_entry_is_configuration_error(tmp_path, capsys):
    config = json.loads((FIXTURES / "regression_config.json").read_text())
    config["environment"]["path"] = str(FIXTURES / "replay_small.csv")
    config["algorithms"] = ["gensec"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "res")]) == 2
    assert "'algorithms[0]' must be a JSON object" in capsys.readouterr().err


def test_hv_command_rejects_ragged_rows(tmp_path, capsys):
    path = tmp_path / "points.csv"
    path.write_text("obj_1,obj_2\n0.8,0.2\n0.5\n")
    assert main(["hv", "--points", str(path), "--ref", "0,0"]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "line 3 has 1 values, line 2 has 2" in err


def test_run_command_rejects_the_retired_g_optimal_kappa_key(tmp_path, capsys):
    config = json.loads((FIXTURES / "linear_gopt_config.json").read_text())
    config["environment"]["instance"] = str(FIXTURES / "linear_gopt_instance.json")
    config["algorithms"][0]["g_optimal"] = {"epsilon": 0.1, "kappa": 1 / 3}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "res")]) == 2
    assert capsys.readouterr().err == "error: unknown algorithm g_optimal keys: ['kappa']\n"
