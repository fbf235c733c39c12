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


@pytest.mark.parametrize(
    "tau, expected", [(None, "linear_gopt_gaps.json"), ("0.2", "linear_gopt_gaps_tau.json")]
)
def test_gaps_command_prints_the_recorded_report(capsys, tau, expected):
    argv = ["gaps", "--instance", str(FIXTURES / "linear_gopt_instance.json")]
    assert main(argv + (["--tau", tau] if tau else [])) == 0
    assert capsys.readouterr().out == (FIXTURES / expected).read_text()


def test_gaps_command_serialises_inf_as_string(tmp_path, capsys):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"means": [[1.0, 0.0], [0.0, 1.0]]}))
    assert main(["gaps", "--instance", str(path)]) == 0
    out = capsys.readouterr().out
    assert "Infinity" not in out
    assert '"inf"' in out


@pytest.mark.parametrize(
    "means, tau, expected",
    [
        ([[1e-160, 1.0], [0.0, 1.0]], "0.5", "inf"),
        ([[1e-200, 1.0], [0.0, 1.0]], "0.5", "inf"),
        ([[1.5e308, 1.2e308], [1.0e308, 1.4e308]], "3e307", 0.0),
    ],
)
def test_gaps_command_prints_hardness_at_the_edges_of_the_float_range_as_json(tmp_path, capsys, means, tau, expected):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"means": means}))
    assert main(["gaps", "--instance", str(path), "--tau", tau]) == 0

    def refuse(name):
        raise AssertionError(f"{name} is not JSON")

    assert json.loads(capsys.readouterr().out, parse_constant=refuse)["hardness"] == expected


@pytest.mark.parametrize(
    "means, tau", [([[1e-200, 1.0], [0.0, 1.0]], 0.5), ([[1.5e308, 1.2e308], [1.0e308, 1.4e308]], 3e307)]
)
def test_a_constrained_truth_at_the_edges_of_the_float_range_loads(means, tau):
    instance = {"means": means, "sigma": 0.1}
    data = {"environment": {"kind": "gaussian", "instance": instance}, "tau": tau, "algorithms": [{"algorithm": "gensec"}]}
    assert harness.experiment_config_from_dict(data).tau == tau


def test_hv_command(tmp_path, capsys):
    path = tmp_path / "points.csv"
    path.write_text("obj_1,obj_2\n0.8,0.2\n0.5,0.5\n0.2,0.8\n")
    assert main(["hv", "--points", str(path), "--ref", "0,0"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(0.37)


@pytest.mark.parametrize("mark", [b"", b"\xef\xbb\xbf"])
@pytest.mark.parametrize("header", [b"", b"obj_1,obj_2\n"])
def test_hv_command_reads_a_points_file_with_a_byte_order_mark(tmp_path, capsys, mark, header):
    path = tmp_path / "points.csv"
    path.write_bytes(mark + header + b"0.8,0.2\n0.5,0.5\n")
    assert main(["hv", "--points", str(path), "--ref", "0,0"]) == 0
    assert capsys.readouterr() == ("0.31000000000000005\n", "")


def test_run_command_reads_a_config_with_a_byte_order_mark(tmp_path, capsys):
    for name in ("regression_config.json", "replay_small.csv"):
        (tmp_path / name).write_bytes(b"\xef\xbb\xbf" + (FIXTURES / name).read_bytes())
    out = tmp_path / "golden"
    assert main(["run", "--config", str(tmp_path / "regression_config.json"), "--out", str(out)]) == 0
    for name in ("summary.csv", "records.csv"):
        assert (out / name).read_bytes() == (FIXTURES / f"golden_{name}").read_bytes()


def test_gaps_command_reads_an_instance_with_a_byte_order_mark(tmp_path, capsys):
    path = tmp_path / "instance.json"
    path.write_bytes(b"\xef\xbb\xbf" + (FIXTURES / "linear_gopt_instance.json").read_bytes())
    assert main(["gaps", "--instance", str(path)]) == 0
    assert capsys.readouterr() == ((FIXTURES / "linear_gopt_gaps.json").read_text(), "")


def test_features_command(tmp_path, capsys):
    emb = tmp_path / "emb.csv"
    emb.write_text("arm_id,e_1,e_2\n0,1.0,0.0\n1,-1.0,0.0\n2,0.0,0.0\n")
    out = tmp_path / "feat.csv"
    assert main(["features", "--embeddings", str(emb), "--dim", "1", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "arm_id,phi_1"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values == pytest.approx([1.0, -1.0, 0.0])


@pytest.mark.parametrize(
    "rows, message",
    [
        ("0,1.0,0.0\n1,abc,0.0\n", "line 3 is not a row of numbers: '1,abc,0.0'"),
        ("0,1.0,0.0\n1,0.0\n", "line 3 has 2 values, the header has 3"),
        ("0,1.0,0.0\n-1,0.0,1.0\n1,0.5,0.5\n", "line 3 has a negative arm_id -1"),
        ("0,1.0,0.0\n1,0.0,1.0\n1,0.5,0.5\n", "line 4 repeats arm_id 1"),
        ("0,1.0,0.0\n2,0.0,1.0\n", "is missing records for arms [1]"),
        ("0,1.0,0.0\n11,0.0,1.0\n", "is missing records for arms [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]"),
        ("0,1.0,0.0\n12,0.0,1.0\n", "is missing records for arms [1, 2, 3, 4, 5, 6, 7, 8, 9, 10] and 1 more"),
        ("0,1.0,nan\n1,0.0,1.0\n", "line 2 holds a value that is not finite: '0,1.0,nan'"),
        ("0,1.0,0.0\n1,-inf,1.0\n", "line 3 holds a value that is not finite: '1,-inf,1.0'"),
        ("0,1.0,0.0\n1,1e400,1.0\n", "line 3 holds a value that is not finite: '1,1e400,1.0'"),
    ],
)
def test_features_command_rejects_malformed_embeddings(tmp_path, capsys, rows, message):
    emb = tmp_path / "emb.csv"
    emb.write_text("arm_id,e_1,e_2\n" + rows)
    out = tmp_path / "feat.csv"
    assert main(["features", "--embeddings", str(emb), "--dim", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: embedding file {emb} {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        ("hv --points points.csv --ref 0,abc", "mopx hv: error: argument --ref: must be comma-separated numbers, got '0,abc'"),
        ("run --config config.json --jobs 0", "mopx run: error: argument --jobs: must be >= 1, got 0"),
        ("run --config config.json --jobs -2", "mopx run: error: argument --jobs: must be >= 1, got -2"),
        ("run --config config.json --jobs two", "mopx run: error: argument --jobs: invalid int value: 'two'"),
    ],
)
def test_malformed_arguments_are_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as exit:
        main(argv.split())
    assert exit.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == message


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
    assert (out / "records.csv").read_bytes() == (FIXTURES / "golden_records.csv").read_bytes()


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



def test_g_optimal_mean_sweep_scores_every_cell_at_both_job_counts(tmp_path, capsys):
    """Round 1's design leaves an arm unpulled in 8 of the 32 cells; that arm
    takes a pull from the largest count, so the sample mean scores every cell."""
    config = str(FIXTURES / "linear_gopt_mean_config.json")
    outputs = []
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        assert main(["run", "--config", config, "--jobs", str(jobs), "--out", str(out)]) == 0
        assert not (out / "failures.json").exists()
        outputs.append([(out / f).read_bytes() for f in ("summary.csv", "records.csv")])
    assert outputs[0] == outputs[1]

def test_run_command_partial_failure_exit_code(tmp_path, monkeypatch, capsys):
    config = {
        "environment": {
            "kind": "gaussian",
            "instance": {
                "means": [[0.8, 0.6], [0.9, 0.4], [0.6, 0.7], [0.2, 0.2]],
                "features": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]],
                "sigma": 0.2,
            },
        },
        "tau": 0.5,
        "algorithms": [
            {"label": "ok", "algorithm": "uniform", "mode": "constrained"},
            # a design capped at one iteration misses its target over these features in round 1
            {"label": "capped", "algorithm": "gensec", "allocator": "g-optimal"},
        ],
        "per_arm_budgets": [3],
        "seeds": [0, 1],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    monkeypatch.setattr(allocators, "MAX_DESIGN_ITERS", 1)
    allocators._DESIGNS.clear()  # its key holds no cap; a failed solve is not kept
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "res")]) == 1
    failures = json.loads((tmp_path / "res" / "failures.json").read_text())
    assert [(f["algorithm"], f["seed"]) for f in failures] == [("capped", 0), ("capped", 1)]


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


@pytest.mark.parametrize("ref", ["nan,0", "-inf,0", "0,inf"])
def test_hv_command_refuses_a_non_finite_reference(tmp_path, capsys, ref):
    path = tmp_path / "points.csv"
    path.write_text("0.8,0.2\n0.5,0.5\n")
    assert main(["hv", "--points", str(path), f"--ref={ref}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: reference must be finite\n"


def test_run_command_refuses_a_nan_hv_reference_that_json_reads(tmp_path, capsys):
    instance = {"means": [[0.8, 0.6], [0.9, 0.4]], "sigma": 0.1}
    path = tmp_path / "config.json"
    path.write_text(
        '{"environment": {"kind": "gaussian", "instance": %s}, "algorithms": [{"algorithm": "genpsi"}], '
        '"hv_reference": [NaN, 0.0]}' % json.dumps(instance)
    )
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "res")]) == 2
    assert capsys.readouterr().err == "error: pareto truth at K=2: reference must be finite\n"
    assert not (tmp_path / "res").exists()


def test_hv_command_rejects_non_numeric_rows_after_the_first(tmp_path, capsys):
    path = tmp_path / "points.csv"
    path.write_text("obj_1,obj_2\n0.8,0.2\n0.9,abc\n0.2,0.8\n")
    assert main(["hv", "--points", str(path), "--ref", "0,0"]) == 2
    assert "line 3" in capsys.readouterr().err
    path.write_text("0.8,0.2\nobj_1,obj_2\n")
    assert main(["hv", "--points", str(path), "--ref", "0,0"]) == 2


@pytest.mark.parametrize("text", ["", "obj_1,obj_2\n", "obj_1,obj_2\n\n  \n"])
def test_hv_command_rejects_a_file_without_points(tmp_path, capsys, text):
    path = tmp_path / "points.csv"
    path.write_text(text)
    assert main(["hv", "--points", str(path), "--ref", "0,0,0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path} holds no points\n"


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


_INSTANCE = {"means": [[0.8, 0.6], [0.9, 0.4], [0.6, 0.7]], "sigma": 0.1}


@pytest.mark.parametrize(
    "environment, out_dir, message",
    [
        ({"kind": "replay", "path": 5}, None, "config key 'path' must be a JSON string, got 5"),
        ({"kind": "gaussian", "instance": {"sigma": 0.1}}, None, "instance needs 'means'"),
        (
            {"kind": "gaussian", "instance": dict(_INSTANCE, sigma="abc")},
            None,
            "instance is malformed: sigma must be a JSON number, got 'abc'",
        ),
        (
            {"kind": "gaussian", "instance": "bad.json"},
            None,
            "instance file $TMP/bad.json is not valid JSON: Expecting value: line 1 column 1 (char 0)",
        ),
        ({"kind": "gaussian", "instance": _INSTANCE}, 5, "config key 'out_dir' must be a JSON string, got 5"),
        ({"kind": "replay", "path": ""}, None, "[Errno 21] Is a directory: '$TMP'"),
        (
            {"kind": "replay", "path": "bad.csv"},
            None,
            "replay file $TMP/bad.csv line 3 is not a row of numbers: '1,0.1,abc'",
        ),
        ({"kind": "linear", "instance": _INSTANCE}, None, "a linear environment needs features and theta"),
        (
            {"kind": "gaussian", "instance": dict(_INSTANCE, means=[["0.8", "0.6"], [0.9, 0.4], [0.6, 0.7]])},
            None,
            "instance is malformed: means holds '0.8', not a JSON number",
        ),
    ],
)
def test_run_command_former_crashes_exit_two_with_an_error_line(tmp_path, capsys, environment, out_dir, message):
    (tmp_path / "bad.json").write_text("not json")
    (tmp_path / "bad.csv").write_text("arm_id,obj_1,obj_2\n0,0.2,0.3\n1,0.1,abc\n")
    config = {"environment": environment, "algorithms": [{"algorithm": "genpsi"}], "seeds": [0]}
    if out_dir is not None:
        config["out_dir"] = out_dir
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message.replace('$TMP', str(tmp_path))}\n"


def test_run_command_refuses_a_tau_past_the_float_range(tmp_path, capsys):
    path = tmp_path / "config.json"
    instance = json.dumps({"kind": "gaussian", "instance": _INSTANCE})
    path.write_text(f'{{"environment": {instance}, "tau": 1{"0" * 400}, "algorithms": [{{"algorithm": "gensec"}}]}}')
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "res")]) == 2
    assert capsys.readouterr().err == "error: config key 'tau' is malformed: int too large to convert to float\n"


def test_gaps_command_rejects_an_instance_file_that_is_not_json(tmp_path, capsys):
    path = tmp_path / "instance.json"
    path.write_text('{"means": [[0.1, 0.2],]}')
    assert main(["gaps", "--instance", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: instance file {path} is not valid JSON: Expecting value: line 1 column 23 (char 22)\n"


@pytest.mark.parametrize("tau", ["nan", "-inf", "inf"])
def test_gaps_command_refuses_a_non_finite_tau(capsys, tau):
    assert main(["gaps", "--instance", str(FIXTURES / "linear_gopt_instance.json"), f"--tau={tau}"]) == 2
    assert capsys.readouterr() == ("", f"error: tau must be finite, got {float(tau)}\n")


_NOT_UTF8 = "'utf-8' codec can't decode byte 0xff in position 23: invalid start byte"


def test_run_command_refuses_a_replay_file_that_is_not_utf8(tmp_path, capsys):
    (tmp_path / "replay.csv").write_bytes(b"arm_id,obj_1,obj_2\n0,0.\xff,0.3\n1,0.1,0.2\n")
    config = {"environment": {"kind": "replay", "path": "replay.csv"}, "algorithms": [{"algorithm": "genpsi"}]}
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert main(["run", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "res")]) == 2
    assert capsys.readouterr().err == f"error: replay file {tmp_path / 'replay.csv'} is not UTF-8 text: {_NOT_UTF8}\n"


def test_run_command_refuses_a_config_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(b'{"environment": {"kind": "\xff"}}')
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "res")]) == 2
    message = "'utf-8' codec can't decode byte 0xff in position 26: invalid start byte"
    assert capsys.readouterr().err == f"error: config file {path} is not valid JSON: {message}\n"


def test_features_command_refuses_an_embedding_file_that_is_not_utf8(tmp_path, capsys):
    emb = tmp_path / "emb.csv"
    emb.write_bytes(b"arm_id,e_1,e_2\n0,1.0,0.\xff\n1,0.0,1.0\n")
    out = tmp_path / "feat.csv"
    assert main(["features", "--embeddings", str(emb), "--dim", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: embedding file {emb} is not UTF-8 text: {_NOT_UTF8}\n"
    assert not out.exists()


def test_hv_command_refuses_a_points_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "points.csv"
    path.write_bytes(b"obj_1,obj_2\n0.8,0.25\n0.\xff,0.5\n")
    assert main(["hv", "--points", str(path), "--ref", "0,0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: points file {path} is not UTF-8 text: {_NOT_UTF8}\n"


@pytest.mark.parametrize("given", ["config", "absolute", "flag"])
def test_run_command_writes_a_relative_out_dir_next_to_its_config(tmp_path, monkeypatch, capsys, given):
    config = json.loads((FIXTURES / "regression_config.json").read_text())
    config["environment"]["path"] = str(FIXTURES / "replay_small.csv")
    config["seeds"] = [101]
    config["out_dir"] = str(tmp_path / "absolute") if given == "absolute" else "res"
    (tmp_path / "configs").mkdir()
    (tmp_path / "configs" / "config.json").write_text(json.dumps(config))
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path / "elsewhere")
    flag = ["--out", "mine"] if given == "flag" else []
    assert main(["run", "--config", "../configs/config.json", *flag]) == 0
    expected = {"config": "configs/res", "absolute": "absolute", "flag": "elsewhere/mine"}[given]
    written = sorted(str(p.parent.relative_to(tmp_path)) for p in tmp_path.rglob("summary.csv"))
    assert written == [expected]
