"""Tests of the benchmark itself (not collected by the repository's test suite).

Run with: python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import sweep
from tracer import BINDINGS, Tracer, _resolve, per_layer_metrics, self_times
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] holds b [1, 4] and d [5, 9]; b holds c [2, 3]
    spans = [
        (0, 0.0, 10.0, -1, 0),
        (1, 1.0, 4.0, 0, 0),
        (2, 2.0, 3.0, 1, 0),
        (3, 5.0, 9.0, 0, 0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_every_wrapped_binding_fires_on_some_workload(tmp_path):
    harness = sweep.import_harness()
    originals = [_resolve(b)[2] for _, _, b in BINDINGS]
    tracer = Tracer()
    for name, workload in WORKLOADS.items():
        inputs = workload.generate(7, 0, tmp_path / name / "in", smoke=True)
        tracer.begin_sweep()
        with tracer.installed():
            sweep.run_sweep(harness, inputs.config_path, tmp_path / name / "out")
    silent = [b for b, (calls, _) in tracer.binding_stats().items() if calls == 0]
    assert not silent, f"wrappers that never fired: {silent}"
    assert [_resolve(b)[2] for _, _, b in BINDINGS] == originals, "wrappers were not removed"
    parents = {span[3] for span in tracer.spans}
    assert all(-1 <= p < len(tracer.spans) for p in parents)


def test_design_solver_failures_are_counted_by_class():
    import numpy as np
    from mopx import algorithms
    from mopx.core import NumericalError

    tracer = Tracer()
    # a second basis row 1e-7 off the first makes the restricted Gram singular
    features = np.array([[1.0, 0.0], [1.0, 1e-7]])
    with tracer.installed(), pytest.raises(NumericalError):
        algorithms.solve_g_optimal(features, 0.1)
    assert dict(tracer.design_failures) == {"NumericalError": 1}
    assert tracer.summary(1, 1.0)["allocators.design_failures"] == 1


def test_benchmark_json_names_every_metric_and_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["per_layer"] == per_layer_metrics()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]


def _last_json_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric_and_passes_its_checks(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, str(BENCH / "run_bench.py"), "--workload", "linear-gopt", "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, check=True, cwd=ROOT,
    )
    result = _last_json_line(done.stdout)
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run_bench.py", "--workload", "mlp-sh", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert done.stdout == ""
