"""Measuring process of the mopx sweep benchmark.

``run_bench.py`` starts this script in a fresh interpreter with BLAS and
OpenMP pinned to one thread. It runs the workload's sweeps through the public
harness path that ``mopx run`` takes (``load_experiment_config`` ->
``run_experiment(jobs=1)`` -> ``write_outputs``) until ``--seconds`` have
passed, checks every sweep's outputs, and writes ``result.json`` to the work
directory.

Untraced (``--trace 0``): the only wrapper is ``RunTimer`` around
``mopx.harness.run_algorithm``, which gives the per-run times and the
reference timings they are divided by. Traced
(``--trace 1``): each instance is swept once untraced and once with every
layer boundary wrapped, in alternating order; the two must write identical
files, and their time ratio is the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from checks import check_sweep, quality  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OUTPUT_FILES = ("summary.csv", "records.csv", "failures.json")


def import_harness():
    """The harness module of the checkout under test, never an installed copy."""
    import mopx.harness

    origin = Path(mopx.harness.__file__).resolve()
    if origin.parent.parent != (ROOT / "src").resolve():
        raise RuntimeError(f"mopx was imported from {origin}, not from the checkout's src/")
    return mopx.harness


def environment_info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((ln.split(":", 1)[1].strip() for ln in handle if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "jobs": 1,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def digest(out_dir: Path, names=OUTPUT_FILES) -> str:
    sha = hashlib.sha256()
    for name in names:
        path = out_dir / name
        sha.update(name.encode() + b"\0" + (path.read_bytes() if path.exists() else b"-") + b"\0")
    return sha.hexdigest()


def reference_seconds() -> float:
    """Time of a fixed computation with a sweep's mix of work: an
    interpreter-bound loop, small LAPACK calls, and arrays built from lists
    of small arrays.

    The shared machines this runs on switch speed by half or more, within
    seconds as well as over minutes. Timing this next to every run and
    dividing the run's time by it takes that drift out of the reported
    metrics; the raw seconds are reported alongside.
    """
    rows = [np.full(4, float(i)) for i in range(600)]
    start = time.perf_counter()
    total = 0
    for i in range(30_000):
        total += i * i
    a = np.eye(6)
    for _ in range(250):
        a = np.linalg.inv(a @ a.T + np.eye(6))
    for _ in range(20):
        total += int(np.array(rows).sum())
    return time.perf_counter() - start


class RunTimer:
    """The one wrapper of an untraced sweep, around ``mopx.harness.run_algorithm``.

    It times each run, and times the reference computation right before it,
    outside the run's own time; ``reference_wall`` is the time those
    references added to the sweep. Leaving the context takes one more
    reference after the last run, so run ``i`` lies between ``references[i]``
    and ``references[i + 1]``.
    """

    def __init__(self, harness) -> None:
        self.harness = harness
        self.runs: list[float] = []
        self.references: list[float] = []
        self.reference_wall = 0.0

    @contextmanager
    def installed(self):
        original = self.harness.run_algorithm
        clock = time.perf_counter

        def timed(*args, **kwargs):
            start = clock()
            self.references.append(reference_seconds())
            begin = clock()
            self.reference_wall += begin - start
            try:
                return original(*args, **kwargs)
            finally:
                self.runs.append(clock() - begin)

        self.harness.run_algorithm = timed
        try:
            yield self
        finally:
            self.harness.run_algorithm = original
        self.references.append(reference_seconds())


def run_sweep(harness, config_path: Path, out_dir: Path) -> tuple[float, list[dict]]:
    """One sweep as ``mopx run`` does it; returns its wall time and cell failures."""
    shutil.rmtree(out_dir, ignore_errors=True)
    start = time.perf_counter()
    config = harness.load_experiment_config(config_path)
    outcome = harness.run_experiment(config, jobs=1)
    harness.write_outputs(out_dir, outcome)
    return time.perf_counter() - start, outcome.failures


def golden_check(harness, out_dir: Path) -> bool:
    fixtures = ROOT / "fixtures"
    run_sweep(harness, fixtures / "regression_config.json", out_dir)
    return (out_dir / "summary.csv").read_bytes() == (fixtures / "golden_summary.csv").read_bytes()


def expected_run_ids(config_path: Path) -> set[str]:
    config = json.loads(config_path.read_text())
    return {
        f"{alg['label']}-K{k}-b{b}-s{s}"
        for alg in config["algorithms"]
        for k in config["k_values"]
        for b in config["per_arm_budgets"]
        for s in config["seeds"]
    }


def measure(args) -> dict:
    harness = import_harness()
    workload = WORKLOADS[args.workload]
    work = Path(args.workdir)
    result: dict = {"environment": environment_info(), "sweeps": []}
    result["golden_ok"] = golden_check(harness, work / "golden")

    # Untimed warm-up on sweep 0's inputs: fills lazy imports and caches, and
    # gives the reference output for the determinism check and answer digest.
    inputs = workload.generate(args.seed, 0, work / "in", args.smoke)
    run_sweep(harness, inputs.config_path, work / "warmup")
    result["warmup_digest"] = digest(work / "warmup")
    result["answers_digest"] = digest(work / "warmup", ("summary.csv",))

    tracer = Tracer()
    quality_values: dict[str, list[float]] = {}
    deadline = time.perf_counter() + args.seconds
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        sweep: dict = {"index": index}
        result["sweeps"].append(sweep)
        try:
            inputs = workload.generate(args.seed, index, work / "in", args.smoke)
            if args.trace:
                traced_first = index % 2 == 1
                for traced in (traced_first, not traced_first):
                    out = work / ("traced" if traced else "untraced")
                    if traced:
                        tracer.begin_sweep()
                        with tracer.installed():
                            sweep["traced_seconds"], _ = run_sweep(harness, inputs.config_path, out)
                    else:
                        sweep["seconds"], failures = run_sweep(harness, inputs.config_path, out)
                out = work / "untraced"
                sweep["traced_equals_untraced"] = digest(out) == digest(work / "traced")
            else:
                out = work / "untraced"
                timer = RunTimer(harness)
                with timer.installed():
                    seconds, failures = run_sweep(harness, inputs.config_path, out)
                sweep["seconds"] = seconds - timer.reference_wall
                sweep["run_seconds"] = timer.runs
                sweep["reference_seconds"] = timer.references
            sweep["digest"] = digest(out)
            sweep["failures"] = [f["error"] for f in failures]
            run_ids = expected_run_ids(inputs.config_path)
            sweep["cells"] = len(run_ids)
            sweep["problems"] = check_sweep(out, inputs, run_ids)
            for name, values in quality(out).items():
                quality_values.setdefault(name, []).extend(values)
        except Exception:  # a crashed sweep is a failed operation; keep measuring
            sweep["error"] = traceback.format_exc()
        index += 1

    result["quality"] = quality_values
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        done = [s for s in result["sweeps"] if "traced_seconds" in s and "error" not in s]
        traced_s = sum(s["traced_seconds"] for s in done)
        result["layers"] = tracer.summary(max(len(done), 1), traced_s or 1.0)
        result["layers"]["trace.overhead_ratio"] = traced_s / (sum(s["seconds"] for s in done) or 1.0)
        result["design_failures"] = dict(tracer.design_failures)
        result["bindings"] = tracer.binding_stats()
        tracer.write_spans(work / "spans.csv")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    result = measure(args)
    (Path(args.workdir) / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
