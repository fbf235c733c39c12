"""mopx sweep benchmark: one command that generates seeded inputs, runs a
workload's sweeps through the public harness, checks the outputs and prints
every metric by name with its unit.

Usage, from the root of a checkout:

    python3 bench/run_bench.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Workloads are defined in ``workloads.py``. With ``--trace 0`` the last line
of standard output is a JSON object holding the end-to-end metrics:

- ``sweep_rel``: median time of one sweep (load config, run every cell,
  write the outputs), each sweep over a freshly generated instance;
- ``run_rel_p50`` / ``run_rel_p90``: median and 90th percentile of the time
  of one run (one grid cell), timed around ``mopx.harness.run_algorithm``;
- ``setup_s``: median over ten fresh processes, half started before and half
  after the measuring process, of the time from process start through
  import, config load and the first environment build;
- ``peak_rss_mb``: peak resident memory of the measuring process.

Sweep and run times are in ``ref`` units: multiples of the time of a fixed
reference computation timed right before and after each run (see
``sweep.reference_seconds``), because the machine's own speed drifts by more
than the bounds. Reference time is not counted in the sweep time. The raw
seconds are printed above the JSON line.

With ``--trace 1`` it holds the per-layer metrics of ``tracer.py``.
``attempted`` counts the sweeps run in the window and ``failed`` those that
raised out of the harness. Grid cells the harness records as failed are part
of a sweep's answer: they are reported as ``fail_rate`` with their error
class and round, and counted per layer. ``correct`` requires the golden
regression fixture to be reproduced byte for byte, every sweep's outputs to
pass the checks in ``checks.py``, sweep 0 to reproduce its warm-up output,
and, when traced, traced and untraced sweeps to write identical files.

``--smoke`` shrinks every workload to a few arms for a quick self-test. The
measuring runs in a child process with OPENBLAS_NUM_THREADS=1 and
OMP_NUM_THREADS=1 set in its environment; no machine setting is changed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracer import per_layer_metrics  # noqa: E402
from workloads import LAYER_EFFECTS, WORKLOADS  # noqa: E402

SETUP_PROBES = 5  # before and again after the measuring process
CHILD_TIMEOUT_S = 170.0
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
TAIL_PERCENTILE = 90


def fail(message: str) -> int:
    print(f"run_bench: {message}", file=sys.stderr)
    return 2


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def measure_setup(config_path: Path, env: dict) -> list[float]:
    """Set-up times of ``SETUP_PROBES`` fresh processes loading ``config_path``."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(config_path)],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]) - start)
    return times


def answers_changed(workload: str, seed: int, smoke: bool, sha: str) -> str:
    if smoke:
        return "unknown (smoke inputs)"
    recorded = json.loads((BENCH / "answers.json").read_text()).get(workload, {}).get(str(seed))
    if recorded is None:
        return f"unknown (no digest recorded for seed {seed})"
    return "no" if recorded == sha else "yes"


def report_cells(sweeps: list[dict], quality: dict) -> None:
    cells = sum(s.get("cells", 0) for s in sweeps)
    errors = [e for s in sweeps for e in s.get("failures", [])]
    classes = Counter(e.split(":", 1)[0] for e in errors)
    print(
        f"cells: {cells} attempted, {len(errors)} failed, "
        f"fail_rate={len(errors) / max(cells, 1):.6g} {dict(classes) or ''}"
    )
    for error in sorted(set(errors))[:5]:
        print(f"  cell failure: {error}")
    parts = [f"misid_rate={statistics.fmean(quality['misidentified']):.6g}"] if quality else []
    for name, label in (("hv_recovery", "hv_recovery_pct"), ("soft_reward_norm", "soft_reward_norm")):
        if name in quality:
            parts.append(f"{label}={statistics.fmean(quality[name]):.6g}")
    print("quality (mean over cells): " + " ".join(parts))


def report_layers(result: dict, workload) -> dict:
    layers = result["layers"]
    shares = {k[: -len(".self_share")]: v for k, v in layers.items() if k.endswith(".self_share")}
    print(f"{'layer':<14}{'calls/sweep':>14}{'self_s/sweep':>14}{'share':>8}  expected to move")
    for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(
            f"{layer:<14}{layers[layer + '.calls']:>14.1f}{layers[layer + '.self_s']:>14.6f}"
            f"{share:>8.1%}  {LAYER_EFFECTS[layer]}"
        )
    dominant = max(shares, key=shares.get)
    verdict = "confirmed" if dominant in workload.dominant else "NOT confirmed"
    print(f"dominant layer: {dominant} (predicted {'+'.join(workload.dominant)}): {verdict}")
    traced_s = sum(busy for _, busy in result["bindings"].values())
    print("largest self times by call site (binding = where the caller looks the function up):")
    for binding, (calls, busy) in sorted(result["bindings"].items(), key=lambda kv: -kv[1][1])[:5]:
        print(f"  {binding:<48}{calls:>10} calls {busy / traced_s:>8.1%}")
    print(f"design failures by class: {result['design_failures'] or 'none'}")
    print(f"tracing overhead: traced sweep time / untraced = {layers['trace.overhead_ratio']:.4f}")
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for a quick self-test")
    args = parser.parse_args(argv)

    for needed in ("src/mopx/harness.py", "fixtures/regression_config.json"):
        if not (ROOT / needed).is_file():
            return fail(f"{needed} not found: run from a full checkout of the repository")
    workload = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ, **THREAD_PINS)

    probe_config = workload.generate(args.seed, 0, work / "probe", args.smoke).config_path
    try:
        setup = [] if args.trace else measure_setup(probe_config, env)
        child = [
            sys.executable, str(BENCH / "sweep.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--workdir", str(work),
        ] + (["--smoke"] if args.smoke else [])
        subprocess.run(child, env=env, timeout=CHILD_TIMEOUT_S, check=True)
        setup += [] if args.trace else measure_setup(probe_config, env)
    except subprocess.CalledProcessError as err:
        return fail(f"{err.cmd[1]} failed with exit code {err.returncode}")
    except subprocess.TimeoutExpired:
        return fail("measuring process timed out and was killed")
    result = json.loads((work / "result.json").read_text())

    sweeps = result["sweeps"]
    ok = [s for s in sweeps if "error" not in s]
    if not ok:
        return fail("every sweep raised:\n" + sweeps[0]["error"])
    problems = [p for s in ok for p in s["problems"]]
    deterministic = ok[0]["index"] == 0 and ok[0]["digest"] == result["warmup_digest"]
    traced_equal = all(s["traced_equals_untraced"] for s in ok) if args.trace else True
    correct = result["golden_ok"] and not problems and deterministic and traced_equal

    print(
        f"mopx sweep benchmark: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}{' smoke' if args.smoke else ''}"
    )
    print(
        "environment: " + json.dumps(result["environment"])
        + " (thread pins set by the benchmark for its child processes)"
    )
    print(
        f"checks: golden={'ok' if result['golden_ok'] else 'FAILED'} "
        f"outputs={'ok' if not problems else 'FAILED'} "
        f"deterministic={'ok' if deterministic else 'FAILED'}"
        + (f" traced_equals_untraced={'ok' if traced_equal else 'FAILED'}" if args.trace else "")
    )
    for problem in problems[:10]:
        print(f"  problem: {problem}")
    for sweep in sweeps:
        if "error" in sweep:
            print(f"  sweep {sweep['index']} raised: {sweep['error'].strip().splitlines()[-1]}")
    sha = result["answers_digest"]
    print(
        f"answers_changed={answers_changed(args.workload, args.seed, args.smoke, sha)} "
        f"(sweep 0 summary.csv sha256 {sha})"
    )
    report_cells(ok, result["quality"])

    if args.trace:
        layers = report_layers(result, workload)
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in per_layer_metrics()}
        print(f"spans: {work / 'spans.csv'}")
    else:
        runs = [t for s in ok for t in s["run_seconds"]]
        refs = [r for s in ok for r in s["reference_seconds"]]
        # run i of a sweep lies between its references i and i + 1
        rel_runs = [
            t / ((s["reference_seconds"][i] + s["reference_seconds"][i + 1]) / 2)
            for s in ok
            for i, t in enumerate(s["run_seconds"])
        ]
        rel_sweeps = [s["seconds"] / statistics.fmean(s["reference_seconds"]) for s in ok]
        beyond = len(runs) - round(len(runs) * TAIL_PERCENTILE / 100)
        print(f"{len(ok)} sweeps timed; {len(runs)} runs timed, {beyond} beyond p{TAIL_PERCENTILE}")
        print(
            f"raw seconds: sweep_s={statistics.median(s['seconds'] for s in ok):.6g} "
            f"run_s_p50={statistics.median(runs):.6g} "
            f"run_s_p{TAIL_PERCENTILE}={percentile(runs, TAIL_PERCENTILE):.6g} "
            f"reference_s={statistics.median(refs):.6g} (min {min(refs):.6g}, max {max(refs):.6g})"
        )
        print(f"setup_s samples: {[round(t, 4) for t in setup]}")
        values = {
            "sweep_rel": (statistics.median(rel_sweeps), "ref"),
            "run_rel_p50": (statistics.median(rel_runs), "ref"),
            f"run_rel_p{TAIL_PERCENTILE}": (percentile(rel_runs, TAIL_PERCENTILE), "ref"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
        for name, (value, unit) in values.items():
            print(f"{name} = {value:.6g} {unit}")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}

    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": len(sweeps),
                "failed": len(sweeps) - len(ok),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
