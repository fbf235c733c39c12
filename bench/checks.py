"""Output checks that do not trust the program: each sweep's CSV files are
re-read with the csv module and held against the generated ground truth.

- every grid cell appears exactly once, as metric records or as a failure;
- ``summary.csv`` is the mean and 1.96-standard-error half-width of
  ``records.csv``, recomputed here;
- Pareto cells: ``hv_recovery`` is ``100 * hv / hv(true front)``, with the true
  front and its hypervolume computed here by brute force, and a cell that
  found the front exactly recovers 100%;
- constrained cells: ``soft_reward`` is the true primary mean of some arm (or
  0), ``soft_reward_norm`` is it divided by the best feasible primary mean,
  and a correctly identified arm scores exactly 1.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
from pathlib import Path

import numpy as np

REL_TOL = 1e-9


def pareto_front(means: np.ndarray) -> list[int]:
    """Brute-force non-dominated rows (>= everywhere and > somewhere dominates)."""
    k = len(means)
    return [
        x
        for x in range(k)
        if not any(
            all(means[y] >= means[x]) and any(means[y] > means[x]) for y in range(k) if y != x
        )
    ]


def hypervolume_2d(points: np.ndarray, reference) -> float:
    """Area dominated by ``points`` above ``reference``, by sorting on the first axis."""
    total, best_y = 0.0, reference[1]
    for x, y in sorted(((float(p[0]), float(p[1])) for p in points), reverse=True):
        if y > best_y:
            total += (x - reference[0]) * (y - best_y)
            best_y = y
    return total


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def check_sweep(out_dir: Path, inputs, expected_run_ids: set[str]) -> list[str]:
    """Problems found in one sweep's outputs; an empty list means it passed."""
    problems: list[str] = []
    with (out_dir / "records.csv").open(newline="") as handle:
        records = list(csv.DictReader(handle))
    with (out_dir / "summary.csv").open(newline="") as handle:
        summary = list(csv.DictReader(handle))
    failures_path = out_dir / "failures.json"
    failures = json.loads(failures_path.read_text()) if failures_path.exists() else []

    by_run: dict[str, dict[str, float]] = {}
    for rec in records:
        by_run.setdefault(rec["run_id"], {})[rec["metric"]] = float(rec["value"])
    failed_ids = {f"{f['algorithm']}-K{f['K']}-b{f['b']}-s{f['seed']}" for f in failures}
    if set(by_run) | failed_ids != expected_run_ids or set(by_run) & failed_ids:
        problems.append("grid cells missing, duplicated or unexpected in records/failures")

    truth = inputs.true_means
    if inputs.mode == "pareto":
        ref = inputs.hv_reference
        hv_true = hypervolume_2d(truth[pareto_front(truth)], ref)
        for run_id, metrics in by_run.items():
            if set(metrics) != {"hv", "hv_recovery", "misidentified"}:
                problems.append(f"{run_id}: unexpected metric set {sorted(metrics)}")
                continue
            if not _close(metrics["hv_recovery"], 100.0 * metrics["hv"] / hv_true):
                problems.append(f"{run_id}: hv_recovery disagrees with hv / true-front hv")
            if metrics["misidentified"] not in (0.0, 1.0):
                problems.append(f"{run_id}: misidentified is not 0/1")
            elif metrics["misidentified"] == 0.0 and not _close(metrics["hv_recovery"], 100.0):
                problems.append(f"{run_id}: exact front but recovery below 100%")
    else:
        tau = inputs.tau
        feasible = np.flatnonzero(truth[:, 1] >= tau)
        star = int(feasible[np.argmax(truth[feasible, 0])])
        primaries = {float(v) for v in truth[:, 0]} | {0.0}
        for run_id, metrics in by_run.items():
            if set(metrics) != {"soft_reward", "soft_reward_norm", "misidentified"}:
                problems.append(f"{run_id}: unexpected metric set {sorted(metrics)}")
                continue
            if metrics["soft_reward"] not in primaries:
                problems.append(f"{run_id}: soft_reward is no arm's true primary mean")
            if not _close(metrics["soft_reward_norm"], metrics["soft_reward"] / truth[star, 0]):
                problems.append(f"{run_id}: soft_reward_norm disagrees with the true optimum")
            if metrics["misidentified"] not in (0.0, 1.0):
                problems.append(f"{run_id}: misidentified is not 0/1")
            elif metrics["misidentified"] == 0.0 and metrics["soft_reward"] != truth[star, 0]:
                problems.append(f"{run_id}: correct arm but soft_reward is not the optimum")

    groups: dict[tuple, list[float]] = {}
    for rec in records:
        key = (rec["algorithm"], rec["K"], rec["b"], rec["metric"])
        groups.setdefault(key, []).append(float(rec["value"]))
    if len(summary) != len(groups):
        problems.append("summary.csv rows do not match the record groups")
    for row in summary:
        values = groups.get((row["algorithm"], row["K"], row["b"], row["metric"]), [])
        n = len(values)
        if n != int(row["n_seeds"]) or not _close(float(row["mean"]), math.fsum(values) / max(n, 1)):
            problems.append(f"summary {row['metric']}: mean or n_seeds disagrees with records")
        elif n >= 2:
            half = 1.96 * statistics.stdev(values) / math.sqrt(n)
            if not _close(float(row["ci_half_width"]), half):
                problems.append(f"summary {row['metric']}: CI half-width disagrees with records")
    return problems


def quality(out_dir: Path) -> dict[str, list[float]]:
    """Per-cell quality values of one sweep, by metric name."""
    values: dict[str, list[float]] = {}
    with (out_dir / "records.csv").open(newline="") as handle:
        for rec in csv.DictReader(handle):
            values.setdefault(rec["metric"], []).append(float(rec["value"]))
    return values
