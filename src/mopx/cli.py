"""Command-line entry points.

Subcommands: ``run`` (experiment sweep), ``schedule`` (round plan as JSON),
``gaps`` (gap report for an instance), ``hv`` (hypervolume of a point file),
``features`` (PCA feature extraction). Exit codes: 0 success, 1 partial cell
failures in a sweep, 2 configuration error or malformed argument.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .core import ConfigurationError, MopxError
from .environments import load_instance_json
from .features import load_embeddings_csv, pca_reduce, write_features_csv
from .gaps import _json_num, constrained_gap_report, hardness, pareto_gap_report
from .harness import load_experiment_config, run_experiment, write_outputs
from .metrics import hypervolume
from .schedulers import SCHEDULER_NAMES, make_schedule


def _cmd_run(args) -> int:
    config = load_experiment_config(args.config)
    outcome = run_experiment(config, jobs=args.jobs)
    out_dir = args.out or config.out_dir or "results"
    paths = write_outputs(out_dir, outcome)
    print(f"wrote {len(outcome.records)} records to {paths['records']}")
    if outcome.failures:
        print(f"{len(outcome.failures)} cell(s) failed; see {paths['failures']}", file=sys.stderr)
        return 1
    return 0


def _cmd_schedule(args) -> int:
    schedule = make_schedule(args.scheduler, args.k, args.budget)
    print(json.dumps(schedule.to_dict(), indent=2))
    return 0


def _cmd_gaps(args) -> int:
    instance = load_instance_json(args.instance)
    if args.tau is not None:
        report = constrained_gap_report(instance.means, args.tau)
        payload = report.to_dict()
        payload["hardness"] = _json_num(hardness(instance.means, args.tau))
    else:
        payload = pareto_gap_report(instance.means).to_dict()
    print(json.dumps(payload, indent=2))
    return 0


def _load_points(path: str) -> np.ndarray:
    rows = []
    first = 0  # line number of the first row, which fixes the row width
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as err:
        raise ConfigurationError(f"points file {path} is not UTF-8 text: {err}") from None
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            row = [float(v) for v in line.split(",")]
        except ValueError:
            if number == 1:
                continue  # header line
            raise ConfigurationError(
                f"{path} line {number} is not a row of numbers: {line!r}"
            ) from None
        if not rows:
            first = number
        elif len(row) != len(rows[0]):
            raise ConfigurationError(
                f"{path} line {number} has {len(row)} values, line {first} has {len(rows[0])}"
            )
        rows.append(row)
    if not rows:
        raise ConfigurationError(f"{path} holds no points")
    return np.array(rows, dtype=float)


def _cmd_hv(args) -> int:
    points = _load_points(args.points)
    print(repr(hypervolume(points, args.ref)))
    return 0


def _cmd_features(args) -> int:
    table = load_embeddings_csv(args.embeddings)
    feats, _, _ = pca_reduce(table, args.dim)
    write_features_csv(args.out, feats)
    print(f"wrote {feats.shape[0]} x {feats.shape[1]} features to {args.out}")
    return 0


def _numbers(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be comma-separated numbers, got {text!r}") from None


def _workers(text: str) -> int:
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {jobs}")
    return jobs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mopx", description="Multi-objective pure-exploration bandit toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment sweep from a JSON config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--jobs", type=_workers, default=1)
    p_run.add_argument("--out", default=None)
    p_run.set_defaults(func=_cmd_run)

    p_sched = sub.add_parser("schedule", help="print a round plan as JSON")
    p_sched.add_argument("--k", type=int, required=True)
    p_sched.add_argument("--budget", type=int, required=True)
    p_sched.add_argument("--scheduler", default="sh", choices=list(SCHEDULER_NAMES))
    p_sched.set_defaults(func=_cmd_schedule)

    p_gaps = sub.add_parser("gaps", help="print a gap report for an instance file")
    p_gaps.add_argument("--instance", required=True)
    p_gaps.add_argument("--tau", type=float, default=None)
    p_gaps.set_defaults(func=_cmd_gaps)

    p_hv = sub.add_parser("hv", help="hypervolume of a CSV point file")
    p_hv.add_argument("--points", required=True)
    p_hv.add_argument("--ref", type=_numbers, default="0,0")
    p_hv.set_defaults(func=_cmd_hv)

    p_feat = sub.add_parser("features", help="PCA-reduce an embedding table")
    p_feat.add_argument("--embeddings", required=True)
    p_feat.add_argument("--dim", type=int, required=True)
    p_feat.add_argument("--out", required=True)
    p_feat.set_defaults(func=_cmd_features)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MopxError, OSError) as err:  # OSError: a missing or unreadable file
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
