"""Experiment orchestration: config expansion, seeded runs, aggregation, output.

A config describes an environment source, a list of algorithm variants, and a
sweep grid over candidate-set sizes, per-arm budgets and seeds. Every grid
cell runs in isolation (fresh environment, its own seed-keyed random stream),
so results are identical whatever the execution order or parallelism. Raw
per-run metric records and mean +/- 95% confidence-interval summaries are
written as CSV, plus a plain-text table grouped like the usual reporting
format (rows = method, columns = per-arm budget).
"""

from __future__ import annotations

import csv
import json
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

import numpy as np

from .algorithms import GENPSI, GENSEC, UNIFORM, RunConfig, RunResult, run_algorithm
from .core import ConfigurationError, Instance
from .environments import (
    GaussianEnvironment,
    LinearEnvironment,
    ReplayEnvironment,
    ReplayTable,
    instance_from_dict,
    load_instance_json,
    load_replay_csv,
)
from .gaps import best_feasible_arm, pareto_front
from .metrics import hv_recovery, hypervolume, soft_constrained_reward

Z_95 = 1.96


@dataclass(frozen=True)
class MetricRecord:
    run_id: str
    seed: int
    algorithm: str
    n_arms: int
    per_arm_budget: int
    metric: str
    value: float

    def sort_key(self):
        return (self.algorithm, self.n_arms, self.per_arm_budget, self.seed, self.metric)


@dataclass(frozen=True)
class SummaryRow:
    algorithm: str
    n_arms: int
    per_arm_budget: int
    metric: str
    mean: float
    ci_half_width: float | None
    n_seeds: int


@dataclass(frozen=True)
class EnvironmentSource:
    """Recipe for building fresh, optionally arm-subsetted environments."""

    kind: str
    instance: Instance | None = None
    table: ReplayTable | None = None
    replay_mode: str = "iid"

    @property
    def n_arms(self) -> int:
        return self.instance.n_arms if self.instance is not None else self.table.n_arms

    def _sub_instance(self, n_arms: int) -> Instance:
        inst = self.instance
        if n_arms == inst.n_arms:
            return inst
        if not 1 <= n_arms <= inst.n_arms:
            raise ConfigurationError(f"cannot take K={n_arms} arms from a {inst.n_arms}-arm instance")
        feats = inst.features[:n_arms] if inst.features is not None else None
        return Instance(means=inst.means[:n_arms], sigma=inst.sigma, features=feats, theta=inst.theta)

    def build(self, n_arms: int):
        if self.kind == "gaussian":
            return GaussianEnvironment(self._sub_instance(n_arms))
        if self.kind == "linear":
            return LinearEnvironment(self._sub_instance(n_arms))
        return ReplayEnvironment(self.table.subset(n_arms), mode=self.replay_mode)

    def true_means(self, n_arms: int) -> np.ndarray:
        if self.kind == "replay":
            return self.table.subset(n_arms).means()
        return self._sub_instance(n_arms).means


def environment_source_from_dict(data: dict, base_dir: Path | None = None) -> EnvironmentSource:
    base = base_dir or Path.cwd()
    kind = data.get("kind")
    if kind in ("gaussian", "linear"):
        raw = data.get("instance")
        if raw is None:
            raise ConfigurationError("gaussian/linear environments need an 'instance'")
        instance = load_instance_json(base / raw) if isinstance(raw, str) else instance_from_dict(raw)
        return EnvironmentSource(kind=kind, instance=instance)
    if kind == "replay":
        path = data.get("path")
        if path is None:
            raise ConfigurationError("replay environments need a 'path'")
        brevity = data.get("brevity")
        if brevity is not None:
            brevity = (float(brevity["tau_low"]), float(brevity["tau_high"]))
        table = load_replay_csv(base / path, brevity=brevity)
        return EnvironmentSource(kind=kind, table=table, replay_mode=data.get("mode", "iid"))
    raise ConfigurationError(f"unknown environment kind {kind!r}")


_DEFAULT_ALGORITHMS = (
    {"label": "ege", "algorithm": GENPSI, "scheduler": "successive_rejects"},
    {"label": "uniform", "algorithm": UNIFORM, "mode": "pareto"},
)

_VARIANT_KEYS = {
    "label",
    "algorithm",
    "scheduler",
    "allocator",
    "estimator",
    "mode",
    "eliminator",
    "g_optimal",
    "mlp",
    "enforce_design_budget",
    "redistribute_leftover",
}

_NESTED_KEYS = {
    "g_optimal": {"epsilon", "kappa"},
    "mlp": {"hidden", "lambda", "iters", "step_size", "data_scope"},
}

_CONFIG_KEYS = {
    "environment",
    "algorithms",
    "k_values",
    "per_arm_budgets",
    "seeds",
    "tau",
    "hv_reference",
    "out_dir",
}

_ENVIRONMENT_KEYS = {"kind", "instance", "path", "mode", "brevity"}


def _reject_unknown(section: str, data: dict, known: set[str]) -> None:
    unknown = set(data) - known
    if unknown:
        raise ConfigurationError(f"unknown {section} keys: {sorted(unknown)}")


@dataclass(frozen=True)
class ExperimentConfig:
    environment: EnvironmentSource
    algorithms: tuple[dict, ...]
    k_values: tuple[int, ...]
    per_arm_budgets: tuple[int, ...]
    seeds: tuple[int, ...]
    tau: float | None = None
    hv_reference: tuple[float, ...] | None = None
    out_dir: str | None = None

    def __post_init__(self) -> None:
        if not self.seeds:
            raise ConfigurationError("seed list must be non-empty")
        for variant in self.algorithms:
            _reject_unknown("algorithm config", variant, _VARIANT_KEYS)
            for section, known in _NESTED_KEYS.items():
                _reject_unknown(f"algorithm {section}", variant.get(section, {}), known)

    def cells(self) -> list[tuple[dict, int, int, int]]:
        return [
            (variant, k, b, seed)
            for variant, k, b, seed in product(
                self.algorithms, self.k_values, self.per_arm_budgets, self.seeds
            )
        ]


def experiment_config_from_dict(data: dict, base_dir: Path | None = None) -> ExperimentConfig:
    if "environment" not in data:
        raise ConfigurationError("experiment config needs an 'environment' section")
    _reject_unknown("experiment config", data, _CONFIG_KEYS)
    _reject_unknown("environment", data["environment"], _ENVIRONMENT_KEYS)
    source = environment_source_from_dict(data["environment"], base_dir)
    algorithms = tuple(dict(variant) for variant in data.get("algorithms", _DEFAULT_ALGORITHMS))
    k_values = tuple(int(k) for k in data.get("k_values", [source.n_arms]))
    budgets = tuple(int(b) for b in data.get("per_arm_budgets", [5]))
    seeds = tuple(int(s) for s in data.get("seeds", range(20)))
    reference = data.get("hv_reference")
    return ExperimentConfig(
        environment=source,
        algorithms=algorithms,
        k_values=k_values,
        per_arm_budgets=budgets,
        seeds=seeds,
        tau=data.get("tau"),
        hv_reference=tuple(float(v) for v in reference) if reference is not None else None,
        out_dir=data.get("out_dir"),
    )


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    return experiment_config_from_dict(json.loads(path.read_text()), base_dir=path.parent)


def _label(variant: dict) -> str:
    return variant.get("label", variant.get("algorithm", "run"))


def _run_config(variant: dict, tau: float | None, per_arm_budget: int, seed: int) -> RunConfig:
    g_opt = variant.get("g_optimal", {})
    mlp = variant.get("mlp", {})
    return RunConfig(
        algorithm=variant.get("algorithm", GENSEC),
        scheduler=variant.get("scheduler", "sequential_halving"),
        allocator=variant.get("allocator", "uniform"),
        estimator=variant.get("estimator", "mean"),
        mode=variant.get("mode"),
        tau=tau,
        per_arm_budget=per_arm_budget,
        seed=seed,
        eliminator=variant.get("eliminator", "ege"),
        g_optimal_epsilon=float(g_opt.get("epsilon", 0.1)),
        g_optimal_kappa=float(g_opt.get("kappa", 1.0 / 3.0)),
        mlp_hidden=int(mlp.get("hidden", 30)),
        mlp_lambda=float(mlp.get("lambda", 1e-4)),
        mlp_iters=int(mlp.get("iters", 2000)),
        mlp_step_size=float(mlp.get("step_size", 1e-2)),
        mlp_data_scope=mlp.get("data_scope", "cumulative"),
        enforce_design_budget=bool(variant.get("enforce_design_budget", False)),
        redistribute_leftover=bool(variant.get("redistribute_leftover", False)),
    )


def _cell_mode(variant: dict) -> str:
    algorithm = variant.get("algorithm", GENSEC)
    if algorithm == GENSEC:
        return "constrained"
    if algorithm == GENPSI:
        return "pareto"
    mode = variant.get("mode")
    if mode not in ("constrained", "pareto"):
        raise ConfigurationError("uniform baseline needs mode 'constrained' or 'pareto'")
    return mode


def cell_metrics(
    result: RunResult,
    mode: str,
    true_means: np.ndarray,
    tau: float | None,
    reference=None,
) -> list[tuple[str, float]]:
    """Score one run at the true means."""
    if mode == "constrained":
        star = best_feasible_arm(true_means, tau)
        mu1_star = float(true_means[star, 0])
        raw, norm = soft_constrained_reward(
            true_means[result.selected_arm], tau, mu1_star if mu1_star > 0 else None
        )
        rows = [("soft_reward", raw)]
        if norm is not None:
            rows.append(("soft_reward_norm", norm))
        rows.append(("misidentified", float(result.selected_arm != star)))
        return rows
    front = pareto_front(true_means)
    selected = sorted(result.selected_set)
    ref = np.zeros(true_means.shape[1]) if reference is None else np.asarray(reference, dtype=float)
    volume = hypervolume(true_means[selected], ref) if selected else 0.0
    recovery = hv_recovery(selected, front, true_means, ref)
    return [
        ("hv", volume),
        ("hv_recovery", recovery),
        ("misidentified", float(sorted(front) != selected)),
    ]


def _execute_cell(args) -> list[MetricRecord]:
    config, variant, n_arms, budget, seed = args
    mode = _cell_mode(variant)
    env = config.environment.build(n_arms)
    run_cfg = _run_config(variant, config.tau, budget, seed)
    result = run_algorithm(run_cfg, env)
    truth = config.environment.true_means(n_arms)
    label = _label(variant)
    run_id = f"{label}-K{n_arms}-b{budget}-s{seed}"
    return [
        MetricRecord(
            run_id=run_id,
            seed=seed,
            algorithm=label,
            n_arms=n_arms,
            per_arm_budget=budget,
            metric=name,
            value=float(value),
        )
        for name, value in cell_metrics(result, mode, truth, config.tau, config.hv_reference)
    ]


@dataclass
class ExperimentOutcome:
    records: list[MetricRecord] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def run_experiment(config: ExperimentConfig, jobs: int = 1) -> ExperimentOutcome:
    """Execute every grid cell; failures are recorded and the sweep continues."""
    cells = [(config, variant, k, b, seed) for variant, k, b, seed in config.cells()]
    outcome = ExperimentOutcome()
    if jobs > 1:
        _run_parallel(outcome, cells, jobs)
    else:
        for cell in cells:
            _collect(outcome, cell, lambda c=cell: _execute_cell(c))
    outcome.records.sort(key=MetricRecord.sort_key)
    return outcome


def _run_parallel(outcome: ExperimentOutcome, cells: list, jobs: int) -> None:
    """Run ``cells`` in worker processes, surviving workers that die.

    A worker that dies breaks its pool and every cell still pending in it.
    Those cells run again in a one-worker pool, which runs them in order, so
    the first cell to break it is the one that crashed: it is recorded as a
    failure and the cells after it go back to a ``jobs``-wide pool.
    """
    pending, workers = cells, jobs
    while pending:
        broken = []  # (cell, error) in submission order
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [(cell, pool.submit(_execute_cell, cell)) for cell in pending]
            for cell, future in futures:
                err = future.exception()
                if isinstance(err, BrokenProcessPool):
                    broken.append((cell, err))
                else:
                    _collect(outcome, cell, future.result)
        if workers == 1 and broken:
            _record_failure(outcome, *broken.pop(0))
        pending = [cell for cell, _ in broken]
        workers = 1 if workers > 1 else jobs
    order = {(_label(v), k, b, seed): i for i, (_, v, k, b, seed) in enumerate(cells)}
    outcome.failures.sort(key=lambda f: order[f["algorithm"], f["K"], f["b"], f["seed"]])


def _collect(outcome: ExperimentOutcome, cell, produce) -> None:
    try:
        outcome.records.extend(produce())
    except Exception as err:  # any failure of one cell is that cell's answer
        _record_failure(outcome, cell, err)


def _record_failure(outcome: ExperimentOutcome, cell, err: BaseException) -> None:
    _, variant, k, b, seed = cell
    outcome.failures.append(
        {
            "algorithm": _label(variant),
            "K": k,
            "b": b,
            "seed": seed,
            "error": f"{type(err).__name__}: {err}",
        }
    )


def aggregate(records: list[MetricRecord]) -> list[SummaryRow]:
    """Per-cell mean and 1.96 * standard-error half-width over seeds."""
    groups: dict[tuple, list[float]] = {}
    for rec in records:
        groups.setdefault((rec.algorithm, rec.n_arms, rec.per_arm_budget, rec.metric), []).append(
            rec.value
        )
    rows = []
    for (algorithm, k, b, metric), values in sorted(groups.items()):
        n = len(values)
        mean = float(np.mean(values))
        if n >= 2:
            half = Z_95 * float(np.std(values, ddof=1)) / np.sqrt(n)
        else:
            half = None
        rows.append(
            SummaryRow(
                algorithm=algorithm,
                n_arms=k,
                per_arm_budget=b,
                metric=metric,
                mean=mean,
                ci_half_width=half,
                n_seeds=n,
            )
        )
    return rows


def _fmt(value: float) -> str:
    return repr(float(value))


def write_records_csv(path: str | Path, records: list[MetricRecord]) -> None:
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["run_id", "seed", "algorithm", "K", "b", "metric", "value"])
        for rec in sorted(records, key=MetricRecord.sort_key):
            writer.writerow(
                [rec.run_id, rec.seed, rec.algorithm, rec.n_arms, rec.per_arm_budget, rec.metric, _fmt(rec.value)]
            )


def write_summary_csv(path: str | Path, rows: list[SummaryRow]) -> None:
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["algorithm", "K", "b", "metric", "mean", "ci_half_width", "n_seeds"])
        for row in rows:
            writer.writerow(
                [
                    row.algorithm,
                    row.n_arms,
                    row.per_arm_budget,
                    row.metric,
                    _fmt(row.mean),
                    "" if row.ci_half_width is None else _fmt(row.ci_half_width),
                    row.n_seeds,
                ]
            )


def read_summary_csv(path: str | Path) -> list[SummaryRow]:
    rows = []
    with Path(path).open(newline="") as handle:
        reader = csv.DictReader(handle)
        for entry in reader:
            rows.append(
                SummaryRow(
                    algorithm=entry["algorithm"],
                    n_arms=int(entry["K"]),
                    per_arm_budget=int(entry["b"]),
                    metric=entry["metric"],
                    mean=float(entry["mean"]),
                    ci_half_width=float(entry["ci_half_width"]) if entry["ci_half_width"] else None,
                    n_seeds=int(entry["n_seeds"]),
                )
            )
    return rows


def render_table(rows: list[SummaryRow]) -> str:
    """Plain-text tables, one per (metric, K): rows = method, columns = budget."""
    budgets = sorted({r.per_arm_budget for r in rows})
    blocks = []
    for metric in sorted({r.metric for r in rows}):
        for k in sorted({r.n_arms for r in rows if r.metric == metric}):
            subset = [r for r in rows if r.metric == metric and r.n_arms == k]
            methods = sorted({r.algorithm for r in subset})
            header = [f"{metric}  (K={k})"] + [f"b={b}" for b in budgets]
            lines = ["  ".join(f"{h:>18}" for h in header)]
            for method in methods:
                cells = [f"{method:>18}"]
                for b in budgets:
                    match = [r for r in subset if r.algorithm == method and r.per_arm_budget == b]
                    if not match:
                        cells.append(f"{'-':>18}")
                        continue
                    row = match[0]
                    if row.ci_half_width is None:
                        cells.append(f"{row.mean:>18.4f}")
                    else:
                        cells.append(f"{f'{row.mean:.4f} +/- {row.ci_half_width:.4f}':>18}")
                lines.append("  ".join(cells))
            blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def write_outputs(out_dir: str | Path, outcome: ExperimentOutcome) -> dict[str, Path]:
    """Write records.csv, summary.csv, table.txt (and failures.json if any)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "records": out / "records.csv",
        "summary": out / "summary.csv",
        "table": out / "table.txt",
    }
    write_records_csv(paths["records"], outcome.records)
    rows = aggregate(outcome.records)
    write_summary_csv(paths["summary"], rows)
    paths["table"].write_text(render_table(rows))
    if outcome.failures:
        paths["failures"] = out / "failures.json"
        paths["failures"].write_text(json.dumps(outcome.failures, indent=2) + "\n")
    return paths
