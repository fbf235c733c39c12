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

from .algorithms import GENPSI, UNIFORM, RunConfig, RunResult, run_algorithm
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
        if isinstance(raw, str):
            instance = load_instance_json(base / raw)
        else:
            instance = instance_from_dict(_object("environment.instance", raw))
        return EnvironmentSource(kind=kind, instance=instance)
    if kind == "replay":
        path = data.get("path")
        if path is None:
            raise ConfigurationError("replay environments need a 'path'")
        brevity = data.get("brevity")
        if brevity is not None:
            if not isinstance(brevity, dict) or set(brevity) != {"tau_low", "tau_high"}:
                raise ConfigurationError(
                    f"environment brevity needs exactly 'tau_low' and 'tau_high', got {brevity!r}"
                )
            brevity = tuple(
                _typed(f"brevity.{key}", brevity[key], float) for key in ("tau_low", "tau_high")
            )
        table = load_replay_csv(base / path, brevity=brevity)
        mode = data.get("mode", "iid")
        ReplayEnvironment(table, mode=mode)  # the environment's own mode check, once at load
        return EnvironmentSource(kind=kind, table=table, replay_mode=mode)
    raise ConfigurationError(f"unknown environment kind {kind!r}")


_DEFAULT_ALGORITHMS = (
    {"label": "ege", "algorithm": GENPSI, "scheduler": "successive_rejects"},
    {"label": "uniform", "algorithm": UNIFORM, "mode": "pareto"},
)

# Algorithm-entry key ("section.key" inside a nested section) -> (RunConfig
# field, type). Only the keys a variant sets are passed on, so every default
# lives in RunConfig.
_VARIANT_FIELDS = {
    "algorithm": ("algorithm", str),
    "scheduler": ("scheduler", str),
    "allocator": ("allocator", str),
    "estimator": ("estimator", str),
    "mode": ("mode", str),
    "eliminator": ("eliminator", str),
    "g_optimal.epsilon": ("g_optimal_epsilon", float),
    "mlp.hidden": ("mlp_hidden", int),
    "mlp.lambda": ("mlp_lambda", float),
    "mlp.iters": ("mlp_iters", int),
    "mlp.step_size": ("mlp_step_size", float),
    "mlp.data_scope": ("mlp_data_scope", str),
    "enforce_design_budget": ("enforce_design_budget", bool),
    "redistribute_leftover": ("redistribute_leftover", bool),
}

_VARIANT_KEYS = {"label"} | {key.partition(".")[0] for key in _VARIANT_FIELDS}

_NESTED_KEYS = {
    section: {key.partition(".")[2] for key in _VARIANT_FIELDS if key.startswith(f"{section}.")}
    for section in {key.partition(".")[0] for key in _VARIANT_FIELDS if "." in key}
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


_JSON_TYPES = {str: "string", bool: "boolean", int: "integer", float: "number"}


def _typed(key: str, value, kind: type):
    """``value`` as ``kind``, if it has the matching JSON type. Nothing is
    coerced: bool("false") would be True and int(1.7) would be 1."""
    expected = (int, float) if kind is float else kind
    if not isinstance(value, expected) or (isinstance(value, bool) and kind is not bool):
        raise ConfigurationError(
            f"config key {key!r} must be a JSON {_JSON_TYPES[kind]}, got {value!r}"
        )
    return kind(value)


def _object(key: str, value) -> dict:
    if not isinstance(value, dict):
        raise ConfigurationError(f"config key {key!r} must be a JSON object, got {value!r}")
    return value


def _typed_list(key: str, values, kind: type) -> tuple:
    if not isinstance(values, list):
        raise ConfigurationError(f"config key {key!r} must be a JSON list, got {values!r}")
    return tuple(_typed(f"{key}[{i}]", value, kind) for i, value in enumerate(values))


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
        for k in self.k_values:
            if not 2 <= k <= self.environment.n_arms:
                raise ConfigurationError(
                    f"k_values entry {k} is outside [2, {self.environment.n_arms}] (the arm count)"
                )
        for i, variant in enumerate(self.algorithms):
            _reject_unknown("algorithm config", variant, _VARIANT_KEYS)
            for section, known in _NESTED_KEYS.items():
                entries = _object(f"algorithms[{i}].{section}", variant.get(section, {}))
                _reject_unknown(f"algorithm {section}", entries, known)
            if "label" in variant:
                _typed("label", variant["label"], str)
            # every setting error raises here, at load; cells fail only on
            # what depends on K and the budget together
            for budget in self.per_arm_budgets:
                _run_config(variant, self.tau, budget, self.seeds[0])
        # labels name summary rows and run ids, so two variants must not share one
        labels = [_label(variant) for variant in self.algorithms]
        repeated = sorted({label for label in labels if labels.count(label) > 1})
        if repeated:
            raise ConfigurationError(f"algorithm labels must be distinct, repeated: {repeated}")

    def cells(self) -> list[tuple[dict, int, int, int]]:
        return [
            (variant, k, b, seed)
            for variant, k, b, seed in product(
                self.algorithms, self.k_values, self.per_arm_budgets, self.seeds
            )
        ]


def experiment_config_from_dict(data: dict, base_dir: Path | None = None) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigurationError(f"experiment config must be a JSON object, got {data!r}")
    if "environment" not in data:
        raise ConfigurationError("experiment config needs an 'environment' section")
    _reject_unknown("experiment config", data, _CONFIG_KEYS)
    _reject_unknown("environment", _object("environment", data["environment"]), _ENVIRONMENT_KEYS)
    source = environment_source_from_dict(data["environment"], base_dir)
    variants = data.get("algorithms", list(_DEFAULT_ALGORITHMS))
    if not isinstance(variants, list):
        raise ConfigurationError(f"config key 'algorithms' must be a JSON list, got {variants!r}")
    algorithms = tuple(
        dict(_object(f"algorithms[{i}]", variant)) for i, variant in enumerate(variants)
    )
    tau = data.get("tau")
    reference = data.get("hv_reference")
    return ExperimentConfig(
        environment=source,
        algorithms=algorithms,
        k_values=_typed_list("k_values", data.get("k_values", [source.n_arms]), int),
        per_arm_budgets=_typed_list("per_arm_budgets", data.get("per_arm_budgets", [5]), int),
        seeds=_typed_list("seeds", data.get("seeds", list(range(20))), int),
        tau=None if tau is None else _typed("tau", tau, float),
        hv_reference=None if reference is None else _typed_list("hv_reference", reference, float),
        out_dir=data.get("out_dir"),
    )


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise ConfigurationError(f"config file {path} is not valid JSON: {err}") from None
    return experiment_config_from_dict(data, base_dir=path.parent)


def _label(variant: dict) -> str:
    return variant.get("label", variant.get("algorithm", "run"))


def _run_config(variant: dict, tau: float | None, per_arm_budget: int, seed: int) -> RunConfig:
    fields = {}
    for key, (name, kind) in _VARIANT_FIELDS.items():
        section, _, sub = key.rpartition(".")
        entries = variant.get(section, {}) if section else variant
        if sub in entries:
            fields[name] = _typed(key, entries[sub], kind)
    return RunConfig(tau=tau, per_arm_budget=per_arm_budget, seed=seed, **fields)


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
        for name, value in cell_metrics(result, run_cfg.mode, truth, config.tau, config.hv_reference)
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
