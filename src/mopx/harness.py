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

import json
import warnings
from dataclasses import dataclass, field
from functools import partial
from itertools import product
from pathlib import Path
from typing import Callable

import numpy as np

from .algorithms import CONSTRAINED, GENPSI, PARETO, UNIFORM, RunConfig, RunResult, run_algorithm, unseen_arm_causes
from .core import ConfigurationError, Environment, Instance, InstanceError, MetricError
from .environments import (
    GaussianEnvironment,
    LinearEnvironment,
    ReplayEnvironment,
    ReplayTable,
    _write_csv,
    instance_from_dict,
    load_instance_json,
    load_replay_csv,
)
from .gaps import best_feasible_arm, hardness, pareto_front
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
    """Recipe for fresh environments: ``make`` builds one from ``table`` (an
    ``Instance`` or a ``ReplayTable``), or from its first K arms."""

    table: Instance | ReplayTable
    make: Callable[[Instance | ReplayTable], Environment]

    def build(self, n_arms: int) -> Environment:
        return self.make(self.table.subset(n_arms))

    def true_means(self, n_arms: int) -> np.ndarray:
        return self.table.means[:n_arms]


def environment_source_from_dict(data: dict, base_dir: Path | None = None) -> EnvironmentSource:
    data = _walk(_CONFIG["environment"], data, "environment")  # for a section given on its own
    base = base_dir or Path.cwd()
    if data["kind"] == "replay":
        if data.get("path") is None:
            raise ConfigurationError("replay environments need a 'path'")
        brevity = data.get("brevity")  # walked in shape order: (tau_low, tau_high)
        table = load_replay_csv(base / data["path"], brevity=brevity and tuple(brevity.values()))
        make = partial(ReplayEnvironment, mode=data.get("mode", "iid"))
    else:
        raw = data.get("instance")
        if raw is None:
            raise ConfigurationError("gaussian/linear environments need an 'instance'")
        table = load_instance_json(base / raw) if isinstance(raw, str) else instance_from_dict(raw)
        make = LinearEnvironment if data["kind"] == "linear" else GaussianEnvironment
    make(table)  # the environment's own check (replay mode, linear features and theta), once at load
    return EnvironmentSource(table, make)


_DEFAULT_ALGORITHMS = (
    {"label": "ege", "algorithm": GENPSI, "scheduler": "successive_rejects"},
    {"label": "uniform", "algorithm": UNIFORM, "mode": "pareto"},
)


class _Section(dict):
    """A JSON object with only these keys; an exact section needs all of them."""

    def __init__(self, name: str, keys: dict, exact: bool = False):
        super().__init__(keys)
        self.name, self.exact = name, exact


# The shape of a config, checked by _walk. Top-level keys are ExperimentConfig
# fields; an algorithm entry's ``mlp.iters`` is the RunConfig field ``mlp_iters``.
_BREVITY = _Section("environment brevity", {"tau_low": float, "tau_high": float}, exact=True)
_INSTANCE = {"kind": str, "instance": (None, str, dict)}
_REPLAY = {"kind": str, "path": (None, str), "mode": object, "brevity": (None, _BREVITY)}
_ENVIRONMENTS = {
    "gaussian": _Section("environment", _INSTANCE),
    "linear": _Section("environment", _INSTANCE),
    "replay": _Section("environment", _REPLAY),
}
_ALGORITHM = _Section(
    "algorithm config",
    {
        **dict.fromkeys(("label", "algorithm", "scheduler", "allocator", "estimator", "mode", "eliminator"), str),
        **dict.fromkeys(("enforce_design_budget", "redistribute_leftover"), bool),
        "g_optimal": _Section("algorithm g_optimal", {"epsilon": float}),
        "mlp": _Section(
            "algorithm mlp", {"hidden": int, "lambda": float, "iters": int, "step_size": float, "data_scope": str}
        ),
    },
)
_CONFIG = _Section(
    "experiment config",
    {
        "environment": _ENVIRONMENTS,
        "algorithms": [_ALGORITHM],
        "k_values": [int],
        "per_arm_budgets": [int],
        "seeds": [int],
        "tau": (None, float),
        "hv_reference": (None, [float]),
        "out_dir": (None, str),
    },
)

_JSON_TYPES = {str: "string", bool: "boolean", int: "integer", float: "number", dict: "object"}


def _walk(shape, value, path: str = ""):
    """``value`` checked against ``shape`` and returned as a typed copy, with
    nothing coerced. A list is a JSON list of its one shape, a type a scalar
    (``dict``: any object, ``object``: any value), a plain dict one section per
    "kind", and a tuple None (null, read as absent) and types a value may
    simply be, then the shape anything else must have."""
    if isinstance(shape, tuple):
        *plain, shape = shape
        if any(value is None if kind is None else isinstance(value, kind) for kind in plain):
            return value
    if getattr(shape, "exact", False) and not (isinstance(value, dict) and value.keys() == shape.keys()):
        raise ConfigurationError(f"{shape.name} needs exactly {' and '.join(map(repr, shape))}, got {value!r}")
    if isinstance(shape, dict):
        if not isinstance(value, dict):
            key = f"config key {path!r}" if path else shape.name
            raise ConfigurationError(f"{key} must be a JSON object, got {value!r}")
        if type(shape) is dict:
            kind = value.get("kind")
            if not isinstance(kind, str) or kind not in shape:
                # keys that no kind takes are reported before the kind itself
                _walk(_Section(path, dict.fromkeys(set().union(*shape.values()), object)), value, path)
                raise ConfigurationError(f"unknown {path} kind {kind!r}")
            shape = shape[kind]
        unknown = value.keys() - shape.keys()
        if unknown:
            raise ConfigurationError(f"unknown {shape.name} keys: {sorted(unknown)}")
        return {key: _walk(shape[key], value[key], f"{path}.{key}".lstrip(".")) for key in shape if key in value}
    if isinstance(shape, list):
        if not isinstance(value, list):
            raise ConfigurationError(f"config key {path!r} must be a JSON list, got {value!r}")
        return tuple(_walk(shape[0], item, f"{path}[{i}]") for i, item in enumerate(value))
    expected = (int, float) if shape is float else shape
    key = path if shape is dict else path.partition(".")[2] or path  # scalars: the key below its section
    if not isinstance(value, expected) or isinstance(value, bool) and shape in (int, float):
        raise ConfigurationError(f"config key {key!r} must be a JSON {_JSON_TYPES[shape]}, got {value!r}")
    try:
        return float(value) if shape is float else value
    except OverflowError as err:  # json reads a long integer literal as an int past the float range
        raise ConfigurationError(f"config key {key!r} is malformed: {err}") from None


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
        for name in ("algorithm", "k_value", "per_arm_budget", "seed"):
            if not getattr(self, f"{name}s"):
                raise ConfigurationError(f"{name} list must be non-empty")
        table = self.environment.table
        m = table.n_objectives
        if self.hv_reference is not None and len(self.hv_reference) != m:
            raise ConfigurationError(f"hv_reference needs one entry per objective, got {len(self.hv_reference)}")
        for k in self.k_values:
            if not 2 <= k <= table.n_arms:
                raise ConfigurationError(f"k_values entry {k} is outside [2, {table.n_arms}] (the arm count)")
        # every RunConfig and round-plan error raises here, at load; of the seeds only the least can fail its check
        feats = getattr(table, "features", None)  # a plan reads only their column count d
        modes, unseen = set(), []  # unseen-arm warnings wait for the last check, so a refused config only errs
        for variant, b in product(self.algorithms, self.per_arm_budgets):
            run_cfg = _run_config(variant, self.tau, b, min(self.seeds))
            modes.add(run_cfg.mode)
            for k in self.k_values:
                try:
                    plan = run_cfg.schedule(k, feats)
                except ConfigurationError as err:
                    raise ConfigurationError(f"variant {_label(variant)!r} at K={k}, b={b}: {err}") from None
                if causes := unseen_arm_causes(run_cfg, plan, feats is None):
                    unseen.append(f"variant {_label(variant)!r} at K={k}, b={b} scores arms without features "
                                  f"from no rows of their own: {'; '.join(causes)}")
        # labels name summary rows and run ids, and a repeated grid entry would run
        # one cell twice and count it as two seeds, so no list may repeat an entry
        labels = [_label(variant) for variant in self.algorithms]
        lists = {"algorithm labels": labels, "k_values": self.k_values, "per_arm_budgets": self.per_arm_budgets, "seeds": self.seeds}
        for name, entries in lists.items():
            repeated = sorted({entry for entry in entries if entries.count(entry) > 1})
            if repeated:
                raise ConfigurationError(f"{name} must be distinct, repeated: {repeated}")
        if CONSTRAINED in modes and m != 2:
            raise ConfigurationError(f"gensec and constrained uniform variants need exactly two objectives, got m={m}")
        if CONSTRAINED in modes and not self.tau > 0:  # soft_constrained_reward scores with tau > 0 only
            raise ConfigurationError(f"gensec and constrained uniform variants need tau > 0, got {self.tau}")
        for k in self.k_values:
            truth = self.environment.true_means(k)
            if CONSTRAINED in modes:
                _check_constrained_truth(truth, self.tau, k)
            if PARETO in modes:
                _check_pareto_truth(truth, self.hv_reference, k)
        for message in unseen:
            warnings.warn(message, UserWarning)

    def cells(self) -> list[tuple[dict, int, int, int]]:
        return list(product(self.algorithms, self.k_values, self.per_arm_budgets, self.seeds))


def _check_constrained_truth(means: np.ndarray, tau: float, k: int) -> None:
    """Reject a truth whose best feasible arm (mu2 >= tau) is undefined or has
    a zero gap: every cell would fail, or be scored against an answer that
    the empirical ranking (mu2 > tau) cannot single out."""
    prefix = f"constrained truth at K={k}, tau={tau}"
    try:
        star = best_feasible_arm(means, tau)
        if means[star, 1] > tau:  # else a zero margin cap makes every gap zero
            hardness(means, tau)  # raises on a zero gap
    except InstanceError as err:
        raise ConfigurationError(f"{prefix}: {err}") from None
    if means[star, 1] == tau:
        raise ConfigurationError(f"{prefix}: the optimal arm {star} has mu2 == tau, a zero margin cap")


def _check_pareto_truth(means: np.ndarray, reference: tuple[float, ...] | None, k: int) -> None:
    """Reject a truth that ``hv_recovery`` cannot score: m > 3, or no volume
    over the reference (dominated arms add none, so it is the front's volume)."""
    ref = np.zeros(means.shape[1]) if reference is None else np.asarray(reference, dtype=float)
    try:
        volume = hypervolume(means, ref)
    except MetricError as err:
        raise ConfigurationError(f"pareto truth at K={k}: {err}") from None
    if volume == 0.0:
        raise ConfigurationError(f"pareto truth at K={k} has zero hypervolume over the reference {tuple(ref.tolist())}")


def experiment_config_from_dict(data: dict, base_dir: Path | None = None) -> ExperimentConfig:
    if isinstance(data, dict) and "environment" not in data:
        raise ConfigurationError("experiment config needs an 'environment' section")
    config = _walk(_CONFIG, data)
    source = environment_source_from_dict(config["environment"], base_dir)
    defaults = {"algorithms": _DEFAULT_ALGORITHMS, "per_arm_budgets": (5,), "seeds": tuple(range(20))}
    return ExperimentConfig(**{**defaults, "k_values": (source.table.n_arms,), **config, "environment": source})


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8-sig"))
    except ValueError as err:  # a JSONDecodeError or a UnicodeDecodeError
        raise ConfigurationError(f"config file {path} is not valid JSON: {err}") from None
    if isinstance(data, dict) and isinstance(data.get("out_dir"), str):  # relative to the config, like its paths
        data["out_dir"] = str(path.parent / data["out_dir"])
    return experiment_config_from_dict(data, base_dir=path.parent)


def _label(variant: dict) -> str:
    return variant.get("label", variant.get("algorithm", RunConfig.algorithm))


def _run_config(variant: dict, tau: float | None, per_arm_budget: int, seed: int) -> RunConfig:
    fields = {key: value for key, value in variant.items() if key != "label" and not isinstance(value, dict)}
    for section, entries in variant.items():
        if isinstance(entries, dict):
            fields.update((f"{section}_{key}", value) for key, value in entries.items())
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
    volume = hypervolume(true_means[selected], ref)
    recovery = hv_recovery(selected, true_means, ref)
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
    answers = _run_parallel(cells, jobs) if jobs > 1 else [_answer(cell) for cell in cells]
    outcome = ExperimentOutcome()
    for (_, variant, k, b, seed), answer in zip(cells, answers):
        if isinstance(answer, Exception):
            error = f"{type(answer).__name__}: {answer}"
            outcome.failures.append({"algorithm": _label(variant), "K": k, "b": b, "seed": seed, "error": error})
        else:
            outcome.records.extend(answer)
    outcome.records.sort(key=MetricRecord.sort_key)
    return outcome


def _answer(cell) -> list[MetricRecord] | Exception:
    try:
        return _execute_cell(cell)
    except Exception as err:  # any failure of one cell is that cell's answer
        return err


def _run_parallel(cells: list, jobs: int) -> list[list[MetricRecord] | Exception]:
    """Each cell's answer, in cell order, from worker processes that may die.

    A worker that dies breaks its pool and every cell still pending in it.
    Those cells run again in a one-worker pool, which runs them in order, so
    the first cell to break it is the one that crashed: its answer is that
    error, and the cells after it go back to a ``jobs``-wide pool. No pool
    starts more workers than it has cells.
    """
    from concurrent.futures import ProcessPoolExecutor, process  # here: serial sweeps never load them

    answers: list = [None] * len(cells)
    pending, workers = list(range(len(cells))), jobs
    while pending:
        broken = []  # (cell index, error) in submission order
        with ProcessPoolExecutor(max_workers=min(workers, len(pending))) as pool:
            futures = [(i, pool.submit(_execute_cell, cells[i])) for i in pending]
            for i, future in futures:
                err = future.exception()
                if isinstance(err, process.BrokenProcessPool):
                    broken.append((i, err))
                else:
                    answers[i] = err if isinstance(err, Exception) else future.result()
        if workers == 1 and broken:
            i, err = broken.pop(0)
            answers[i] = err
        pending = [i for i, _ in broken]
        workers = 1 if workers > 1 else jobs
    return answers


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
        if n < 2:
            half = None
        elif min(values) == max(values):  # np.std reads the rounded mean's residue: 1.7e-17 for [0.1] * 3
            half = 0.0
        else:
            with np.errstate(over="ignore"):
                spread = float(np.std(values, ddof=1))
            # squared deviations lose bits to underflow below sqrt(float min) = 1.49e-154, and overflow past the range
            if not 1.5e-154 <= spread < np.inf:
                deviations = np.subtract(values, mean)
                scale = float(np.abs(deviations).max())
                spread = scale * float(np.std(deviations / scale, ddof=1))
            half = Z_95 * spread / np.sqrt(n)
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


def render_table(rows: list[SummaryRow]) -> str:
    """Plain-text tables, one per (metric, K): rows = method, columns = budget."""
    budgets = sorted({r.per_arm_budget for r in rows})
    table = {(r.metric, r.n_arms, r.algorithm, r.per_arm_budget): r for r in rows}
    blocks = []
    for metric, k in sorted({key[:2] for key in table}):
        header = [f"{metric}  (K={k})"] + [f"b={b}" for b in budgets]
        lines = ["  ".join(f"{h:>18}" for h in header)]
        for method in sorted({key[2] for key in table if key[:2] == (metric, k)}):
            cells = [method]
            for b in budgets:
                row = table.get((metric, k, method, b))
                if row is None:
                    cells.append("-")
                elif row.ci_half_width is None:
                    cells.append(f"{row.mean:.4f}")
                else:
                    cells.append(f"{row.mean:.4f} +/- {row.ci_half_width:.4f}")
            lines.append("  ".join(f"{cell:>18}" for cell in cells))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def write_outputs(out_dir: str | Path, outcome: ExperimentOutcome) -> dict[str, Path]:
    """Write records.csv, summary.csv, table.txt and, if any cell failed, failures.json (else remove an old one)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "records": out / "records.csv",
        "summary": out / "summary.csv",
        "table": out / "table.txt",
    }
    _write_csv(paths["records"], "run_id,seed,algorithm,K,b,metric,value", map(vars, outcome.records))
    rows = aggregate(outcome.records)
    _write_csv(paths["summary"], "algorithm,K,b,metric,mean,ci_half_width,n_seeds", map(vars, rows))
    paths["table"].write_text(render_table(rows))
    if outcome.failures:
        paths["failures"] = out / "failures.json"
        paths["failures"].write_text(json.dumps(outcome.failures, indent=2) + "\n")
    else:
        (out / "failures.json").unlink(missing_ok=True)
    return paths
