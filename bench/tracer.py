"""Span tracing of mopx's layers from outside the program.

Every function on the sweep path is wrapped where its *caller* looks it up:
the modules import each other's functions with ``from .x import name``, so a
wrapper placed only on the defining module would miss most calls. A binding
is ``"module:attr"`` or ``"module:Class.attr"`` (methods and properties).

Spans (binding, start, end, parent span, run id) are kept in memory and
written out once at the end. A span's self time is its duration minus the
durations of its direct children; spans nest strictly because a sweep runs in
one thread. Counters are updated at the same boundaries from the call's
arguments and results, so ratios are measured where the work happens.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

# (layer, boundary name, binding). Several bindings of one function share a
# boundary name, so their calls and self time add up.
BINDINGS = (
    ("harness", "load_experiment_config", "mopx.harness:load_experiment_config"),
    ("harness", "run_experiment", "mopx.harness:run_experiment"),
    ("harness", "write_outputs", "mopx.harness:write_outputs"),
    ("harness", "EnvironmentSource.build", "mopx.harness:EnvironmentSource.build"),
    ("harness", "EnvironmentSource.true_means", "mopx.harness:EnvironmentSource.true_means"),
    ("harness", "cell_metrics", "mopx.harness:cell_metrics"),
    ("algorithms", "run_algorithm", "mopx.harness:run_algorithm"),
    ("algorithms", "rank_constrained", "mopx.algorithms:rank_constrained"),
    ("algorithms", "eliminate_pareto", "mopx.algorithms:eliminate_pareto"),
    ("schedulers", "make_schedule", "mopx.algorithms:make_schedule"),
    ("allocators", "solve_g_optimal", "mopx.algorithms:solve_g_optimal"),
    ("allocators", "round_design", "mopx.algorithms:round_design"),
    ("allocators", "allocate_uniform", "mopx.algorithms:allocate_uniform"),
    ("environments", "pull", "mopx.environments:GaussianEnvironment.pull"),
    ("environments", "pull", "mopx.environments:ReplayEnvironment.pull"),
    ("core", "batch_materialise", "mopx.core:ObservationBatch.arms"),
    ("core", "batch_materialise", "mopx.core:ObservationBatch.features"),
    ("core", "batch_materialise", "mopx.core:ObservationBatch.rewards"),
    ("core", "round_slice", "mopx.core:ObservationBatch.round_slice"),
    ("estimators", "estimate_sample_mean", "mopx.algorithms:estimate_sample_mean"),
    ("estimators", "fit_linear", "mopx.algorithms:fit_linear"),
    ("estimators", "predict_linear", "mopx.algorithms:predict_linear"),
    ("estimators", "mlp_fit", "mopx.algorithms:mlp_fit"),
    ("estimators", "mlp_predict", "mopx.algorithms:mlp_predict"),
    ("estimators", "pseudo_inverse", "mopx.allocators:pseudo_inverse"),
    ("estimators", "pseudo_inverse", "mopx.estimators:pseudo_inverse"),
    ("estimators", "select_independent_basis", "mopx.allocators:select_independent_basis"),
    ("estimators", "select_independent_basis", "mopx.estimators:select_independent_basis"),
    ("gaps", "pareto_front", "mopx.algorithms:pareto_front"),
    ("gaps", "pareto_front", "mopx.gaps:pareto_front"),
    ("gaps", "pareto_front", "mopx.harness:pareto_front"),
    ("gaps", "pareto_front", "mopx.metrics:pareto_front"),
    ("gaps", "pareto_gap_report", "mopx.algorithms:pareto_gap_report"),
    ("gaps", "best_feasible_arm", "mopx.harness:best_feasible_arm"),
    ("metrics", "hypervolume", "mopx.harness:hypervolume"),
    ("metrics", "hypervolume", "mopx.metrics:hypervolume"),
    ("metrics", "hv_recovery", "mopx.harness:hv_recovery"),
    ("metrics", "soft_constrained_reward", "mopx.harness:soft_constrained_reward"),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in BINDINGS))
BOUNDARIES = tuple(dict.fromkeys((layer, name) for layer, name, _ in BINDINGS))

# Counters, all per sweep. ``allocators.repeat_solve_share`` is the share of
# design solves whose active feature set was already solved earlier in the same
# sweep: the hit rate a design cache would see.
COUNTERS = (
    ("algorithms.rounds", "lower"),
    ("allocators.design_iters", "lower"),
    ("allocators.design_failures", "lower"),
    ("allocators.repeat_solve_share", "higher"),
    ("core.batch_rows_materialised", "lower"),
    ("estimators.mlp_row_iters", "lower"),
    ("gaps.front_pair_checks", "lower"),
    ("harness.failed_cells", "lower"),
)


def per_layer_metrics() -> list[dict]:
    """Every metric a traced run reports, in BENCHMARK.json's per_layer form."""
    out = []
    for layer in LAYERS:
        out.append({"name": f"{layer}.calls", "unit": "count", "better": "lower"})
        out.append({"name": f"{layer}.self_s", "unit": "s", "better": "lower"})
        out.append({"name": f"{layer}.self_share", "unit": "ratio", "better": "lower"})
    for layer, name in BOUNDARIES:
        out.append({"name": f"{layer}.{name}.calls", "unit": "count", "better": "lower"})
        out.append({"name": f"{layer}.{name}.self_s", "unit": "s", "better": "lower"})
    for name, better in COUNTERS:
        unit = "ratio" if name.endswith("share") else "count"
        out.append({"name": name, "unit": unit, "better": better})
    out.append({"name": "trace.overhead_ratio", "unit": "ratio", "better": "lower"})
    return out


def self_times(spans: list[tuple]) -> list[float]:
    """Self time of each span: its duration minus its direct children's.

    A span is ``(binding, start, end, parent, run_id)`` with ``parent`` the
    index of the enclosing span or -1.
    """
    child_total = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_total[parent] += end - start
    return [end - start - child_total[i] for i, (_, start, end, _, _) in enumerate(spans)]


def _resolve(binding: str):
    """(owner, attribute name, original object) for ``module:[Class.]attr``."""
    module_name, path = binding.split(":")
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attr, owner.__dict__[attr]


@dataclass
class _Counts:
    rounds: int = 0
    design_iters: int = 0
    design_solves: int = 0
    repeat_solves: int = 0
    rows_materialised: int = 0
    mlp_row_iters: int = 0
    front_pair_checks: int = 0
    failed_cells: int = 0


class Tracer:
    """Installs span-recording wrappers on every binding in ``BINDINGS``."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts = _Counts()
        self.design_failures: Counter[str] = Counter()
        self._stack: list[int] = []
        self._run_id = -1
        self._runs = 0
        self._solved: set[bytes] = set()

    def begin_sweep(self) -> None:
        """Start a new sweep: design-solve repeats are counted within one sweep."""
        self._solved.clear()

    @contextmanager
    def installed(self):
        hooks = self._hooks()
        saved = []
        try:
            for index, (_, name, binding) in enumerate(BINDINGS):
                owner, attr, original = _resolve(binding)
                saved.append((owner, attr, original))
                if isinstance(original, property):
                    wrapped = property(self._wrap(original.fget, index, hooks.get(name), False))
                else:
                    wrapped = self._wrap(original, index, hooks.get(name), name == "run_algorithm")
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _wrap(self, fn, index: int, hook, starts_run: bool):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            slot = len(spans)
            spans.append(None)
            stack.append(slot)
            if starts_run:
                tracer._run_id = tracer._runs
                tracer._runs += 1
            run_id = tracer._run_id
            result = error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                error = err
                raise
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (index, start, end, parent, run_id)
                if starts_run:
                    tracer._run_id = -1
                if hook is not None:
                    hook(args, kwargs, result, error)

        wrapper.__wrapped__ = fn
        return wrapper

    def _hooks(self) -> dict:
        counts = self.counts
        argument = _argument_reader()

        def run_algorithm(args, kwargs, result, error):
            if error is None:
                counts.rounds += len(result.rounds)

        def solve_g_optimal(args, kwargs, result, error):
            counts.design_solves += 1
            key = argument("solve_g_optimal", args, kwargs, "features").tobytes()
            if key in self._solved:
                counts.repeat_solves += 1
            self._solved.add(key)
            weights = getattr(error, "weights", None) if error is not None else result
            if weights is not None:
                counts.design_iters += len(weights.trace)
            if error is not None:
                self.design_failures[type(error).__name__] += 1

        def round_design(args, kwargs, result, error):
            if error is not None:
                self.design_failures[type(error).__name__] += 1

        def batch_materialise(args, kwargs, result, error):
            counts.rows_materialised += len(args[0])

        def mlp_fit(args, kwargs, result, error):
            batch = argument("mlp_fit", args, kwargs, "batch")
            counts.mlp_row_iters += len(batch) * argument("mlp_fit", args, kwargs, "iters")

        def pareto_front(args, kwargs, result, error):
            k = len(argument("pareto_front", args, kwargs, "means"))
            counts.front_pair_checks += k * (k - 1)

        def run_experiment(args, kwargs, result, error):
            if error is None:
                counts.failed_cells += len(result.failures)

        return {
            "run_algorithm": run_algorithm,
            "solve_g_optimal": solve_g_optimal,
            "round_design": round_design,
            "batch_materialise": batch_materialise,
            "mlp_fit": mlp_fit,
            "pareto_front": pareto_front,
            "run_experiment": run_experiment,
        }

    def binding_stats(self) -> dict[str, list]:
        """``[calls, self seconds]`` per binding: shows which caller a layer's
        time comes from, and lets a test check that every wrapper fires."""
        stats = {binding: [0, 0.0] for _, _, binding in BINDINGS}
        for span, own in zip(self.spans, self_times(self.spans)):
            entry = stats[BINDINGS[span[0]][2]]
            entry[0] += 1
            entry[1] += own
        return stats

    def summary(self, n_sweeps: int, traced_s: float) -> dict[str, float]:
        """Per-sweep per-layer metrics; ``traced_s`` is the traced sweeps' wall time."""
        self_s = self_times(self.spans)
        calls: Counter[str] = Counter()
        busy: Counter[str] = Counter()
        for span, own in zip(self.spans, self_s):
            layer, name, _ = BINDINGS[span[0]]
            for key in (layer, f"{layer}.{name}"):
                calls[key] += 1
                busy[key] += own
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer] / n_sweeps
            out[f"{layer}.self_s"] = busy[layer] / n_sweeps
            out[f"{layer}.self_share"] = busy[layer] / traced_s
        for layer, name in BOUNDARIES:
            out[f"{layer}.{name}.calls"] = calls[f"{layer}.{name}"] / n_sweeps
            out[f"{layer}.{name}.self_s"] = busy[f"{layer}.{name}"] / n_sweeps
        c = self.counts
        out["algorithms.rounds"] = c.rounds / n_sweeps
        out["allocators.design_iters"] = c.design_iters / n_sweeps
        out["allocators.design_failures"] = sum(self.design_failures.values()) / n_sweeps
        out["allocators.repeat_solve_share"] = (
            c.repeat_solves / c.design_solves if c.design_solves else 0.0
        )
        out["core.batch_rows_materialised"] = c.rows_materialised / n_sweeps
        out["estimators.mlp_row_iters"] = c.mlp_row_iters / n_sweeps
        out["gaps.front_pair_checks"] = c.front_pair_checks / n_sweeps
        out["harness.failed_cells"] = c.failed_cells / n_sweeps
        return out

    def write_spans(self, path) -> None:
        """Write every span as CSV: span, boundary, binding, start, end, parent, run."""
        with open(path, "w") as handle:
            handle.write("span,boundary,binding,start,end,parent,run\n")
            for i, (index, start, end, parent, run_id) in enumerate(self.spans):
                layer, name, binding = BINDINGS[index]
                handle.write(
                    f"{i},{layer}.{name},{binding},{start!r},{end!r},{parent},{run_id}\n"
                )


def _argument_reader():
    """``argument(function, args, kwargs, name)``: one argument of a call to a
    mopx function, defaults applied, whether it was passed by position or not."""
    signatures = {
        name: inspect.signature(_resolve(binding)[2])
        for name, binding in (
            ("solve_g_optimal", "mopx.allocators:solve_g_optimal"),
            ("mlp_fit", "mopx.estimators:mlp_fit"),
            ("pareto_front", "mopx.gaps:pareto_front"),
        )
    }

    def argument(function, args, kwargs, name):
        bound = signatures[function].bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]

    return argument
