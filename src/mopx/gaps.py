"""Dominance and gap machinery, for true means and plug-in estimates alike.

All functions take a K x m matrix of mean vectors; applying them to estimated
means yields the empirical quantities used by the elimination loops. The
Pareto front and gaps come from one dense all-pairs pass (``_pair_terms``,
O(K^2 m) numpy work) instead of a loop over arm pairs. The pass is kept for
the last matrix it saw, so the front and the gap report of one matrix share
it. Argmax and argmin ties always break toward the lowest arm index, as
Python's ``min``/``max`` would, so even the sign of a zero gap is
reproducible. Unbounded gap components are ``math.inf`` - which compares
above every finite gap - and are serialised as the string ``"inf"``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Callable

import numpy as np

from .core import DomainError, InstanceError

UNBOUNDED = math.inf


@dataclass(frozen=True)
class GapEntry:
    """Gap value, classification and defining components for one arm."""

    arm: int
    gap: float
    classification: str
    components: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "arm": self.arm,
            "gap": _json_num(self.gap),
            "classification": self.classification,
            "components": {k: _json_num(v) for k, v in self.components.items()},
        }


@dataclass(frozen=True, eq=False)
class GapReport:
    """Per-arm gaps of one instance: ``gap_column[x]`` is arm x's gap. The
    per-arm ``entries``, with each arm's class and the components its class
    reports, come from ``build_entries()`` on their first read."""

    mode: str  # "pareto" or "constrained"
    gap_column: np.ndarray
    build_entries: Callable[[], tuple[GapEntry, ...]] = field(repr=False)
    tau: float | None = None
    optimal_arm: int | None = None

    def __post_init__(self) -> None:
        self.gap_column.flags.writeable = False

    @cached_property
    def entries(self) -> tuple[GapEntry, ...]:
        return self.build_entries()

    def gap(self, arm: int) -> float:
        return float(self.gap_column[arm])

    def to_dict(self) -> dict:
        out: dict = {"mode": self.mode, "entries": [e.to_dict() for e in self.entries]}
        if self.tau is not None:
            out["tau"] = self.tau
        if self.optimal_arm is not None:
            out["optimal_arm"] = self.optimal_arm
        return out


def _json_num(value: float) -> float | str:
    return "inf" if math.isinf(value) else float(value)


def _check_means(means: np.ndarray) -> np.ndarray:
    """``means`` as a finite K x m float matrix with m >= 2."""
    mat = np.asarray(means, dtype=float)
    if mat.ndim != 2 or mat.shape[0] < 1 or mat.shape[1] < 2:
        raise DomainError(f"means must be K x m with m >= 2, got shape {mat.shape}")
    if not np.isfinite(mat).all():
        raise DomainError("means must be finite")
    return mat


# _pair_terms' memo: the last matrix's (shape, bytes) and its read-only
# (small, large, front). One entry is enough: a Pareto round asks for the
# front and then the gap report of the same estimate matrix.
_TERMS: dict[tuple, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _pair_terms(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All-pairs closeness terms small[x, y] = min_i (mu_i(y) - mu_i(x)) and
    large[x, y] = max_i (mu_i(x) - mu_i(y)), plus the ascending indices of
    the non-dominated rows, all read-only.

    One K x K outer difference per objective; ``large`` is ``-small``, the max of
    the negated differences (not of the reversed ones, whose zeros differ in sign).
    A call on the matrix of the previous call (same shape and bytes, so a
    zero of the other sign misses) returns the same arrays; only a miss scans
    ``mat`` for NaN and inf, and a matrix that holds any is never kept.
    """
    key = (mat.shape, mat.tobytes())
    terms = _TERMS.get(key)
    if terms is None:
        _check_means(mat)
        diffs = [col[None, :] - col[:, None] for col in mat.T]  # diff[x, y] = mu_i(y) - mu_i(x)
        small = reduce(np.minimum, diffs)
        large = -small  # np.minimum and np.maximum keep the same operand on ties
        # y dominates x: y >= x everywhere (small[x, y] >= 0) and y > x somewhere.
        front = (~((small >= 0) & (small.T < 0)).any(axis=1)).nonzero()[0]
        terms = (small, large, front)
        for array in terms:
            array.flags.writeable = False
        _TERMS.clear()
        _TERMS[key] = terms
    return terms


def _pick(values: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """values[x, cols[x]] for every row x."""
    return values[np.arange(len(cols)), cols]


def pareto_front(means: np.ndarray) -> list[int]:
    """Indices of the non-dominated arms; equal vectors never dominate each other."""
    return _pair_terms(np.asarray(means, dtype=float))[2].tolist()


def pareto_gap_report(means: np.ndarray) -> GapReport:
    """Pareto gaps of every arm.

    Dominated arms get the largest domination margin from a front arm; front
    arms get the smaller of their distinguishability from the rest of the
    front (delta_plus) and the cheapest route through a dominated arm
    (delta_minus). Missing comparison sets yield unbounded components.

    Every min/max keeps the first of tied operands, as Python's ``min`` and
    ``max`` do (``argmin``/``argmax`` pick the lowest index), which fixes the
    sign of zero gaps on exact ties.
    """
    mat = np.asarray(means, dtype=float)
    front = pareto_front(mat)  # refuses a matrix that is not K x m before its shape is read
    on_front = np.zeros(mat.shape[0], dtype=bool)
    on_front[front] = True
    front, dominated = on_front.nonzero()[0], (~on_front).nonzero()[0]
    small, large, _ = _pair_terms(mat)  # computed by the pareto_front call above

    margins = small[dominated[:, None], front]
    dominated_gap = _pick(margins, margins.argmax(axis=1))

    pair = large[front[:, None], front]
    pair = np.where(pair.T < pair, pair.T, pair)  # min(large[x, y], large[y, x])
    pair.flat[:: len(front) + 1] = UNBOUNDED  # the diagonal, so a singleton front gets delta_plus = inf
    delta_plus = _pick(pair, pair.argmin(axis=1))
    if len(dominated):
        route = large[dominated[:, None], front].T  # route[x, y] = large[y, x]
        route = np.where(0.0 > route, 0.0, route) + dominated_gap[None, :]
        delta_minus = _pick(route, route.argmin(axis=1))
    else:
        delta_minus = np.full(len(front), UNBOUNDED)

    gap = np.empty(mat.shape[0])
    gap[dominated] = dominated_gap
    gap[front] = np.where(delta_minus < delta_plus, delta_minus, delta_plus)

    def entries() -> tuple[GapEntry, ...]:
        parts = {}
        for x, margin in zip(dominated.tolist(), dominated_gap.tolist()):
            parts[x] = ("dominated", {"domination_margin": margin})
        for x, plus, minus in zip(front.tolist(), delta_plus.tolist(), delta_minus.tolist()):
            parts[x] = ("pareto", {"delta_plus": plus, "delta_minus": minus})
        return tuple(GapEntry(x, g, *parts[x]) for x, g in enumerate(gap.tolist()))

    return GapReport("pareto", gap, entries)


def best_feasible_arm(means: np.ndarray, tau: float) -> int:
    """Feasibility-constrained maximiser of the primary objective, lowest index on ties."""
    mat = _check_means(means)
    feas = [x for x in range(mat.shape[0]) if mat[x, 1] >= tau]
    if not feas:
        raise InstanceError(f"no feasible arm at threshold tau={tau}")
    return max(feas, key=lambda x: (mat[x, 0], -x))


def constrained_gap_report(means: np.ndarray, tau: float) -> GapReport:
    """Constrained gaps of every arm for a two-objective instance.

    Each arm's raw difficulty is the larger of its constraint violation and
    its primary-objective suboptimality; the gap is that difficulty capped by
    the optimal arm's own constraint margin.
    """
    mat = _check_means(means)
    if mat.shape[1] != 2:
        raise DomainError("constrained gaps are defined for m = 2 objectives")
    if not math.isfinite(tau):
        raise DomainError(f"tau must be finite, got {tau}")
    star = best_feasible_arm(mat, tau)
    cap = float(mat[star, 1] - tau)
    # Python's max/min keep their first operand on ties, and so do these wheres
    raw = tau - mat[:, 1]
    viol = np.where(0.0 > raw, 0.0, raw)
    subopt = mat[star, 0] - mat[:, 0]
    delta = np.where(subopt > viol, subopt, viol)
    gap = np.where(cap < delta, cap, delta)
    classes = np.where(mat[:, 1] >= tau, "feasible", "infeasible")
    classes[star] = "optimal"

    def entries() -> tuple[GapEntry, ...]:
        rows = zip(gap.tolist(), classes.tolist(), viol.tolist(), subopt.tolist(), delta.tolist())
        return tuple(
            GapEntry(x, g, cls, {"violation": v, "suboptimality": s, "difficulty": d, "margin_cap": cap})
            for x, (g, cls, v, s, d) in enumerate(rows)
        )

    return GapReport("constrained", gap, entries, tau=tau, optimal_arm=star)


def hardness(means: np.ndarray, tau: float) -> float:
    """max over non-optimal arms of 1 / gap^2. An arm whose gap^2 overflows, or whose gap is
    infinite, adds zero; one whose gap^2 underflows to zero makes it infinite."""
    mat = _check_means(means)
    if mat.shape[0] < 2:
        raise DomainError("hardness needs K >= 2 arms")
    report = constrained_gap_report(mat, tau)
    worst = 0.0
    for arm, gap in enumerate(report.gap_column.tolist()):
        if arm == report.optimal_arm:
            continue
        if gap == 0.0:
            raise InstanceError(f"arm {arm} has zero constrained gap; hardness is undefined")
        try:
            worst = max(worst, 1.0 / gap**2)
        except OverflowError:
            continue
        except ZeroDivisionError:
            worst = math.inf
    return worst
