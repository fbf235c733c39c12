"""Dominance and gap machinery, for true means and plug-in estimates alike.

All functions take a K x m matrix of mean vectors; applying them to estimated
means yields the empirical quantities used by the elimination loops. The
Pareto front and gaps come from one dense all-pairs pass (``_pair_terms``,
O(K^2 m) numpy work) instead of a loop over arm pairs. Argmax and argmin ties
always break toward the lowest arm index, as Python's ``min``/``max`` would,
so even the sign of a zero gap is reproducible. Unbounded gap components are
``math.inf`` - which compares above every finite gap - and are serialised as
the string ``"inf"``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce

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


@dataclass(frozen=True)
class GapReport:
    """Per-arm gap entries for one instance, plus the derived hardness if defined."""

    mode: str  # "pareto" or "constrained"
    entries: tuple[GapEntry, ...]
    tau: float | None = None
    optimal_arm: int | None = None

    def gap(self, arm: int) -> float:
        return self.entries[arm].gap

    def gaps(self) -> dict[int, float]:
        return {e.arm: e.gap for e in self.entries}

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
    mat = np.asarray(means, dtype=float)
    if mat.ndim != 2 or mat.shape[0] < 1 or mat.shape[1] < 2:
        raise DomainError(f"means must be K x m with m >= 2, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise DomainError("means must be finite")
    return mat


def _pair_terms(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All-pairs closeness terms: small[x, y] = min_i (mu_i(y) - mu_i(x)),
    large[x, y] = max_i (mu_i(x) - mu_i(y)).

    One K x K outer difference per objective. ``large`` negates the same
    differences instead of subtracting the other way round: the two forms
    differ in the sign of zero, and reported gaps keep the negated form's.
    """
    diffs = [col[None, :] - col[:, None] for col in mat.T]  # diff[x, y] = mu_i(y) - mu_i(x)
    return reduce(np.minimum, diffs), reduce(np.maximum, [-d for d in diffs])


def _pick(values: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """values[x, cols[x]] for every row x."""
    return np.take_along_axis(values, cols[:, None], axis=1)[:, 0]


def pareto_front(means: np.ndarray) -> list[int]:
    """Indices of the non-dominated arms; equal vectors never dominate each other."""
    small, large = _pair_terms(_check_means(means))
    # y dominates x: y >= x everywhere (small[x, y] >= 0) and y > x somewhere.
    dominated = ((small >= 0) & (large.T > 0)).any(axis=1)
    return np.flatnonzero(~dominated).tolist()


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
    mat = _check_means(means)
    k = mat.shape[0]
    on_front = np.zeros(k, dtype=bool)
    on_front[pareto_front(mat)] = True
    front, dominated = np.flatnonzero(on_front), np.flatnonzero(~on_front)
    small, large = _pair_terms(mat)

    margins = small[np.ix_(dominated, front)]
    dominated_gap = _pick(margins, margins.argmax(axis=1))

    pair = large[np.ix_(front, front)]
    pair = np.where(pair.T < pair, pair.T, pair)  # min(large[x, y], large[y, x])
    np.fill_diagonal(pair, UNBOUNDED)  # so a singleton front gets delta_plus = inf
    delta_plus = _pick(pair, pair.argmin(axis=1))
    if len(dominated):
        route = large[np.ix_(dominated, front)].T  # route[x, y] = large[y, x]
        route = np.where(0.0 > route, 0.0, route) + dominated_gap[None, :]
        delta_minus = _pick(route, route.argmin(axis=1))
    else:
        delta_minus = np.full(len(front), UNBOUNDED)
    gap = np.where(delta_minus < delta_plus, delta_minus, delta_plus)

    entries: list[GapEntry | None] = [None] * k
    for x, g in zip(dominated.tolist(), dominated_gap.tolist()):
        entries[x] = GapEntry(
            arm=x,
            gap=g,
            classification="dominated",
            components={"domination_margin": g},
        )
    for x, g, plus, minus in zip(
        front.tolist(), gap.tolist(), delta_plus.tolist(), delta_minus.tolist()
    ):
        entries[x] = GapEntry(
            arm=x,
            gap=g,
            classification="pareto",
            components={"delta_plus": plus, "delta_minus": minus},
        )
    return GapReport(mode="pareto", entries=tuple(entries))


def pareto_gap(means: np.ndarray, arm: int) -> GapEntry:
    """Pareto gap entry of a single arm (see ``pareto_gap_report``)."""
    mat = _check_means(means)
    if mat.shape[0] < 2:
        raise DomainError("pareto gaps need K >= 2 arms")
    if not 0 <= arm < mat.shape[0]:
        raise DomainError(f"arm {arm} out of range [0, {mat.shape[0]})")
    return pareto_gap_report(mat).entries[arm]


def feasible_arms(means: np.ndarray, tau: float) -> list[int]:
    """Arms whose constraint objective meets the threshold (mu_2 >= tau)."""
    mat = _check_means(means)
    return [x for x in range(mat.shape[0]) if mat[x, 1] >= tau]


def best_feasible_arm(means: np.ndarray, tau: float) -> int:
    """Feasibility-constrained maximiser of the primary objective, lowest index on ties."""
    mat = _check_means(means)
    feas = feasible_arms(mat, tau)
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
    star = best_feasible_arm(mat, tau)
    cap = float(mat[star, 1] - tau)
    entries = []
    for x in range(mat.shape[0]):
        viol = float(max(tau - mat[x, 1], 0.0))
        subopt = float(mat[star, 0] - mat[x, 0])
        delta = max(viol, subopt)
        gap = float(min(delta, cap))
        if x == star:
            classification = "optimal"
        elif mat[x, 1] >= tau:
            classification = "feasible"
        else:
            classification = "infeasible"
        entries.append(
            GapEntry(
                arm=x,
                gap=gap,
                classification=classification,
                components={
                    "violation": viol,
                    "suboptimality": subopt,
                    "difficulty": delta,
                    "margin_cap": cap,
                },
            )
        )
    return GapReport(mode="constrained", entries=tuple(entries), tau=tau, optimal_arm=star)


def constrained_gap(means: np.ndarray, tau: float, arm: int) -> GapEntry:
    """Constrained gap entry of a single arm (see ``constrained_gap_report``)."""
    mat = _check_means(means)
    if not 0 <= arm < mat.shape[0]:
        raise DomainError(f"arm {arm} out of range [0, {mat.shape[0]})")
    return constrained_gap_report(mat, tau).entries[arm]


def hardness(means: np.ndarray, tau: float) -> float:
    """max over non-optimal arms of 1 / gap^2; infinite-gap arms contribute zero."""
    mat = _check_means(means)
    if mat.shape[0] < 2:
        raise DomainError("hardness needs K >= 2 arms")
    report = constrained_gap_report(mat, tau)
    worst = 0.0
    for entry in report.entries:
        if entry.arm == report.optimal_arm:
            continue
        if entry.gap == 0.0:
            raise InstanceError(
                f"arm {entry.arm} has zero constrained gap; hardness is undefined"
            )
        worst = max(worst, 1.0 / entry.gap**2)
    return worst
