"""Per-round pull assignment: uniform allocation and G-optimal design.

The design solver minimises the worst-case leverage
``g(w) = max_x phi(x)^T A(w)^+ phi(x)`` with ``A(w) = sum_i w_i phi_i phi_i^T``
over the probability simplex, using entropic mirror descent with the best
iterate retained (subgradient steps are not individually monotone). The
rounding step turns simplex weights into integer pull counts by largest
remainder, then forces one pull onto every arm of the greedily selected
feature basis so the round's design matrix spans the active feature space.

A design depends only on the active feature rows, so successful solves are
memoised in a small per-process LRU cache keyed on the exact feature bytes and
layout, ``epsilon``, the active arm ids and ``max_iters``. A hit returns the
same bits a fresh solve would; failed solves are not cached and raise again.
"""

from __future__ import annotations

import math
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .core import ConfigurationError, DomainError, NumericalError
from .estimators import _restricted_inverse, pseudo_inverse, select_independent_basis

MAX_DESIGN_ITERS = 5000
DESIGN_CACHE_SIZE = 32  # designs kept per process


@dataclass(frozen=True)
class PullCounts:
    """Integer pull counts per active arm for one round; counts sum to n_r."""

    counts: dict[int, int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def blocked_sequence(self) -> list[int]:
        """Pull order where step t maps to arm i iff t lands in i's count block.

        Blocks are laid out in ascending arm index, i.e. t in
        (sum_{j<i} N_j, sum_{j<=i} N_j].
        """
        seq: list[int] = []
        for arm in sorted(self.counts):
            seq.extend([arm] * self.counts[arm])
        return seq

    def round_robin_sequence(self) -> list[int]:
        """Pull order cycling through arms in ascending index until counts run out."""
        remaining = {arm: self.counts[arm] for arm in sorted(self.counts)}
        seq: list[int] = []
        while any(c > 0 for c in remaining.values()):
            for arm in sorted(remaining):
                if remaining[arm] > 0:
                    seq.append(arm)
                    remaining[arm] -= 1
        return seq


@dataclass(frozen=True)
class DesignWeights:
    """Simplex weights over the active arms with the achieved worst-case leverage.

    ``basis`` holds the feature-basis row indices the solver selected, so that
    ``round_design`` need not scan the same rows again; hand-built designs
    leave it ``None``.
    """

    weights: dict[int, float]
    objective_value: float
    trace: tuple[float, ...] = field(default=(), repr=False)
    basis: tuple[int, ...] | None = field(default=None, repr=False)

    def as_array(self, active: list[int]) -> np.ndarray:
        return np.array([self.weights[a] for a in active], dtype=float)


class DesignConvergenceError(NumericalError):
    """Mirror descent hit the iteration cap; carries the best design found."""

    def __init__(self, message: str, weights: DesignWeights):
        super().__init__(message)
        self.weights = weights
        self.objective = weights.objective_value


def allocate_uniform(n: int, active: list[int]) -> PullCounts:
    """Spread n pulls over the active arms, remainder going to the lowest indices."""
    if not active:
        raise DomainError("cannot allocate pulls over an empty active set")
    if n < 1:
        raise DomainError(f"need at least one pull, got n={n}")
    ordered = sorted(active)
    base, rem = divmod(n, len(ordered))
    if n < len(ordered):
        warnings.warn(
            f"round budget n={n} is below the active-set size {len(ordered)}; "
            "some arms get no pull this round",
            stacklevel=2,
        )
    counts = {arm: base + (1 if i < rem else 0) for i, arm in enumerate(ordered)}
    return PullCounts(counts=counts)


# solve_g_optimal's memo of successful designs, least recently used first
_DESIGNS: OrderedDict[tuple, DesignWeights] = OrderedDict()


def solve_g_optimal(
    features: np.ndarray,
    epsilon: float,
    *,
    active: list[int] | None = None,
    max_iters: int = MAX_DESIGN_ITERS,
) -> DesignWeights:
    """Minimise the worst-case leverage over the simplex to within (1+epsilon).

    ``features`` holds one row per active arm, in ascending arm index; ``active``
    supplies the arm ids for the returned weight map (defaults to row numbers).
    Raises DesignConvergenceError (carrying the best design) if the target
    objective (1+epsilon)*d_act is not reached within ``max_iters`` iterations.
    Repeated calls with the same inputs are answered from the design cache.
    """
    feats = np.asarray(features, dtype=float)
    if feats.ndim != 2 or feats.shape[0] < 1:
        raise DomainError(f"features must be a non-empty 2-D array, got shape {feats.shape}")
    if not (0.0 < epsilon < 1.0):
        raise ConfigurationError(f"epsilon must be in (0, 1), got {epsilon}")
    arms = tuple(range(feats.shape[0])) if active is None else tuple(sorted(active))
    if len(arms) != feats.shape[0]:
        raise DomainError("active arm list must match the feature rows")
    # matmul rounding can depend on memory layout, so the strides are part of the key
    key = (feats.tobytes(), feats.shape, feats.strides, epsilon, type(epsilon), arms, max_iters)
    design = _DESIGNS.get(key)
    if design is None:
        design = _mirror_descent(feats, epsilon, arms, max_iters)  # errors are not cached
        _DESIGNS[key] = design
        if len(_DESIGNS) > DESIGN_CACHE_SIZE:
            _DESIGNS.popitem(last=False)
    else:
        _DESIGNS.move_to_end(key)
    # a fresh weight map per call, so a caller's edits never reach the cache
    return DesignWeights(dict(design.weights), design.objective_value, design.trace, design.basis)


def _mirror_descent(
    feats: np.ndarray, epsilon: float, arms: tuple[int, ...], max_iters: int
) -> DesignWeights:
    basis = select_independent_basis(feats)
    d_act = len(basis)
    if d_act < 1:
        raise DomainError("active features span a zero-dimensional space")
    target = (1.0 + epsilon) * d_act

    k = feats.shape[0]
    feats_t = feats.T
    phi = feats[basis].T  # d x d_act, as pseudo_inverse builds it
    w = np.full(k, 1.0 / k)
    best_w = w
    best_obj = np.inf
    trace: list[float] = []
    for it in range(max_iters):
        gram = feats_t @ (w[:, None] * feats)
        # the first iteration validates through pseudo_inverse; the rest reuse
        # its basis matrix and skip the checks that cannot change within a solve
        if it:
            pinv = _restricted_inverse(gram, phi)
        else:
            pinv = pseudo_inverse(gram, feats, basis=basis)
        lev = np.einsum("ij,jk,ik->i", feats, pinv, feats)  # phi_i^T A^+ phi_i
        star = int(lev.argmax())
        obj = float(lev[star])
        if obj < best_obj:
            best_obj = obj
            best_w = w  # w is rebound below, never written in place
        trace.append(best_obj)
        if best_obj <= target:
            break
        # the subgradient of lev[star] in w is -sq, so w moves along exp(step * sq)
        cross = feats @ (pinv @ feats[star])
        sq = cross * cross
        scale = float(sq.max())
        if scale <= 0.0:
            break
        # 1/sqrt(t) decay; a constant step oscillates without reaching the target
        step = 0.5 / (scale * math.sqrt(it + 1.0))
        w = w * np.exp(step * sq)
        w = w / w.sum()

    weights = DesignWeights(
        weights={arm: float(best_w[i]) for i, arm in enumerate(arms)},
        objective_value=best_obj,
        trace=tuple(trace),
        basis=tuple(basis),
    )
    if best_obj > target:
        raise DesignConvergenceError(
            f"design solver did not reach objective {target:.6g} within {max_iters} iterations "
            f"(best {best_obj:.6g})",
            weights,
        )
    return weights


def round_design(
    n: int,
    weights: DesignWeights,
    kappa: float,
    active: list[int],
    features: np.ndarray,
) -> PullCounts:
    """Turn design weights into integer pull counts summing exactly to n.

    Largest-remainder apportionment of ``n * w_i`` (fractional ties to the
    lowest index), followed by a coverage pass that gives every arm of the
    greedily selected feature basis at least one pull, decrementing the
    largest count to compensate. The basis is the one ``weights`` carries from
    the solver, or a fresh scan of ``features`` when it carries none; one row
    of ``features`` and one weight per active arm are required. ``kappa`` is
    validated against (0, 1/3] and otherwise ignored.
    """
    if not (0.0 < kappa <= 1.0 / 3.0):
        raise ConfigurationError(f"kappa must be in (0, 1/3], got {kappa}")
    if n < 1:
        raise DomainError(f"need at least one pull, got n={n}")
    arms = sorted(active)
    if not len(features) == len(arms) == len(weights.weights):
        raise DomainError(
            f"round_design needs one feature row and one design weight per active arm, got "
            f"{len(features)} rows, {len(arms)} active arms and {len(weights.weights)} weights"
        )
    basis = weights.basis
    if basis is None:
        basis = select_independent_basis(np.asarray(features, dtype=float))
    elif not all(0 <= b < len(arms) for b in basis):
        raise DomainError(
            f"design basis {list(basis)} indexes rows outside the {len(arms)} active arms"
        )
    if n < len(basis):
        raise ConfigurationError(
            f"round budget n={n} cannot cover the {len(basis)}-arm feature basis"
        )
    w = weights.as_array(arms)
    raw = n * w
    floors = np.floor(raw).astype(int)
    remainder = n - int(floors.sum())
    # ties on the fractional part go to the lowest arm index
    order = sorted(range(len(arms)), key=lambda i: (-(raw[i] - floors[i]), arms[i]))
    counts = floors.copy()
    for i in order[:remainder]:
        counts[i] += 1

    for b in basis:
        if counts[b] >= 1:
            continue
        donors = [i for i in range(len(arms)) if counts[i] >= 2]
        if not donors:
            raise ConfigurationError("budget too small to keep the feature basis covered")
        donor = min(donors, key=lambda i: (-counts[i], arms[i]))
        counts[donor] -= 1
        counts[b] += 1

    return PullCounts(counts={arm: int(counts[i]) for i, arm in enumerate(arms)})
