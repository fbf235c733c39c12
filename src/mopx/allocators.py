"""Per-round pull assignment: uniform allocation and G-optimal design.

The design solver minimises the worst-case leverage
``g(w) = max_x phi(x)^T A(w)^+ phi(x)`` with ``A(w) = sum_i w_i phi_i phi_i^T``
over the probability simplex, using entropic mirror descent with the best
iterate retained (subgradient steps are not individually monotone). The
rounding step turns simplex weights into integer pull counts by largest
remainder, then forces one pull onto every arm of the greedily selected
feature basis so the round's design matrix spans the active feature space.

A design is a function of the active feature rows alone, so successful solves
are memoised in a small per-process LRU cache keyed on the exact feature bytes
and layout and ``epsilon``. A hit returns the cached frozen design itself, the
bits a fresh solve would give; failed solves are not cached and raise again.
"""

from __future__ import annotations

import math
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np
from numpy._core.multiarray import c_einsum

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
        """Pull order cycling through arms in ascending index until counts run out.

        Pass p visits the arms with more than p pulls; passes between two
        distinct counts visit the same arms, so they are laid out together.
        """
        arms = sorted(self.counts)
        seq: list[int] = []
        done = 0
        for level in sorted(set(self.counts.values())):
            seq.extend(arms * (level - done))  # passes done .. level - 1
            arms = [a for a in arms if self.counts[a] > level]
            done = level
        return seq


@dataclass(frozen=True)
class DesignWeights:
    """Simplex weights in feature-row order with the achieved worst-case leverage.

    ``basis`` holds the feature-basis row indices the solver selected, which
    ``round_design`` covers as given, without a scan of its own.
    """

    weights: tuple[float, ...]
    objective_value: float
    basis: tuple[int, ...] = field(repr=False)
    trace: tuple[float, ...] = field(default=(), repr=False)


class DesignConvergenceError(NumericalError):
    """Mirror descent hit the iteration cap; carries the best design found."""

    def __init__(self, message: str, weights: DesignWeights):
        super().__init__(message)
        self.weights = weights

    def __reduce__(self):  # the default rebuilds from args alone, which lack the weights
        return type(self), (*self.args, self.weights)


def allocate_uniform(n: int, active: list[int]) -> PullCounts:
    """Spread n pulls over the active arms, remainder going to the lowest indices."""
    if not active:
        raise DomainError("cannot allocate pulls over an empty active set")
    if n < 1:
        raise DomainError(f"need at least one pull, got n={n}")
    ordered = _sorted_arms(active)
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


def solve_g_optimal(features: np.ndarray, epsilon: float) -> DesignWeights:
    """Minimise the worst-case leverage over the simplex to within (1+epsilon).

    ``features`` holds one row per active arm; the weights follow its rows.
    Raises DesignConvergenceError (carrying the best design) if the target
    objective (1+epsilon)*d_act is not reached within ``MAX_DESIGN_ITERS`` iterations.
    Repeated calls with the same inputs are answered from the design cache.
    """
    feats = np.asarray(features, dtype=float)
    if feats.ndim != 2 or feats.shape[0] < 1:
        raise DomainError(f"features must be a non-empty 2-D array, got shape {feats.shape}")
    if not (0.0 < epsilon < 1.0):
        raise ConfigurationError(f"epsilon must be in (0, 1), got {epsilon}")
    # product rounding can depend on memory layout, so the strides are part of the key
    key = (feats.tobytes(), feats.shape, feats.strides, epsilon, type(epsilon))
    design = _DESIGNS.get(key)
    if design is None:
        design = _mirror_descent(feats, epsilon)  # errors are not cached
        _DESIGNS[key] = design
        if len(_DESIGNS) > DESIGN_CACHE_SIZE:
            _DESIGNS.popitem(last=False)
    else:
        _DESIGNS.move_to_end(key)
    return design


def _mirror_descent(feats: np.ndarray, epsilon: float) -> DesignWeights:
    basis = select_independent_basis(feats)
    d_act = len(basis)
    if d_act < 1:
        raise DomainError("active features span a zero-dimensional space")
    target = (1.0 + epsilon) * d_act

    k = feats.shape[0]
    feats_t = feats.T
    basis_rows = feats[basis]
    phi = basis_rows.T  # d x d_act, as pseudo_inverse builds it
    # per-solve work arrays; each iteration writes them with out=, np.dot (one BLAS
    # call, no gufunc dispatch; on C- or F-ordered operands the call @ makes, same
    # bits) and a direct C einsum, in the reference's operation order
    d = feats.shape[1]
    rows, gram, pv = np.empty_like(feats), np.empty((d, d)), np.empty(d)
    sq, cross, lev = np.empty(k), np.empty(k), np.empty(k)
    w = np.full(k, 1.0 / k)
    best_w = w
    best_obj = np.inf
    trace: list[float] = []
    for it in range(MAX_DESIGN_ITERS):
        np.dot(feats_t, np.multiply(w[:, None], feats, out=rows), out=gram)
        # the first iteration validates through pseudo_inverse; the rest reuse
        # its basis matrix and skip the checks that cannot change within a solve;
        # the basis rows alone scan to the same basis, all of them in order
        if it:
            pinv = _restricted_inverse(gram, phi)
        else:
            pinv = pseudo_inverse(gram, basis_rows)
        c_einsum("ij,jk,ik->i", feats, pinv, feats, out=lev)  # phi_i^T A^+ phi_i
        star = int(lev.argmax())
        obj = float(lev[star])
        if obj < best_obj:
            best_obj = obj
            best_w = w  # each iteration makes a new w; only that one is written in place
        trace.append(best_obj)
        if best_obj <= target:
            break
        # the subgradient of lev[star] in w is -sq, so w moves along exp(step * sq)
        np.dot(feats, np.dot(pinv, feats[star], out=pv), out=cross)
        scale = float(np.maximum.reduce(np.multiply(cross, cross, out=sq)))
        if scale <= 0.0:
            break
        # 1/sqrt(t) decay; a constant step oscillates without reaching the target
        step = 0.5 / (scale * math.sqrt(it + 1.0))
        w = w * np.exp(np.multiply(step, sq, out=sq), out=sq)
        w /= np.add.reduce(w)

    weights = DesignWeights(
        weights=tuple(best_w.tolist()),
        objective_value=best_obj,
        trace=tuple(trace),
        basis=tuple(basis),
    )
    if best_obj > target:
        raise DesignConvergenceError(
            f"design solver did not reach objective {target:.6g} within {MAX_DESIGN_ITERS} iterations "
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
    lowest index), followed by a ``cover_arms`` pass that gives every arm of
    the feature basis ``weights`` carries at least one pull. Row i of
    ``features`` and weight i belong to the i-th lowest of the distinct
    ``active`` arms. ``kappa`` is validated against (0, 1/3] and otherwise ignored.
    """
    if not (0.0 < kappa <= 1.0 / 3.0):
        raise ConfigurationError(f"kappa must be in (0, 1/3], got {kappa}")
    if n < 1:
        raise DomainError(f"need at least one pull, got n={n}")
    arms = _sorted_arms(active)
    if not len(features) == len(arms) == len(weights.weights):
        raise DomainError(
            f"round_design needs one feature row and one design weight per active arm, got "
            f"{len(features)} rows, {len(arms)} active arms and {len(weights.weights)} weights"
        )
    basis = weights.basis
    if not all(0 <= b < len(arms) for b in basis):
        raise DomainError(
            f"design basis {list(basis)} indexes rows outside the {len(arms)} active arms"
        )
    if n < len(basis):
        raise ConfigurationError(
            f"round budget n={n} cannot cover the {len(basis)}-arm feature basis"
        )
    raw = n * np.array(weights.weights, dtype=float)
    floors = np.floor(raw)  # a NaN or inf share makes the remainder NaN or infinite, outside [0, K]
    if not (raw.min() >= 0 and 0 <= n - floors.sum() <= len(arms)):
        raise DomainError(f"design weights must be non-negative and sum to 1, got {weights.weights}")
    counts = floors.astype(int)
    # the rest go to the largest fractional parts; stable, so ties go to the lowest row and arm
    largest = np.argsort(counts - raw, kind="stable")
    counts[largest[: n - int(counts.sum())]] += 1
    pulls = dict(zip(arms, counts.tolist()))
    if not cover_arms(pulls, [arms[b] for b in basis]):
        raise ConfigurationError("budget too small to keep the feature basis covered")
    return PullCounts(counts=pulls)


def _sorted_arms(active: list[int]) -> list[int]:
    """The active arm ids in ascending order; a repeated id would lose its pulls."""
    arms = sorted(active)
    if repeated := sorted({a for a, b in zip(arms, arms[1:]) if a == b}):
        raise DomainError(f"active arms must be distinct, repeated: {repeated}")
    return arms


def cover_arms(counts: dict[int, int], needed: list[int]) -> bool:
    """Give each ``needed`` arm with a zero count, in the order given, one pull
    from the largest count of at least 2 (ties to the lowest arm), editing
    ``counts`` in place. Returns False, stopping there, when no such count is
    left for a needed arm."""
    for arm in needed:
        if counts[arm] >= 1:
            continue
        donors = [a for a in counts if counts[a] >= 2]
        if not donors:
            return False
        donor = min(donors, key=lambda a: (-counts[a], a))
        counts[donor] -= 1
        counts[arm] += 1
    return True
