"""Evaluation metrics: hypervolume, soft constrained reward, recovery rates.

Hypervolume is the exact Lebesgue measure of the region between a reference
point and the union of boxes spanned by the given points - a descending sweep
for two objectives, axis slicing for three. Points below the reference are
clipped to it (they contribute nothing), and estimated Pareto sets are always
scored at the arms' true mean vectors.
"""

from __future__ import annotations

import numpy as np

from .core import MetricError, UnsupportedDimensionError
from .gaps import pareto_front


def _hv_two(points: np.ndarray, reference: np.ndarray) -> float:
    order = np.lexsort((-points[:, 1], -points[:, 0]))
    best_y = reference[1]
    total = 0.0
    for idx in order:
        x, y = points[idx]
        if y > best_y:
            total += (x - reference[0]) * (y - best_y)
            best_y = y
    return float(total)


def _hv_three(points: np.ndarray, reference: np.ndarray) -> float:
    levels = sorted(set(points[:, 2]), reverse=True)
    total = 0.0
    for i, z in enumerate(levels):
        lower = levels[i + 1] if i + 1 < len(levels) else reference[2]
        slab = z - lower
        if slab <= 0:
            continue
        stack = points[points[:, 2] >= z][:, :2]
        total += slab * _hv_two(stack, reference[:2])
    return float(total)


def hypervolume(points, reference) -> float:
    """Volume dominated by ``points`` relative to ``reference`` (m in {2, 3})."""
    ref = np.asarray(reference, dtype=float)
    if ref.ndim != 1 or ref.size < 2:
        raise MetricError(f"reference must be an m-vector with m >= 2, got shape {ref.shape}")
    if ref.size > 3:
        raise UnsupportedDimensionError(f"hypervolume supports m in {{2, 3}}, got m={ref.size}")
    if not np.all(np.isfinite(ref)):
        raise MetricError("reference must be finite")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        return 0.0
    if pts.shape[1] != ref.size:
        raise MetricError(f"points have m={pts.shape[1]} but reference has m={ref.size}")
    if not np.all(np.isfinite(pts)):
        raise MetricError("points must be finite")
    pts = np.maximum(pts, ref)
    if ref.size == 2:
        return _hv_two(pts, ref)
    return _hv_three(pts, ref)


def soft_constrained_reward(
    mu_selected: np.ndarray,
    tau: float,
    mu1_star: float | None = None,
) -> tuple[float, float | None]:
    """Primary reward of the returned arm if its constraint value clears 0.9 tau,
    else zero; optionally normalised by the best feasible arm's primary reward."""
    if not tau > 0:  # NaN fails every comparison
        raise MetricError(f"soft constrained reward needs tau > 0, got {tau}")
    if tau == np.inf:
        raise MetricError(f"soft constrained reward needs a finite tau, got {tau}")
    mu = np.asarray(mu_selected, dtype=float)
    raw = float(mu[0]) if mu[1] >= 0.9 * tau else 0.0
    if mu1_star is None:
        return raw, None
    if mu1_star <= 0:
        raise MetricError(f"cannot normalise by a non-positive optimum {mu1_star}")
    if not mu1_star < np.inf:  # NaN fails every comparison
        raise MetricError(f"cannot normalise by a non-finite optimum {mu1_star}")
    return raw, raw / mu1_star


def hv_recovery(estimated_set, true_means, reference=None) -> float:
    """Percent of the hypervolume of the Pareto front of ``true_means`` covered
    by the estimated set, with both sets scored at the true means. Arms are
    Python or numpy integers in [0, K); a bool, float or string is refused."""
    means = np.asarray(true_means, dtype=float)
    if means.ndim != 2:
        raise MetricError(f"true means must be a K x m matrix, got shape {means.shape}")
    arms = list(estimated_set)
    if not all(isinstance(a, (int, np.integer)) and not isinstance(a, bool) for a in arms):  # True indexes as a mask
        raise MetricError(f"estimated arms must be integers, got {arms}")
    estimated = sorted(set(arms))
    if estimated and not 0 <= estimated[0] <= estimated[-1] < len(means):  # -1 would index the last arm
        raise MetricError(f"estimated arms must lie in [0, {len(means)}), got {estimated}")
    ref = np.zeros(means.shape[1]) if reference is None else np.asarray(reference, dtype=float)
    truth = hypervolume(means[pareto_front(means)], ref)
    if truth == 0.0:
        raise MetricError("ground-truth hypervolume is zero; recovery is undefined")
    return 100.0 * hypervolume(means[estimated], ref) / truth
