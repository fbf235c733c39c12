"""Mean-reward estimators: sample averages, span-restricted least squares, MLP.

The least-squares path follows the round-local design: with design matrix X and
Gram matrix V = X^T X, the inverse is taken on the subspace actually spanned by
the pulled features, via V^+ = Phi (Phi^T V Phi)^{-1} Phi^T where Phi is a
maximal linearly independent subset of those features. The MLP is a single
ReLU hidden layer trained by full-batch adaptive gradient descent with the
lowest-loss iterate retained.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigurationError, EstimationError, NumericalError, ObservationBatch

BASIS_RESIDUAL_TOL = 1e-9
MAX_CONDITION = 1e12

MeanEstimates = dict[int, np.ndarray]


def select_independent_basis(features: np.ndarray, tol: float = BASIS_RESIDUAL_TOL) -> list[int]:
    """Row indices of a maximal linearly independent subset, greedy in row order.

    Gram-Schmidt scan over rows in ascending order; a row joins the basis when
    its residual after projecting onto the rows already chosen exceeds ``tol``.
    """
    feats = np.asarray(features, dtype=float)
    basis: list[int] = []
    ortho: list[np.ndarray] = []
    for i, row in enumerate(feats):
        residual = row.astype(float).copy()
        for q in ortho:
            residual -= (q @ residual) * q
        norm = float(np.linalg.norm(residual))
        if norm > tol:
            basis.append(i)
            ortho.append(residual / norm)
    return basis


def pseudo_inverse(
    gram: np.ndarray,
    active_features: np.ndarray,
    *,
    basis: list[int] | None = None,
) -> np.ndarray:
    """Inverse of ``gram`` restricted to the span of ``active_features``.

    ``basis`` may carry precomputed basis row indices (from
    ``select_independent_basis`` on the same feature rows) to skip the scan.
    """
    feats = np.asarray(active_features, dtype=float)
    if feats.ndim != 2 or feats.shape[0] < 1:
        raise EstimationError("active_features must be a non-empty 2-D array")
    if basis is None:
        basis = select_independent_basis(feats)
    if not basis:
        raise NumericalError("all active features are numerically zero")
    phi = feats[basis].T  # d x k
    inner = phi.T @ np.asarray(gram, dtype=float) @ phi
    # np.linalg.cond(inner) without its per-call overhead: 2-norm condition
    # from the singular values, 0/0 read as inf unless inner itself holds a NaN
    s = np.linalg.svd(inner, compute_uv=False)
    with np.errstate(all="ignore"):
        cond = float(s[0] / s[-1])
    if math.isnan(cond) and not np.isnan(inner).any():
        cond = math.inf
    if not np.isfinite(cond) or cond > MAX_CONDITION:
        raise NumericalError(
            f"restricted Gram matrix is numerically singular (condition {cond:.3g})"
        )
    return phi @ np.linalg.inv(inner) @ phi.T


def estimate_sample_mean(batch: ObservationBatch, active: list[int]) -> MeanEstimates:
    """Cumulative per-arm coordinate-wise mean of all observations."""
    if len(batch) == 0:
        raise EstimationError("cannot estimate from an empty batch")
    arms = batch.arms
    rewards = batch.rewards
    out: MeanEstimates = {}
    for arm in active:
        mask = arms == arm
        if not mask.any():
            raise EstimationError(f"active arm {arm} has no observations")
        out[arm] = rewards[mask].mean(axis=0)
    return out


@dataclass(frozen=True)
class LinearFit:
    """Least-squares fit of one round: coefficient matrix plus its Gram pair."""

    theta_hat: np.ndarray  # d x m
    gram: np.ndarray  # d x d
    gram_pinv: np.ndarray  # d x d


def fit_linear(round_batch: ObservationBatch) -> LinearFit:
    """Fit theta from a single round's rows only.

    The basis for the restricted inverse is selected from the features of the
    distinct arms pulled this round, scanned in ascending arm index.
    """
    if len(round_batch) == 0:
        raise EstimationError("cannot fit a linear model on an empty batch")
    design = round_batch.features
    outcomes = round_batch.rewards
    gram = design.T @ design

    arms = round_batch.arms
    arm_feature: dict[int, np.ndarray] = {}
    for arm, feat in zip(arms, design):
        arm_feature.setdefault(int(arm), feat)
    unique_feats = np.array([arm_feature[a] for a in sorted(arm_feature)], dtype=float)

    pinv = pseudo_inverse(gram, unique_feats)
    theta = pinv @ design.T @ outcomes
    return LinearFit(theta_hat=theta, gram=gram, gram_pinv=pinv)


def predict_linear(fit: LinearFit, features: np.ndarray, arms: list[int] | None = None) -> MeanEstimates:
    """Predicted mean vectors ``phi(x)^T theta_hat`` for the given feature rows."""
    feats = np.asarray(features, dtype=float)
    preds = feats @ fit.theta_hat
    ids = list(range(feats.shape[0])) if arms is None else list(arms)
    return {arm: preds[i] for i, arm in enumerate(ids)}


@dataclass(frozen=True)
class MlpParams:
    """Weights of the one-hidden-layer ReLU network mapping features to rewards."""

    w1: np.ndarray  # h x d
    b1: np.ndarray  # h
    w2: np.ndarray  # m x h
    b2: np.ndarray  # m

    @property
    def hidden(self) -> int:
        return self.w1.shape[0]

    def copy(self) -> "MlpParams":
        return MlpParams(self.w1.copy(), self.b1.copy(), self.w2.copy(), self.b2.copy())

    def squared_norm(self) -> float:
        return float(
            np.sum(self.w1**2) + np.sum(self.b1**2) + np.sum(self.w2**2) + np.sum(self.b2**2)
        )


def mlp_init(dim: int, n_objectives: int, hidden: int, rng: np.random.Generator) -> MlpParams:
    """Symmetric uniform fan-in initialisation."""
    s1 = 1.0 / np.sqrt(dim)
    s2 = 1.0 / np.sqrt(hidden)
    return MlpParams(
        w1=rng.uniform(-s1, s1, size=(hidden, dim)),
        b1=rng.uniform(-s1, s1, size=hidden),
        w2=rng.uniform(-s2, s2, size=(n_objectives, hidden)),
        b2=rng.uniform(-s2, s2, size=n_objectives),
    )


def _mlp_forward(params: MlpParams, feats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    pre = feats @ params.w1.T + params.b1
    hidden = np.maximum(pre, 0.0)
    return pre, hidden @ params.w2.T + params.b2


def mlp_loss_grad(
    params: MlpParams, batch: ObservationBatch, lam: float
) -> tuple[float, MlpParams]:
    """Mean squared prediction error plus lam * squared norm of all parameters.

    Returns the loss and its exact gradient (same shapes as the parameters);
    the ReLU subgradient at zero is taken to be zero.
    """
    if lam < 0:
        raise EstimationError("regularisation weight must be >= 0")
    if len(batch) == 0:
        raise EstimationError("cannot evaluate the loss on an empty batch")
    return _mlp_loss_grad(params, batch.features, batch.rewards, lam)


def _mlp_loss_grad(
    params: MlpParams, feats: np.ndarray, targets: np.ndarray, lam: float
) -> tuple[float, MlpParams]:
    n = feats.shape[0]
    pre, out = _mlp_forward(params, feats)
    err = out - targets
    loss = float(np.sum(err**2) / n + lam * params.squared_norm())

    d_out = 2.0 * err / n  # n x m
    hidden = np.maximum(pre, 0.0)
    g_w2 = d_out.T @ hidden + 2.0 * lam * params.w2
    g_b2 = d_out.sum(axis=0) + 2.0 * lam * params.b2
    d_hidden = (d_out @ params.w2) * (pre > 0.0)
    g_w1 = d_hidden.T @ feats + 2.0 * lam * params.w1
    g_b1 = d_hidden.sum(axis=0) + 2.0 * lam * params.b1
    return loss, MlpParams(w1=g_w1, b1=g_b1, w2=g_w2, b2=g_b2)


def mlp_fit(
    batch: ObservationBatch,
    lam: float,
    *,
    rng: np.random.Generator | None = None,
    hidden: int = 30,
    iters: int = 2000,
    step_size: float = 1e-2,
    init: MlpParams | None = None,
    checkpoint_every: int = 100,
    return_trace: bool = False,
) -> MlpParams | tuple[MlpParams, list[float]]:
    """Full-batch adaptive gradient descent on the regularised squared loss.

    ``rng`` draws the initial weights; ``init`` instead warm-starts from a
    previous round's parameters. Deterministic for a fixed ``rng`` state and
    config. The lowest-loss iterate is retained, so the logged checkpoint
    losses are non-increasing. With ``return_trace`` the checkpoint losses are
    returned alongside the parameters.
    """
    if len(batch) == 0:
        raise EstimationError("cannot fit on an empty batch")
    feats = batch.features  # read the log once, not once per iteration
    targets = batch.rewards
    if init is not None:
        params = init.copy()
    elif rng is not None:
        params = mlp_init(feats.shape[1], targets.shape[1], hidden, rng)
    else:
        raise ConfigurationError("mlp_fit needs an rng for the initial weights, or init")
    if lam < 0:
        raise EstimationError("regularisation weight must be >= 0")

    beta1, beta2, eps = 0.9, 0.999, 1e-8
    values = [params.w1, params.b1, params.w2, params.b2]
    first = [np.zeros_like(v) for v in values]
    second = [np.zeros_like(v) for v in values]

    best_loss = np.inf
    best = params
    trace: list[float] = []
    for it in range(iters):
        loss, grad = _mlp_loss_grad(params, feats, targets, lam)
        if not np.isfinite(loss):
            raise NumericalError(f"non-finite training loss at iteration {it}")
        if loss < best_loss:
            best_loss = loss
            best = params.copy()
        if it % checkpoint_every == 0:
            trace.append(best_loss)
        grads = [grad.w1, grad.b1, grad.w2, grad.b2]
        new_values = []
        for j, (v, g) in enumerate(zip(values, grads)):
            first[j] = beta1 * first[j] + (1 - beta1) * g
            second[j] = beta2 * second[j] + (1 - beta2) * g**2
            m_hat = first[j] / (1 - beta1 ** (it + 1))
            v_hat = second[j] / (1 - beta2 ** (it + 1))
            new_values.append(v - step_size * m_hat / (np.sqrt(v_hat) + eps))
        values = new_values
        params = MlpParams(*values)

    final_loss, _ = _mlp_loss_grad(params, feats, targets, lam)
    if np.isfinite(final_loss) and final_loss < best_loss:
        best_loss = final_loss
        best = params.copy()
    trace.append(best_loss)
    if return_trace:
        return best, trace
    return best


def mlp_predict(params: MlpParams, features: np.ndarray, arms: list[int] | None = None) -> MeanEstimates:
    """Network outputs for the given feature rows, keyed by arm id."""
    feats = np.asarray(features, dtype=float)
    _, out = _mlp_forward(params, feats)
    ids = list(range(feats.shape[0])) if arms is None else list(arms)
    return {arm: out[i] for i, arm in enumerate(ids)}
