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
from itertools import accumulate

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
    if not np.isfinite(inner).all():
        raise NumericalError("restricted Gram matrix holds NaN or inf entries")
    # np.linalg.cond(inner) without its per-call overhead: 2-norm condition
    # from the singular values of the finite matrix, with x/0 and 0/0 read as inf
    s = np.linalg.svd(inner, compute_uv=False)
    smallest = float(s[-1])
    cond = float(s[0]) / smallest if smallest > 0.0 else math.inf
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
    """Weights of the one-hidden-layer ReLU network mapping features to rewards.

    ``mlp_fit`` returns views of one flat float64 vector that holds w1, b1, w2
    and b2 in that order, each in row-major order.
    """

    w1: np.ndarray  # h x d
    b1: np.ndarray  # h
    w2: np.ndarray  # m x h
    b2: np.ndarray  # m

    @property
    def hidden(self) -> int:
        return self.w1.shape[0]


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


class _MlpWorkspace:
    """Buffers of one loss-and-gradient evaluation on n rows, shaped after
    ``params``; a fit allocates them once and reuses them on every iteration.

    Parameter-sized buffers are flat vectors in the layout of ``MlpParams``
    (w1, b1, w2, b2); ``views`` reshapes one into the four blocks.
    """

    def __init__(self, n: int, params: MlpParams):
        hidden, dim = params.w1.shape
        n_objectives = params.w2.shape[0]
        self.shapes = ((hidden, dim), (hidden,), (n_objectives, hidden), (n_objectives,))
        ends = list(accumulate(math.prod(shape) for shape in self.shapes))
        self.blocks = [slice(start, end) for start, end in zip([0, *ends], ends)]
        self.pre = np.empty((n, hidden))
        self.act = np.empty((n, hidden))
        self.mask = np.empty((n, hidden))
        self.d_hidden = np.empty((n, hidden))
        self.err = np.empty((n, n_objectives))
        self.d_out = np.empty((n, n_objectives))
        self.grad = np.empty(ends[-1])
        self.grads = self.views(self.grad)
        self.squares = np.empty(ends[-1])
        self.square_blocks = [self.squares[s] for s in self.blocks]
        self.reg = np.empty(ends[-1])
        self.regs = self.views(self.reg)

    def views(self, flat: np.ndarray) -> MlpParams:
        return MlpParams(*(flat[s].reshape(shape) for s, shape in zip(self.blocks, self.shapes)))


def _flatten(params: MlpParams) -> np.ndarray:
    """A new float64 vector holding ``params`` in the layout of ``MlpParams``."""
    return np.concatenate([params.w1, params.b1, params.w2, params.b2], axis=None, dtype=float)


def _mlp_loss_grad(
    flat: np.ndarray, feats: np.ndarray, targets: np.ndarray, lam: float, ws: _MlpWorkspace
) -> float:
    """Loss at the flat parameters; the gradient is written into ``ws.grad``.

    Sums keep the block and row shapes of the per-array form (pairwise
    summation would round a regrouped sum differently), and the ReLU mask is
    multiplied in as 1.0/0.0, so every bit equals the per-array computation.
    """
    n = feats.shape[0]
    params, grads, reg = ws.views(flat), ws.grads, ws.regs
    pre, act, err, d_out, d_hidden = ws.pre, ws.act, ws.err, ws.d_out, ws.d_hidden
    np.matmul(feats, params.w1.T, out=pre)
    np.add(pre, params.b1, out=pre)
    np.maximum(pre, 0.0, out=act)
    np.matmul(act, params.w2.T, out=err)
    np.add(err, params.b2, out=err)
    np.subtract(err, targets, out=err)

    np.square(flat, out=ws.squares)
    w1_sq, b1_sq, w2_sq, b2_sq = ws.square_blocks
    norm = float(np.sum(w1_sq) + np.sum(b1_sq) + np.sum(w2_sq) + np.sum(b2_sq))
    np.square(err, out=d_out)
    loss = float(np.sum(d_out) / n + lam * norm)

    np.multiply(err, 2.0, out=d_out)
    np.divide(d_out, n, out=d_out)
    np.multiply(flat, 2.0 * lam, out=ws.reg)
    np.matmul(d_out.T, act, out=grads.w2)
    np.add(grads.w2, reg.w2, out=grads.w2)
    np.sum(d_out, axis=0, out=grads.b2)
    np.add(grads.b2, reg.b2, out=grads.b2)
    np.matmul(d_out, params.w2, out=d_hidden)
    np.greater(pre, 0.0, out=ws.mask)
    np.multiply(d_hidden, ws.mask, out=d_hidden)
    np.matmul(d_hidden.T, feats, out=grads.w1)
    np.add(grads.w1, reg.w1, out=grads.w1)
    np.sum(d_hidden, axis=0, out=grads.b1)
    np.add(grads.b1, reg.b1, out=grads.b1)
    return loss


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
    ws = _MlpWorkspace(len(batch), params)
    loss = _mlp_loss_grad(_flatten(params), batch.features, batch.rewards, lam, ws)
    return loss, ws.grads


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
    """Full-batch Adam on the regularised squared loss.

    ``rng`` draws the initial weights; ``init`` instead warm-starts from a
    previous round's parameters, which are copied and never written to.
    Deterministic for a fixed ``rng`` state and config. The lowest-loss
    iterate is retained, so the logged checkpoint losses are non-increasing.
    With ``return_trace`` the checkpoint losses are returned alongside the
    parameters.

    Adam runs element by element on one flat parameter vector, and every
    iteration's loss and gradient go into one workspace allocated per fit.
    """
    if len(batch) == 0:
        raise EstimationError("cannot fit on an empty batch")
    feats = batch.features  # read the log once, not once per iteration
    targets = batch.rewards
    if init is None:
        if rng is None:
            raise ConfigurationError("mlp_fit needs an rng for the initial weights, or init")
        init = mlp_init(feats.shape[1], targets.shape[1], hidden, rng)
    if lam < 0:
        raise EstimationError("regularisation weight must be >= 0")

    ws = _MlpWorkspace(feats.shape[0], init)
    flat = _flatten(init)
    grad = ws.grad
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    first = np.zeros_like(flat)
    second = np.zeros_like(flat)

    best_loss = np.inf
    best = flat
    trace: list[float] = []
    for it in range(iters):
        loss = _mlp_loss_grad(flat, feats, targets, lam, ws)
        if not math.isfinite(loss):
            raise NumericalError(f"non-finite training loss at iteration {it}")
        if loss < best_loss:
            best_loss = loss
            best = flat  # the step below rebinds flat to a new array
        if it % checkpoint_every == 0:
            trace.append(best_loss)
        first *= beta1
        first += (1 - beta1) * grad
        second *= beta2
        second += (1 - beta2) * grad**2
        m_hat = first / (1 - beta1 ** (it + 1))
        v_hat = second / (1 - beta2 ** (it + 1))
        flat = flat - step_size * m_hat / (np.sqrt(v_hat) + eps)

    final_loss = _mlp_loss_grad(flat, feats, targets, lam, ws)
    if math.isfinite(final_loss) and final_loss < best_loss:
        best_loss = final_loss
        best = flat
    trace.append(best_loss)
    if return_trace:
        return ws.views(best), trace
    return ws.views(best)


def mlp_predict(params: MlpParams, features: np.ndarray, arms: list[int] | None = None) -> MeanEstimates:
    """Network outputs for the given feature rows, keyed by arm id."""
    feats = np.asarray(features, dtype=float)
    out = np.maximum(feats @ params.w1.T + params.b1, 0.0) @ params.w2.T + params.b2
    ids = list(range(feats.shape[0])) if arms is None else list(arms)
    return {arm: out[i] for i, arm in enumerate(ids)}
