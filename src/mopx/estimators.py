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
# ||A||_F ||A^-1||_F at or below this skips the SVD condition check (see pseudo_inverse)
CERTIFIED_CONDITION = 1e8

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
        residual = row.copy()
        for q in ortho:
            residual -= (q @ residual) * q
        norm = math.sqrt(float(residual @ residual))  # what np.linalg.norm computes
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

    The restricted Gram ``A`` is rejected when its 2-norm condition number,
    read from its singular values, exceeds ``MAX_CONDITION``. That SVD runs
    only on doubt: the inverse ``X`` is computed first, and since
    ``kappa_2(A) <= ||A||_F ||A^-1||_F``, ``||A||_F ||X||_F <=
    CERTIFIED_CONDITION`` certifies ``A``. Each column of ``X`` solves a
    system close to ``A``, so ``||A X - I|| <= c n u ||A|| ||X||``, about
    ``1e-8 c n`` for a certified matrix (``u`` the unit roundoff): ``||A^-1||``
    exceeds ``||X||`` by at most that relative amount, and the computed
    singular values are off by a relative ``c u kappa``. A certified matrix
    thus reads a condition of about 1e8 at most, four decades below
    ``MAX_CONDITION``, and the SVD check would pass it with the same inverse.
    An ``inv`` that raises, a NaN or inf product, or a product over the bound
    falls through to the NaN/inf check of ``A`` and then the SVD check, the
    only sources of the error texts (an ``A`` with a NaN or inf entry is never
    certified); a failed ``inv`` is called again after those checks pass, so
    errors come in the same order as with the checks first.
    """
    feats = np.asarray(active_features, dtype=float)
    if feats.ndim != 2 or feats.shape[0] < 1:
        raise EstimationError("active_features must be a non-empty 2-D array")
    if basis is None:
        basis = select_independent_basis(feats)
    if not basis:
        raise NumericalError("all active features are numerically zero")
    return _restricted_inverse(np.asarray(gram, dtype=float), feats[basis].T)


def _restricted_inverse(gram: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """``pseudo_inverse`` past its checks and its basis: ``phi`` is the d x k
    float matrix of basis rows, ``gram`` a float array."""
    inner = phi.T @ gram @ phi
    try:
        inv = np.linalg.inv(inner)
    except np.linalg.LinAlgError:
        inv = None
    # NaN (an overflowed or underflowed norm) compares false and falls through;
    # so does any NaN or inf in inner, whose norm is then inf or NaN
    if inv is None or not (
        float(np.vdot(inner, inner)) * float(np.vdot(inv, inv)) <= CERTIFIED_CONDITION**2
    ):
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
        if inv is None:
            inv = np.linalg.inv(inner)  # raises the LinAlgError again
    return phi @ inv @ phi.T


def estimate_sample_mean(batch: ObservationBatch, active: list[int]) -> MeanEstimates:
    """Cumulative per-arm coordinate-wise mean of all observations.

    Reads the batch's per-arm sums and counts, so a call costs O(K) whatever
    the row count; the means equal ``rewards[arms == a].mean(axis=0)`` bit for
    bit.
    """
    if len(batch) == 0:
        raise EstimationError("cannot estimate from an empty batch")
    sums, counts = batch.arm_totals()
    for arm in active:
        if not 0 <= arm < len(counts) or counts[arm] == 0:
            raise EstimationError(f"active arm {arm} has no observations")
    if sums.shape[1] == 1:
        # numpy sums one column pairwise, not row by row: only the rows give its bits
        arms, rewards = batch.arms, batch.rewards
        return {arm: rewards[arms == arm].mean(axis=0) for arm in active}
    idx = np.asarray(active, dtype=int)
    means = sums[idx] / counts[idx][:, None]
    return {arm: means[i] for i, arm in enumerate(active)}


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

    _, first_rows = np.unique(round_batch.arms, return_index=True)  # each arm's first row
    pinv = pseudo_inverse(gram, design[first_rows])
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
    """Parameters and buffers of one loss-and-gradient evaluation on n rows,
    shaped after ``params``; a fit allocates them once and reuses them on
    every iteration.

    ``flat`` is a new float64 vector holding ``params`` in the layout of
    ``MlpParams`` (w1, b1, w2, b2), updated in place by a fit, so its block
    views ``params`` and their transposes are built once. Parameter-sized
    buffers share that layout; ``views`` reshapes one into the four blocks.
    """

    def __init__(self, n: int, params: MlpParams):
        hidden, dim = params.w1.shape
        n_objectives = params.w2.shape[0]
        self.shapes = ((hidden, dim), (hidden,), (n_objectives, hidden), (n_objectives,))
        ends = list(accumulate(math.prod(shape) for shape in self.shapes))
        self.blocks = [slice(start, end) for start, end in zip([0, *ends], ends)]
        self.flat = np.concatenate([params.w1, params.b1, params.w2, params.b2], axis=None, dtype=float)
        self.params = self.views(self.flat)
        self.w1_t = self.params.w1.T
        self.w2_t = self.params.w2.T
        self.pre = np.empty((n, hidden))
        self.act = np.empty((n, hidden))
        self.mask = np.empty((n, hidden))
        self.d_hidden = np.empty((n, hidden))
        self.d_hidden_t = self.d_hidden.T
        self.err = np.empty((n, n_objectives))
        self.d_out = np.empty((n, n_objectives))
        self.d_out_t = self.d_out.T
        self.grad = np.empty(ends[-1])
        self.grads = self.views(self.grad)
        self.squares = np.empty(ends[-1])
        self.square_blocks = [self.squares[s] for s in self.blocks]
        self.reg = np.empty(ends[-1])
        self.regs = self.views(self.reg)

    def views(self, flat: np.ndarray) -> MlpParams:
        return MlpParams(*(flat[s].reshape(shape) for s, shape in zip(self.blocks, self.shapes)))


def _mlp_loss(feats: np.ndarray, targets: np.ndarray, lam: float, ws: _MlpWorkspace) -> float:
    """Loss at ``ws.flat``; leaves the forward pass in ``ws``.

    Sums keep the block and row shapes of the per-array form (pairwise
    summation would round a regrouped sum differently), so every bit equals
    the per-array computation.
    """
    n = feats.shape[0]
    params = ws.params
    pre, act, err, d_out = ws.pre, ws.act, ws.err, ws.d_out
    np.matmul(feats, ws.w1_t, out=pre)
    np.add(pre, params.b1, out=pre)
    np.maximum(pre, 0.0, out=act)
    np.matmul(act, ws.w2_t, out=err)
    np.add(err, params.b2, out=err)
    np.subtract(err, targets, out=err)

    np.square(ws.flat, out=ws.squares)
    w1_sq, b1_sq, w2_sq, b2_sq = ws.square_blocks
    add = np.add.reduce
    norm = float(add(w1_sq) + add(b1_sq) + add(w2_sq) + add(b2_sq))
    np.square(err, out=d_out)
    return float(add(d_out, axis=None) / n + lam * norm)


def _mlp_loss_grad(feats: np.ndarray, targets: np.ndarray, lam: float, ws: _MlpWorkspace) -> float:
    """Loss at ``ws.flat``; the gradient is written into ``ws.grad``.

    The ReLU mask is multiplied in as 1.0/0.0, so every bit equals the
    per-array computation.
    """
    n = feats.shape[0]
    grads, reg = ws.grads, ws.regs
    loss = _mlp_loss(feats, targets, lam, ws)
    pre, act, err, d_out, d_hidden = ws.pre, ws.act, ws.err, ws.d_out, ws.d_hidden
    np.multiply(err, 2.0, out=d_out)
    np.divide(d_out, n, out=d_out)
    np.multiply(ws.flat, 2.0 * lam, out=ws.reg)
    np.matmul(ws.d_out_t, act, out=grads.w2)
    np.add(grads.w2, reg.w2, out=grads.w2)
    np.add.reduce(d_out, axis=0, out=grads.b2)
    np.add(grads.b2, reg.b2, out=grads.b2)
    np.matmul(d_out, ws.params.w2, out=d_hidden)
    np.greater(pre, 0.0, out=ws.mask)
    np.multiply(d_hidden, ws.mask, out=d_hidden)
    np.matmul(ws.d_hidden_t, feats, out=grads.w1)
    np.add(grads.w1, reg.w1, out=grads.w1)
    np.add.reduce(d_hidden, axis=0, out=grads.b1)
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
    loss = _mlp_loss_grad(batch.features, batch.rewards, lam, ws)
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
    parameters. The returned parameters are views of a vector of their own,
    allocated by this fit.

    Adam runs element by element on one flat parameter vector, updated in
    place, and every iteration's loss and gradient go into one workspace
    allocated per fit.
    """
    if len(batch) == 0:
        raise EstimationError("cannot fit on an empty batch")
    feats = batch.features  # read the log once, not once per iteration
    targets = batch.rewards
    if init is None:
        if rng is None:
            raise ConfigurationError("mlp_fit needs an rng for the initial weights, or init")
        init = mlp_init(feats.shape[1], targets.shape[1], hidden, rng)
    for name, want in zip(
        ("w1", "b1", "w2", "b2"),
        ((hidden, feats.shape[1]), (hidden,), (targets.shape[1], hidden), (targets.shape[1],)),
    ):
        got = getattr(init, name).shape
        if got != want:
            raise ConfigurationError(
                f"init {name} has shape {got}, but hidden={hidden} and a batch of "
                f"{feats.shape[1]} features and {targets.shape[1]} rewards need {want}"
            )
    if lam < 0:
        raise EstimationError("regularisation weight must be >= 0")

    ws = _MlpWorkspace(feats.shape[0], init)
    flat, grad = ws.flat, ws.grad
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    first = np.zeros_like(flat)
    second = np.zeros_like(flat)
    m_hat = np.empty_like(flat)  # also holds the terms of the update on their way
    v_hat = np.empty_like(flat)

    best_loss = np.inf
    best = flat.copy()  # the lowest-loss iterate; init until a loss is finite
    trace: list[float] = []
    for it in range(iters):
        loss = _mlp_loss_grad(feats, targets, lam, ws)
        if not math.isfinite(loss):
            raise NumericalError(f"non-finite training loss at iteration {it}")
        if loss < best_loss:
            best_loss = loss
            best[...] = flat
        if it % checkpoint_every == 0:
            trace.append(best_loss)
        # first = beta1 * first + (1 - beta1) * grad, and so on: the same
        # operations on the same operands in the same order, written in place
        np.multiply(first, beta1, out=first)
        np.multiply(1 - beta1, grad, out=m_hat)
        np.add(first, m_hat, out=first)
        np.multiply(second, beta2, out=second)
        np.square(grad, out=v_hat)  # grad**2
        np.multiply(1 - beta2, v_hat, out=v_hat)
        np.add(second, v_hat, out=second)
        np.divide(first, 1 - beta1 ** (it + 1), out=m_hat)
        np.divide(second, 1 - beta2 ** (it + 1), out=v_hat)
        # flat - step_size * m_hat / (np.sqrt(v_hat) + eps)
        np.multiply(step_size, m_hat, out=m_hat)
        np.sqrt(v_hat, out=v_hat)
        np.add(v_hat, eps, out=v_hat)
        np.divide(m_hat, v_hat, out=m_hat)
        np.subtract(flat, m_hat, out=flat)

    final_loss = _mlp_loss(feats, targets, lam, ws)
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
