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
from numpy.linalg import _umath_linalg

from .core import ConfigurationError, EstimationError, NumericalError, ObservationBatch

BASIS_RESIDUAL_TOL = 1e-9
MAX_CONDITION = 1e12
# ||A||_F ||A^-1||_F at or below this skips the SVD condition check (see pseudo_inverse)
CERTIFIED_CONDITION = 1e8


@dataclass(eq=False, slots=True)
class MeanEstimates:
    """Estimated mean vectors of some arms, as one k x m matrix: row i is the
    estimate of arm ``arms[i]``, and the arms ascend. ``estimates[arm]`` reads
    one arm's row."""

    arms: list[int]
    matrix: np.ndarray

    def __getitem__(self, arm: int) -> np.ndarray:
        return self.matrix[self.arms.index(arm)]


def select_independent_basis(features: np.ndarray) -> list[int]:
    """Row indices of a maximal linearly independent subset, greedy in row order.

    Gram-Schmidt scan over the rows of a 2-D array in ascending order; a row joins the basis
    when its residual after projecting onto the rows already chosen exceeds ``t = BASIS_RESIDUAL_TOL``.
    Once p >= d rows of width d have joined, no later row can join in exact arithmetic: one pass
    projects the later rows in the scan's order, and the scan steps only through those whose pass
    residual ``r`` and norm ``x`` fail ``r + 5 p (d + 3) u (x + t) <= t`` (``u = 2**-53``); a row
    that joins starts a new pass. The bound, after Bjorck (BIT 1967): the paths differ only in each
    dot product's summation order, within ``gamma_d |q| |r|`` of exact (``gamma_d = d u / (1 - d u)``).
    As ``||q|| <= 1 + (d + 3) u`` (or ``q`` is zero, or makes every ``r`` NaN), a step is
    ``(I - q q^T) r``, of norm ``<= ||r||``, within ``2 (d + 3) u ||r||``, so the residuals end
    ``4.04 p (d + 3) u ||x||`` apart. A computed norm is off by a relative ``(d + 3) u / 2``, so the
    scan's norm is at most ``r + (d + 3) u (1.01 r + 4.06 p x) <= t`` when the test holds, for d and
    p below 1e6 (underflow adds under ``4 d 2**-1074`` a step, within the ``5 p (d + 3) u t`` term).
    """
    feats = np.asarray(features, dtype=float)
    if feats.ndim != 2:
        raise EstimationError(f"features must be a 2-D array, got shape {feats.shape}")
    basis: list[int] = []
    ortho: list[np.ndarray] = []
    skip = [False] * len(feats)  # rows certified to stay out of a full basis
    for i, row in enumerate(feats):
        if skip[i]:
            continue
        residual = row.copy()
        for q in ortho:
            residual -= (q @ residual) * q
        norm = math.sqrt(float(residual @ residual))  # what np.linalg.norm computes
        if norm > BASIS_RESIDUAL_TOL:
            basis.append(i)
            ortho.append(residual / norm)
            if len(ortho) >= feats.shape[1]:
                skip[i + 1 :] = _certified_skips(feats[i + 1 :], ortho).tolist()
    return basis


def _certified_skips(rows: np.ndarray, ortho: list[np.ndarray]) -> np.ndarray:
    """Mask of the ``rows`` that ``select_independent_basis`` skips by its certificate."""
    slack = 5.0 * len(ortho) * (rows.shape[1] + 3) * 2.0**-53
    with np.errstate(all="ignore"):
        residual = rows.copy()
        for q in ortho:
            residual -= (residual @ q)[:, None] * q
        scale = np.sqrt(np.einsum("ij,ij->i", rows, rows)) + BASIS_RESIDUAL_TOL
        return np.sqrt(np.einsum("ij,ij->i", residual, residual)) + slack * scale <= BASIS_RESIDUAL_TOL


def pseudo_inverse(gram: np.ndarray, active_features: np.ndarray) -> np.ndarray:
    """Inverse of ``gram`` restricted to the span of ``active_features``.

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
    basis = select_independent_basis(feats)
    if not basis:
        raise NumericalError("all active features are numerically zero")
    return _restricted_inverse(np.asarray(gram, dtype=float), feats[basis].T)


def _restricted_inverse(gram: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """``pseudo_inverse`` past its checks and its basis: ``phi`` is the d x k
    float matrix of basis rows, ``gram`` a float array."""
    inner = phi.T @ gram @ phi
    try:
        inv = _inverse(inner)
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
            inv = _inverse(inner)  # raises the LinAlgError again
    return phi @ inv @ phi.T


def _raise_singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


@np.errstate(call=_raise_singular, invalid="call", over="ignore", divide="ignore", under="ignore")
def _inverse(inner: np.ndarray) -> np.ndarray:
    """``np.linalg.inv`` of a float64 square matrix, without its wrapper's checks."""
    return _umath_linalg.inv(inner, signature="d->d")


def estimate_sample_mean(batch: ObservationBatch, active: list[int]) -> MeanEstimates:
    """Cumulative per-arm coordinate-wise mean of all observations, active arms ascending.

    Reads the batch's per-arm sums and counts, so a call costs O(K) whatever
    the row count; the means equal ``rewards[arms == a].mean(axis=0)`` bit for
    bit. An error names the first arm of ``active``, in its order, without data.
    """
    if len(batch) == 0:
        raise EstimationError("cannot estimate from an empty batch")
    sums, counts = batch.arm_totals()
    if sums.shape[1] < 2:  # numpy sums one column pairwise, not row by row, so the totals miss its bits
        raise EstimationError(f"sample means need m >= 2 objectives, got m={sums.shape[1]}")
    arms = sorted(active)
    idx = np.array(arms, dtype=int)
    if len(idx) and not (idx[0] >= 0 and idx[-1] < len(counts) and counts[idx].all()):
        arm = next(a for a in active if not 0 <= a < len(counts) or counts[a] == 0)
        raise EstimationError(f"active arm {arm} has no observations")
    return MeanEstimates(arms, sums[idx] / counts[idx][:, None])


def fit_linear(round_batch: ObservationBatch) -> np.ndarray:
    """The d x m least-squares coefficients theta_hat of a single round's rows only.

    The basis for the restricted inverse is selected from the features of the
    distinct arms pulled this round, scanned in ascending arm index.
    """
    if len(round_batch) == 0:
        raise EstimationError("cannot fit a linear model on an empty batch")
    design = round_batch.features
    outcomes = round_batch.rewards
    gram = design.T @ design

    _, first_rows = np.unique(round_batch.arms, return_index=True)  # each arm's first row
    return pseudo_inverse(gram, design[first_rows]) @ design.T @ outcomes


def predict_linear(theta_hat: np.ndarray, features: np.ndarray, arms: list[int] | None = None) -> MeanEstimates:
    """Predicted means ``phi(x)^T theta_hat`` for the feature rows of the ascending ``arms`` (default 0..k-1)."""
    feats = np.asarray(features, dtype=float)
    return MeanEstimates(list(range(len(feats))) if arms is None else list(arms), feats @ theta_hat)


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


def mlp_init(dim: int, n_objectives: int, hidden: int, rng: np.random.Generator) -> MlpParams:
    """Symmetric uniform fan-in initialisation, the one way a fit's start is drawn."""
    for name, value in (("dim", dim), ("n_objectives", n_objectives), ("hidden", hidden)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ConfigurationError(f"mlp {name} must be an int, got {value!r}")
        if value < 1:
            raise ConfigurationError(f"mlp {name} must be >= 1, got {value!r}")
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
    views ``params`` are built once. Parameter-sized buffers share that
    layout; ``views`` reshapes one into the four blocks. The two n x h arrays
    ``pre`` and ``act`` end an evaluation as the ReLU mask and hidden gradient.
    """

    def __init__(self, n: int, params: MlpParams):
        hidden, dim = params.w1.shape
        n_objectives = params.w2.shape[0]
        self.shapes = ((hidden, dim), (hidden,), (n_objectives, hidden), (n_objectives,))
        ends = list(accumulate(math.prod(shape) for shape in self.shapes))
        self.blocks = [slice(start, end) for start, end in zip([0, *ends], ends)]
        self.flat = np.concatenate([params.w1, params.b1, params.w2, params.b2], axis=None, dtype=float)
        self.params = self.views(self.flat)
        self.pre = np.empty((n, hidden))
        self.act = np.empty((n, hidden))
        self.err = np.empty((n, n_objectives))
        self.d_out = np.empty((n, n_objectives))
        self.grad = np.empty(ends[-1])
        self.grads = self.views(self.grad)
        self.squares = np.empty(ends[-1])  # then the regulariser's gradient
        self.square_blocks = [self.squares[s] for s in self.blocks]

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
    np.matmul(feats, params.w1.T, out=pre)
    np.add(pre, params.b1, out=pre)
    np.maximum(pre, 0.0, out=act)
    np.matmul(act, params.w2.T, out=err)
    np.add(err, params.b2, out=err)
    np.subtract(err, targets, out=err)

    np.square(ws.flat, out=ws.squares)
    w1_sq, b1_sq, w2_sq, b2_sq = ws.square_blocks
    add = np.add.reduce
    norm = float(add(w1_sq) + add(b1_sq) + add(w2_sq) + add(b2_sq))
    np.square(err, out=d_out)
    return float(add(d_out, axis=None) / n + lam * norm)


def _row_sums(x: np.ndarray, out: np.ndarray) -> None:
    """``np.add.reduce(x, axis=0, out=out)`` for a C-ordered ``x``: einsum adds the rows in the same order in one
    inner loop, not one per row, but raises no overflow warning. One column keeps the (pairwise) reduction."""
    if x.shape[1] == 1:
        np.add.reduce(x, axis=0, out=out)
    else:
        np.einsum("ij->j", x, out=out)


def _mlp_loss_grad(feats: np.ndarray, targets: np.ndarray, lam: float, ws: _MlpWorkspace) -> float:
    """Loss at ``ws.flat``; the gradient is written into ``ws.grad``.

    The ReLU mask is multiplied in as 1.0/0.0, the regulariser added last and the bias
    gradients' columns summed in row order in one pass (one column pairwise, as
    ``.sum(axis=0)`` does), so every bit equals the per-array computation.
    """
    n = feats.shape[0]
    grads, pre, act, d_out = ws.grads, ws.pre, ws.act, ws.d_out
    loss = _mlp_loss(feats, targets, lam, ws)
    np.multiply(ws.err, 2.0, out=d_out)
    np.divide(d_out, n, out=d_out)
    np.multiply(ws.flat, 2.0 * lam, out=ws.squares)
    np.matmul(d_out.T, act, out=grads.w2)
    _row_sums(d_out, grads.b2)
    np.matmul(d_out, ws.params.w2, out=act)
    np.greater(pre, 0.0, out=pre)
    np.multiply(act, pre, out=act)
    np.matmul(act.T, feats, out=grads.w1)
    _row_sums(act, grads.b1)
    np.add(ws.grad, ws.squares, out=ws.grad)
    return loss


def _check_mlp_shapes(params: MlpParams, name: str, dim: int, m: int) -> None:
    """``ConfigurationError`` unless ``params`` fit ``w1``'s hidden width, ``dim`` features and ``m`` rewards."""
    hidden = params.w1.shape[0]
    for field, want in zip(("w1", "b1", "w2", "b2"), ((hidden, dim), (hidden,), (m, hidden), (m,))):
        if (got := getattr(params, field).shape) != want:
            raise ConfigurationError(
                f"{name} {field} has shape {got}, but hidden={hidden} and a batch of "
                f"{dim} features and {m} rewards need {want}"
            )


def mlp_loss_grad(params: MlpParams, batch: ObservationBatch, lam: float) -> tuple[float, MlpParams]:
    """Mean squared prediction error plus lam * squared norm of all parameters.

    Returns the loss and its exact gradient (same shapes as the parameters);
    the ReLU subgradient at zero is taken to be zero.
    """
    if lam < 0:
        raise EstimationError("regularisation weight must be >= 0")
    if len(batch) == 0:
        raise EstimationError("cannot evaluate the loss on an empty batch")
    feats, targets = batch.features, batch.rewards
    _check_mlp_shapes(params, "params", feats.shape[1], targets.shape[1])
    ws = _MlpWorkspace(len(batch), params)
    return _mlp_loss_grad(feats, targets, lam, ws), ws.grads


def mlp_fit(
    batch: ObservationBatch, lam: float, init: MlpParams, *, iters: int = 2000, step_size: float = 1e-2
) -> MlpParams:
    """Full-batch Adam on the regularised squared loss.

    The fit starts from ``init``, drawn by ``mlp_init`` or a previous fit's
    parameters, which are copied and never written to; its hidden width is
    read off ``init.w1``. Deterministic for a fixed start and config. The lowest-loss
    iterate, the final one included, is returned. The returned parameters are
    views of a vector of their own, allocated by this fit.

    Adam is the per-array update of Kingma & Ba (2015), run over one flat
    parameter vector, and every iteration's loss and gradient go into one
    workspace allocated per fit.
    """
    if len(batch) == 0:
        raise EstimationError("cannot fit on an empty batch")
    feats = batch.features  # read the log once, not once per iteration
    targets = batch.rewards
    if not isinstance(init, MlpParams):
        raise ConfigurationError(f"mlp_fit starts from MlpParams drawn by mlp_init, got {type(init).__name__}")
    _check_mlp_shapes(init, "init", feats.shape[1], targets.shape[1])
    if lam < 0:
        raise EstimationError("regularisation weight must be >= 0")

    ws = _MlpWorkspace(feats.shape[0], init)
    flat, grad = ws.flat, ws.grad
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    first = second = 0.0

    best_loss = np.inf
    best = flat.copy()  # the lowest-loss iterate; init until a loss is finite
    for it in range(iters):
        loss = _mlp_loss_grad(feats, targets, lam, ws)
        if not math.isfinite(loss):
            raise NumericalError(f"non-finite training loss at iteration {it}")
        if loss < best_loss:
            best_loss = loss
            best[...] = flat
        first = beta1 * first + (1 - beta1) * grad
        second = beta2 * second + (1 - beta2) * grad**2
        m_hat = first / (1 - beta1 ** (it + 1))
        v_hat = second / (1 - beta2 ** (it + 1))
        flat -= step_size * m_hat / (np.sqrt(v_hat) + eps)

    final_loss = _mlp_loss(feats, targets, lam, ws)
    if math.isfinite(final_loss) and final_loss < best_loss:
        best = flat
    return ws.views(best)


def mlp_predict(params: MlpParams, features: np.ndarray, arms: list[int] | None = None) -> MeanEstimates:
    """Network outputs for the feature rows of the ascending ``arms`` (default 0..k-1)."""
    feats = np.asarray(features, dtype=float)
    out = np.maximum(feats @ params.w1.T + params.b1, 0.0) @ params.w2.T + params.b2
    return MeanEstimates(list(range(len(feats))) if arms is None else list(arms), out)
