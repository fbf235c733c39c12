"""Independent brute-force oracles, written straight from the definitions.

These deliberately avoid the library's code paths (scalar loops instead of
vectorised numpy, numpy.linalg.pinv instead of the restricted inverse, a
Frank-Wolfe design solver instead of mirror descent) so that agreement is
meaningful. The exceptions are the untrimmed mirror-descent reference and its
row-by-row basis scan, the scalar design rounding, the per-array MLP fit, the
list-built observation log, the per-line CSV reader and the two-pass pair
terms, which keep the library's own arithmetic so that the library must match
them bit for bit.
"""

import csv
import math
import statistics
from fractions import Fraction
from functools import reduce
from pathlib import Path

import numpy as np

from mopx.core import ConfigurationError, EstimationError, Instance, NumericalError
from mopx.estimators import BASIS_RESIDUAL_TOL, MlpParams, mlp_init


# ----------------------------------------------------- list-built row log


class ListBatch:
    """Observation log that keeps one Python list per column and rebuilds the
    arrays on every read. Duck-types ``ObservationBatch`` for the estimators."""

    def __init__(self):
        self._arms, self._features, self._rewards, self._rounds = [], [], [], []

    def __len__(self):
        return len(self._arms)

    def append(self, arm, feature, reward, round_index):
        self._arms.append(int(arm))
        self._features.append(np.asarray(feature, dtype=float))
        self._rewards.append(np.asarray(reward, dtype=float))
        self._rounds.append(int(round_index))

    @property
    def arms(self):
        return np.array(self._arms, dtype=int)

    @property
    def features(self):
        return np.array(self._features, dtype=float)

    @property
    def rewards(self):
        return np.array(self._rewards, dtype=float)

    def round_slice(self, round_index):
        out = ListBatch()
        for a, f, rw, r in zip(self._arms, self._features, self._rewards, self._rounds):
            if r == round_index:
                out.append(a, f, rw, r)
        return out


def oracle_sample_mean(batch, active) -> dict:
    """Per-arm means from arrays rebuilt from a ``ListBatch``, one row mask per arm."""
    if len(batch) == 0:
        raise EstimationError("cannot estimate from an empty batch")
    arms = batch.arms
    rewards = batch.rewards
    out = {}
    for arm in active:
        mask = arms == arm
        if not mask.any():
            raise EstimationError(f"active arm {arm} has no observations")
        out[arm] = rewards[mask].mean(axis=0)
    return out


# ---------------------------------------------------------------- dominance


def oracle_dominates(u, v) -> bool:
    ge = all(a >= b for a, b in zip(u, v))
    gt = any(a > b for a, b in zip(u, v))
    return ge and gt


def oracle_front(means) -> list:
    means = [list(row) for row in means]
    k = len(means)
    return [
        x
        for x in range(k)
        if not any(oracle_dominates(means[y], means[x]) for y in range(k) if y != x)
    ]


def reference_pair_terms(means) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The two-pass form of ``gaps._pair_terms``: ``large`` as its own max
    over the negated differences, and the front read off ``large``."""
    mat = np.asarray(means, dtype=float)
    diffs = [col[None, :] - col[:, None] for col in mat.T]
    small, large = reduce(np.minimum, diffs), reduce(np.maximum, [-d for d in diffs])
    front = np.flatnonzero(~((small >= 0) & (large.T > 0)).any(axis=1))
    return small, large, front


def oracle_m(means, x, y) -> float:
    return min(means[y][i] - means[x][i] for i in range(len(means[x])))


def oracle_M(means, x, y) -> float:
    return max(means[x][i] - means[y][i] for i in range(len(means[x])))


def oracle_pareto_gap(means, x) -> float:
    means = [list(row) for row in means]
    front = oracle_front(means)
    k = len(means)
    dominated = [y for y in range(k) if y not in front]

    def gap_dominated(z):
        return max(oracle_m(means, z, y) for y in front)

    if x not in front:
        return gap_dominated(x)
    others = [y for y in front if y != x]
    if others:
        delta_plus = min(min(oracle_M(means, x, y), oracle_M(means, y, x)) for y in others)
    else:
        delta_plus = math.inf
    if dominated:
        delta_minus = min(max(oracle_M(means, y, x), 0.0) + gap_dominated(y) for y in dominated)
    else:
        delta_minus = math.inf
    return min(delta_plus, delta_minus)


def oracle_constrained_gap(means, tau, x) -> float:
    means = [list(row) for row in means]
    feasible = [y for y in range(len(means)) if means[y][1] >= tau]
    assert feasible, "oracle needs a feasible arm"
    best = max(feasible, key=lambda y: (means[y][0], -y))
    viol = max(tau - means[x][1], 0.0)
    subopt = means[best][0] - means[x][0]
    delta = max(viol, subopt)
    return min(delta, means[best][1] - tau)


def oracle_hardness(means, tau) -> float:
    feasible = [y for y in range(len(means)) if means[y][1] >= tau]
    best = max(feasible, key=lambda y: (means[y][0], -y))
    return max(
        1.0 / oracle_constrained_gap(means, tau, x) ** 2
        for x in range(len(means))
        if x != best
    )


# ------------------------------------------------------------- hypervolume


def oracle_hv_grid(points, reference) -> float:
    """Rectangle-union volume by coordinate compression (any small m)."""
    ref = list(map(float, reference))
    pts = [list(map(float, p)) for p in points]
    pts = [[max(v, r) for v, r in zip(p, ref)] for p in pts]
    m = len(ref)
    axes = []
    for i in range(m):
        vals = sorted({ref[i]} | {p[i] for p in pts})
        axes.append(vals)
    total = 0.0

    def cells(axis_values):
        return list(zip(axis_values, axis_values[1:]))

    grids = [cells(a) for a in axes]
    if m == 2:
        for x0, x1 in grids[0]:
            for y0, y1 in grids[1]:
                if any(p[0] >= x1 and p[1] >= y1 for p in pts):
                    total += (x1 - x0) * (y1 - y0)
        return total
    for x0, x1 in grids[0]:
        for y0, y1 in grids[1]:
            for z0, z1 in grids[2]:
                if any(p[0] >= x1 and p[1] >= y1 and p[2] >= z1 for p in pts):
                    total += (x1 - x0) * (y1 - y0) * (z1 - z0)
    return total


def oracle_hv_monte_carlo(points, reference, n_samples, rng) -> tuple[float, float]:
    """(estimate, standard error) for the dominated volume inside the bounding box."""
    ref = np.asarray(reference, dtype=float)
    pts = np.maximum(np.asarray(points, dtype=float), ref)
    upper = pts.max(axis=0)
    box = float(np.prod(upper - ref))
    if box == 0.0:
        return 0.0, 0.0
    samples = rng.uniform(ref, upper, size=(n_samples, ref.size))
    hit = np.zeros(n_samples, dtype=bool)
    for p in pts:
        hit |= np.all(samples <= p, axis=1)
    frac = hit.mean()
    est = box * frac
    se = box * math.sqrt(max(frac * (1 - frac), 1e-12) / n_samples)
    return est, se


# ------------------------------------------------- summary half-widths


def reference_ci_half_width(values):
    """1.96 standard errors of the mean of ``values``, from their exact sample
    standard deviation over ``Fraction``s (no squaring in floats, so nothing
    underflows or overflows), or None for a single value."""
    n = len(values)
    return None if n == 1 else 1.96 * statistics.stdev(map(Fraction, values)) / math.sqrt(n)


# ---------------------------------------------------- G-optimal design (FW)


def frank_wolfe_design(features, tol=1e-6, max_iters=200_000):
    """Classical Wynn-Fedorov exchange for the worst-case-leverage design.

    Returns (weights, objective). Uses numpy.linalg.pinv throughout.
    """
    feats = np.asarray(features, dtype=float)
    k = feats.shape[0]
    rank = np.linalg.matrix_rank(feats, tol=1e-9)
    w = np.full(k, 1.0 / k)
    obj = np.inf
    for _ in range(max_iters):
        gram = feats.T @ (w[:, None] * feats)
        pinv = np.linalg.pinv(gram)
        lev = np.einsum("ij,jk,ik->i", feats, pinv, feats)
        star = int(np.argmax(lev))
        obj = float(lev[star])
        if obj <= rank * (1.0 + tol):
            break
        gamma = (obj / rank - 1.0) / (obj - 1.0)
        w = (1.0 - gamma) * w
        w[star] += gamma
    return w, obj


# ------------------------------------------- mirror descent, untrimmed form
# The restricted inverse and the mirror-descent design loop as first written
# (np.linalg.cond, np.max, per-iteration copies). The library trims their
# per-call overhead; it must still reproduce these bit for bit.


def reference_independent_basis(features):
    """The Gram-Schmidt basis scan, one row at a time over every row."""
    feats = np.asarray(features, dtype=float)
    basis = []
    ortho = []
    for i, row in enumerate(feats):
        residual = row.copy()
        for q in ortho:
            residual -= (q @ residual) * q
        norm = math.sqrt(float(residual @ residual))  # what np.linalg.norm computes
        if norm > BASIS_RESIDUAL_TOL:
            basis.append(i)
            ortho.append(residual / norm)
    return basis


def reference_restricted_inverse(gram, features, basis):
    feats = np.asarray(features, dtype=float)
    phi = feats[basis].T
    inner = phi.T @ np.asarray(gram, dtype=float) @ phi
    cond = float(np.linalg.cond(inner))
    if not np.isfinite(cond) or cond > 1e12:
        raise NumericalError(
            f"restricted Gram matrix is numerically singular (condition {cond:.3g})"
        )
    return phi @ np.linalg.inv(inner) @ phi.T


def reference_mirror_descent(features, epsilon, max_iters=5000):
    """Returns (best weights, best objective, trace) of the untrimmed loop."""
    feats = np.asarray(features, dtype=float)
    basis = reference_independent_basis(feats)
    target = (1.0 + epsilon) * len(basis)
    k = feats.shape[0]
    w = np.full(k, 1.0 / k)
    best_w = w.copy()
    best_obj = np.inf
    trace = []
    for it in range(max_iters):
        gram = feats.T @ (w[:, None] * feats)
        pinv = reference_restricted_inverse(gram, feats, basis)
        lev = np.einsum("ij,jk,ik->i", feats, pinv, feats)
        obj = float(np.max(lev))
        if obj < best_obj:
            best_obj = obj
            best_w = w.copy()
        trace.append(best_obj)
        if best_obj <= target:
            break
        star = int(np.argmax(lev))
        cross = feats @ (pinv @ feats[star])
        subgrad = -(cross**2)
        scale = float(np.max(np.abs(subgrad)))
        if scale <= 0.0:
            break
        step = 0.5 / (scale * np.sqrt(it + 1.0))
        w = w * np.exp(-step * subgrad)
        w = w / w.sum()
    return best_w, best_obj, tuple(trace)


# ---------------------------------------------- design rounding, scalar form


def reference_round_design(n, weights, basis, active):
    """Pull counts of the arms ``sorted(active)``, row i to the i-th lowest,
    from design ``weights`` in plain Python: the float shares ``n * w_i``, their
    exact floors, one more pull to each of the ``n - sum(floors)`` largest
    remainders (ties to the lowest row), then, for each zero-count ``basis``
    row in the order given, one pull from the largest count of at least 2
    (ties to the lowest row). Raises ConfigurationError if n < len(basis) or
    no such count is left."""
    if n < len(basis):
        raise ConfigurationError(f"round budget n={n} cannot cover the {len(basis)}-arm feature basis")
    shares = [n * w for w in weights]
    counts = [math.floor(share) for share in shares]
    by_remainder = sorted(range(len(shares)), key=lambda i: (-(shares[i] - counts[i]), i))
    for i in by_remainder[: n - sum(counts)]:
        counts[i] += 1
    for row in basis:
        if counts[row] >= 1:
            continue
        donors = [i for i, count in enumerate(counts) if count >= 2]
        if not donors:
            raise ConfigurationError("budget too small to keep the feature basis covered")
        donor = max(donors, key=lambda i: (counts[i], -i))
        counts[donor] -= 1
        counts[row] += 1
    return dict(zip(sorted(active), counts))


# ------------------------------------------------ MLP fit, per-array form
# The MLP training loop as first written: four separately allocated weight
# arrays, one Adam update per array, fresh temporaries on every iteration and
# a copy of all four arrays whenever the loss improves. The library runs Adam
# on one flat vector with a per-fit workspace; it must reproduce these bits.


def reference_mlp_loss_grad(w1, b1, w2, b2, feats, targets, lam):
    n = feats.shape[0]
    pre = feats @ w1.T + b1
    out = np.maximum(pre, 0.0) @ w2.T + b2
    err = out - targets
    norm = float(np.sum(w1**2) + np.sum(b1**2) + np.sum(w2**2) + np.sum(b2**2))
    loss = float(np.sum(err**2) / n + lam * norm)

    d_out = 2.0 * err / n
    hidden = np.maximum(pre, 0.0)
    g_w2 = d_out.T @ hidden + 2.0 * lam * w2
    g_b2 = d_out.sum(axis=0) + 2.0 * lam * b2
    d_hidden = (d_out @ w2) * (pre > 0.0)
    g_w1 = d_hidden.T @ feats + 2.0 * lam * w1
    g_b1 = d_hidden.sum(axis=0) + 2.0 * lam * b1
    return loss, [g_w1, g_b1, g_w2, g_b2]


def reference_mlp_fit(
    batch, lam, *, rng=None, hidden=30, iters=2000, step_size=1e-2, init=None,
    checkpoint_every=100,
):
    """Returns (best MlpParams, checkpoint trace) of the per-array loop."""
    feats = batch.features
    targets = batch.rewards
    if init is None:
        init = mlp_init(feats.shape[1], targets.shape[1], hidden, rng)
    values = [init.w1.copy(), init.b1.copy(), init.w2.copy(), init.b2.copy()]

    beta1, beta2, eps = 0.9, 0.999, 1e-8
    first = [np.zeros_like(v) for v in values]
    second = [np.zeros_like(v) for v in values]
    best_loss = np.inf
    best = values
    trace = []
    for it in range(iters):
        loss, grads = reference_mlp_loss_grad(*values, feats, targets, lam)
        if not np.isfinite(loss):
            raise NumericalError(f"non-finite training loss at iteration {it}")
        if loss < best_loss:
            best_loss = loss
            best = [v.copy() for v in values]
        if it % checkpoint_every == 0:
            trace.append(best_loss)
        new_values = []
        for j, (v, g) in enumerate(zip(values, grads)):
            first[j] = beta1 * first[j] + (1 - beta1) * g
            second[j] = beta2 * second[j] + (1 - beta2) * g**2
            m_hat = first[j] / (1 - beta1 ** (it + 1))
            v_hat = second[j] / (1 - beta2 ** (it + 1))
            new_values.append(v - step_size * m_hat / (np.sqrt(v_hat) + eps))
        values = new_values

    final_loss, _ = reference_mlp_loss_grad(*values, feats, targets, lam)
    if np.isfinite(final_loss) and final_loss < best_loss:
        best_loss = final_loss
        best = [v.copy() for v in values]
    trace.append(best_loss)
    return MlpParams(*best), trace


# ----------------------------------------------------------- EGE transcript


def ege_transcript_zero_noise(means, budget):
    """Round-by-round (removed arm, accepted?) decisions of the one-arm-per-round
    elimination on exact means, plus the final returned set.

    Dominance scope at every round is the active arms plus the accepted ones,
    mirroring the algorithm's declared semantics.
    """
    means = [list(row) for row in means]
    k = len(means)
    active = list(range(k))
    accepted = []
    transcript = []
    for _ in range(k - 1):
        scope = sorted(set(active) | set(accepted))
        sub = [means[a] for a in scope]
        front_scope = {scope[i] for i in oracle_front(sub)}
        gaps = {
            a: oracle_pareto_gap(sub, scope.index(a))
            for a in active
        }
        removed = sorted(active, key=lambda a: (-gaps[a], a))[0]
        take = removed in front_scope
        if take:
            accepted.append(removed)
        transcript.append((removed, take))
        active.remove(removed)
    scope = sorted(set(active) | set(accepted))
    sub = [means[a] for a in scope]
    front_scope = {scope[i] for i in oracle_front(sub)}
    final = sorted(set(accepted) | ({active[0]} if active[0] in front_scope else set()))
    return transcript, final


# ------------------------------------------------------- eigen decomposition


def deflation_eigh(sym, count, iters=20_000, tol=1e-14):
    """Top eigenpairs of a symmetric PSD matrix by power iteration + deflation."""
    mat = np.array(sym, dtype=float)
    n = mat.shape[0]
    values, vectors = [], []
    work = mat.copy()
    for j in range(count):
        vec = np.ones(n) / math.sqrt(n)
        for q in vectors:
            vec -= (q @ vec) * q
        if np.linalg.norm(vec) < 1e-12:
            vec = np.zeros(n)
            vec[j % n] = 1.0
        vec /= np.linalg.norm(vec)
        lam = 0.0
        for _ in range(iters):
            nxt = work @ vec
            norm = np.linalg.norm(nxt)
            if norm < 1e-300:
                break
            nxt /= norm
            if np.linalg.norm(nxt - vec) < tol or np.linalg.norm(nxt + vec) < tol:
                vec = nxt
                break
            vec = nxt
        lam = float(vec @ work @ vec)
        values.append(lam)
        vectors.append(vec.copy())
        work = work - lam * np.outer(vec, vec)
    return np.array(values), np.array(vectors).T


# --------------------------------------------------------- finite differences


def finite_difference_mlp_grad(params, batch, lam, loss_fn, step=1e-5):
    """Central-difference gradient of the MLP loss, one coordinate at a time."""
    from mopx.estimators import MlpParams

    arrays = {
        "w1": params.w1.copy(),
        "b1": params.b1.copy(),
        "w2": params.w2.copy(),
        "b2": params.b2.copy(),
    }
    grads = {}
    for name, arr in arrays.items():
        grad = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for idx in range(flat.size):
            original = flat[idx]
            flat[idx] = original + step
            plus, _ = loss_fn(MlpParams(**arrays), batch, lam)
            flat[idx] = original - step
            minus, _ = loss_fn(MlpParams(**arrays), batch, lam)
            flat[idx] = original
            gflat[idx] = (plus - minus) / (2 * step)
        grads[name] = grad
    return MlpParams(**grads)


# ------------------------------------------------------ per-line CSV reader


def reference_read_arm_csv(path: str | Path, kind: str, repeats: bool = True) -> tuple[list[str], list[list[list[float]]]]:
    """The header and rows of a CSV file whose first column is ``arm_id``.

    Every row needs the header's width and every cell a number; the cells
    after ``arm_id`` are read as finite floats. Returns the stripped header
    and, for each arm 0..K-1 (K one past the largest arm_id), its rows in
    file order. Errors name the ``kind`` of file, its path and the line.
    With ``repeats=False`` an arm may have only one row.
    """
    path = Path(path)
    per_arm: dict[int, list[list[float]]] = {}
    with path.open(newline="") as handle:
        reader = csv.reader(handle)

        def fault(text: str) -> ConfigurationError:
            return ConfigurationError(f"{kind} file {path} line {reader.line_num} {text}")

        header = next(reader, None)
        if header is None:
            raise ConfigurationError(f"{kind} file {path} is empty")
        header = [h.strip() for h in header]
        if header[:1] != ["arm_id"]:
            raise ConfigurationError(f"{kind} file {path} must start with an arm_id column")
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise fault(f"has {len(row)} values, the header has {len(header)}")
            try:
                arm = int(row[0])
                values = [float(v) for v in row[1:]]
            except ValueError:
                raise fault(f"is not a row of numbers: {','.join(row)!r}") from None
            if not all(map(math.isfinite, values)):
                raise fault(f"holds a value that is not finite: {','.join(row)!r}")
            if arm < 0:
                raise fault(f"has a negative arm_id {arm}")
            if not repeats and arm in per_arm:
                raise fault(f"repeats arm_id {arm}")
            per_arm.setdefault(arm, []).append(values)
    if not per_arm:
        raise ConfigurationError(f"{kind} file {path} holds no records")
    n_missing = max(per_arm) + 1 - len(per_arm)
    missing = [a for a in range(min(max(per_arm) + 1, len(per_arm) + 10)) if a not in per_arm][:10]
    if missing:
        more = f" and {n_missing - 10} more" if n_missing > 10 else ""
        raise ConfigurationError(f"{kind} file {path} is missing records for arms {missing}{more}")
    return header, [per_arm[a] for a in range(len(per_arm))]


# ------------------------------------------------------ instance generator


def random_linear_instance(
    rng: np.random.Generator,
    n_arms: int,
    dim: int,
    n_objectives: int = 2,
    sigma: float = 0.5,
) -> Instance:
    """Linear-reward instance with unit-scaled random features."""
    features = rng.normal(size=(n_arms, dim)) / np.sqrt(dim)
    theta = rng.normal(size=(dim, n_objectives))
    return Instance(means=features @ theta, sigma=sigma, features=features, theta=theta)
