import json
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mopx.algorithms as algorithms
import mopx.estimators as estimators
from oracles import (
    ListBatch,
    finite_difference_mlp_grad,
    oracle_sample_mean,
    random_linear_instance,
    reference_independent_basis,
    reference_mlp_fit,
    reference_mlp_loss_grad,
    reference_restricted_inverse,
)
from mopx.algorithms import RunConfig, run_algorithm
from mopx.core import ConfigurationError, EstimationError, NumericalError, ObservationBatch
from mopx.environments import LinearEnvironment
from mopx.estimators import (
    BASIS_RESIDUAL_TOL,
    MlpParams,
    estimate_sample_mean,
    fit_linear,
    mlp_fit,
    mlp_init,
    mlp_loss_grad,
    mlp_predict,
    pseudo_inverse,
    predict_linear,
    select_independent_basis,
)


def _batch(rows, round_index=1):
    batch = ObservationBatch()
    for arm, feat, reward in rows:
        batch.append(arm, feat, reward, round_index)
    return batch


# ------------------------------------------------------------- sample mean


def test_sample_mean_two_observations():
    batch = _batch([(0, [1.0], [0.2, 0.6]), (0, [1.0], [0.4, 0.8])])
    est = estimate_sample_mean(batch, [0])
    assert np.allclose(est[0], [0.3, 0.7])


def test_sample_mean_single_observation_is_identity():
    batch = _batch([(3, [1.0], [0.9, 0.1])])
    est = estimate_sample_mean(batch, [3])
    assert est[3].tolist() == [0.9, 0.1]


def test_sample_mean_missing_arm_names_it():
    batch = _batch([(0, [1.0], [0.2, 0.6])])
    with pytest.raises(EstimationError, match="arm 1"):
        estimate_sample_mean(batch, [0, 1])


def test_sample_mean_cumulative_across_rounds():
    batch = _batch([(0, [1.0], [0.0, 0.0])])
    batch.append(0, [1.0], [1.0, 1.0], 2)
    assert np.allclose(estimate_sample_mean(batch, [0])[0], [0.5, 0.5])


def test_sample_mean_error_texts():
    with pytest.raises(EstimationError) as err:
        estimate_sample_mean(ObservationBatch(), [0])
    assert str(err.value) == "cannot estimate from an empty batch"
    batch = _batch([(0, [1.0], [0.2, 0.6]), (2, [1.0], [0.1, 0.3])])
    for active, missing in (([0, 1, 2], 1), ([0, 5], 5), ([-1, 0], -1)):
        with pytest.raises(EstimationError) as err:
            estimate_sample_mean(batch, active)
        assert str(err.value) == f"active arm {missing} has no observations"


# arms 0, 2, 3 and 5 pulled; 1 and 4 never, -1 negative, 6 and 9 past the totals
_GAPPY = [(0, [1.0], [0.2, 0.6]), (2, [1.0], [0.1, 0.3]), (3, [1.0], [0.5, 0.5]), (5, [1.0], [0.4, 0.9])]


@pytest.mark.parametrize(
    "active, named",
    [
        ([1, 0, 2], 1),
        ([3, 0, 4], 4),
        ([5, 3, 2, 0, 1], 1),
        ([5, -1, 0], -1),
        ([0, 2, 5, 3, -1], -1),
        ([9, 0], 9),
        ([2, 0, 6], 6),
        ([4, -1, 9], 4),
        ([6, 1, -1], 6),
        ([-1, 4, 9], -1),
        ([3, 3, 4, 1], 4),
    ],
)
def test_sample_mean_names_the_first_faulty_arm_of_an_unsorted_list(active, named):
    with pytest.raises(EstimationError) as err:
        estimate_sample_mean(_batch(_GAPPY), active)
    assert str(err.value) == f"active arm {named} has no observations"


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-3, 8), max_size=8))
def test_sample_mean_answers_and_errors_match_the_per_arm_oracle(active):
    batch, oracle = _batch(_GAPPY), ListBatch()
    for row in _GAPPY:
        oracle.append(*row, 1)
    try:
        want = oracle_sample_mean(oracle, active)
    except EstimationError as err:
        with pytest.raises(EstimationError) as got:
            estimate_sample_mean(batch, active)
        assert str(got.value) == str(err)
        return
    est = estimate_sample_mean(batch, active)
    assert est.arms == sorted(active)
    assert [est[a].tobytes() for a in active] == [want[a].tobytes() for a in active]


def _rewards(rng, n, m, kind):
    if kind == "grid":  # quarter steps, with zeros of either sign
        rewards = np.round(rng.uniform(-0.6, 0.6, size=(n, m)) * 4) / 4
        return np.where(rewards == 0, np.where(rng.random((n, m)) < 0.5, -0.0, 0.0), rewards)
    if kind == "negative-zero":
        return np.full((n, m), -0.0)
    if kind == "scaled":  # rows from 1e-8 to 1e8
        return rng.normal(size=(n, m)) * 10.0 ** rng.integers(-8, 9, size=(n, 1))
    return np.round(rng.uniform(0.0, 1.0, size=(n, m)), 3)


def _paired_logs(seed, round_sizes, k, m, kind):
    """The same random rows, written into an ObservationBatch a round at a time
    (odd rounds) or a row at a time (even rounds), and into the list-built log
    a row at a time."""
    rng = np.random.default_rng(seed)
    batch, reference = ObservationBatch(), ListBatch()
    for r, n in enumerate(round_sizes, start=1):
        arms = rng.integers(0, k, size=n)
        feats = rng.normal(size=(n, 2))
        rewards = _rewards(rng, n, m, kind)
        if r % 2:
            batch.extend(arms, feats, rewards, r)
        for arm, feat, reward in zip(arms, feats, rewards):
            if not r % 2:
                batch.append(arm, feat, reward, r)
            reference.append(arm, feat, reward, r)
    return rng, batch, reference


def _estimate_outcome(estimate, batch, active):
    try:
        estimates = estimate(batch, active)
        if isinstance(estimates, dict):  # the oracle's form
            return {arm: value.tobytes() for arm, value in estimates.items()}
        assert estimates.arms == sorted(active)
        return {arm: row.tobytes() for arm, row in zip(estimates.arms, estimates.matrix)}
    except EstimationError as err:
        return str(err)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    round_sizes=st.lists(st.sampled_from([0, 1, 3, 8, 40, 300]), min_size=1, max_size=4),
    k=st.integers(1, 6),
    m=st.integers(2, 3),
    kind=st.sampled_from(["grid", "negative-zero", "scaled", "decimal"]),
    unpulled=st.integers(0, 2),
)
@example(seed=0, round_sizes=[0], k=1, m=2, kind="grid", unpulled=0)
@example(seed=1, round_sizes=[40, 300], k=2, m=2, kind="negative-zero", unpulled=0)
@example(seed=2, round_sizes=[300, 0, 40], k=3, m=2, kind="scaled", unpulled=1)
def test_sample_mean_matches_list_built_oracle_bit_for_bit(
    seed, round_sizes, k, m, kind, unpulled
):
    rng, batch, reference = _paired_logs(seed, round_sizes, k, m, kind)
    arms = [int(a) for a in rng.permutation(k + unpulled)]
    active = arms[: int(rng.integers(0, len(arms) + 1))]
    expected = _estimate_outcome(oracle_sample_mean, reference, active)
    assert _estimate_outcome(estimate_sample_mean, batch, active) == expected


def test_observation_log_matches_list_built_log_and_fits_its_round_slices():
    for seed in range(40):
        rng, batch, reference = _paired_logs(seed, [7, 0, 13, 40], 5, 2, "decimal")
        r = int(rng.integers(1, 5))  # a few more rows of an earlier round, one by one
        for _ in range(3):
            row = (int(rng.integers(0, 5)), rng.normal(size=2), rng.normal(size=2), r)
            batch.append(*row)
            reference.append(*row)
        slices = [(batch.round_slice(i), reference.round_slice(i)) for i in range(6)]
        for got, want in [(batch, reference), *slices]:
            assert len(got) == len(want)
            if len(want):
                for name in ("arms", "features", "rewards"):
                    a, b = getattr(got, name), getattr(want, name)
                    assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
            fits = []
            for log in (got, want):
                try:
                    fits.append(fit_linear(log).tobytes())
                except (EstimationError, NumericalError) as err:
                    fits.append(str(err))
            assert fits[0] == fits[1]


# ---------------------------------------------------------- pseudo inverse


def test_pseudo_inverse_full_rank_diag():
    out = pseudo_inverse(np.diag([2.0, 3.0]), np.eye(2))
    assert np.allclose(out, np.diag([0.5, 1.0 / 3.0]))


def test_pseudo_inverse_rank_one():
    gram = np.array([[4.0, 0.0], [0.0, 0.0]])
    feats = np.array([[1.0, 0.0], [2.0, 0.0]])
    out = pseudo_inverse(gram, feats)
    assert np.allclose(out, [[0.25, 0.0], [0.0, 0.0]])


def test_pseudo_inverse_identity():
    assert np.allclose(pseudo_inverse(np.eye(2), np.eye(2)), np.eye(2))


def test_pseudo_inverse_singular_raises():
    gram = np.diag([1.0, 1e-14])
    with pytest.raises(NumericalError, match="condition"):
        pseudo_inverse(gram, np.eye(2))


@pytest.mark.parametrize(
    "gram, message",
    [
        (np.diag([1.0, 1e-13]), "condition 1e+13"),  # near-singular
        (np.zeros((2, 2)), "condition inf"),  # 0/0 reads as inf, not nan
        (np.diag([1.0, 0.0]), "condition inf"),  # exactly singular
    ],
)
def test_pseudo_inverse_condition_error_texts(gram, message):
    with pytest.raises(NumericalError) as err:
        pseudo_inverse(gram, np.eye(2))
    assert str(err.value) == f"restricted Gram matrix is numerically singular ({message})"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pseudo_inverse_non_finite_gram_is_numerical_error(bad):
    gram = np.array([[bad, 0.0], [0.0, 1.0]])
    with pytest.raises(NumericalError) as err:
        pseudo_inverse(gram, np.eye(2))
    assert str(err.value) == "restricted Gram matrix holds NaN or inf entries"


def _conditioned_instances(seed: int, count: int):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        k = int(rng.integers(1, 30))
        d = int(rng.integers(1, 6))
        yield rng, k, rng.normal(size=(k, d))


def test_pseudo_inverse_matches_np_linalg_cond_form_bit_for_bit():
    for rng, k, feats in _conditioned_instances(23, 60):
        gram = feats.T @ (rng.uniform(0.1, 1.0, size=k)[:, None] * feats)
        basis = select_independent_basis(feats)
        expected = reference_restricted_inverse(gram, feats, basis)
        assert pseudo_inverse(gram, feats).tobytes() == expected.tobytes()


def _rotated_gram(seed: int, d: int, log_cond: float, log_scale: float) -> np.ndarray:
    """Q diag(s) Q^T with s spread geometrically over ``10**log_cond``."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(d, d)))
    s = np.geomspace(1.0, 10.0**-log_cond, d) * 10.0**log_scale
    return (q * s) @ q.T


def _inverse_or_error(fn, *args) -> bytes | str:
    try:
        return fn(*args).tobytes()
    except (NumericalError, np.linalg.LinAlgError) as err:
        return f"{type(err).__name__}: {err}"


@settings(max_examples=400, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 8),
    kind=st.sampled_from(["rotated", "rotated_features", "singular", "rank_deficient"]),
    # dense around the certificate (1e8) and the rejection bound (1e12)
    log_cond=st.one_of(
        st.floats(0.0, 16.0), st.floats(7.5, 8.5), st.floats(11.5, 12.5), st.just(8.0), st.just(12.0)
    ),
    log_scale=st.floats(-150.0, 150.0),
)
@example(seed=0, d=1, kind="rotated", log_cond=0.0, log_scale=0.0)
@example(seed=0, d=1, kind="singular", log_cond=0.0, log_scale=0.0)
@example(seed=1, d=8, kind="rotated", log_cond=16.0, log_scale=-150.0)
@example(seed=2, d=8, kind="rotated", log_cond=12.0, log_scale=150.0)
def test_certified_pseudo_inverse_matches_svd_checked_reference(seed, d, kind, log_cond, log_scale):
    rng = np.random.default_rng(seed)
    feats = np.eye(d)
    if kind == "rotated":
        gram = _rotated_gram(seed, d, log_cond, log_scale)
    elif kind == "rotated_features":  # restricted through a random full-rank basis
        gram = _rotated_gram(seed, d, log_cond, log_scale)
        feats = rng.normal(size=(d + int(rng.integers(0, 3)), d))
    elif kind == "singular":  # a repeated row and column, or all zeros at d = 1
        gram = _rotated_gram(seed, d, log_cond, log_scale)
        if d == 1:
            gram[0, 0] = 0.0
        else:
            i, j = rng.choice(d, size=2, replace=False)
            gram[:, j] = gram[:, i]
            gram[j, :] = gram[i, :]
    else:  # weighted Gram of rank-deficient feature rows, restricted to their span
        rank = int(rng.integers(1, d + 1))
        k = int(rng.integers(rank, 3 * d + 2))
        feats = rng.normal(size=(k, rank)) @ rng.normal(size=(rank, d)) * 10.0 ** (log_scale / 4)
        weights = rng.dirichlet(np.ones(k)) ** (1.0 + log_cond)
        gram = feats.T @ (weights[:, None] * feats)
    basis = select_independent_basis(feats)
    if not basis:
        return
    phi = feats[basis].T
    if not np.isfinite(phi.T @ gram @ phi).all():
        return  # pinned separately: the NaN-or-inf text comes before any condition check
    expected = _inverse_or_error(reference_restricted_inverse, gram, feats, basis)
    assert _inverse_or_error(pseudo_inverse, gram, feats) == expected


@pytest.mark.parametrize(
    "gram, svd_calls",
    [
        (np.eye(3), 0),
        (np.diag([2.0, 3.0]), 0),
        (_rotated_gram(5, 6, 4.0, -30.0), 0),
        (np.diag([1.0, 2e-9]), 1),  # condition 5e8: accepted, after the SVD
        (_rotated_gram(6, 4, 10.0, 0.0), 1),
        (np.diag([1.0, 1e-13]), 1),  # rejected by the SVD check
        (np.diag([1.0, 0.0]), 1),  # exactly singular: inv raises, the SVD names it
        (np.zeros((2, 2)), 1),
    ],
)
def test_pseudo_inverse_runs_the_svd_only_when_the_certificate_fails(monkeypatch, gram, svd_calls):
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(a) or svd(*a, **kw))
    feats = np.eye(gram.shape[0])
    got = _inverse_or_error(pseudo_inverse, gram, feats)
    assert len(calls) == svd_calls
    assert got == _inverse_or_error(reference_restricted_inverse, gram, feats, list(range(len(gram))))


def test_fit_linear_matches_np_linalg_cond_form_bit_for_bit(monkeypatch):
    batches = []
    for rng, k, feats in _conditioned_instances(29, 60):
        arms = rng.integers(0, k, size=int(rng.integers(1, 3 * k + 2)))
        batches.append(_batch([(int(a), feats[a], rng.normal(size=2)) for a in arms]))
    fits = [fit_linear(batch) for batch in batches]
    monkeypatch.setattr(
        estimators,
        "pseudo_inverse",
        lambda gram, feats: reference_restricted_inverse(
            gram, feats, select_independent_basis(feats)
        ),
    )
    for batch, fit in zip(batches, fits):
        expected = fit_linear(batch)
        assert (fit.dtype, fit.shape, fit.tobytes()) == (expected.dtype, expected.shape, expected.tobytes())


def test_basis_selection_scans_ascending_with_tolerance():
    feats = np.array([[1.0, 0.0], [1.0 + 1e-12, 0.0], [0.0, 2.0]])
    assert select_independent_basis(feats) == [0, 2]
    assert select_independent_basis(np.zeros((3, 2))) == []


def _scan_rows(kind: str, rng: np.random.Generator, k: int, d: int) -> np.ndarray:
    """Feature rows of one kind; ``k`` and ``d`` are the sizes drawn for it."""
    if kind == "full_rank":
        return rng.normal(size=(k, d))
    if kind == "multiple_columns":  # each column a multiple of an earlier one, or fresh
        feats = rng.normal(size=(k, d))
        for j in range(1, d):
            if rng.random() < 0.6:
                feats[:, j] = rng.choice([2.0, -0.5, 3.0, rng.normal()]) * feats[:, int(rng.integers(0, j))]
        return feats
    if kind == "repeats_zeros_one_hots":  # rows drawn with repeats from a small pool
        pool = np.vstack([rng.normal(size=(3, d)), np.zeros((1, d)), np.eye(d)])
        return pool[rng.integers(0, len(pool), size=k)]
    if kind == "scaled":  # each row scaled by 1e-12 to 1e8
        return rng.normal(size=(k, d)) * 10.0 ** rng.uniform(-12.0, 8.0, size=(k, 1))
    if kind == "conditioned":  # a basis of condition up to 1e10, then combinations of it
        q1, _ = np.linalg.qr(rng.normal(size=(d, d)))
        q2, _ = np.linalg.qr(rng.normal(size=(d, d)))
        basis = (q1 * np.geomspace(1.0, 10.0 ** -rng.uniform(0.0, 10.0), d)) @ q2
        return np.vstack([basis, rng.normal(size=(k, d)) @ basis])[:k]
    if kind == "near_tolerance":  # a rank-r span plus offsets of 0.5 to 2 tolerances outside it
        rank = int(rng.integers(0, d))
        span = rng.normal(size=(rank, d))
        outside = np.linalg.qr(np.hstack([span.T, rng.normal(size=(d, d - rank))]))[0][:, rank:]
        offsets = rng.normal(size=(k, d - rank))
        offsets *= rng.uniform(0.5, 2.0, size=(k, 1)) * BASIS_RESIDUAL_TOL / np.linalg.norm(offsets, axis=1, keepdims=True)
        return np.vstack([span, rng.normal(size=(k, rank)) @ span + offsets @ outside.T])
    # non-finite entries, or rows whose squares overflow, among ordinary rows
    feats = rng.normal(size=(k, d))
    for _ in range(int(rng.integers(1, 4))):
        feats[rng.integers(0, k), rng.integers(0, d)] = rng.choice([np.inf, -np.inf, np.nan, 1e200, 1e160])
    return feats


def _scan_outcome(scan, feats) -> tuple:
    """The basis and the warnings (class and text) one scan gives."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        basis = scan(feats)
    return basis, [(w.category, str(w.message)) for w in caught]


@settings(max_examples=500, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 200),
    d=st.integers(1, 8),
    kind=st.sampled_from(
        ["full_rank", "multiple_columns", "repeats_zeros_one_hots", "scaled", "conditioned", "near_tolerance", "non_finite"]
    ),
)
@example(seed=0, k=107, d=3, kind="scaled")  # fails when rows are skipped without the bound
@example(seed=0, k=30, d=1, kind="near_tolerance")
def test_basis_scan_matches_the_row_by_row_reference(seed, k, d, kind):
    feats = _scan_rows(kind, np.random.default_rng(seed), k, d)
    assert _scan_outcome(select_independent_basis, feats) == _scan_outcome(reference_independent_basis, feats)


def test_near_tolerance_rows_fall_on_both_sides_of_the_tolerance():
    """The ``near_tolerance`` kind lets some offset rows join and keeps others out."""
    joined = skipped = 0
    for seed in range(20):
        feats = _scan_rows("near_tolerance", np.random.default_rng(seed), 12, 6)
        rank = len(feats) - 12
        extra = [i for i in reference_independent_basis(feats) if i >= rank]
        joined += len(extra)
        skipped += 12 - len(extra)
    assert joined > 0 and skipped > 0


def _inverse_outcome(inverse, a) -> tuple:
    try:
        inv = inverse(a)
    except np.linalg.LinAlgError as err:
        return type(err), str(err)
    return inv.dtype, inv.shape, inv.tobytes()


@settings(max_examples=400, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 8),
    kind=st.sampled_from(["random", "ill_conditioned", "signed_zeros", "subnormal", "singular", "nan", "inf"]),
)
def test_direct_inverse_matches_np_linalg_inv(seed, d, kind):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d, d))
    if kind == "ill_conditioned":
        a = _rotated_gram(seed, d, rng.uniform(6.0, 20.0), rng.uniform(-100.0, 100.0))
    elif kind == "signed_zeros":  # each zero takes its entry's sign
        a[rng.random((d, d)) < 0.5] *= 0.0
    elif kind == "subnormal":
        a *= rng.choice([1e-300, 1e-310, 5e-324])
    elif kind == "singular":  # a repeated column, or all zeros
        if d == 1 or rng.random() < 0.3:
            a[:] = 0.0
        else:
            i, j = rng.choice(d, size=2, replace=False)
            a[:, j] = a[:, i]
    elif kind in ("nan", "inf"):
        a[rng.integers(0, d), rng.integers(0, d)] = np.nan if kind == "nan" else rng.choice([np.inf, -np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _inverse_outcome(estimators._inverse, a) == _inverse_outcome(np.linalg.inv, a)


# ------------------------------------------------------------ linear fit


def test_fit_linear_reduces_to_sample_mean_in_1d():
    batch = _batch([(0, [1.0], [0.4, 0.0]), (0, [1.0], [0.6, 0.0])])
    assert fit_linear(batch)[0, 0] == pytest.approx(0.5)


def test_fit_linear_identity_design_recovers_rows():
    batch = _batch([(0, [1.0, 0.0], [0.3, 0.1]), (1, [0.0, 1.0], [0.7, 0.9])])
    assert np.allclose(fit_linear(batch), [[0.3, 0.1], [0.7, 0.9]])


def test_fit_linear_span_restricted_prediction():
    # every pull on the first axis with mean outcome 0.5
    rows = [(0, [1.0, 0.0], [0.4, 0.4]), (0, [1.0, 0.0], [0.6, 0.6])]
    fit = fit_linear(_batch(rows))
    preds = predict_linear(fit, np.array([[2.0, 0.0], [0.0, 1.0]]), arms=[10, 11])
    assert np.allclose(preds[10], [1.0, 1.0])  # 0.5 * c with c = 2
    assert np.allclose(preds[11], [0.0, 0.0])  # orthogonal to the span


def test_fit_linear_noiseless_exact_on_span():
    rng = np.random.default_rng(0)
    theta = rng.normal(size=(3, 2))
    feats = rng.normal(size=(6, 3))
    batch = ObservationBatch()
    for arm in range(6):
        batch.append(arm, feats[arm], feats[arm] @ theta, 1)
    fit = fit_linear(batch)
    preds = predict_linear(fit, feats)
    for arm in range(6):
        assert np.max(np.abs(preds[arm] - feats[arm] @ theta)) < 1e-9


def test_fit_linear_whole_batch_duplication_invariance():
    rng = np.random.default_rng(1)
    feats = rng.normal(size=(5, 3))
    batch = ObservationBatch()
    doubled = ObservationBatch()
    for arm in range(5):
        reward = rng.normal(size=2)
        batch.append(arm, feats[arm], reward, 1)
        doubled.append(arm, feats[arm], reward, 1)
        doubled.append(arm, feats[arm], reward, 1)
    single = predict_linear(fit_linear(batch), feats)
    double = predict_linear(fit_linear(doubled), feats)
    for arm in range(5):
        assert np.max(np.abs(single[arm] - double[arm])) < 1e-9


def test_fit_linear_one_hot_equals_sample_mean():
    rng = np.random.default_rng(2)
    batch = ObservationBatch()
    k = 4
    for arm in range(k):
        for _ in range(3):
            batch.append(arm, np.eye(k)[arm], rng.normal(size=2), 1)
    fit = fit_linear(batch)
    preds = predict_linear(fit, np.eye(k))
    means = estimate_sample_mean(batch, list(range(k)))
    for arm in range(k):
        assert np.max(np.abs(preds[arm] - means[arm])) < 1e-9


def test_fit_linear_empty_batch():
    with pytest.raises(EstimationError):
        fit_linear(ObservationBatch())


# ------------------------------------------------------------------- MLP


def _zero_params(dim=2, hidden=3, m=2):
    return MlpParams(
        w1=np.zeros((hidden, dim)),
        b1=np.zeros(hidden),
        w2=np.zeros((m, hidden)),
        b2=np.zeros(m),
    )


def test_mlp_loss_zero_network():
    batch = _batch([(0, [0.5, 0.5], [0.6, 0.8])])
    loss, _ = mlp_loss_grad(_zero_params(), batch, 0.0)
    assert loss == pytest.approx(1.0)
    loss_reg, _ = mlp_loss_grad(_zero_params(), batch, 1.0)
    assert loss_reg == pytest.approx(1.0)  # zero parameters carry no penalty


def test_mlp_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    batch = ObservationBatch()
    for arm in range(4):
        batch.append(arm, rng.normal(size=3), rng.normal(size=2), 1)
    params = MlpParams(
        w1=rng.normal(size=(5, 3)) * 0.5,
        b1=rng.normal(size=5) * 0.5,
        w2=rng.normal(size=(2, 5)) * 0.5,
        b2=rng.normal(size=2) * 0.5,
    )
    _, grad = mlp_loss_grad(params, batch, 0.3)
    fd = finite_difference_mlp_grad(params, batch, 0.3, mlp_loss_grad)
    for name in ("w1", "b1", "w2", "b2"):
        got = getattr(grad, name)
        want = getattr(fd, name)
        rel = np.abs(got - want) / np.maximum(np.abs(want), 1e-6)
        assert rel.max() < 1e-4


def test_mlp_fit_interpolates_one_sample():
    batch = _batch([(0, [0.3, -0.2], [0.4, 0.9])] * 4)
    params = mlp_fit(batch, 0.0, mlp_init(2, 2, 8, np.random.default_rng(5)), iters=2000)
    pred = mlp_predict(params, np.array([[0.3, -0.2]]))[0]
    assert np.max(np.abs(pred - [0.4, 0.9])) < 1e-2


def test_mlp_fit_deterministic():
    rng = np.random.default_rng(4)
    batch = ObservationBatch()
    for arm in range(5):
        batch.append(arm, rng.normal(size=2), rng.normal(size=2), 1)
    a = mlp_fit(batch, 1e-4, mlp_init(2, 2, 6, np.random.default_rng(9)), iters=50)
    b = mlp_fit(batch, 1e-4, mlp_init(2, 2, 6, np.random.default_rng(9)), iters=50)
    assert np.array_equal(a.w1, b.w1) and np.array_equal(a.b2, b.b2)


def test_mlp_fit_returns_its_lowest_loss_iterate():
    rng = np.random.default_rng(6)
    batch = ObservationBatch()
    for arm in range(8):
        feat = rng.normal(size=2)
        batch.append(arm, feat, [feat @ [0.5, -0.2], feat @ [0.1, 0.3]], 1)
    got = mlp_fit(batch, 1e-4, mlp_init(2, 2, 10, np.random.default_rng(1)), iters=600)
    # the oracle's trace holds the lowest loss after every iterate and the final one
    _, trace = reference_mlp_fit(batch, 1e-4, rng=np.random.default_rng(1), hidden=10, iters=600, checkpoint_every=1)
    assert mlp_loss_grad(got, batch, 1e-4)[0] == trace[-1] == min(trace)


def test_mlp_fit_warm_start_continues_from_given_params():
    batch = _batch([(0, [1.0, 0.0], [0.5, 0.5])] * 3)
    first = mlp_fit(batch, 0.0, mlp_init(2, 2, 4, np.random.default_rng(2)), iters=100)
    second = mlp_fit(batch, 0.0, first, iters=1)
    third = mlp_fit(batch, 0.0, first, iters=1)
    assert np.array_equal(second.w1, third.w1)
    want, _ = reference_mlp_fit(batch, 0.0, init=first, iters=1)
    assert _mlp_bytes(second) == _mlp_bytes(want)


@pytest.mark.parametrize(
    "init, m, message",
    [
        (
            _zero_params(dim=3, hidden=4), 2,
            "init w1 has shape (4, 3), but hidden=4 and a batch of 2 features and 2 rewards "
            "need (4, 2)",
        ),
        (
            _zero_params(dim=2, hidden=4), 3,
            "init w2 has shape (2, 4), but hidden=4 and a batch of 2 features and 3 rewards "
            "need (3, 4)",
        ),
        (
            MlpParams(np.zeros((4, 2)), np.zeros(3), np.zeros((2, 4)), np.zeros(2)), 2,
            "init b1 has shape (3,), but hidden=4 and a batch of 2 features and 2 rewards "
            "need (4,)",
        ),
    ],
)
def test_mlp_fit_rejects_init_of_another_shape(init, m, message):
    batch = _batch([(0, [1.0, 0.0], [0.5] * m)] * 3)
    with pytest.raises(ConfigurationError) as err:
        mlp_fit(batch, 0.0, init, iters=3)
    assert str(err.value) == message


def test_mlp_fit_takes_one_gradient_per_iteration(monkeypatch):
    calls = []
    kernel = estimators._mlp_loss_grad
    monkeypatch.setattr(estimators, "_mlp_loss_grad", lambda *a: calls.append(1) or kernel(*a))
    batch = _random_batch(5, 12, 3, 2)
    got = mlp_fit(batch, 1e-4, mlp_init(3, 2, 6, np.random.default_rng(1)), iters=9)
    want, _ = reference_mlp_fit(batch, 1e-4, rng=np.random.default_rng(1), hidden=6, iters=9)
    assert len(calls) == 9  # the loss after the last step needs no gradient
    assert _mlp_bytes(got) == _mlp_bytes(want)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_mlp_fit_reports_non_finite_loss_iteration():
    batch = _batch([(0, [1e200, 0.0], [1e200, -1e200])])
    with pytest.raises(NumericalError, match="iteration"):
        mlp_fit(batch, 0.0, mlp_init(2, 2, 4, np.random.default_rng(0)), iters=10)


def test_mlp_empty_batch():
    with pytest.raises(EstimationError):
        mlp_loss_grad(_zero_params(), ObservationBatch(), 0.0)
    with pytest.raises(EstimationError):
        mlp_fit(ObservationBatch(), 0.0, _zero_params())


# ------------------------------------------- MLP fit against the reference


def _mlp_bytes(params):
    return [getattr(params, name).tobytes() for name in ("w1", "b1", "w2", "b2")]


def _random_batch(seed, n, dim, m, grid=False):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(n, dim))
    rewards = rng.normal(size=(n, m))
    if grid:  # half-integer values give exact ties and exact zeros in ReLU inputs
        feats, rewards = np.round(2 * feats) / 2, np.round(2 * rewards) / 2
    return _batch([(int(a), f, y) for a, f, y in zip(rng.integers(0, 9, size=n), feats, rewards)])


def _assert_fit_matches_reference(batch, lam, seed, warm_iters, hidden, **kwargs):
    """Cold fit from a start drawn by a seeded rng, then a warm start from its
    result: weights equal the per-array loop bit for bit, and init is not written."""
    start = mlp_init(batch.features.shape[1], batch.rewards.shape[1], hidden, np.random.default_rng(seed))
    got = mlp_fit(batch, lam, start, **kwargs)
    want, _ = reference_mlp_fit(batch, lam, rng=np.random.default_rng(seed), hidden=hidden, **kwargs)
    assert _mlp_bytes(got) == _mlp_bytes(want)

    kwargs["iters"] = warm_iters
    init_bytes = _mlp_bytes(got)
    warm = mlp_fit(batch, lam, got, **kwargs)
    want_warm, _ = reference_mlp_fit(batch, lam, init=want, **kwargs)
    assert _mlp_bytes(got) == init_bytes
    assert _mlp_bytes(warm) == _mlp_bytes(want_warm)


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([1, 2, 5, 17, 64, 150]),
    dim=st.integers(1, 5),
    m=st.integers(1, 3),
    hidden=st.sampled_from([1, 3, 8, 30]),
    lam=st.sampled_from([0.0, 1e-4, 0.3]),
    iters=st.sampled_from([0, 1, 5, 40]),
    step_size=st.sampled_from([1e-2, 3e-3, 0.1]),
    grid=st.booleans(),
    seed=st.integers(0, 2**16),
)
@example(n=5, dim=2, m=1, hidden=1, lam=0.0, iters=0, step_size=1e-2, grid=False, seed=0)
@example(n=1, dim=1, m=3, hidden=1, lam=0.0, iters=1, step_size=1e-2, grid=True, seed=1)
@example(n=17, dim=4, m=2, hidden=30, lam=1e-4, iters=40, step_size=0.1, grid=True, seed=2)
def test_mlp_fit_matches_per_array_reference_bit_for_bit(n, dim, m, hidden, lam, iters, step_size, grid, seed):
    batch = _random_batch(seed, n, dim, m, grid)
    _assert_fit_matches_reference(
        batch, lam, seed, warm_iters=max(1, iters // 2), hidden=hidden, iters=iters, step_size=step_size
    )


def test_mlp_fit_matches_reference_above_128_kib_hidden_buffers():
    # n x h float64 buffers of 640 * 30 * 8 = 153,600 bytes, the row count that
    # sequential halving reaches on K=32 arms with a 640-pull budget
    batch = _random_batch(11, 640, 4, 2)
    _assert_fit_matches_reference(batch, 1e-4, 3, warm_iters=60, hidden=30, iters=60)



@pytest.mark.parametrize("grid", [False, True])
@pytest.mark.parametrize("lam", [0.0, 1e-4, 0.3])
@pytest.mark.parametrize("n", [1, 17, 640])
@pytest.mark.parametrize("hidden", [1, 30])
def test_mlp_loss_grad_matches_per_array_reference_bit_for_bit(grid, lam, n, hidden):
    batch = _random_batch(n + hidden, n, 4, 2, grid)
    params = mlp_init(4, 2, hidden, np.random.default_rng(n))
    if grid:  # quarter-integer weights on half-integer features hit ReLU inputs of exactly 0
        params = MlpParams(*(np.round(4 * v) / 4 for v in vars(params).values()))
    loss, grads = mlp_loss_grad(params, batch, lam)
    want_loss, want_grads = reference_mlp_loss_grad(
        params.w1, params.b1, params.w2, params.b2, batch.features, batch.rewards, lam
    )
    assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
    assert _mlp_bytes(grads) == [g.tobytes() for g in want_grads]

@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "rows, step_size, message",
    [
        ([(0, [1e200, 0.0], [1e200, -1e200])], 1e-2, "iteration 0"),
        ([(0, [1.0, 0.5], [0.2, 0.4]), (1, [0.3, -1.0], [0.9, 0.1])], 1e200, "iteration 1"),
    ],
)
def test_mlp_fit_non_finite_loss_text_matches_reference(rows, step_size, message):
    batch = _batch(rows)
    errors = []
    fits = (
        lambda: mlp_fit(batch, 0.0, mlp_init(2, 2, 4, np.random.default_rng(0)), iters=10, step_size=step_size),
        lambda: reference_mlp_fit(batch, 0.0, rng=np.random.default_rng(0), hidden=4, iters=10, step_size=step_size),
    )
    for fit in fits:
        with pytest.raises(NumericalError) as err:
            fit()
        errors.append(str(err.value))
    assert errors == [f"non-finite training loss at {message}"] * 2


def test_warm_started_fit_leaves_the_first_fit_and_its_init_untouched():
    batch = _random_batch(3, 40, 4, 2)
    init = mlp_init(4, 2, 30, np.random.default_rng(0))
    init_bytes = _mlp_bytes(init)
    first = mlp_fit(batch, 1e-4, init=init, iters=30)
    first_bytes = _mlp_bytes(first)
    second = mlp_fit(batch, 1e-4, init=first, iters=30)
    third = mlp_fit(batch, 1e-4, init=first, iters=0)
    assert _mlp_bytes(first) == first_bytes and _mlp_bytes(init) == init_bytes
    assert _mlp_bytes(second) != first_bytes and _mlp_bytes(third) == first_bytes

    def shares(a, b):
        return any(np.shares_memory(x, y) for x in vars(a).values() for y in vars(b).values())

    # every fit returns views of a vector of its own
    assert not any(shares(a, b) for a, b in combinations((init, first, second, third), 2))


@pytest.mark.parametrize("iters", [0, 1, 60])
@pytest.mark.parametrize("rows", [1, 2, 17, 128, 640])
def test_flat_adam_matches_the_reference_fit(iters, rows):
    batch = _random_batch(rows, rows, 4, 2)
    got = mlp_fit(batch, 1e-4, mlp_init(4, 2, 30, np.random.default_rng(iters)), iters=iters)
    want, _ = reference_mlp_fit(batch, 1e-4, rng=np.random.default_rng(iters), iters=iters)
    assert _mlp_bytes(got) == _mlp_bytes(want)


@pytest.mark.parametrize("hidden", [1, 30])
def test_halving_fit_sequence_matches_chained_reference_fits(hidden):
    """The fits a cumulative-scope MLP run makes under sequential halving on
    K=32 arms of d=4 with a 640-pull budget: 128 pulls per round over 32, 16,
    8, 4 and 2 arms, each fit warm-started from the last over every row so far."""
    rng = np.random.default_rng(7)
    table = rng.normal(size=(32, 4)) / 2.0
    theta = rng.normal(size=(4, 2))
    order = rng.permutation(32)
    batch = ObservationBatch()
    got = want = None
    for round_index, n_active in enumerate((32, 16, 8, 4, 2), start=1):
        arms = np.resize(order[:n_active], 128)
        rewards = table[arms] @ theta + 0.5 * rng.normal(size=(128, 2))
        batch.extend(arms, table[arms], rewards, round_index)
        # the rng draws the first fit's weights; the later fits start from the last
        start = mlp_init(4, 2, hidden, np.random.default_rng(0)) if got is None else got
        got = mlp_fit(batch, 1e-4, start, iters=60)
        want, _ = reference_mlp_fit(batch, 1e-4, rng=np.random.default_rng(0), hidden=hidden, iters=60, init=want)
        assert len(batch) == 128 * round_index
        assert _mlp_bytes(got) == _mlp_bytes(want), f"fit {round_index}"


_SUM_SPECIALS = np.array([0.0, -0.0, 5e-324, -5e-324, 2.0**-1060, np.inf, -np.inf, np.nan])


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 3000),
    width=st.sampled_from([1, 2, 3, 30, 31, 64]),
    kind=st.sampled_from(["normal", "half-integer", "subnormal"]),
    special_share=st.sampled_from([0.0, 0.001, 0.05, 0.5]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=3000, width=64, kind="normal", special_share=0.0, seed=0)  # far past the 8,192-element buffer
@example(n=129, width=64, kind="half-integer", special_share=0.05, seed=1)  # just past it
@example(n=1000, width=1, kind="normal", special_share=0.0, seed=2)  # pairwise, not row by row
def test_row_sums_equal_the_row_by_row_reduction(n, width, kind, special_share, seed):
    """``_row_sums`` adds each column's rows in the order ``np.add.reduce(x, axis=0)``
    does, so every sum, signed zero, infinity and NaN position is the same bytes.

    Every NaN is compared as one NaN: where a NaN meets a NaN of the other sign
    (on x86, ``inf - inf`` gives -nan), the one an addition keeps depends on its
    operand order, not the sum order; and a NaN gradient makes the next loss
    NaN, so no fit returns it.
    """
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, width))
    if kind == "half-integer":  # exact ties, exact zeros and -0.0
        x = np.round(2 * x) / 2
    elif kind == "subnormal":
        x *= 1e-310
    mask = rng.random(x.shape) < special_share
    x[mask] = rng.choice(_SUM_SPECIALS, size=int(mask.sum()))
    got = np.empty(width)
    with np.errstate(invalid="ignore"):
        estimators._row_sums(x, got)
        want = np.add.reduce(x, axis=0)
    assert np.where(np.isnan(got), np.nan, got).tobytes() == np.where(np.isnan(want), np.nan, want).tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_fit_without_iterations_returns_init_when_its_loss_is_not_finite():
    batch = _batch([(0, [0.5, -1.0], [1e200, -1e200]), (1, [0.2, 0.3], [1e200, 1e200])])
    init = mlp_init(2, 2, 4, np.random.default_rng(5))
    params = mlp_fit(batch, 0.0, init, iters=0)
    assert _mlp_bytes(params) == _mlp_bytes(init)
    assert not any(np.shares_memory(x, y) for x in vars(params).values() for y in vars(init).values())


def test_round_scoped_mlp_run_matches_reference_fit(monkeypatch):
    env = LinearEnvironment(random_linear_instance(np.random.default_rng(8), 6, 3, sigma=0.3))
    config = RunConfig(
        algorithm="genpsi",
        mode="pareto",
        scheduler="sequential_halving",
        estimator="mlp",
        mlp_data_scope="round",
        per_arm_budget=6,
        seed=4,
        mlp_hidden=5,
        mlp_iters=25,
    )
    got = json.dumps(run_algorithm(config, env).to_dict(), sort_keys=True)
    fits = []

    def reference_fit(batch, lam, init, **kwargs):
        fits.append(len(batch))
        return reference_mlp_fit(batch, lam, init=init, **kwargs)[0]

    monkeypatch.setattr(algorithms, "mlp_fit", reference_fit)
    env = LinearEnvironment(random_linear_instance(np.random.default_rng(8), 6, 3, sigma=0.3))
    assert json.dumps(run_algorithm(config, env).to_dict(), sort_keys=True) == got
    assert len(fits) > 1  # every round after the first warm-starts from the last fit
