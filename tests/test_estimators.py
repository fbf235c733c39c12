import numpy as np
import pytest

import mopx.estimators as estimators
from oracles import finite_difference_mlp_grad, reference_restricted_inverse
from mopx.core import ConfigurationError, EstimationError, NumericalError, ObservationBatch
from mopx.estimators import (
    MlpParams,
    estimate_sample_mean,
    fit_linear,
    mlp_fit,
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


def test_fit_linear_matches_np_linalg_cond_form_bit_for_bit(monkeypatch):
    batches = []
    for rng, k, feats in _conditioned_instances(29, 60):
        arms = rng.integers(0, k, size=int(rng.integers(1, 3 * k + 2)))
        batches.append(_batch([(int(a), feats[a], rng.normal(size=2)) for a in arms]))
    fits = [fit_linear(batch) for batch in batches]
    monkeypatch.setattr(
        estimators,
        "pseudo_inverse",
        lambda gram, feats, basis=None: reference_restricted_inverse(
            gram, feats, select_independent_basis(feats)
        ),
    )
    for batch, fit in zip(batches, fits):
        expected = fit_linear(batch)
        for name in ("theta_hat", "gram", "gram_pinv"):
            assert getattr(fit, name).tobytes() == getattr(expected, name).tobytes()


def test_basis_selection_scans_ascending_with_tolerance():
    feats = np.array([[1.0, 0.0], [1.0 + 1e-12, 0.0], [0.0, 2.0]])
    assert select_independent_basis(feats) == [0, 2]
    assert select_independent_basis(np.zeros((3, 2))) == []


# ------------------------------------------------------------ linear fit


def test_fit_linear_reduces_to_sample_mean_in_1d():
    batch = _batch([(0, [1.0], [0.4, 0.0]), (0, [1.0], [0.6, 0.0])])
    fit = fit_linear(batch)
    assert fit.theta_hat[0, 0] == pytest.approx(0.5)


def test_fit_linear_identity_design_recovers_rows():
    batch = _batch([(0, [1.0, 0.0], [0.3, 0.1]), (1, [0.0, 1.0], [0.7, 0.9])])
    fit = fit_linear(batch)
    assert np.allclose(fit.theta_hat, [[0.3, 0.1], [0.7, 0.9]])


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
    params = mlp_fit(batch, 0.0, rng=np.random.default_rng(5), hidden=8, iters=2000)
    pred = mlp_predict(params, np.array([[0.3, -0.2]]))[0]
    assert np.max(np.abs(pred - [0.4, 0.9])) < 1e-2


def test_mlp_fit_deterministic():
    rng = np.random.default_rng(4)
    batch = ObservationBatch()
    for arm in range(5):
        batch.append(arm, rng.normal(size=2), rng.normal(size=2), 1)
    a = mlp_fit(batch, 1e-4, rng=np.random.default_rng(9), hidden=6, iters=50)
    b = mlp_fit(batch, 1e-4, rng=np.random.default_rng(9), hidden=6, iters=50)
    assert np.array_equal(a.w1, b.w1) and np.array_equal(a.b2, b.b2)


def test_mlp_fit_checkpoint_losses_non_increasing():
    rng = np.random.default_rng(6)
    batch = ObservationBatch()
    for arm in range(8):
        feat = rng.normal(size=2)
        batch.append(arm, feat, [feat @ [0.5, -0.2], feat @ [0.1, 0.3]], 1)
    gen = np.random.default_rng(1)
    _, trace = mlp_fit(batch, 1e-4, rng=gen, hidden=10, iters=600, return_trace=True)
    assert all(b <= a + 1e-6 for a, b in zip(trace, trace[1:]))


def test_mlp_fit_warm_start_continues_from_given_params():
    batch = _batch([(0, [1.0, 0.0], [0.5, 0.5])] * 3)
    first = mlp_fit(batch, 0.0, rng=np.random.default_rng(2), hidden=4, iters=100)
    second = mlp_fit(batch, 0.0, rng=np.random.default_rng(999), hidden=4, iters=1, init=first)
    # warm start means the rng plays no role
    third = mlp_fit(batch, 0.0, rng=np.random.default_rng(123), hidden=4, iters=1, init=first)
    assert np.array_equal(second.w1, third.w1)
    fourth = mlp_fit(batch, 0.0, hidden=4, iters=1, init=first)
    assert np.array_equal(second.w1, fourth.w1)
    with pytest.raises(ConfigurationError, match="rng"):
        mlp_fit(batch, 0.0, hidden=4, iters=1)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_mlp_fit_reports_non_finite_loss_iteration():
    batch = _batch([(0, [1e200, 0.0], [1e200, -1e200])])
    with pytest.raises(NumericalError, match="iteration"):
        mlp_fit(batch, 0.0, rng=np.random.default_rng(0), hidden=4, iters=10)


def test_mlp_empty_batch():
    with pytest.raises(EstimationError):
        mlp_loss_grad(_zero_params(), ObservationBatch(), 0.0)
    with pytest.raises(EstimationError):
        mlp_fit(ObservationBatch(), 0.0)
