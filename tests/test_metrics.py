import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_front, oracle_hv_grid, oracle_hv_monte_carlo
from mopx.core import MetricError, UnsupportedDimensionError
from mopx.metrics import hv_recovery, hypervolume, soft_constrained_reward


def test_hv_three_point_front():
    pts = [(0.8, 0.2), (0.5, 0.5), (0.2, 0.8)]
    assert hypervolume(pts, (0.0, 0.0)) == pytest.approx(0.37)


def test_hv_single_point():
    assert hypervolume([(0.5, 0.5)], (0.0, 0.0)) == pytest.approx(0.25)


def test_hv_dominated_point_adds_nothing():
    pts = [(0.8, 0.2), (0.5, 0.5), (0.2, 0.8), (0.4, 0.4)]
    assert hypervolume(pts, (0.0, 0.0)) == pytest.approx(0.37)


def test_hv_clips_points_below_reference():
    assert hypervolume([(-0.5, 0.7), (0.6, -0.2)], (0.0, 0.0)) == pytest.approx(0.0)
    assert hypervolume([(0.5, -1.0)], (0.0, 0.0)) == 0.0


@pytest.mark.parametrize("reference", [(np.nan, 0.0), (0.0, -np.inf), (np.inf, 0.0, 0.0)])
@pytest.mark.parametrize("points", [[(0.5, 0.5, 0.5)], np.empty((0, 3))])
def test_hv_rejects_a_non_finite_reference(reference, points):
    with pytest.raises(MetricError, match="reference must be finite"):
        hypervolume(np.asarray(points)[:, : len(reference)], reference)


def test_hv_rejects_high_dimensions():
    with pytest.raises(UnsupportedDimensionError):
        hypervolume([(0.1, 0.2, 0.3, 0.4)], (0, 0, 0, 0))


def test_hv_two_matches_grid_oracle_exactly():
    rng = np.random.default_rng(0)
    for _ in range(200):
        pts = rng.uniform(-0.2, 1.0, size=(int(rng.integers(1, 9)), 2))
        ref = rng.uniform(-0.3, 0.1, size=2)
        assert hypervolume(pts, ref) == pytest.approx(oracle_hv_grid(pts, ref), abs=1e-12)


def test_hv_three_matches_grid_oracle_exactly():
    rng = np.random.default_rng(1)
    for _ in range(100):
        pts = rng.uniform(0.0, 1.0, size=(int(rng.integers(1, 9)), 3))
        assert hypervolume(pts, (0, 0, 0)) == pytest.approx(
            oracle_hv_grid(pts, (0, 0, 0)), abs=1e-12
        )


def test_hv_matches_monte_carlo_within_three_standard_errors():
    rng = np.random.default_rng(2)
    for m in (2, 3):
        pts = rng.uniform(0.1, 1.0, size=(6, m))
        ref = np.zeros(m)
        exact = hypervolume(pts, ref)
        est, se = oracle_hv_monte_carlo(pts, ref, 10**6, rng)
        assert abs(exact - est) <= 3 * se


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1.0),
            st.floats(min_value=0.0, max_value=1.0),
        ),
        min_size=1,
        max_size=8,
    ),
    st.tuples(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0)),
)
def test_hv_monotone_under_added_points_and_duplication(points, extra):
    ref = (0.0, 0.0)
    base = hypervolume(points, ref)
    assert hypervolume(points + [extra], ref) >= base - 1e-12
    assert hypervolume(points + points, ref) == pytest.approx(base)
    shuffled = list(reversed(points))
    assert hypervolume(shuffled, ref) == pytest.approx(base)


# ------------------------------------------------------ soft constrained reward


def test_soft_reward_tolerates_slight_violation():
    raw, _ = soft_constrained_reward(np.array([0.7, 0.46]), 0.5)
    assert raw == pytest.approx(0.7)
    raw, _ = soft_constrained_reward(np.array([0.7, 0.44]), 0.5)
    assert raw == 0.0


def test_soft_reward_normalisation():
    raw, norm = soft_constrained_reward(np.array([0.7, 0.46]), 0.5, mu1_star=0.8)
    assert raw == pytest.approx(0.7)
    assert norm == pytest.approx(0.875)


def test_soft_reward_of_true_optimum_is_its_primary_mean():
    means = np.array([[0.8, 0.6], [0.9, 0.4]])
    raw, norm = soft_constrained_reward(means[0], 0.5, mu1_star=0.8)
    assert raw == pytest.approx(0.8) and norm == pytest.approx(1.0)


def test_soft_reward_errors():
    with pytest.raises(MetricError):
        soft_constrained_reward(np.array([0.7, 0.6]), 0.0)
    with pytest.raises(MetricError):
        soft_constrained_reward(np.array([0.7, 0.6]), 0.5, mu1_star=0.0)


# ----------------------------------------------------------------- recovery


TRUE_MEANS = np.array([[0.8, 0.2], [0.5, 0.5], [0.2, 0.8], [0.4, 0.4]])


def test_recovery_identity_is_hundred_percent():
    assert hv_recovery([0, 1, 2], TRUE_MEANS) == pytest.approx(100.0)


def test_recovery_ratio_arithmetic():
    # dropping the middle point leaves 0.8*0.2 + 0.2*0.6 = 0.28 of 0.37
    got = hv_recovery([0, 2], TRUE_MEANS)
    assert got == pytest.approx(100.0 * 0.28 / 0.37)
    assert hv_recovery([0, 2, 3], TRUE_MEANS) >= got  # extra arms never hurt


def test_recovery_subset_cannot_exceed_hundred():
    rng = np.random.default_rng(3)
    from mopx.gaps import pareto_front

    for _ in range(50):
        means = rng.uniform(0.05, 1.0, size=(7, 2))
        front = pareto_front(means)
        subset = front[: max(1, len(front) - 1)]
        assert hv_recovery(subset, means) <= 100.0 + 1e-9


def test_recovery_scores_against_the_oracle_front_of_the_truth():
    # arms 1 and 2 and arms 0 and 4 are duplicates, arms 3 and 6 are dominated
    means = np.array([[0.8, 0.2], [0.5, 0.5], [0.5, 0.5], [0.4, 0.4], [0.8, 0.2], [0.2, 0.8], [0.1, 0.7]])
    assert oracle_front(means) == [0, 1, 2, 4, 5]
    rng = np.random.default_rng(11)
    cases = [(means, est) for est in ([0, 1, 2, 4, 5], [1, 5], [3, 6], [4, 3, 4])]
    for _ in range(40):  # coarse grids, so duplicate and dominated arms are common
        truth = rng.integers(1, 4, size=(int(rng.integers(2, 9)), int(rng.integers(2, 4)))) / 4.0
        cases.append((truth, rng.choice(len(truth), size=int(rng.integers(1, len(truth) + 1))).tolist()))
    for truth, est in cases:
        ref = np.zeros(truth.shape[1])
        expected = 100.0 * hypervolume(truth[sorted(set(est))], ref) / hypervolume(truth[oracle_front(truth)], ref)
        assert hv_recovery(est, truth) == expected


def test_recovery_validates_truth():
    degenerate = np.array([[0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(MetricError):
        hv_recovery([0], degenerate)


@pytest.mark.parametrize(
    "estimated, truth, message",
    [
        ([0], 0.5, r"true means must be a K x m matrix, got shape \(\)"),
        ([0], [0.5, 0.2], r"true means must be a K x m matrix, got shape \(2,\)"),
        ([0, 4], TRUE_MEANS, r"estimated arms must lie in \[0, 4\), got \[0, 4\]"),
        ([-1], TRUE_MEANS, r"estimated arms must lie in \[0, 4\), got \[-1\]"),  # not read as arm 3
        # refused before numpy reads them as a bad index or a boolean mask
        ([1.5], TRUE_MEANS, r"estimated arms must be integers, got \[1\.5\]"),
        ([1.0], TRUE_MEANS, r"estimated arms must be integers, got \[1\.0\]"),
        ([True], TRUE_MEANS, r"estimated arms must be integers, got \[True\]"),
        ([np.True_], TRUE_MEANS, r"estimated arms must be integers, got \[(np\.True_|True)\]"),
        ([0, "2"], TRUE_MEANS, r"estimated arms must be integers, got \[0, '2'\]"),
    ],
    ids=[
        "scalar-truth", "vector-truth", "arm-K", "negative-arm", "fraction", "whole-float", "bool", "numpy-bool", "string"
    ],
)
def test_recovery_refuses_a_truth_that_is_no_matrix_and_arms_outside_it(estimated, truth, message):
    with pytest.raises(MetricError, match=message):
        hv_recovery(estimated, truth)


def test_recovery_scores_python_and_numpy_ints_alike():
    truth = TRUE_MEANS[:3]
    assert hv_recovery([1], truth) == pytest.approx(100.0 * 0.25 / 0.37)
    for arms in ([np.int64(1)], [np.int32(1)], np.array([1]), (1,)):
        assert hv_recovery(arms, truth) == hv_recovery([1], truth)


def test_recovery_of_no_arms_is_zero():
    assert hv_recovery([], TRUE_MEANS) == 0.0
    with pytest.raises(MetricError, match="ground-truth hypervolume is zero"):  # the truth is still checked
        hv_recovery([], np.zeros((2, 2)))
