import dataclasses
import json
import pickle
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mopx.allocators as allocators
from oracles import frank_wolfe_design, reference_mirror_descent, reference_round_design
from mopx.allocators import (
    DESIGN_CACHE_SIZE,
    DesignConvergenceError,
    DesignWeights,
    allocate_uniform,
    round_design,
    solve_g_optimal,
)
from mopx.core import ConfigurationError, DomainError, NumericalError
from mopx.estimators import select_independent_basis


@contextmanager
def _iteration_cap(n):
    """``solve_g_optimal`` capped at n iterations inside the block; the design
    memo, whose key holds no cap, is empty on entry and on exit."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(allocators, "MAX_DESIGN_ITERS", n)
        allocators._DESIGNS.clear()
        try:
            yield
        finally:
            allocators._DESIGNS.clear()


def test_uniform_remainder_to_lowest_indices():
    counts = allocate_uniform(7, [0, 1, 2])
    assert counts.counts == {0: 3, 1: 2, 2: 2}
    assert allocate_uniform(6, [0, 1, 2]).counts == {0: 2, 1: 2, 2: 2}


def test_uniform_warns_when_budget_below_active_size():
    with pytest.warns(UserWarning, match="below the active-set size"):
        counts = allocate_uniform(2, [0, 1, 2])
    assert counts.counts == {0: 1, 1: 1, 2: 0}


def test_uniform_empty_active_set():
    with pytest.raises(DomainError):
        allocate_uniform(3, [])


def test_round_robin_sequence_order():
    counts = allocate_uniform(7, [0, 1, 2])
    assert counts.round_robin_sequence() == [0, 1, 2, 0, 1, 2, 0]


def _round_robin_by_passes(counts):
    """One pass per pull level, each over the arms with pulls left, in ascending index."""
    remaining = dict(counts)
    seq = []
    while any(c > 0 for c in remaining.values()):
        for arm in sorted(remaining):
            if remaining[arm] > 0:
                seq.append(arm)
                remaining[arm] -= 1
    return seq


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.integers(0, 60), st.integers(0, 9), max_size=12))
def test_round_robin_sequence_matches_pass_by_pass_order(counts):
    assert allocators.PullCounts(counts).round_robin_sequence() == _round_robin_by_passes(counts)


def test_blocked_sequence_matches_count_interval_rule():
    counts = allocate_uniform(6, [3, 1, 5])
    seq = counts.blocked_sequence()
    arms = sorted(counts.counts)
    starts = {}
    offset = 0
    for arm in arms:
        starts[arm] = offset
        offset += counts.counts[arm]
    # the t-th pull (1-based) is arm i iff t falls inside arm i's block
    for t in range(1, len(seq) + 1):
        arm = seq[t - 1]
        assert starts[arm] < t <= starts[arm] + counts.counts[arm]


def test_g_optimal_orthonormal_features():
    design = solve_g_optimal(np.eye(3), 0.1)
    assert np.allclose(design.weights, [1 / 3, 1 / 3, 1 / 3], atol=1e-6)
    assert design.objective_value == pytest.approx(3.0, abs=1e-6)


def test_g_optimal_duplicate_arms_rank_one():
    design = solve_g_optimal(np.array([[2.0], [2.0]]), 0.1)
    assert design.objective_value <= 1.1
    assert design.objective_value >= 1.0 - 1e-12


def test_g_optimal_matches_frank_wolfe_oracle():
    rng = np.random.default_rng(2024)
    feats = rng.normal(size=(10, 3))
    feats /= np.linalg.norm(feats, axis=1, keepdims=True)
    design = solve_g_optimal(feats, 0.1)
    _, fw_obj = frank_wolfe_design(feats, tol=1e-6)
    assert design.objective_value <= 3.3
    assert design.objective_value >= fw_obj - 1e-6  # cannot beat the optimum


def test_g_optimal_trace_is_monotone_and_deterministic():
    rng = np.random.default_rng(7)
    feats = rng.normal(size=(12, 4))
    a = solve_g_optimal(feats, 0.05)
    b = solve_g_optimal(feats, 0.05)
    assert a.weights == b.weights
    assert all(y <= x + 1e-12 for x, y in zip(a.trace, a.trace[1:]))


def test_g_optimal_bounds_on_random_instances():
    rng = np.random.default_rng(11)
    for trial in range(100):
        k = int(rng.integers(2, 51))
        d = int(rng.integers(1, 11))
        feats = rng.normal(size=(k, d))
        if trial % 7 == 0 and d >= 2:
            feats[:, -1] = 0.0  # rank-deficient cases too
        if trial % 11 == 0 and k >= 4:
            feats[1] = feats[0]
        d_act = len(select_independent_basis(feats))
        design = solve_g_optimal(feats, 0.1)
        assert len(design.weights) == k
        assert abs(sum(design.weights) - 1.0) < 1e-9
        assert design.objective_value <= 1.1 * d_act + 1e-9
        assert design.objective_value >= d_act - 1e-9  # worst leverage is at least the rank


def test_g_optimal_validates_epsilon():
    with pytest.raises(ConfigurationError):
        solve_g_optimal(np.eye(2), 0.0)
    with pytest.raises(ConfigurationError):
        solve_g_optimal(np.eye(2), 1.0)


def test_g_optimal_non_convergence_carries_best_design():
    rng = np.random.default_rng(3)
    feats = rng.normal(size=(6, 3))
    with _iteration_cap(1), pytest.raises(DesignConvergenceError) as err:
        solve_g_optimal(feats, 0.01)
    assert "within 1 iterations" in str(err.value)
    assert err.value.weights is not None
    assert err.value.weights.objective_value >= 3.0


def test_design_convergence_error_survives_a_pickle_round_trip():
    """A worker of a parallel sweep sends its cell's error to the parent pickled."""
    feats = np.random.default_rng(3).normal(size=(6, 3))
    with _iteration_cap(1), pytest.raises(DesignConvergenceError) as err:
        solve_g_optimal(feats, 0.01)
    err.value.args = (f"round 1: {err.value}",)
    copy = pickle.loads(pickle.dumps(err.value))
    assert type(copy) is DesignConvergenceError
    assert str(copy) == str(err.value) and str(copy).startswith("round 1: design solver did not reach")
    assert copy.weights == err.value.weights


def test_round_design_exact_floors():
    design = DesignWeights(weights=(0.5, 0.3, 0.2), objective_value=1.0, basis=(0, 1, 2))
    counts = round_design(10, design, 1 / 3, [0, 1, 2], np.eye(3))
    assert counts.counts == {0: 5, 1: 3, 2: 2}


def test_round_design_largest_remainder_tie_breaks_low_index():
    design = DesignWeights(weights=(0.55, 0.25, 0.20), objective_value=1.0, basis=(0, 1, 2))
    counts = round_design(10, design, 1 / 3, [0, 1, 2], np.eye(3))
    assert counts.counts == {0: 6, 1: 2, 2: 2}


def test_round_design_covers_feature_basis():
    design = DesignWeights(weights=(1.0, 0.0), objective_value=1.0, basis=(0, 1))
    counts = round_design(5, design, 1 / 3, [0, 1], np.eye(2))
    assert counts.counts == {0: 4, 1: 1}


def test_round_design_validates_kappa():
    design = DesignWeights(weights=(1.0,), objective_value=1.0, basis=(0,))
    for bad in (0.0, 0.34, -0.1, 1.0):
        with pytest.raises(ConfigurationError):
            round_design(5, design, bad, [0], np.eye(1))


def test_round_design_budget_and_linfty_deviation():
    rng = np.random.default_rng(5)
    for _ in range(100):
        k = int(rng.integers(2, 20))
        d = int(rng.integers(1, 6))
        feats = rng.normal(size=(k, d))
        design = solve_g_optimal(feats, 0.1)
        d_act = len(select_independent_basis(feats))
        n = int(rng.integers(max(45 * d_act, k), 400))
        counts = round_design(n, design, 1 / 3, list(range(k)), feats)
        assert counts.total == n
        got = np.array([counts.counts[a] for a in range(k)], dtype=float)
        assert np.max(np.abs(got - n * np.array(design.weights))) < 1.0 + d_act
        for b in select_independent_basis(feats):
            assert counts.counts[b] >= 1


@st.composite
def _rounding_cases(draw):
    """(n, weights, basis, active) over up to 8 arms. Small integer masses give
    equal weights, so bit-equal shares and tied remainders; a basis row may
    carry no weight; n runs from 1 through the basis size to 3K + 3."""
    k = draw(st.integers(1, 8))
    mass = draw(
        st.lists(st.one_of(st.integers(0, 4), st.floats(0.0, 4.0)), min_size=k, max_size=k).filter(any)
    )
    weights = tuple(m / sum(mass) for m in mass)
    basis = tuple(draw(st.lists(st.integers(0, k - 1), unique=True, max_size=min(k, 4))))
    n = draw(st.one_of(st.just(max(len(basis), 1)), st.integers(1, 3 * k + 3)))
    active = draw(st.permutations(draw(st.lists(st.integers(0, 99), min_size=k, max_size=k, unique=True))))
    return n, weights, basis, active


@settings(max_examples=300, deadline=None)
@given(case=_rounding_cases())
@example(case=(10, (0.25,) * 4, (0, 1, 2, 3), [3, 1, 2, 0]))  # shares of 2.5: a four-way tie
@example(case=(3, (0.0, 0.0, 1.0), (0, 1, 2), [5, 7, 9]))  # basis rows at zero, n = basis size
@example(case=(2, (0.0, 0.0, 1.0), (0, 1), [0, 1, 2]))  # no count of 2 left for row 1
@example(case=(1, (0.5, 0.5), (0, 1), [0, 1]))  # n below the basis size
def test_round_design_matches_the_scalar_reference(case):
    n, weights, basis, active = case
    design = DesignWeights(weights=weights, objective_value=1.0, basis=basis)

    def outcome(rounding):
        try:
            return rounding()
        except ConfigurationError as err:
            return str(err)

    got = outcome(lambda: round_design(n, design, 1 / 3, active, np.zeros((len(active), 2))).counts)
    assert got == outcome(lambda: reference_round_design(n, weights, basis, active))


# ------------------------------------------------------------ design cache


def _design_features(seed: int, kind: str) -> np.ndarray:
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 25))
    d = int(rng.integers(1, 6))
    if kind == "grid":  # half-integer grid: tied leverages and repeated rows
        return np.round(rng.normal(size=(k, d)) * 2) / 2
    if kind == "rank_deficient":
        rank = max(d - 2, 1)
        return rng.normal(size=(k, rank)) @ rng.normal(size=(rank, d))
    return rng.normal(size=(k, d))


def _solve(feats, epsilon):
    """(weights, objective, trace) or the error's class, text and carried design."""
    try:
        design = solve_g_optimal(feats, epsilon)
    except (DesignConvergenceError, NumericalError, DomainError) as err:
        carried = getattr(err, "weights", None)
        return type(err), str(err), None if carried is None else (carried.weights, carried.trace)
    return design.weights, design.objective_value, design.trace


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["random", "grid", "rank_deficient"]),
    epsilon=st.sampled_from([0.05, 0.1, 0.3, 0.9]),
)
def test_cached_design_equals_fresh_solve(seed, kind, epsilon):
    feats = _design_features(seed, kind)
    allocators._DESIGNS.clear()
    fresh = _solve(feats, epsilon)
    allocators._DESIGNS.clear()
    fresh_again = _solve(feats, epsilon)
    # hits: the same array, and a copy of its rows
    assert _solve(feats, epsilon) == fresh == fresh_again
    assert _solve(feats.copy(), epsilon) == fresh
    # a hit after eviction re-solves to the same bits
    for i in range(DESIGN_CACHE_SIZE):
        solve_g_optimal(np.eye(2) * (i + 2), 0.1)
    assert len(allocators._DESIGNS) == DESIGN_CACHE_SIZE
    assert _solve(feats, epsilon) == fresh
    assert _solve(feats, epsilon) == fresh


def test_g_optimal_matches_untrimmed_mirror_descent():
    rng = np.random.default_rng(17)
    for _ in range(40):
        feats = rng.normal(size=(int(rng.integers(2, 31)), int(rng.integers(1, 6))))
        allocators._DESIGNS.clear()
        design = solve_g_optimal(feats, 0.1)
        best_w, best_obj, trace = reference_mirror_descent(feats, 0.1)
        assert design.weights == tuple(best_w.tolist())
        assert design.objective_value == best_obj
        assert design.trace == trace


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("k", [64, 32, 16])
def test_g_optimal_matches_untrimmed_mirror_descent_on_halving_rounds(seed, k):
    # the linear G-optimal benchmark's instances: d = 6 with a constant feature,
    # K = 64 arms halved to 32 and 16; about 100 to 1,200 iterations a solve
    rng = np.random.default_rng([seed, 0])
    features = np.hstack([np.ones((64, 1)), rng.normal(size=(64, 5)) / np.sqrt(5.0)])
    feats = features[np.sort(rng.choice(64, size=k, replace=False))]
    allocators._DESIGNS.clear()
    design = solve_g_optimal(feats, 0.1)
    best_w, best_obj, trace = reference_mirror_descent(feats, 0.1)
    assert design.weights == tuple(best_w.tolist())
    assert design.objective_value == best_obj
    assert design.trace == trace


def _untrimmed_case_features(seed: int, kind: str) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "linear_gopt":  # the benchmark's recipe at any active-set size past its K=16 round
        k = int(rng.integers(17, 71))
        return np.hstack([np.ones((k, 1)), rng.normal(size=(k, 5)) / np.sqrt(5.0)])
    k, d = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    rank = 1 if kind == "tiny_rank_one" else int(rng.integers(1, min(k, d) + 1))
    return rng.normal(size=(k, rank)) @ rng.normal(size=(rank, d))


def _full_solve_bytes(solve, feats):
    """The bytes of a solve's weights, objective and trace, or its error text."""
    out = _solve_or_error(solve, feats)
    return out if isinstance(out, str) else tuple(np.array(v, dtype=float).tobytes() for v in out)


def _design_tuple(design):
    return list(design.weights), design.objective_value, design.trace


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["linear_gopt", "tiny", "tiny_rank_one"]),
    fortran=st.booleans(),
)
@example(seed=0, kind="linear_gopt", fortran=False)
@example(seed=1, kind="tiny_rank_one", fortran=True)
def test_g_optimal_matches_untrimmed_mirror_descent_byte_for_byte(seed, kind, fortran):
    # the loop multiplies with np.dot, the reference with @: the same BLAS calls on this kernel
    feats = _untrimmed_case_features(seed, kind)
    if fortran:
        feats = np.asfortranarray(feats)
    if kind == "tiny_rank_one":
        assert len(select_independent_basis(feats)) == 1
    allocators._DESIGNS.clear()
    library = _full_solve_bytes(lambda f: _design_tuple(solve_g_optimal(f, 0.1)), feats)
    reference = _full_solve_bytes(lambda f: reference_mirror_descent(f, 0.1), feats)
    assert library == reference


def test_overflowing_features_warn_first_in_the_basis_scan():
    # x 1e160: the basis scan's matmul overflows before any design-loop product
    feats = np.random.default_rng(0).normal(size=(8, 3)) * 1e160
    allocators._DESIGNS.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeWarning, match="^overflow encountered in matmul$"):
            solve_g_optimal(feats, 0.1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericalError, match="^restricted Gram matrix holds NaN or inf entries$"):
            solve_g_optimal(feats, 0.1)
    assert str(caught[0].message) == "overflow encountered in matmul"
    assert not allocators._DESIGNS


def test_design_convergence_error_is_raised_again_every_call():
    feats = np.random.default_rng(3).normal(size=(6, 3))
    raised = []
    with _iteration_cap(1):
        for _ in range(3):
            with pytest.raises(DesignConvergenceError) as err:
                solve_g_optimal(feats, 0.01)
            raised.append((str(err.value), err.value.weights.weights, err.value.weights.trace))
        assert not allocators._DESIGNS
    assert raised[0] == raised[1] == raised[2]


def test_numerical_error_is_raised_again_every_call():
    feats = np.array([[1.0, 0.0], [1.0, 1e-7]])
    allocators._DESIGNS.clear()
    messages = []
    for _ in range(3):
        with pytest.raises(NumericalError, match="numerically singular") as err:
            solve_g_optimal(feats, 0.1)
        messages.append(str(err.value))
    assert messages[0] == messages[1] == messages[2]
    assert not allocators._DESIGNS


def test_a_memo_hit_returns_the_cached_frozen_design():
    feats = np.random.default_rng(9).normal(size=(8, 3))
    allocators._DESIGNS.clear()
    first = solve_g_optimal(feats, 0.1)
    assert solve_g_optimal(feats, 0.1) is first is solve_g_optimal(feats.copy(), 0.1)
    assert len(allocators._DESIGNS) == 1
    # nothing a caller holds can be edited, so the cache needs no copy
    assert type(first.weights) is tuple and len(first.weights) == 8
    with pytest.raises(TypeError):
        first.weights[0] = 99.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.weights = (1.0,) * 8


def test_equal_rows_of_other_arms_share_one_solve(monkeypatch):
    calls = []
    descend = allocators._mirror_descent
    monkeypatch.setattr(allocators, "_mirror_descent", lambda *a: calls.append(1) or descend(*a))
    feats = np.random.default_rng(10).normal(size=(12, 3))
    feats[[6, 8, 11]] = feats[[1, 4, 5]]  # arms 6, 8 and 11 repeat the rows of arms 1, 4 and 5
    allocators._DESIGNS.clear()
    low = solve_g_optimal(feats[[1, 4, 5]], 0.1)
    high = solve_g_optimal(feats[[6, 8, 11]], 0.1)
    assert high is low and len(calls) == 1
    # one design serves both arm sets; the rounding labels its counts by arm
    counts = round_design(30, low, 1 / 3, [1, 4, 5], feats[[1, 4, 5]]).counts
    assert round_design(30, high, 1 / 3, [6, 8, 11], feats[[6, 8, 11]]).counts == dict(
        zip([6, 8, 11], counts.values())
    )


def test_design_cache_key_includes_layout_and_epsilon_type():
    feats = np.random.default_rng(4).normal(size=(10, 3))
    allocators._DESIGNS.clear()
    solve_g_optimal(feats, 0.1)
    solve_g_optimal(np.asfortranarray(feats), 0.1)
    solve_g_optimal(feats, np.float32(0.1))
    assert len(allocators._DESIGNS) == 3


# ----------------------------------------------------------- carried basis


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["random", "grid", "rank_deficient"]),
    epsilon=st.sampled_from([0.05, 0.1, 0.3]),
)
def test_designs_carry_the_basis_of_their_features(seed, kind, epsilon):
    feats = _design_features(seed, kind)
    basis = tuple(select_independent_basis(feats))
    allocators._DESIGNS.clear()
    try:
        fresh = solve_g_optimal(feats, epsilon)
    except DesignConvergenceError as err:
        assert err.weights.basis == basis
        return
    except (NumericalError, DomainError):
        return
    cached = solve_g_optimal(feats, epsilon)
    assert fresh.basis == cached.basis == basis


def test_a_design_without_a_basis_is_refused():
    with pytest.raises(TypeError, match="basis"):
        DesignWeights((0.5, 0.5), 1.0)


def test_g_optimal_round_scans_its_features_once(monkeypatch):
    scans = []
    scan = allocators.select_independent_basis
    monkeypatch.setattr(allocators, "select_independent_basis", lambda f: scans.append(f) or scan(f))
    feats = np.random.default_rng(12).normal(size=(10, 4))
    arms = list(range(10))
    allocators._DESIGNS.clear()
    design = solve_g_optimal(feats, 0.1)
    round_design(40, design, 1 / 3, arms, feats)
    assert len(scans) == 1  # the solve's scan; round_design reuses it
    round_design(40, solve_g_optimal(feats, 0.1), 1 / 3, arms, feats)  # memo hit
    assert len(scans) == 1


def test_round_design_rejects_a_design_of_other_rows():
    # basis 0, 2, 3; the example of a design solved on other rows
    feats = np.array([[1.0, 0, 0], [0, 0, 0], [0, 1, 0], [0, 0, 1]])
    weights = (0.5, 0.5, 0.0, 0.0)
    carried = DesignWeights(weights, 1.0, basis=(0, 1))
    # rows and weights agree and the basis is in range: rounded as given, not detected
    assert round_design(4, carried, 1 / 3, [0, 1, 2, 3], feats).counts == {0: 2, 1: 2, 2: 0, 3: 0}
    with pytest.raises(DomainError) as err:
        round_design(4, carried, 1 / 3, [0, 1, 2], feats[:3])
    assert str(err.value) == (
        "round_design needs one feature row and one design weight per active arm, "
        "got 3 rows, 3 active arms and 4 weights"
    )
    with pytest.raises(DomainError) as err:
        round_design(4, carried, 1 / 3, [0, 1, 2, 3], feats[:3])
    assert str(err.value) == (
        "round_design needs one feature row and one design weight per active arm, "
        "got 3 rows, 4 active arms and 4 weights"
    )
    for basis in ((0, 4), (-1, 2)):
        design = DesignWeights(weights, 1.0, basis=basis)
        with pytest.raises(DomainError) as err:
            round_design(4, design, 1 / 3, [0, 1, 2, 3], feats)
        assert str(err.value) == (
            f"design basis {list(basis)} indexes rows outside the 4 active arms"
        )


# ---------------------------------------- restricted inverse in the design loop

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
# the active rows of round 4 in fixtures/linear_gopt_singular_config.json,
# where seeds 0, 1 and 3 fail
SINGULAR_ROUND_4 = [2, 7, 24, 25, 35, 49, 55, 62]


def _hard_design_features(seed: int, kind: str) -> np.ndarray:
    """Instances whose restricted Gram fails the certificate on some or all
    iterations of a solve, or is singular outright."""
    instance = json.loads((FIXTURES / "linear_gopt_singular_instance.json").read_text())
    singular = np.array(instance["features"])
    if kind == "singular_round_4":
        return singular[SINGULAR_ROUND_4]
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 17))
    d = int(rng.integers(2, 7))
    if kind == "singular_rows":
        return singular[np.sort(rng.choice(len(singular), size=k, replace=False))]
    if kind == "near_collinear":  # about half the rows within 1e-6..1e-2 of row 0
        feats = rng.normal(size=(k, d))
        near = rng.random(k) < 0.5
        feats[near] = feats[0] + 10.0 ** rng.uniform(-6, -2) * rng.normal(size=(int(near.sum()), d))
        return feats
    if kind == "scaled":  # 1e-3 or 1e3 overall, one column off by up to 1e3 more
        feats = rng.normal(size=(k, d)) * 10.0 ** rng.choice([-3, 3])
        feats[:, 0] *= 10.0 ** rng.uniform(-3, 3)
        return feats
    rank = int(rng.integers(1, d))  # an intercept column and rank-deficient rows
    return np.hstack([np.ones((k, 1)), rng.normal(size=(k, rank)) @ rng.normal(size=(rank, d - 1))])


def _solve_or_error(solve, feats):
    """(weights, objective, trace) of a solve, converged or not, or the error text."""
    try:
        return solve(feats)
    except DesignConvergenceError as err:
        return list(err.weights.weights), err.weights.objective_value, err.weights.trace
    except (NumericalError, DomainError) as err:
        return f"{type(err).__name__}: {err}"


def _library_solve(feats):
    with _iteration_cap(600):
        design = solve_g_optimal(feats, 0.1)
    return list(design.weights), design.objective_value, design.trace


def _reference_solve(feats):
    best_w, best_obj, trace = reference_mirror_descent(feats, 0.1, max_iters=600)
    return best_w.tolist(), best_obj, trace


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["near_collinear", "scaled", "intercept_rank_deficient", "singular_rows"]),
)
@example(seed=15, kind="near_collinear")  # uncertified on a few of 122 iterations
@example(seed=21, kind="scaled")  # uncertified on most of 15 iterations
@example(seed=0, kind="singular_round_4")
def test_design_loop_inverse_matches_untrimmed_mirror_descent(seed, kind):
    feats = _hard_design_features(seed, kind)
    allocators._DESIGNS.clear()
    assert _solve_or_error(_library_solve, feats) == _solve_or_error(_reference_solve, feats)


def test_pseudo_inverse_runs_once_per_fresh_solve(monkeypatch):
    calls, svds = [], []
    inverse, svd = allocators.pseudo_inverse, np.linalg.svd
    monkeypatch.setattr(
        allocators, "pseudo_inverse", lambda *a, **kw: calls.append(1) or inverse(*a, **kw)
    )
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: svds.append(1) or svd(*a, **kw))
    feats = np.random.default_rng(12).normal(size=(10, 4))
    allocators._DESIGNS.clear()
    design = solve_g_optimal(feats, 0.1)
    assert len(design.trace) > 1 and len(calls) == 1 and not svds  # certified throughout
    solve_g_optimal(feats, 0.1)
    assert len(calls) == 1  # a memo hit solves nothing
    # one column 10**-2.5 smaller: a restricted Gram of condition about 2e10 on
    # every iteration, far from both bounds, so every iteration runs the SVD check
    feats[:, 0] *= 10**-2.5
    calls.clear()
    design = solve_g_optimal(feats, 0.1)
    assert len(calls) == 1 and len(svds) == len(design.trace) > 1
    best_w, best_obj, trace = reference_mirror_descent(feats, 0.1)
    assert (list(design.weights), design.objective_value, design.trace) == (
        best_w.tolist(), best_obj, trace
    )
