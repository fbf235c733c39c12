import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    oracle_constrained_gap,
    oracle_front,
    oracle_hardness,
    oracle_pareto_gap,
    reference_pair_terms,
)
from mopx import gaps
from mopx.core import DomainError, InstanceError
from mopx.gaps import (
    GapEntry,
    _pair_terms,
    best_feasible_arm,
    constrained_gap_report,
    hardness,
    pareto_front,
    pareto_gap_report,
)

SQUARE = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.6], [0.4, 0.4]])


# ------------------------------------------------------------ pareto front


def test_front_of_square_instance():
    assert pareto_front(SQUARE) == [0, 1, 2]


def test_front_keeps_equal_duplicates():
    assert pareto_front([[0.5, 0.5], [0.5, 0.5]]) == [0, 1]


def test_front_single_arm():
    assert pareto_front([[0.3, 0.4]]) == [0]


# ------------------------------------------------------------- pareto gaps


def test_pareto_gaps_of_square_instance():
    report = pareto_gap_report(SQUARE)
    assert report.gap(3) == pytest.approx(0.2)
    entry_c = report.entries[2]
    assert entry_c.components["delta_plus"] == pytest.approx(0.4)
    assert entry_c.components["delta_minus"] == pytest.approx(0.2)
    assert entry_c.gap == pytest.approx(0.2)
    entry_a = report.entries[0]
    assert entry_a.components["delta_plus"] == pytest.approx(0.4)
    assert entry_a.components["delta_minus"] == pytest.approx(0.6)
    assert entry_a.gap == pytest.approx(0.4)
    assert report.gap(1) == pytest.approx(0.4)


def test_pareto_gap_single_arm_queries():
    assert pareto_gap_report(SQUARE).entries[3].classification == "dominated"


def test_all_front_instance_has_unbounded_delta_minus():
    report = pareto_gap_report([[1.0, 0.0], [0.0, 1.0]])
    for entry in report.entries:
        assert entry.components["delta_minus"] == math.inf
        assert entry.gap == entry.components["delta_plus"]


def test_singleton_front_has_unbounded_delta_plus():
    report = pareto_gap_report([[1.0, 1.0], [0.0, 0.0]])
    top = report.entries[0]
    assert top.components["delta_plus"] == math.inf
    assert top.gap == pytest.approx(1.0)  # via the dominated arm's route
    assert report.gap(1) == pytest.approx(1.0)


def test_unbounded_values_serialise_as_strings():
    payload = pareto_gap_report([[1.0, 0.0], [0.0, 1.0]]).to_dict()
    text = json.dumps(payload)
    assert "Infinity" not in text
    assert payload["entries"][0]["components"]["delta_minus"] == "inf"


def test_pareto_oracle_equivalence_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        k = int(rng.integers(2, 13))
        m = int(rng.integers(2, 4))
        means = rng.uniform(-1.0, 1.0, size=(k, m))
        assert pareto_front(means) == oracle_front(means)
        report = pareto_gap_report(means)
        for x in range(k):
            assert abs(report.gap(x) - oracle_pareto_gap(means, x)) <= 1e-12


# Coarse grid so that ties, duplicate rows and signed zeros are common.
_GRID = st.sampled_from([i * 0.25 for i in range(-4, 5)] + [-0.0])


@st.composite
def _tie_heavy_means(draw):
    k = draw(st.integers(1, 12))
    m = draw(st.sampled_from([2, 3]))
    rows = draw(st.lists(st.lists(_GRID, min_size=m, max_size=m), min_size=k, max_size=k))
    return np.array(rows, dtype=float)


@settings(max_examples=300, deadline=None)
@given(_tie_heavy_means())
def test_front_and_gaps_match_oracles_exactly_on_ties(means):
    assert pareto_front(means) == oracle_front(means)
    report = pareto_gap_report(means)
    for x in range(means.shape[0]):
        assert report.gap(x) == oracle_pareto_gap(means, x)


# Exact report JSON on exact ties, pinned byte for byte: tie-breaking and the
# sign of zero gaps are part of the ``mopx gaps`` output format.
_PINNED_REPORTS = [
    (
        [[0.5, 0.5], [0.5, 0.5], [0.25, 0.25]],
        '{"mode": "pareto", "entries": ['
        '{"arm": 0, "gap": -0.0, "classification": "pareto", '
        '"components": {"delta_plus": -0.0, "delta_minus": 0.25}}, '
        '{"arm": 1, "gap": -0.0, "classification": "pareto", '
        '"components": {"delta_plus": -0.0, "delta_minus": 0.25}}, '
        '{"arm": 2, "gap": 0.25, "classification": "dominated", '
        '"components": {"domination_margin": 0.25}}]}',
    ),
    (
        [[-0.0, 1.0], [0.0, 1.0], [0.5, 0.5], [0.0, 0.5]],
        '{"mode": "pareto", "entries": ['
        '{"arm": 0, "gap": -0.0, "classification": "pareto", '
        '"components": {"delta_plus": -0.0, "delta_minus": 0.0}}, '
        '{"arm": 1, "gap": -0.0, "classification": "pareto", '
        '"components": {"delta_plus": -0.0, "delta_minus": -0.0}}, '
        '{"arm": 2, "gap": -0.0, "classification": "pareto", '
        '"components": {"delta_plus": 0.5, "delta_minus": -0.0}}, '
        '{"arm": 3, "gap": -0.0, "classification": "dominated", '
        '"components": {"domination_margin": -0.0}}]}',
    ),
]


@pytest.mark.parametrize("means,expected", _PINNED_REPORTS)
def test_pareto_report_json_pinned_on_ties_and_signed_zeros(means, expected):
    assert json.dumps(pareto_gap_report(means).to_dict()) == expected


def test_adding_dominated_arm_keeps_front_and_delta_plus():
    rng = np.random.default_rng(9)
    for _ in range(50):
        means = rng.uniform(0.2, 1.0, size=(6, 2))
        front = pareto_front(means)
        before = pareto_gap_report(means)
        anchor = means[front[0]]
        extra = np.vstack([means, anchor - 0.1])  # strictly dominated newcomer
        after = pareto_gap_report(extra)
        assert set(front).issubset(set(pareto_front(extra)))
        for x in front:
            assert after.entries[x].components["delta_plus"] == pytest.approx(
                before.entries[x].components["delta_plus"]
            )


def test_translation_invariance_of_gaps():
    rng = np.random.default_rng(10)
    means = rng.uniform(size=(7, 2))
    shift = np.array([3.5, -1.25])
    tau = 0.4
    base_p = pareto_gap_report(means)
    moved_p = pareto_gap_report(means + shift)
    for x in range(7):
        assert moved_p.gap(x) == pytest.approx(base_p.gap(x))
    base_c = constrained_gap_report(means, tau)
    moved_c = constrained_gap_report(means + shift, tau + shift[1])
    for x in range(7):
        assert moved_c.gap(x) == pytest.approx(base_c.gap(x))


# --------------------------------------------------------- constrained gaps

CONSTRAINED = np.array([[0.8, 0.6], [0.9, 0.4], [0.6, 0.7]])  # x*, a, b at tau=0.5


def test_constrained_worked_example():
    report = constrained_gap_report(CONSTRAINED, 0.5)
    assert report.optimal_arm == 0
    a = report.entries[1]
    assert a.components["violation"] == pytest.approx(0.1)
    assert a.components["suboptimality"] == pytest.approx(-0.1)
    assert a.components["difficulty"] == pytest.approx(0.1)
    assert a.gap == pytest.approx(0.1)
    b = report.entries[2]
    assert b.components["difficulty"] == pytest.approx(0.2)
    assert b.gap == pytest.approx(0.1)  # capped by the optimal arm's margin
    assert report.entries[0].gap == 0.0
    assert constrained_gap_report(CONSTRAINED, 0.5).entries[2].gap == pytest.approx(0.1)


def test_constrained_gap_capped_by_optimal_margin():
    rng = np.random.default_rng(12)
    for _ in range(100):
        means = rng.uniform(size=(6, 2))
        tau = float(rng.uniform(0.0, means[:, 1].max()))
        report = constrained_gap_report(means, tau)
        cap = means[report.optimal_arm, 1] - tau
        for entry in report.entries:
            assert entry.gap <= cap + 1e-12


def test_constrained_no_feasible_arm():
    with pytest.raises(InstanceError):
        constrained_gap_report([[0.5, 0.1], [0.2, 0.2]], 0.5)
    with pytest.raises(InstanceError):
        best_feasible_arm([[0.5, 0.1]], 0.9)


def test_constrained_oracle_equivalence_random_instances():
    rng = np.random.default_rng(77)
    checked = 0
    while checked < 1000:
        k = int(rng.integers(2, 13))
        means = rng.uniform(size=(k, 2))
        tau = float(rng.uniform(0.1, 0.9))
        if not np.any(means[:, 1] >= tau):
            continue
        report = constrained_gap_report(means, tau)
        for x in range(k):
            assert abs(report.gap(x) - oracle_constrained_gap(means, tau, x)) <= 1e-12
        checked += 1


# ----------------------------------------------------------------- hardness


def test_hardness_of_worked_example():
    assert hardness(CONSTRAINED, 0.5) == pytest.approx(100.0)


def test_hardness_two_arms():
    means = [[1.0, 1.0], [0.5, 1.0]]
    assert hardness(means, 0.3) == pytest.approx(1.0 / 0.5**2)


def test_hardness_quadruples_when_gaps_halve():
    rng = np.random.default_rng(13)
    means = rng.uniform(0.5, 1.0, size=(5, 2))
    tau = 0.55
    base = hardness(means, tau)
    star = constrained_gap_report(means, tau).optimal_arm
    centre = means[star]
    # contracting everything toward the optimum halves every gap
    shrunk = centre + 0.5 * (means - centre)
    half_tau = centre[1] - 0.5 * (centre[1] - tau)
    assert hardness(shrunk, half_tau) == pytest.approx(4.0 * base)


def test_hardness_oracle_equivalence():
    rng = np.random.default_rng(14)
    done = 0
    while done < 200:
        means = rng.uniform(size=(int(rng.integers(2, 10)), 2))
        tau = float(rng.uniform(0.1, 0.9))
        if not np.any(means[:, 1] >= tau):
            continue
        report = constrained_gap_report(means, tau)
        if any(e.gap == 0 for e in report.entries if e.arm != report.optimal_arm):
            continue
        assert hardness(means, tau) == pytest.approx(oracle_hardness(means, tau))
        done += 1


@pytest.mark.parametrize(
    "means, tau, expected",
    [  # the square of the gap is subnormal, underflows to zero, overflows
        ([[1e-160, 1.0], [0.0, 1.0]], 0.5, math.inf),
        ([[1e-200, 1.0], [0.0, 1.0]], 0.5, math.inf),
        ([[1.5e308, 1.2e308], [1.0e308, 1.4e308]], 3e307, 0.0),
    ],
)
def test_hardness_at_the_edges_of_the_float_range(means, tau, expected):
    assert hardness(means, tau) == expected


def test_hardness_degenerate_zero_gap():
    # a second arm tied with the optimum has zero gap
    with pytest.raises(InstanceError):
        hardness([[0.8, 0.6], [0.8, 0.6]], 0.5)
    # also after an arm whose gap squared underflows
    with pytest.raises(InstanceError, match="arm 2 has zero constrained gap"):
        hardness([[1e-200, 1.0], [0.0, 1.0], [1e-200, 1.0]], 0.5)


# ------------------------------------------- column form vs per-arm entries


def _reference_pareto_entries(means):
    """GapEntry per arm from per-arm Python loops over the kernel's pair terms
    (numpy's elementwise min/max fix the sign of their zeros, and the pinned
    reports above check those); Python's min/max keep the first of tied
    operands, as the report promises."""
    small, large = (t.tolist() for t in _pair_terms(np.asarray(means, dtype=float))[:2])
    k = len(small)
    front = pareto_front(means)
    dominated = [y for y in range(k) if y not in front]
    margin = {y: max(small[y][z] for z in front) for y in dominated}
    entries = []
    for x in range(k):
        if x in margin:
            entries.append(GapEntry(x, margin[x], "dominated", {"domination_margin": margin[x]}))
            continue
        plus = min((min(large[x][y], large[y][x]) for y in front if y != x), default=math.inf)
        minus = min((max(large[y][x], 0.0) + margin[y] for y in dominated), default=math.inf)
        entries.append(GapEntry(x, min(plus, minus), "pareto", {"delta_plus": plus, "delta_minus": minus}))
    return entries


def _reference_constrained_entries(means, tau):
    mat = np.asarray(means, dtype=float)
    star = best_feasible_arm(mat, tau)
    cap = float(mat[star, 1] - tau)
    entries = []
    for x in range(mat.shape[0]):
        viol = float(max(tau - mat[x, 1], 0.0))
        subopt = float(mat[star, 0] - mat[x, 0])
        delta = max(viol, subopt)
        cls = "optimal" if x == star else "feasible" if mat[x, 1] >= tau else "infeasible"
        components = {"violation": viol, "suboptimality": subopt, "difficulty": delta, "margin_cap": cap}
        entries.append(GapEntry(x, float(min(delta, cap)), cls, components))
    return entries


def _bits(value):
    return math.copysign(1.0, value), value


def _check_report(report, reference):
    assert len(report.entries) == len(reference)
    for got, want in zip(report.entries, reference):
        assert (got.arm, got.classification, list(got.components)) == (
            want.arm,
            want.classification,
            list(want.components),
        )
        assert _bits(got.gap) == _bits(want.gap)
        assert [_bits(v) for v in got.components.values()] == [_bits(v) for v in want.components.values()]
        assert all(type(v) is float for v in (got.gap, *got.components.values()))
    want_json = [e.to_dict() for e in reference]
    assert json.dumps(report.to_dict()["entries"]) == json.dumps(want_json)
    assert [_bits(report.gap(x)) for x in range(len(reference))] == [_bits(e.gap) for e in reference]
    assert [(a, _bits(g)) for a, g in enumerate(report.gap_column.tolist())] == [(e.arm, _bits(e.gap)) for e in reference]
    assert report.gap_column.tolist() == [e.gap for e in reference]


@settings(max_examples=300, deadline=None)
@given(_tie_heavy_means())
def test_column_report_matches_per_arm_entries_on_ties(means):
    _check_report(pareto_gap_report(means), _reference_pareto_entries(means))
    if means.shape[1] == 2 and np.any(means[:, 1] >= 0.0):
        _check_report(constrained_gap_report(means, 0.0), _reference_constrained_entries(means, 0.0))


@pytest.mark.parametrize("seed", range(40))
def test_column_report_matches_per_arm_entries_on_random_instances(seed):
    rng = np.random.default_rng(seed)
    means = rng.uniform(size=(int(rng.integers(1, 49)), int(rng.integers(2, 5))))
    _check_report(pareto_gap_report(means), _reference_pareto_entries(means))
    tau = float(rng.uniform(0.0, 1.0))
    if means.shape[1] == 2 and np.any(means[:, 1] >= tau):
        _check_report(constrained_gap_report(means, tau), _reference_constrained_entries(means, tau))


@pytest.mark.parametrize("means", [means for means, _ in _PINNED_REPORTS])
def test_column_report_keeps_negative_zero_gaps(means):
    report = pareto_gap_report(means)
    _check_report(report, _reference_pareto_entries(means))
    assert any(math.copysign(1.0, g) < 0 for g in report.gap_column.tolist() if g == 0)
    with pytest.raises(ValueError, match="read-only"):
        report.gap_column[0] = 1.0


# ------------------------------------------------ one-entry pair-term memo

# Zeros of both signs are the cells a memo keyed on values rather than bytes
# would confuse; ties and duplicate rows come from the coarse grid.
_SIGNED_ZEROS = st.sampled_from([0.0, -0.0, 0.5, -0.5])
_CELLS = (_GRID, _SIGNED_ZEROS, st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False))


@st.composite
def _memo_matrix(draw):
    k = draw(st.integers(1, 10))
    m = draw(st.sampled_from([2, 3]))
    cells = draw(st.sampled_from(_CELLS))
    return np.array(draw(st.lists(st.lists(cells, min_size=m, max_size=m), min_size=k, max_size=k)))


def _memo_free(call, means):
    gaps._TERMS.clear()
    return call(means)


def _check_memo_call(step, means):
    k = means.shape[0]
    if step == "front":
        front = pareto_front(means)
        assert front == oracle_front(means)
        assert front == _memo_free(pareto_front, means)
        return
    report = pareto_gap_report(means)
    assert report.gap_column.tolist() == [oracle_pareto_gap(means, x) for x in range(k)]
    assert [e.arm for e in report.entries if e.classification == "pareto"] == oracle_front(means)
    fresh = _memo_free(pareto_gap_report, means)
    assert report.gap_column.tobytes() == fresh.gap_column.tobytes()
    assert [e.classification for e in report.entries] == [e.classification for e in fresh.entries]
    assert json.dumps(report.to_dict()) == json.dumps(fresh.to_dict())


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_memoised_front_and_report_match_oracles_and_memo_free_calls(data):
    """Fronts and reports, interleaved over two matrices (the second at times
    the first with one zero's sign flipped) that are also changed in place
    between calls, equal the brute-force oracles and a call on a cleared memo."""
    first = data.draw(_memo_matrix())
    second = data.draw(st.one_of(_memo_matrix(), st.just(None)))
    if second is None:
        second = first.copy()
        zeros = np.argwhere(second == 0.0)
        if len(zeros):
            x, i = zeros[data.draw(st.integers(0, len(zeros) - 1))]
            second[x, i] = -second[x, i]
    pool = [first, second]
    steps = st.tuples(st.sampled_from(("front", "report", "mutate")), st.integers(0, 1))
    for step, which in data.draw(st.lists(steps, min_size=1, max_size=12)):
        means = pool[which]
        if step == "mutate":  # in place, so only the bytes tell the old matrix from the new
            x = data.draw(st.integers(0, means.shape[0] - 1))
            i = data.draw(st.integers(0, means.shape[1] - 1))
            means[x, i] = data.draw(st.sampled_from([-means[x, i], 0.0, -0.0, 0.25]))
        else:
            _check_memo_call(step, means)


def test_a_zero_of_the_other_sign_misses_the_memo():
    plus = np.array([[0.5, 0.0], [-0.5, 0.0], [0.0, -0.5]])
    minus = np.array([[0.5, -0.0], [-0.5, 0.0], [0.0, -0.5]])
    assert [_bits(g) for g in pareto_gap_report(plus).gap_column.tolist()] != [
        _bits(g) for g in pareto_gap_report(minus).gap_column.tolist()
    ]
    for means in (plus, minus, plus):
        pareto_front(means)
        _check_memo_call("report", means)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_means_fail_every_gap_function_memo_or_not(bad):
    """Only a memo miss scans for NaN and inf, so a non-finite matrix must
    miss every time: a finite matrix's entry never answers for it, and it
    leaves no entry of its own."""
    finite = np.array([[0.5, 0.25], [0.25, 0.5], [0.0, 0.0]])
    faulty = finite.copy()
    faulty[2, 1] = bad
    calls = [pareto_front, pareto_gap_report, lambda m: constrained_gap_report(m, 0.1), lambda m: hardness(m, 0.1)]
    for call in calls * 2:
        pareto_front(finite)  # fills the memo
        with pytest.raises(DomainError) as err:
            call(faulty)
        assert str(err.value) == "means must be finite"
    assert pareto_front(finite) == [0, 1]


def test_memoised_answers_cannot_be_changed_by_callers():
    front = pareto_front(SQUARE)
    front.append(3)
    assert pareto_front(SQUARE) == [0, 1, 2]
    terms = _pair_terms(SQUARE)
    for array in terms:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
    assert all(a is b for a, b in zip(_pair_terms(SQUARE), terms))  # served, not rebuilt


# signed zeros and a coarse grid: most differences tie, many of them at zero
_TIED_ROWS = st.integers(1, 9).flatmap(
    lambda k: st.integers(2, 4).flatmap(
        lambda m: st.lists(
            st.lists(st.sampled_from([-0.5, -0.0, 0.0, 0.5, 1.0]), min_size=m, max_size=m),
            min_size=k,
            max_size=k,
        )
    )
)


@settings(max_examples=300, deadline=None)
@given(_TIED_ROWS)
def test_pair_terms_match_the_two_pass_form_byte_for_byte(rows):
    """``large`` is ``-small``: on ties np.minimum and np.maximum keep the same
    operand, so even the sign of every zero matches the two-pass form."""
    got, want = _pair_terms(np.array(rows)), reference_pair_terms(rows)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype and g.tobytes() == w.tobytes()


def test_pair_terms_keep_the_sign_of_zero_on_signed_zero_ties():
    rows = [[0.0, 0.0], [0.0, 0.0], [0.0, -0.0]]
    small, large, front = _pair_terms(np.array(rows))
    assert np.signbit(small).astype(int).tolist() == [[0, 0, 1], [0, 0, 1], [0, 0, 0]]
    assert np.signbit(large).astype(int).tolist() == [[1, 1, 0], [1, 1, 0], [1, 1, 1]]
    assert front.tolist() == [0, 1, 2]
    for got, want in zip((small, large, front), reference_pair_terms(rows)):
        assert got.tobytes() == want.tobytes()
