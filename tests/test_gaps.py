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
)
from mopx.core import DomainError, InstanceError
from mopx.gaps import (
    best_feasible_arm,
    constrained_gap,
    constrained_gap_report,
    hardness,
    pareto_front,
    pareto_gap,
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
    assert pareto_gap(SQUARE, 3).classification == "dominated"
    with pytest.raises(DomainError):
        pareto_gap(SQUARE, 9)


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
    assert constrained_gap(CONSTRAINED, 0.5, 2).gap == pytest.approx(0.1)


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


def test_hardness_degenerate_zero_gap():
    # a second arm tied with the optimum has zero gap
    with pytest.raises(InstanceError):
        hardness([[0.8, 0.6], [0.8, 0.6]], 0.5)
