import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ege_transcript_zero_noise, oracle_front, random_linear_instance
from mopx import algorithms
from mopx.algorithms import (
    RunConfig,
    eliminate_pareto,
    rank_constrained,
    run_algorithm,
    run_genpsi,
    run_gensec,
    run_uniform_baseline,
    theorem_bound,
)
from mopx import allocators
from mopx.allocators import DesignConvergenceError, PullCounts
from mopx.core import ConfigurationError, DomainError, EstimationError, Instance, RngStream
from mopx.environments import GaussianEnvironment, LinearEnvironment
from mopx.estimators import MeanEstimates, estimate_sample_mean
from mopx.gaps import pareto_front, pareto_gap_report

# spec'd ranking example: P, R, S, Q at tau = 0.5
RANK_MEANS = np.array([[0.9, 0.6], [0.7, 0.55], [0.2, 0.45], [0.95, 0.4]])
SQUARE = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.6], [0.4, 0.4]])


class CountingEnv:
    """Wrapper that counts pulled rows (one per arm, whether ``pull`` gets one
    arm or an array of them), for budget-safety checks."""

    def __init__(self, inner):
        self.inner = inner
        self.n_arms = inner.n_arms
        self.n_objectives = inner.n_objectives
        self.features = getattr(inner, "features", None)
        self.count = 0

    def pull(self, arm, rng):
        self.count += np.size(arm)
        return self.inner.pull(arm, rng)


# ------------------------------------------------------------------ ranking


def test_rank_constrained_worked_example():
    estimates = MeanEstimates([0, 1, 2, 3], RANK_MEANS)
    assert rank_constrained(estimates, 0.5) == [0, 1, 2, 3]


def test_rank_constrained_prefix_rule():
    estimates = MeanEstimates([0, 1, 2, 3], RANK_MEANS)
    assert sorted(rank_constrained(estimates, 0.5)[:2]) == [0, 1]


def test_rank_constrained_all_infeasible_orders_by_constraint():
    estimates = MeanEstimates([0, 1, 2], np.array([[0.9, 0.1], [0.1, 0.4], [0.5, 0.2]]))
    assert rank_constrained(estimates, 0.5) == [1, 2, 0]


def test_rank_constrained_boundary_is_infeasible():
    estimates = MeanEstimates([0, 1], np.array([[0.9, 0.5], [0.1, 0.6]]))
    assert rank_constrained(estimates, 0.5) == [1, 0]  # mu2 == tau counts as infeasible


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_rank_constrained_refuses_non_finite_estimates(bad):
    for row in range(2):
        matrix = RANK_MEANS.copy()
        matrix[row + 1, row] = bad
        with pytest.raises(DomainError, match="^means must be finite$"):
            rank_constrained(MeanEstimates([0, 1, 2, 3], matrix), 0.5)


@pytest.mark.parametrize("algorithm, tau", [("genpsi", None), ("gensec", 1.25e308)])
def test_both_rules_refuse_overflowing_estimates_in_the_round_that_made_them(algorithm, tau):
    # three pulls of a mean near the float maximum sum to inf, so every sample mean is inf
    means = np.array([[1.5e308, 1.2e308], [1.0e308, 1.4e308], [1.3e308, 1.3e308], [1.2e308, 1.1e308]])
    env = GaussianEnvironment(Instance(means=means, sigma=0.1))
    config = RunConfig(algorithm=algorithm, tau=tau, scheduler="sequential_halving", per_arm_budget=6)
    with np.errstate(over="ignore"), pytest.raises(DomainError, match="^round 1: means must be finite$"):
        run_algorithm(config, env)


# ------------------------------------------------------------------- gensec


def test_gensec_zero_noise_returns_best_feasible():
    for scheduler in ("sequential_halving", "successive_rejects"):
        env = GaussianEnvironment(Instance(means=RANK_MEANS, sigma=0.0))
        config = RunConfig(algorithm="gensec", scheduler=scheduler, tau=0.5, per_arm_budget=6)
        result = run_gensec(config, env)
        assert result.selected_arm == 0
        assert result.pulls_used <= result.budget


def test_gensec_prefers_feasible_arm_over_deceiver():
    means = np.array([[0.9, 0.3], [0.6, 0.8]])  # arm 0 infeasible but higher primary
    env = GaussianEnvironment(Instance(means=means, sigma=0.0))
    config = RunConfig(algorithm="gensec", tau=0.5, per_arm_budget=5)
    assert run_gensec(config, env).selected_arm == 1


def test_gensec_all_infeasible_returns_largest_constraint_estimate():
    means = np.array([[0.9, 0.1], [0.2, 0.45], [0.5, 0.3]])
    env = GaussianEnvironment(Instance(means=means, sigma=0.0))
    config = RunConfig(algorithm="gensec", tau=0.5, per_arm_budget=5)
    assert run_gensec(config, env).selected_arm == 1


def test_gensec_is_byte_identical_across_repeats():
    rng = np.random.default_rng(0)
    inst = random_linear_instance(rng, 8, 3, sigma=0.5)
    results = []
    for _ in range(2):
        env = GaussianEnvironment(inst)
        config = RunConfig(
            algorithm="gensec",
            allocator="g-optimal",
            estimator="linear",
            tau=float(np.median(inst.means[:, 1])),
            per_arm_budget=8,
            seed=31,
        )
        results.append(json.dumps(run_gensec(config, env).to_dict(), sort_keys=True))
    assert results[0] == results[1]


def test_gensec_requires_tau_and_two_objectives():
    env = GaussianEnvironment(Instance(means=[[0.1, 0.2], [0.3, 0.4]], sigma=0.0))
    with pytest.raises(ConfigurationError):
        run_gensec(RunConfig(algorithm="gensec", per_arm_budget=5), env)
    with pytest.raises(ConfigurationError, match="pareto"):
        run_gensec(RunConfig(algorithm="genpsi", per_arm_budget=5), env)
    wide = GaussianEnvironment(Instance(means=[[0.1, 0.2, 0.3], [0.3, 0.4, 0.5]], sigma=0.0))
    with pytest.raises(ConfigurationError):
        run_gensec(RunConfig(algorithm="gensec", tau=0.5, per_arm_budget=5), wide)


def test_gensec_round_context_keeps_the_error_class_and_its_attributes(monkeypatch):
    # at one iteration, round 1's design over these features misses its target 1.1 * d = 2.2
    features = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]]
    env = GaussianEnvironment(Instance(means=np.tile([[0.5, 0.5]], (4, 1)), sigma=0.0, features=features))
    monkeypatch.setattr(allocators, "MAX_DESIGN_ITERS", 1)
    allocators._DESIGNS.clear()  # its key holds no cap
    config = RunConfig(algorithm="gensec", tau=0.4, allocator="g-optimal", per_arm_budget=3)
    with pytest.raises(DesignConvergenceError, match=r"^round 1: design solver did not reach objective 2\.2 ") as err:
        run_gensec(config, env)
    assert err.value.weights.objective_value == pytest.approx(8 / 3)


# ------------------------------------------------------------- eliminations


def test_eliminate_pareto_worked_examples():
    report = pareto_gap_report(SQUARE)
    gaps = dict(enumerate(report.gap_column.tolist()))
    front = set(pareto_front(SQUARE))
    active, accepted = eliminate_pareto([0, 1, 2, 3], 3, gaps, front)
    assert accepted == [0] and active == [1, 2, 3]
    active, accepted = eliminate_pareto([0, 1, 2, 3], 2, gaps, front)
    assert accepted == [0, 1] and active == [2, 3]


def test_eliminate_pareto_rejects_dominated_arm():
    gaps = {0: 0.1, 1: 0.9}
    active, accepted = eliminate_pareto([0, 1], 1, gaps, front={0})
    assert active == [0] and accepted == []  # arm 1 rejected for good


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_eliminate_pareto_removes_in_the_order_of_the_tuple_key(data):
    """Largest gap first, ties (-0.0 and 0.0 among them) lowest arm first,
    whatever the order of ``active``."""
    arms = data.draw(st.lists(st.integers(0, 11), min_size=1, max_size=12, unique=True))
    active = data.draw(st.permutations(arms))
    keep = data.draw(st.integers(0, len(active) - 1))
    gaps = {a: data.draw(st.sampled_from([-0.0, 0.0, 0.25, 0.5, math.inf])) for a in arms}
    front = set(data.draw(st.lists(st.sampled_from(arms), unique=True)))
    order = sorted(active, key=lambda a: (-gaps[a], a))
    removed = order[: len(active) - keep]
    next_active, accepted = eliminate_pareto(list(active), keep, gaps, front)
    assert accepted == [a for a in removed if a in front]
    assert next_active == sorted(order[len(active) - keep :])
    assert set(active) - set(next_active) == set(removed)


# ------------------------------------------------------------------- genpsi


def test_genpsi_zero_noise_recovers_front():
    for scheduler in ("sequential_halving", "successive_rejects"):
        env = GaussianEnvironment(Instance(means=SQUARE, sigma=0.0))
        config = RunConfig(algorithm="genpsi", scheduler=scheduler, per_arm_budget=6)
        result = run_genpsi(config, env)
        assert list(result.selected_set) == [0, 1, 2]


def test_genpsi_two_incomparable_arms():
    env = GaussianEnvironment(Instance(means=[[1.0, 0.0], [0.0, 1.0]], sigma=0.0))
    result = run_genpsi(RunConfig(algorithm="genpsi", per_arm_budget=4), env)
    assert list(result.selected_set) == [0, 1]


def test_genpsi_truncate_mode_returns_surviving_front_only():
    env = GaussianEnvironment(Instance(means=SQUARE, sigma=0.0))
    config = RunConfig(algorithm="genpsi", eliminator="truncate", per_arm_budget=6)
    result = run_genpsi(config, env)
    assert set(result.selected_set).issubset(set(pareto_front(SQUARE)))
    assert len(result.selected_set) <= 2  # keep counts force a small survivor set


def test_genpsi_matches_direct_ege_transcript_on_zero_noise():
    rng = np.random.default_rng(5)
    for _ in range(20):
        k = int(rng.integers(3, 9))
        means = rng.uniform(size=(k, 2))
        env = GaussianEnvironment(Instance(means=means, sigma=0.0))
        config = RunConfig(
            algorithm="genpsi",
            scheduler="successive_rejects",
            per_arm_budget=6,
            seed=1,
        )
        result = run_genpsi(config, env)
        transcript, final = ege_transcript_zero_noise(means, 6 * k)
        previous = set(range(k))
        for record, (removed, accepted) in zip(result.rounds, transcript):
            gone = previous - set(record.active)
            assert gone == {removed}
            assert (removed in record.accepted) == accepted
            previous = set(record.active)
        assert list(result.selected_set) == final
        assert final == sorted(oracle_front(means)) or set(final) == set(oracle_front(means))


def test_genpsi_fixture_regression_pinned_seed():
    # frozen after a verified run on the shipped replay table (true front
    # is [0, 1, 2, 3]; at b=5 the noisy runs land one arm off it)
    from pathlib import Path

    from mopx.environments import ReplayEnvironment, load_replay_csv

    table = load_replay_csv(Path(__file__).resolve().parent.parent / "fixtures" / "replay_small.csv")
    expected = {101: [1, 2, 3], 102: [0, 1, 3, 4]}
    for seed, want in expected.items():
        env = ReplayEnvironment(table)
        config = RunConfig(
            algorithm="genpsi", scheduler="successive_rejects", per_arm_budget=5, seed=seed
        )
        assert list(run_genpsi(config, env).selected_set) == want


# ----------------------------------------------------------------- baseline


def test_uniform_baseline_zero_noise_matches_elimination():
    env = GaussianEnvironment(Instance(means=RANK_MEANS, sigma=0.0))
    config = RunConfig(algorithm="uniform", mode="constrained", tau=0.5, per_arm_budget=4)
    assert run_uniform_baseline(config, env).selected_arm == 0
    env2 = GaussianEnvironment(Instance(means=SQUARE, sigma=0.0))
    config2 = RunConfig(algorithm="uniform", mode="pareto", per_arm_budget=4)
    assert list(run_uniform_baseline(config2, env2).selected_set) == [0, 1, 2]


def test_uniform_baseline_minimum_budget_single_pull_each():
    env = GaussianEnvironment(Instance(means=RANK_MEANS, sigma=0.3))
    config = RunConfig(algorithm="uniform", mode="constrained", tau=0.5, per_arm_budget=1, seed=3)
    result = run_uniform_baseline(config, env)
    assert result.pulls_used == 4
    assert result.selected_arm in range(4)


def test_uniform_baseline_deterministic_per_seed():
    means = [[0.2, 0.7], [0.6, 0.3], [0.5, 0.55], [0.9, 0.1], [0.4, 0.8], [0.7, 0.45]]
    inst = Instance(means=np.array(means), sigma=0.6)
    outs = set()
    for _ in range(3):
        env = GaussianEnvironment(inst)
        config = RunConfig(algorithm="uniform", mode="constrained", tau=0.5, per_arm_budget=3, seed=9)
        outs.add(json.dumps(run_uniform_baseline(config, env).to_dict(), sort_keys=True))
    assert len(outs) == 1


@st.composite
def _uniform_cases(draw):
    k = draw(st.integers(2, 7))
    grid = st.sampled_from([i * 0.25 for i in range(5)])
    rows = draw(st.lists(st.lists(grid, min_size=2, max_size=2), min_size=k, max_size=k))
    sigma = draw(st.sampled_from([0.0, 0.3]))
    per_arm = draw(st.integers(1, 4))
    tau = draw(st.sampled_from([None, 0.25, 0.5, 0.75]))
    return np.array(rows), sigma, per_arm, tau, draw(st.integers(0, 10**6))


@settings(max_examples=200, deadline=None)
@given(_uniform_cases())
def test_uniform_baseline_matches_brute_force_on_hand_pulled_means(case):
    means, sigma, per_arm, tau, seed = case
    k = len(means)
    budget = per_arm * k
    inst = Instance(means=means, sigma=sigma)
    mode = "pareto" if tau is None else "constrained"
    config = RunConfig(algorithm="uniform", mode=mode, tau=tau, per_arm_budget=per_arm, seed=seed)
    result = run_uniform_baseline(config, GaussianEnvironment(inst))

    # the same pulls by hand: round-robin from the round-1 environment stream
    gen = RngStream(seed, (0, 1)).generator()
    env = GaussianEnvironment(inst)
    rows = {arm: [] for arm in range(k)}
    for t in range(budget):
        rows[t % k].append(env.pull(t % k, gen))
    est = np.array([np.array(rows[arm]).mean(axis=0) for arm in range(k)])

    assert result.algorithm == "uniform"
    assert result.pulls_used == result.budget == budget
    if mode == "pareto":
        assert list(result.selected_set) == oracle_front(est)
        return
    feasible = [a for a in range(k) if est[a, 1] > tau]
    pool, column = (feasible, 0) if feasible else (list(range(k)), 1)
    assert result.selected_arm == max(pool, key=lambda a: (est[a, column], -a))


def test_uniform_baseline_rejects_one_arm_and_three_objectives():
    one = GaussianEnvironment(Instance(means=[[0.1, 0.2]], sigma=0.0))
    for mode, tau in (("constrained", 0.5), ("pareto", None)):
        config = RunConfig(algorithm="uniform", mode=mode, tau=tau, per_arm_budget=3)
        with pytest.raises(ConfigurationError):
            run_uniform_baseline(config, one)
    wide = GaussianEnvironment(Instance(means=[[0.1, 0.2, 0.3], [0.3, 0.4, 0.5]], sigma=0.0))
    config = RunConfig(algorithm="uniform", mode="constrained", tau=0.5, per_arm_budget=2)
    with pytest.raises(ConfigurationError, match="two objectives"):
        run_uniform_baseline(config, wide)


# ------------------------------------------------------------ theorem bound


def test_theorem_bound_frozen_numeric_value():
    # 48 * ceil(log2 8) * exp(-(1/24) * floor(270/3) / (2*25)) = 144 * e^(-0.075),
    # recomputed independently via a decimal Taylor series before freezing
    assert theorem_bound(8, 2, 1.0, 270, 25.0) == pytest.approx(133.5950620313116, abs=1e-6)


def test_theorem_bound_decreases_monotonically_in_budget():
    values = [theorem_bound(8, 2, 1.0, budget, 25.0) for budget in (270, 540, 1080, 10**6)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-100


def test_theorem_bound_noise_scaling_quarters_exponent():
    base = theorem_bound(8, 2, 1.0, 270, 25.0)
    doubled = theorem_bound(8, 2, 2.0, 270, 25.0)
    log_ratio_base = math.log(base / 144.0)
    log_ratio_doubled = math.log(doubled / 144.0)
    assert log_ratio_doubled == pytest.approx(log_ratio_base / 4.0)


def test_theorem_bound_preconditions():
    with pytest.raises(ConfigurationError, match="45"):
        theorem_bound(8, 2, 1.0, 269, 25.0)
    with pytest.raises(ConfigurationError):
        theorem_bound(8, 2, 1.0, 270, 0.0)
    with pytest.raises(ConfigurationError):
        theorem_bound(8, 2, 0.0, 270, 25.0)


# -------------------------------------------------------------- budget safety


def test_budget_safety_every_algorithm_and_config():
    rng = np.random.default_rng(7)
    inst = random_linear_instance(rng, 6, 2, sigma=0.4)
    tau = float(np.median(inst.means[:, 1]))
    configs = [
        RunConfig(algorithm="gensec", tau=tau, per_arm_budget=7, seed=1),
        RunConfig(algorithm="gensec", scheduler="successive_rejects", tau=tau, per_arm_budget=7, seed=1),
        RunConfig(algorithm="gensec", allocator="g-optimal", estimator="linear", tau=tau, per_arm_budget=7, seed=1),
        RunConfig(algorithm="gensec", estimator="mlp", mlp_iters=30, tau=tau, per_arm_budget=7, seed=1),
        RunConfig(algorithm="genpsi", per_arm_budget=7, seed=1),
        RunConfig(algorithm="genpsi", scheduler="successive_rejects", per_arm_budget=7, seed=1),
        RunConfig(algorithm="genpsi", allocator="g-optimal", estimator="linear", per_arm_budget=7, seed=1),
        RunConfig(algorithm="uniform", mode="constrained", tau=tau, per_arm_budget=7, seed=1),
        RunConfig(algorithm="uniform", mode="pareto", per_arm_budget=7, seed=1),
    ]
    for config in configs:
        env = CountingEnv(GaussianEnvironment(inst))
        if config.algorithm == "gensec":
            result = run_gensec(config, env)
        elif config.algorithm == "genpsi":
            result = run_genpsi(config, env)
        else:
            result = run_uniform_baseline(config, env)
        assert env.count == result.pulls_used <= result.budget == 7 * 6, config


# --------------------------------------------------- deceiver-arm comparison


def test_gensec_beats_unconstrained_selection_under_deceivers():
    means = np.array(
        [
            [0.70, 0.70],  # best feasible
            [0.90, 0.30],  # deceiver: top primary, infeasible
            [0.50, 0.80],
            [0.40, 0.40],
            [0.60, 0.60],
        ]
    )
    inst = Instance(means=means, sigma=0.4)
    tau = 0.5
    errors_constrained = 0
    errors_unconstrained = 0
    for seed in range(200):
        env = GaussianEnvironment(inst)
        aware = RunConfig(algorithm="gensec", tau=tau, per_arm_budget=10, seed=seed)
        errors_constrained += run_gensec(aware, env).selected_arm != 0
        # tau below every observable value: the ranking ignores feasibility
        blind = RunConfig(algorithm="gensec", tau=-1e9, per_arm_budget=10, seed=seed)
        errors_unconstrained += run_gensec(blind, env).selected_arm != 0
    assert errors_constrained < errors_unconstrained
    # the margin is structural, not statistical noise
    assert errors_unconstrained - errors_constrained > 50


# ----------------------------------------------------- zero-noise property


def test_zero_noise_exactness_over_random_instances():
    rng = np.random.default_rng(11)
    for _ in range(60):
        k = int(rng.integers(2, 11))
        means = rng.uniform(size=(k, 2))
        tau = float(rng.uniform(0.1, 0.9))
        if not np.any(means[:, 1] >= tau):
            means[int(rng.integers(k)), 1] = tau + 0.05
        inst = Instance(means=means, sigma=0.0)
        env = GaussianEnvironment(inst)
        from mopx.gaps import best_feasible_arm

        got = run_gensec(
            RunConfig(algorithm="gensec", tau=tau, per_arm_budget=4 + k, seed=0), env
        ).selected_arm
        assert got == best_feasible_arm(means, tau)
        psi = run_genpsi(RunConfig(algorithm="genpsi", per_arm_budget=4 + k, seed=0), env)
        assert list(psi.selected_set) == pareto_front(means)


@pytest.mark.parametrize("scope", ["cumulative", "round"])
def test_a_run_draws_the_mlp_start_once_and_one_pull_stream_per_round(monkeypatch, scope):
    """A run builds stream (0, r) for round r's pulls and stream (1, 0) once,
    for the MLP's first start; later fits warm-start."""
    stream, paths = algorithms.RngStream, []
    monkeypatch.setattr(algorithms, "RngStream", lambda seed, path: paths.append(path) or stream(seed, path))
    inst = random_linear_instance(np.random.default_rng(3), 6, 2, sigma=0.4)
    config = RunConfig(algorithm="genpsi", estimator="mlp", mlp_iters=5, mlp_data_scope=scope, per_arm_budget=4, seed=2)
    result = run_genpsi(config, GaussianEnvironment(inst))
    pulling = [record.round for record in result.rounds if record.pull_counts]
    assert len(pulling) > 1
    assert paths == [(0, 1), (1, 0)] + [(0, r) for r in pulling[1:]]
    monkeypatch.undo()
    assert run_genpsi(config, GaussianEnvironment(inst)).to_dict() == result.to_dict()


def _idle_round_case(algorithm: str = "genpsi", **settings) -> tuple[RunConfig, LinearEnvironment, list[int]]:
    """Successive rejects at K = 8, b = 3, whose plan gives rounds 3-5 no pulls,
    with the 1-based indices of the rounds that pull."""
    inst = random_linear_instance(np.random.default_rng(4), 8, 3, sigma=0.3)
    tau = float(np.median(inst.means[:, 1])) if algorithm == "gensec" else None
    config = RunConfig(algorithm=algorithm, scheduler="successive_rejects", per_arm_budget=3, tau=tau, **settings)
    plan = config.schedule(8, inst.features).pulls_per_round
    assert 0 in plan
    return config, LinearEnvironment(inst), [r for r, n in enumerate(plan, 1) if n]


@pytest.mark.parametrize(
    "allocator, estimator, scope",
    [
        ("uniform", "mean", "cumulative"),
        ("g-optimal", "mean", "cumulative"),
        ("uniform", "linear", "cumulative"),
        ("g-optimal", "linear", "cumulative"),
        ("uniform", "mlp", "round"),
        ("uniform", "mlp", "cumulative"),
    ],
)
def test_a_round_with_no_pulls_allocates_nothing_and_refits_only_the_warm_mlp(monkeypatch, allocator, estimator, scope):
    calls = {name: 0 for name in ("allocate_uniform", "round_design", "estimate_sample_mean", "fit_linear", "mlp_fit")}

    def counted(name):
        inner = getattr(algorithms, name)
        return lambda *args, **kwargs: calls.__setitem__(name, calls[name] + 1) or inner(*args, **kwargs)

    for name in calls:
        monkeypatch.setattr(algorithms, name, counted(name))
    config, env, pulling = _idle_round_case(allocator=allocator, estimator=estimator, mlp_data_scope=scope, mlp_iters=5)
    result = run_algorithm(config, env)
    allocate = "allocate_uniform" if allocator == "uniform" else "round_design"
    fit = {"mean": "estimate_sample_mean", "linear": "fit_linear", "mlp": "mlp_fit"}[estimator]
    refits_idle = estimator == "mlp" and scope == "cumulative"
    assert calls[allocate] == len(pulling)
    assert calls[fit] == (len(result.rounds) if refits_idle else len(pulling))
    assert sum(calls.values()) == calls[allocate] + calls[fit]
    assert [record.round for record in result.rounds if record.pull_counts] == pulling
    assert all(record.pull_counts == {} for record in result.rounds if record.round not in pulling)


@pytest.mark.parametrize("algorithm", ["gensec", "genpsi"])
def test_a_round_with_no_pulls_carries_the_sample_means_bit_for_bit(monkeypatch, algorithm):
    """The only estimates the loop builds itself are the carried ones; each
    equals a fresh sample mean over the batch as it stands in that round."""
    batches, carried = [], []

    class RecordedBatch(algorithms.ObservationBatch):
        def __init__(self):
            super().__init__()
            batches.append(self)

    def carry(arms, matrix):
        carried.append((MeanEstimates(arms, matrix), estimate_sample_mean(batches[-1], arms)))
        return carried[-1][0]

    monkeypatch.setattr(algorithms, "ObservationBatch", RecordedBatch)
    monkeypatch.setattr(algorithms, "MeanEstimates", carry)
    config, env, pulling = _idle_round_case(algorithm)
    result = run_algorithm(config, env)
    assert len(carried) == len(result.rounds) - len(pulling)
    for estimates, fresh in carried:
        assert estimates.arms == fresh.arms
        assert estimates.matrix.tobytes() == fresh.matrix.tobytes()


def test_each_never_pulled_arm_takes_a_pull_from_the_largest_count_lowest_arm_first(monkeypatch):
    env = GaussianEnvironment(Instance(means=np.zeros((5, 2))))
    runner = algorithms._RoundRunner(RunConfig(algorithm="genpsi", allocator="g-optimal", per_arm_budget=3), env)
    designs = iter([{0: 3, 1: 0, 2: 3, 3: 0, 4: 1}, {0: 2, 1: 1, 2: 1, 3: 1, 4: 1}, {0: 2, 1: 0, 2: 0, 3: 1, 4: 1}])
    monkeypatch.setattr(algorithms, "round_design", lambda *args: PullCounts(next(designs)))
    active = list(range(5))
    assert runner.allocate(7, active)[0].counts == {0: 2, 1: 1, 2: 2, 3: 1, 4: 1}
    assert runner.allocate(6, active)[0].counts == {0: 2, 1: 1, 2: 1, 3: 1, 4: 1}
    runner.batch.extend(active, np.eye(5), np.zeros((5, 2)), 1)  # round 1 pulled every arm: none needs a pull
    assert runner.allocate(4, active)[0].counts == {0: 2, 1: 0, 2: 0, 3: 1, 4: 1}


def _g_optimal_mean_case(seed: int) -> tuple[RunConfig, LinearEnvironment]:
    """A seeded random linear instance (K 4-19, d 1-5) run by sequential halving
    with G-optimal pulls and sample means, at a per-arm budget >= ceil(log2 K)."""
    rng = np.random.default_rng(seed)
    k, d = int(rng.integers(4, 20)), int(rng.integers(1, 6))
    instance = random_linear_instance(rng, k, d, sigma=0.3)
    loop = ("gensec", "genpsi")[seed % 2]
    tau = float(np.median(instance.means[:, 1])) if loop == "gensec" else None
    per_arm = math.ceil(math.log2(k)) + int(rng.integers(0, 6))
    config = RunConfig(algorithm=loop, allocator="g-optimal", estimator="mean", tau=tau, per_arm_budget=per_arm, seed=seed)
    return config, LinearEnvironment(instance)


def test_g_optimal_mean_runs_pull_every_arm_the_design_leaves_out(monkeypatch):
    for seed in range(40):
        result = run_algorithm(*_g_optimal_mean_case(seed))
        assert min(result.rounds[0].pull_counts.values()) >= 1 and result.pulls_used <= result.budget
    # the designs alone leave an arm with no observation in most of these runs
    monkeypatch.setattr(algorithms, "cover_arms", lambda counts, needed: True)
    unpulled = 0
    for seed in range(40):
        try:
            run_algorithm(*_g_optimal_mean_case(seed))
        except EstimationError as err:
            unpulled += "has no observations" in str(err)
    assert unpulled > 20
