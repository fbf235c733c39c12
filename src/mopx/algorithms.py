"""One round-based elimination loop for best-feasible-arm and Pareto-set search.

A scheduler fixes the round plan, an allocator spends each round's budget over
the active arms, an estimator turns the collected observations into mean
estimates, and an elimination rule shrinks the active set to the scheduled
keep count. Only the rule differs between the two searches: the constrained
rule ranks empirically feasible arms by primary reward ahead of infeasible
arms ranked by constraint value; the Pareto rule removes the arms with the
largest empirical Pareto gap, accepting those on the empirical front. The
uniform baseline is either rule run on a one-round plan that spends the whole
budget and keeps a single arm.

Dominance checks for the empirical front quantify over the active arms plus
every arm already accepted into the answer set. Keeping accepted arms in
scope is what makes zero-noise runs return exactly the true targets whatever
the tie order; dropping rejected arms keeps their stale estimates from
shadowing later decisions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .allocators import PullCounts, allocate_uniform, round_design, solve_g_optimal
from .core import (
    ConfigurationError,
    Environment,
    EstimationError,
    MopxError,
    ObservationBatch,
    RngStream,
)
from .estimators import (
    MeanEstimates,
    MlpParams,
    estimate_sample_mean,
    fit_linear,
    mlp_fit,
    mlp_predict,
    predict_linear,
)
from .gaps import pareto_front, pareto_gap_report
from .schedulers import SCHEDULER_NAMES, Schedule, make_schedule

GENSEC = "gensec"
GENPSI = "genpsi"
UNIFORM = "uniform"
CONSTRAINED = "constrained"
PARETO = "pareto"
_LOOP_MODES = {GENSEC: CONSTRAINED, GENPSI: PARETO}  # uniform takes either

_ENV_DRAWS = 0  # rng path tag for environment pulls
_MLP_DRAWS = 1  # rng path tag for estimator initialisation


@dataclass(frozen=True)
class RunConfig:
    """Everything one algorithm run needs besides the environment."""

    algorithm: str = GENSEC
    scheduler: str = "sequential_halving"
    allocator: str = "uniform"
    estimator: str = "mean"
    mode: str | None = None  # fixed by gensec/genpsi; uniform needs "constrained" or "pareto"
    tau: float | None = None
    budget: int | None = None
    per_arm_budget: int | None = None
    seed: int = 0
    eliminator: str = "ege"  # "ege" or "truncate"
    g_optimal_epsilon: float = 0.1
    mlp_hidden: int = 30
    mlp_lambda: float = 1e-4
    mlp_iters: int = 2000
    mlp_step_size: float = 1e-2
    mlp_data_scope: str = "cumulative"  # or "round"
    enforce_design_budget: bool = False
    redistribute_leftover: bool = False

    def __post_init__(self) -> None:
        if self.algorithm not in (GENSEC, GENPSI, UNIFORM):
            raise ConfigurationError(f"unknown algorithm {self.algorithm!r}")
        fixed_mode = _LOOP_MODES.get(self.algorithm)
        if fixed_mode is not None:
            if self.mode not in (None, fixed_mode):
                raise ConfigurationError(
                    f"{self.algorithm} always runs in mode {fixed_mode!r}, not {self.mode!r}"
                )
            object.__setattr__(self, "mode", fixed_mode)
        elif self.mode not in _LOOP_MODES.values():
            raise ConfigurationError("uniform baseline needs mode 'constrained' or 'pareto'")
        if self.mode == CONSTRAINED and self.tau is None:
            raise ConfigurationError("constrained mode needs a threshold tau")
        if self.budget is None and self.per_arm_budget is None:
            raise ConfigurationError("either budget or per_arm_budget is required")
        if self.per_arm_budget is not None and self.per_arm_budget < 1:
            raise ConfigurationError("per-arm budget must be >= 1")
        if self.scheduler not in SCHEDULER_NAMES:
            raise ConfigurationError(f"unknown scheduler {self.scheduler!r}")
        if self.allocator not in ("uniform", "g-optimal"):
            raise ConfigurationError(f"unknown allocator {self.allocator!r}")
        if self.estimator not in ("mean", "linear", "mlp"):
            raise ConfigurationError(f"unknown estimator {self.estimator!r}")
        if self.eliminator not in ("ege", "truncate"):
            raise ConfigurationError(f"unknown eliminator {self.eliminator!r}")
        if self.mlp_data_scope not in ("cumulative", "round"):
            raise ConfigurationError(f"unknown mlp data scope {self.mlp_data_scope!r}")
        if self.algorithm == UNIFORM and (
            self.allocator != "uniform" or self.estimator != "mean" or self.eliminator != "ege"
        ):
            raise ConfigurationError(
                "uniform baseline runs with allocator 'uniform', estimator 'mean' and eliminator 'ege'"
            )

    def resolve_budget(self, n_arms: int) -> int:
        if self.budget is not None:
            return self.budget
        return self.per_arm_budget * n_arms


@dataclass(frozen=True)
class RunResult:
    """Output of one run: the selection plus per-round diagnostics."""

    algorithm: str
    selected_arm: int | None
    selected_set: tuple[int, ...] | None
    pulls_used: int
    budget: int
    rounds: tuple[dict, ...] = field(default=(), repr=False)

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "selected_arm": self.selected_arm,
            "selected_set": list(self.selected_set) if self.selected_set is not None else None,
            "pulls_used": self.pulls_used,
            "budget": self.budget,
            "rounds": list(self.rounds),
        }


def rank_constrained(estimates: MeanEstimates, tau: float) -> list[int]:
    """Strict total order: empirically feasible arms (mu2 > tau) by decreasing
    primary estimate, then infeasible arms by decreasing constraint estimate;
    all ties break toward the lower arm index."""
    feasible = sorted(
        (a for a, v in estimates.items() if v[1] > tau),
        key=lambda a: (-estimates[a][0], a),
    )
    infeasible = sorted(
        (a for a, v in estimates.items() if v[1] <= tau),
        key=lambda a: (-estimates[a][1], a),
    )
    return feasible + infeasible


def eliminate_pareto(
    active: list[int],
    keep: int,
    gaps: dict[int, float],
    front: set[int],
) -> tuple[list[int], list[int]]:
    """Remove the largest-gap arms down to ``keep``, splitting them by front
    membership: removed front arms are accepted, the rest are rejected.

    Gap ties are removed lowest index first. Returns (next_active, accepted).
    """
    if len(active) <= keep:
        raise ConfigurationError(f"nothing to eliminate: |active|={len(active)} <= keep={keep}")
    order = sorted(active, key=lambda a: (-gaps[a], a))
    removed = order[: len(active) - keep]
    accepted = [a for a in removed if a in front]
    next_active = sorted(a for a in active if a not in set(removed))
    return next_active, accepted


def theorem_bound(n_arms: int, dim: int, sigma: float, budget: int, difficulty: float) -> float:
    """Closed-form ceiling on the misidentification probability of the linear
    halving pipeline; callers may clamp the raw value to [0, 1] for display."""
    if n_arms < 2:
        raise ConfigurationError("the bound needs K >= 2")
    if sigma <= 0:
        raise ConfigurationError("the bound needs sigma > 0")
    if difficulty <= 0:
        raise ConfigurationError("the bound needs a positive hardness")
    rounds = math.ceil(math.log2(n_arms))
    floor = 45 * dim * rounds
    if budget < floor:
        raise ConfigurationError(
            f"budget B={budget} violates the bound's precondition B >= 45*d*ceil(log2 K) = {floor}"
        )
    rate = 1.0 / (6.0 * sigma**2)
    exponent = -(rate / 4.0) * (budget // rounds) / (dim * difficulty)
    return 48.0 * rounds * math.exp(exponent)


def _env_features(env: Environment) -> np.ndarray:
    feats = getattr(env, "features", None)
    if feats is None:
        return np.eye(env.n_arms)
    return np.asarray(feats, dtype=float)


class _RoundRunner:
    """The allocate -> pull -> estimate -> eliminate loop of one run."""

    def __init__(self, config: RunConfig, env: Environment):
        self.config = config
        self.env = env
        self.features = _env_features(env)
        self.batch = ObservationBatch()
        self.stream = RngStream(config.seed)
        self.pulls_used = 0
        self.mlp_state: MlpParams | None = None
        self._round_scoped = config.estimator == "linear" or (
            config.estimator == "mlp" and config.mlp_data_scope == "round"
        )
        self._cached: MeanEstimates | None = None

    def schedule(self) -> Schedule:
        cfg = self.config
        n_arms = self.env.n_arms
        budget = cfg.resolve_budget(n_arms)
        if cfg.algorithm == UNIFORM:
            # single-phase successive rejects: spend B in round 1, keep one arm
            if n_arms < 2:
                raise ConfigurationError(f"need K >= 2 arms to schedule, got K={n_arms}")
            if budget < n_arms:
                raise ConfigurationError(f"budget B={budget} violates B >= K={n_arms}")
            return Schedule(1, (budget,), (1,), budget)
        dim = self.features.shape[1] if cfg.enforce_design_budget else None
        return make_schedule(
            cfg.scheduler,
            n_arms,
            budget,
            feature_dim=dim,
            redistribute_leftover=cfg.redistribute_leftover,
        )

    def allocate(self, n_pulls: int, active: list[int]) -> tuple[PullCounts, list[int]]:
        if n_pulls == 0:
            # successive-rejects rounds whose cumulative target did not grow
            return PullCounts(counts={}), []
        if self.config.allocator == "uniform":
            counts = allocate_uniform(n_pulls, active)
            return counts, counts.round_robin_sequence()
        active_feats = self.features[sorted(active)]
        design = solve_g_optimal(
            active_feats, self.config.g_optimal_epsilon, active=sorted(active)
        )
        counts = round_design(n_pulls, design, 1.0 / 3.0, sorted(active), active_feats)
        return counts, counts.blocked_sequence()

    def pull(self, sequence: list[int], round_index: int, budget: int) -> None:
        gen = self.stream.child(_ENV_DRAWS, round_index).generator()
        rewards = [self.env.pull(arm, gen) for arm in sequence]
        if sequence:
            self.batch.extend(sequence, self.features[sequence], rewards, round_index)
        self.pulls_used += len(sequence)
        if self.pulls_used > budget:
            raise ConfigurationError(
                f"round {round_index} overspent the budget: {self.pulls_used} > {budget}"
            )

    def estimate(self, round_index: int, arms: list[int]) -> MeanEstimates:
        cfg = self.config
        data = self.batch
        if self._round_scoped:
            data = self.batch.round_slice(round_index)
            if len(data) == 0:
                # no new pulls this round: carry the previous round's estimates
                if self._cached is None:
                    raise EstimationError("no observations in the first round")
                return {a: self._cached[a] for a in arms}
        if cfg.estimator == "mean":
            estimates = estimate_sample_mean(data, arms)
        elif cfg.estimator == "linear":
            fit = fit_linear(data)
            estimates = predict_linear(fit, self.features[arms], arms=arms)
        else:
            gen = self.stream.child(_MLP_DRAWS, 0).generator()
            params = mlp_fit(
                data,
                cfg.mlp_lambda,
                hidden=cfg.mlp_hidden,
                iters=cfg.mlp_iters,
                step_size=cfg.mlp_step_size,
                init=self.mlp_state,
                rng=gen,
            )
            self.mlp_state = params
            estimates = mlp_predict(params, self.features[arms], arms=arms)
        self._cached = estimates
        return estimates

    def run(
        self,
        scope: Callable[[list[int]], list[int]],
        eliminate: Callable[[list[int], int, MeanEstimates], tuple[list[int], dict]],
        answer: Callable[[list[int]], tuple[int | None, tuple[int, ...] | None]],
    ) -> RunResult:
        """The elimination loop. Each round allocates over the active arms,
        pulls, and estimates every arm in ``scope(active)``; ``eliminate``
        returns the next active set plus its round-log entries, and ``answer``
        maps the final active set to (selected_arm, selected_set)."""
        schedule = self.schedule()
        active = list(range(self.env.n_arms))
        rounds: list[dict] = []
        for r in range(1, schedule.n_rounds + 1):
            try:
                counts, sequence = self.allocate(schedule.pulls_per_round[r - 1], active)
                self.pull(sequence, r, schedule.budget)
                estimates = self.estimate(r, scope(active))
            except MopxError as err:
                raise type(err)(f"round {r}: {err}") from err
            active, entries = eliminate(active, schedule.keep_counts[r - 1], estimates)
            rounds.append(
                {
                    "round": r,
                    "active": sorted(active),
                    "pull_counts": {str(a): counts.counts[a] for a in sorted(counts.counts)},
                    **entries,
                }
            )
        selected_arm, selected_set = answer(active)
        return RunResult(
            algorithm=self.config.algorithm,
            selected_arm=selected_arm,
            selected_set=selected_set,
            pulls_used=self.pulls_used,
            budget=schedule.budget,
            rounds=tuple(rounds),
        )


def run_gensec(config: RunConfig, env: Environment) -> RunResult:
    """Constrained elimination: returns the estimated best feasible arm."""
    if config.mode != CONSTRAINED:
        raise ConfigurationError(f"the constrained loop cannot run a {config.mode}-mode config")
    if env.n_objectives != 2:
        raise ConfigurationError("the constrained loop supports exactly two objectives")

    def eliminate(active: list[int], keep: int, estimates: MeanEstimates) -> tuple[list[int], dict]:
        ranking = rank_constrained(estimates, config.tau)
        return sorted(ranking[:keep]), {
            "ranking": ranking,
            "estimates": {str(a): [float(v) for v in estimates[a]] for a in ranking},
        }

    return _RoundRunner(config, env).run(
        lambda active: active, eliminate, lambda active: (active[0], None)
    )


def run_genpsi(config: RunConfig, env: Environment) -> RunResult:
    """Pareto-set elimination: returns the accepted arms plus the surviving front."""
    if env.n_arms < 2:
        raise ConfigurationError("the Pareto loop needs K >= 2 arms")
    accepted: list[int] = []
    front: set[int] = set()

    def eliminate(active: list[int], keep: int, estimates: MeanEstimates) -> tuple[list[int], dict]:
        nonlocal front
        arms = sorted(estimates)
        mat = np.array([estimates[a] for a in arms], dtype=float)
        front = {arms[i] for i in pareto_front(mat)}
        gap_report = pareto_gap_report(mat)
        gaps = {arms[i]: gap_report.entries[i].gap for i in range(len(arms))}
        active, newly_accepted = eliminate_pareto(active, keep, gaps, front)
        if config.eliminator == "ege":
            accepted.extend(newly_accepted)
        else:
            newly_accepted = []
        return active, {
            "front": sorted(front),
            "gaps": {str(a): _gap_for_log(gaps[a]) for a in sorted(gaps)},
            "accepted": sorted(newly_accepted),
        }

    def answer(active: list[int]) -> tuple[None, tuple[int, ...]]:
        survivors = [a for a in active if a in front]
        return None, tuple(sorted(set(accepted) | set(survivors)))

    return _RoundRunner(config, env).run(
        lambda active: sorted(set(active) | set(accepted)), eliminate, answer
    )


def _gap_for_log(value: float) -> float | str:
    return "inf" if math.isinf(value) else float(value)


def run_uniform_baseline(config: RunConfig, env: Environment) -> RunResult:
    """Pull every arm equally often, then read the answer off the sample means:
    the round loop with the elimination rule of ``config.mode``, run as one
    round that keeps one arm."""
    if config.mode == CONSTRAINED:
        return run_gensec(config, env)
    return run_genpsi(config, env)


def run_algorithm(config: RunConfig, env: Environment) -> RunResult:
    """Dispatch on ``config.algorithm``."""
    if config.algorithm == GENSEC:
        return run_gensec(config, env)
    if config.algorithm == GENPSI:
        return run_genpsi(config, env)
    return run_uniform_baseline(config, env)
