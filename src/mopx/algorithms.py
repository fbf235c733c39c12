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
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .allocators import PullCounts, allocate_uniform, cover_arms, round_design, solve_g_optimal
from .core import (
    ConfigurationError,
    DomainError,
    Environment,
    MopxError,
    ObservationBatch,
    RngStream,
    reset_stream,
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
from .gaps import _check_means, _json_num, pareto_front, pareto_gap_report
from .schedulers import SEQUENTIAL_HALVING, Schedule, make_schedule

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
    per_arm_budget: int | None = None  # the run's budget is B = per_arm_budget * K
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
        ints = ("per_arm_budget", "seed", "mlp_hidden", "mlp_iters")
        reals = ("g_optimal_epsilon", "mlp_lambda", "mlp_step_size") + (("tau",) if self.mode == CONSTRAINED else ())
        bools = ("enforce_design_budget", "redistribute_leftover")
        for name in ints + reals + bools:
            value = getattr(self, name)  # else a budget of 2.5 runs as a float, True as 1 and a flag "false" as true
            if name in ints and type(value) is not int:
                raise ConfigurationError(f"{name} must be an int, got {value!r}")
            if name in bools and type(value) is not bool:
                raise ConfigurationError(f"{name} must be a bool, got {value!r}")
            if name in reals and (isinstance(value, bool) or not isinstance(value, (int, float))):
                raise ConfigurationError(f"{name} must be a real number, got {value!r}")
        # a NaN tau makes every arm infeasible; abs(x) <= max is False for NaN, inf and ints past the float range
        if self.mode == CONSTRAINED and not abs(self.tau) <= sys.float_info.max:
            raise ConfigurationError(f"tau must be finite, got {self.tau}")
        if self.per_arm_budget < 1:
            raise ConfigurationError("per-arm budget must be >= 1")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {self.seed}")
        if self.allocator not in ("uniform", "g-optimal"):
            raise ConfigurationError(f"unknown allocator {self.allocator!r}")
        if self.estimator not in ("mean", "linear", "mlp"):
            raise ConfigurationError(f"unknown estimator {self.estimator!r}")
        if self.eliminator not in ("ege", "truncate"):
            raise ConfigurationError(f"unknown eliminator {self.eliminator!r}")
        if self.mlp_data_scope not in ("cumulative", "round"):
            raise ConfigurationError(f"unknown mlp data scope {self.mlp_data_scope!r}")
        if not 0 < self.g_optimal_epsilon < 1:
            raise ConfigurationError(f"g_optimal epsilon must be in (0, 1), got {self.g_optimal_epsilon!r}")
        if self.mlp_hidden < 1:
            raise ConfigurationError(f"mlp hidden must be >= 1, got {self.mlp_hidden!r}")
        if self.mlp_iters < 1:
            raise ConfigurationError(f"mlp iters must be >= 1, got {self.mlp_iters!r}")
        if not self.mlp_step_size > 0:
            raise ConfigurationError(f"mlp step_size must be > 0, got {self.mlp_step_size!r}")
        if not self.mlp_lambda >= 0:
            raise ConfigurationError(f"mlp lambda must be >= 0, got {self.mlp_lambda!r}")
        for name in ("mlp_step_size", "mlp_lambda"):  # json reads 1e999 as inf, which would fail every MLP fit
            if not abs(value := getattr(self, name)) <= sys.float_info.max:
                raise ConfigurationError(f"mlp {name[4:]} must be finite, got {value}")
        if self.algorithm == UNIFORM and (
            self.allocator != "uniform" or self.estimator != "mean" or self.eliminator != "ege"
        ):
            raise ConfigurationError(
                "uniform baseline runs with allocator 'uniform', estimator 'mean' and eliminator 'ege'"
            )

    def schedule(self, n_arms: int, features: np.ndarray | None) -> Schedule:
        """The round plan over ``n_arms`` arms at B = per_arm_budget * K, for the
        loader and the round loop alike. The design-budget floor takes d from the
        columns of ``features``, or d = K for one-hot arms (``features`` None). Round 1
        must pull once, and K times under the sample mean, which reads every arm from round 1 on."""
        budget = self.per_arm_budget * n_arms
        if self.algorithm == UNIFORM:
            # single-phase successive rejects: spend B >= K in round 1, keep one arm
            if n_arms < 2:
                raise ConfigurationError(f"need K >= 2 arms to schedule, got K={n_arms}")
            return Schedule((budget,), (1,), budget)
        dim = (n_arms if features is None else np.shape(features)[1]) if self.enforce_design_budget else None
        plan = make_schedule(
            self.scheduler, n_arms, budget, feature_dim=dim, redistribute_leftover=self.redistribute_leftover
        )
        first, each = plan.pulls_per_round[0], self.estimator == "mean"
        if first < (n_arms if each else 1):  # successive rejects at B = K plans 0, halving B // ceil(log2 K)
            raise ConfigurationError(f"round 1 pulls {first} times, but the {self.estimator} estimator "
                                     f"needs a pull of {'each' if each else 'one'} of the K={n_arms} arms")
        return plan


def unseen_arm_causes(config: RunConfig, plan: Schedule, featureless: bool) -> list[str]:
    """Why a linear or MLP fit on one-hot arms must predict an arm it has no row of, read off config and plan."""
    if not featureless or config.estimator == "mean":
        return []
    active = (plan.budget // config.per_arm_budget, *plan.keep_counts)  # round 1 has all K = B / b arms
    thin = [r for r, (n, k) in enumerate(zip(plan.pulls_per_round, active), 1) if 0 < n < k]
    causes = []
    if config.allocator == "uniform" and thin:
        causes.append(f"uniform allocation pulls fewer times than there are active arms in rounds {thin}")
    if config.algorithm == GENPSI and config.eliminator == "ege" and plan.n_rounds > 1 and (
        config.estimator == "linear" or config.mlp_data_scope == "round"
    ):
        causes.append("EGE keeps accepted arms in scope, and a round-scoped fit has no rows of theirs")
    return causes


class RoundRecord(NamedTuple):
    """What one round decided, kept as the loop had it; ``_round_log`` formats it.

    Pareto rounds fill ``front``, ``gaps`` and ``accepted``; constrained
    rounds fill ``ranking`` and ``estimates``. A named tuple, not a
    dataclass: one is built per round, and it costs less to define and build.
    """

    round: int
    active: list[int]
    pull_counts: dict[int, int]
    front: set[int] | None = None
    gaps: dict[int, float] | None = None
    accepted: list[int] | None = None
    ranking: list[int] | None = None
    estimates: MeanEstimates | None = None


def _round_log(record: RoundRecord) -> dict:
    """One round's string-keyed log entry, as ``RunResult.to_dict()`` writes it."""
    log = {
        "round": record.round,
        "active": sorted(record.active),
        "pull_counts": {str(a): n for a, n in sorted(record.pull_counts.items())},
    }
    if record.ranking is None:
        log["front"] = sorted(record.front)
        log["gaps"] = {str(a): _json_num(g) for a, g in record.gaps.items()}  # arm order
        log["accepted"] = sorted(record.accepted)
    else:
        log["ranking"] = record.ranking
        log["estimates"] = {str(a): record.estimates[a].tolist() for a in record.ranking}
    return log


@dataclass(frozen=True)
class RunResult:
    """Output of one run: the selection plus each round's ``RoundRecord``.

    The string-keyed round log is formatted only by ``to_dict()``, so a sweep
    that never serialises a run formats nothing. Equality ignores the rounds,
    which hold numpy rows.
    """

    algorithm: str
    selected_arm: int | None
    selected_set: tuple[int, ...] | None
    pulls_used: int
    budget: int
    rounds: tuple[RoundRecord, ...] = field(default=(), repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "selected_arm": self.selected_arm,
            "selected_set": list(self.selected_set) if self.selected_set is not None else None,
            "pulls_used": self.pulls_used,
            "budget": self.budget,
            "rounds": [_round_log(record) for record in self.rounds],
        }


def rank_constrained(estimates: MeanEstimates, tau: float) -> list[int]:
    """Strict total order: empirically feasible arms (mu2 > tau) by decreasing
    primary estimate, then infeasible arms by decreasing constraint estimate;
    all ties break toward the lower arm index. Refuses NaN and inf estimates, as the Pareto rule
    does, and a NaN or inf ``tau``, which no comparison would order the arms by."""
    arms, rows = estimates.arms, _check_means(estimates.matrix).tolist()
    if not math.isfinite(tau):
        raise DomainError(f"tau must be finite, got {tau}")
    feasible = sorted((i for i, v in enumerate(rows) if v[1] > tau), key=lambda i: (-rows[i][0], arms[i]))
    infeasible = sorted((i for i, v in enumerate(rows) if v[1] <= tau), key=lambda i: (-rows[i][1], arms[i]))
    return [arms[i] for i in feasible + infeasible]


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
    order = sorted(sorted(active), key=gaps.__getitem__, reverse=True)  # stable: ties stay ascending
    cut = len(active) - keep
    return sorted(order[cut:]), [a for a in order[:cut] if a in front]


def theorem_bound(n_arms: int, dim: int, sigma: float, budget: int, difficulty: float) -> float:
    """Closed-form ceiling on the misidentification probability of the linear
    halving pipeline, read off the halving plan it bounds, which refuses K < 2 and a
    B under the design-budget floor; callers may clamp the raw value to [0, 1] for display."""
    if sigma <= 0:
        raise ConfigurationError("the bound needs sigma > 0")
    if difficulty <= 0:
        raise ConfigurationError("the bound needs a positive hardness")
    plan = make_schedule(SEQUENTIAL_HALVING, n_arms, budget, feature_dim=dim)
    rate = 1.0 / (6.0 * sigma**2)
    exponent = -(rate / 4.0) * plan.pulls_per_round[0] / (dim * difficulty)
    return 48.0 * plan.n_rounds * math.exp(exponent)


class _RoundRunner:
    """The allocate -> pull -> estimate -> eliminate loop of one run."""

    def __init__(self, config: RunConfig, env: Environment):
        self.config = config
        self.env = env
        feats = getattr(env, "features", None)
        self.plan = config.schedule(env.n_arms, feats)  # before any pull
        self.features = np.eye(env.n_arms) if feats is None else np.asarray(feats, dtype=float)
        self.batch = ObservationBatch()
        self.gen = RngStream(config.seed).generator()  # reset to a (seed, path) stream before each use
        self.mlp_state: MlpParams | None = None
        self._warm_mlp = config.estimator == "mlp" and config.mlp_data_scope == "cumulative"

    def allocate(self, n_pulls: int, active: list[int]) -> tuple[PullCounts, list[int]]:
        if self.config.allocator == "uniform":
            counts = allocate_uniform(n_pulls, active)
            return counts, counts.round_robin_sequence()
        active_feats = self.features[active]
        design = solve_g_optimal(active_feats, self.config.g_optimal_epsilon)
        counts = round_design(n_pulls, design, 1.0 / 3.0, active, active_feats)
        if self.config.estimator == "mean" and not len(self.batch):
            # the sample mean reads every arm from round 1 on, and the plan pulls K or more
            # times in round 1, so a donor is left for each arm the design leaves out
            cover_arms(counts.counts, sorted(counts.counts))
        return counts, counts.blocked_sequence()

    def pull(self, sequence: list[int], round_index: int) -> None:
        arms = np.array(sequence, dtype=int)
        rewards = self.env.pull(arms, reset_stream(self.gen, self.config.seed, (_ENV_DRAWS, round_index)))
        self.batch.extend(arms, self.features[arms], rewards, round_index)
        if len(self.batch) > self.plan.budget:
            raise ConfigurationError(
                f"round {round_index} overspent the budget: {len(self.batch)} > {self.plan.budget}"
            )

    def estimate(self, round_index: int, arms: list[int]) -> MeanEstimates:
        cfg = self.config
        if cfg.estimator == "mean":
            return estimate_sample_mean(self.batch, arms)
        data = self.batch if self._warm_mlp else self.batch.round_slice(round_index)
        if cfg.estimator == "linear":
            return predict_linear(fit_linear(data), self.features[arms], arms=arms)
        self.mlp_state = mlp_fit(
            data,
            cfg.mlp_lambda,
            hidden=cfg.mlp_hidden,
            iters=cfg.mlp_iters,
            step_size=cfg.mlp_step_size,
            init=self.mlp_state,
            rng=reset_stream(self.gen, cfg.seed, (_MLP_DRAWS, 0)) if self.mlp_state is None else None,
        )
        return mlp_predict(self.mlp_state, self.features[arms], arms=arms)

    def run(self) -> RunResult:
        """The elimination loop, with the rule of ``config.mode``. Each round
        allocates over the active arms, pulls, and estimates every arm in scope:
        the active arms, plus every arm accepted so far under the Pareto rule.
        The constrained rule keeps the ``keep`` best-ranked arms. The Pareto rule
        removes the largest empirical gaps, and under EGE accepts the removed arms
        on the empirical front. The active set is ascending: it starts as every
        arm, and both rules keep it sorted, so the scope only shrinks. A round the
        plan gives no pulls (successive rejects, when the cumulative target does
        not grow) adds no rows: it reads the scope's rows off the last estimate,
        except that the warm-started cumulative MLP refits. Round 1 always pulls."""
        pareto = self.config.mode == PARETO
        active, accepted, front = list(range(self.env.n_arms)), [], set()
        rounds: list[RoundRecord] = []
        for r in range(1, self.plan.n_rounds + 1):
            arms = sorted(set(active) | set(accepted)) if pareto else active
            keep, counts = self.plan.keep_counts[r - 1], {}
            try:
                if n_pulls := self.plan.pulls_per_round[r - 1]:
                    pulls, sequence = self.allocate(n_pulls, active)
                    self.pull(sequence, r)
                    estimates, counts = self.estimate(r, arms), pulls.counts
                elif self._warm_mlp:
                    estimates = self.estimate(r, arms)
                else:
                    estimates = MeanEstimates(arms, estimates.matrix[np.searchsorted(estimates.arms, arms)])
                if pareto:
                    front = {arms[i] for i in pareto_front(estimates.matrix)}
                    gaps = dict(zip(arms, pareto_gap_report(estimates.matrix).gap_column.tolist()))
                    active, on_front = eliminate_pareto(active, keep, gaps, front)
                    newly_accepted = on_front if self.config.eliminator == "ege" else []
                    accepted.extend(newly_accepted)
                    record = RoundRecord(r, active, counts, front, gaps, newly_accepted)
                else:
                    ranking = rank_constrained(estimates, self.config.tau)
                    active = sorted(ranking[:keep])
                    record = RoundRecord(r, active, counts, ranking=ranking, estimates=estimates)
            except MopxError as err:  # stamped in place, so the class and its attributes survive
                err.args = (f"round {r}: {err}",)
                raise
            rounds.append(record)
        return RunResult(
            algorithm=self.config.algorithm,
            selected_arm=None if pareto else active[0],
            selected_set=tuple(sorted(set(accepted) | (set(active) & front))) if pareto else None,
            pulls_used=len(self.batch),
            budget=self.plan.budget,
            rounds=tuple(rounds),
        )


def run_gensec(config: RunConfig, env: Environment) -> RunResult:
    """Constrained elimination: returns the estimated best feasible arm."""
    if config.mode != CONSTRAINED:
        raise ConfigurationError(f"the constrained loop cannot run a {config.mode}-mode config")
    if env.n_objectives != 2:
        raise ConfigurationError("the constrained loop supports exactly two objectives")
    return _RoundRunner(config, env).run()


def run_genpsi(config: RunConfig, env: Environment) -> RunResult:
    """Pareto-set elimination: returns the accepted arms plus the surviving front."""
    if config.mode != PARETO:
        raise ConfigurationError(f"the Pareto loop cannot run a {config.mode}-mode config")
    return _RoundRunner(config, env).run()


def run_algorithm(config: RunConfig, env: Environment) -> RunResult:
    """Run the round loop with the elimination rule of ``config.mode``:
    ``RunConfig`` fixes it for gensec (constrained) and genpsi (pareto), and
    the uniform baseline runs either rule as one round that keeps one arm."""
    if config.mode == CONSTRAINED:
        return run_gensec(config, env)
    return run_genpsi(config, env)


run_uniform_baseline = run_algorithm  # pull every arm equally often, read the answer off the means
