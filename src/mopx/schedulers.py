"""Round plans (R, {n_r}, {l_r}) for the elimination loops.

Two schedules are provided: sequential halving (equal per-round budget, active
set halved each round) and successive rejects (one arm rejected per round with
log-bar budget growth). Both keep the total pull count within the budget B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import ConfigurationError

SEQUENTIAL_HALVING = "sequential_halving"
SUCCESSIVE_REJECTS = "successive_rejects"
# every accepted scheduler name -> the schedule it builds
SCHEDULER_NAMES = {
    "sh": SEQUENTIAL_HALVING,
    "sr": SUCCESSIVE_REJECTS,
    SEQUENTIAL_HALVING: SEQUENTIAL_HALVING,
    SUCCESSIVE_REJECTS: SUCCESSIVE_REJECTS,
}


@dataclass(frozen=True)
class Schedule:
    """Round plan: R rounds, per-round pull budgets n_r and keep counts l_r."""

    pulls_per_round: tuple[int, ...]
    keep_counts: tuple[int, ...]
    budget: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "pulls_per_round", tuple(int(n) for n in self.pulls_per_round))
        object.__setattr__(self, "keep_counts", tuple(int(l) for l in self.keep_counts))
        if len(self.keep_counts) != len(self.pulls_per_round):
            raise ConfigurationError("pulls_per_round and keep_counts must have the same length R")
        if sum(self.pulls_per_round) > self.budget:
            raise ConfigurationError(
                f"schedule spends {sum(self.pulls_per_round)} pulls, over budget {self.budget}"
            )
        if any(l < 1 for l in self.keep_counts):
            raise ConfigurationError("keep counts must be >= 1")
        # strict decrease guarantees every round eliminates at least one arm
        if any(nxt >= cur for cur, nxt in zip(self.keep_counts, self.keep_counts[1:])):
            raise ConfigurationError("keep counts must be strictly decreasing")

    @property
    def n_rounds(self) -> int:
        return len(self.pulls_per_round)

    def to_dict(self) -> dict:
        return {
            "R": self.n_rounds,
            "pulls_per_round": list(self.pulls_per_round),
            "keep_counts": list(self.keep_counts),
            "budget": self.budget,
        }


def half_log_sum(k: int) -> float:
    """1/2 + sum_{i=2}^{k} 1/i, the normaliser of the successive-rejects schedule."""
    return 0.5 + sum(1.0 / i for i in range(2, k + 1))


def make_schedule(
    kind: str,
    n_arms: int,
    budget: int,
    *,
    feature_dim: int | None = None,
    redistribute_leftover: bool = False,
) -> Schedule:
    """Build a round plan for ``n_arms`` arms under total pull budget ``budget``.

    ``feature_dim``, when given, additionally enforces the linear-pipeline
    requirement budget >= 45 * d * ceil(log2 K); leave it None to schedule
    small-budget runs. ``redistribute_leftover`` moves the unspent remainder
    of the budget into the final round instead of discarding it.
    """
    if kind not in SCHEDULER_NAMES:
        raise ConfigurationError(f"unknown scheduler kind {kind!r}")
    kind = SCHEDULER_NAMES[kind]
    if n_arms < 2:
        raise ConfigurationError(f"need K >= 2 arms to schedule, got K={n_arms}")
    if budget < n_arms:
        raise ConfigurationError(
            f"budget B={budget} violates B >= K={n_arms} (one pull per arm in round 1)"
        )
    if feature_dim is not None:
        floor = 45 * feature_dim * math.ceil(math.log2(n_arms))
        if budget < floor:
            raise ConfigurationError(
                f"budget B={budget} violates the linear-pipeline bound "
                f"B >= 45*d*ceil(log2 K) = {floor}"
            )

    if kind == SEQUENTIAL_HALVING:
        n_rounds = math.ceil(math.log2(n_arms))
        per_round = budget // n_rounds
        pulls = [per_round] * n_rounds
        keeps = [math.ceil(n_arms / 2**r) for r in range(1, n_rounds + 1)]
    else:
        n_rounds = n_arms - 1
        norm = half_log_sum(n_arms)
        targets = [
            math.ceil((budget - n_arms) / (norm * (n_arms + 1 - r))) for r in range(1, n_rounds + 1)
        ]
        pulls = []
        prev = 0
        for r, target in enumerate(targets, start=1):
            active = n_arms + 1 - r
            pulls.append(active * (target - prev))
            prev = target
        keeps = [n_arms - r for r in range(1, n_rounds + 1)]

    if redistribute_leftover:
        pulls[-1] += budget - sum(pulls)
    return Schedule(pulls_per_round=tuple(pulls), keep_counts=tuple(keeps), budget=budget)
