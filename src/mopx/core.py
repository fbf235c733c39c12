"""Shared domain types, the environment contract, and deterministic randomness.

Arms are dense integer indices in ``[0, K)``; reward vectors are 1-D float
arrays of length ``m`` (one entry per objective, larger is better). Ordering
by arm index is the global tie-break order used everywhere downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Protocol, runtime_checkable

import numpy as np


class MopxError(Exception):
    """Base class for all library errors."""


class DomainError(MopxError):
    """An argument is outside the operation's domain (e.g. arm out of range)."""


class ConfigurationError(MopxError):
    """A configuration value violates a documented bound."""


class EstimationError(MopxError):
    """An estimator was asked for an arm it has no data for, or got an empty batch."""


class NumericalError(MopxError):
    """A numerical routine failed (singular system, non-finite loss, no convergence)."""


class InstanceError(MopxError):
    """A problem instance is degenerate for the requested quantity."""


class MetricError(MopxError):
    """A metric is undefined for the given inputs."""


class UnsupportedDimensionError(MetricError):
    """The objective dimension is outside the supported range."""


def as_reward_vector(values: Iterable[float]) -> np.ndarray:
    """Validate and return a reward vector as a float array (finite, m >= 2)."""
    vec = np.asarray(values, dtype=float)
    if vec.ndim != 1 or vec.size < 2:
        raise DomainError(f"reward vector must be 1-D with m >= 2 entries, got shape {vec.shape}")
    if not np.all(np.isfinite(vec)):
        raise DomainError("reward vector must be finite (no NaN/inf)")
    return vec


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream keyed by (seed, path).

    Equal (seed, path) pairs reproduce identical draws in any process; distinct
    paths give statistically independent streams, so parallel runs are
    reproducible regardless of execution order. Path components are appended
    as (run, round, step, ...) indices by the caller.
    """

    seed: int
    path: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise DomainError("RngStream seed must be non-negative")
        if any(p < 0 for p in self.path):
            raise DomainError("RngStream path components must be non-negative")
        object.__setattr__(self, "path", tuple(int(p) for p in self.path))

    def child(self, *steps: int) -> "RngStream":
        """Derive a sub-stream by extending the path."""
        return RngStream(self.seed, self.path + tuple(int(s) for s in steps))

    def generator(self) -> np.random.Generator:
        """Fresh Philox generator for this (seed, path); same inputs, same draws."""
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(seq))


@dataclass(frozen=True)
class Instance:
    """Ground truth of a bandit problem: per-arm true means plus optional structure.

    ``means`` is K x m. When ``features`` (K x d) and ``theta`` (d x m) are both
    given the means must equal ``features @ theta``; ``features`` alone is allowed
    (non-linear reward over a known feature map). ``sigma`` is the per-objective
    noise scale used by synthetic environments.
    """

    means: np.ndarray
    sigma: float = 0.0
    features: np.ndarray | None = None
    theta: np.ndarray | None = None

    def __post_init__(self) -> None:
        means = np.asarray(self.means, dtype=float)
        object.__setattr__(self, "means", means)
        if means.ndim != 2 or means.shape[0] < 1 or means.shape[1] < 2:
            raise InstanceError(f"means must be K x m with K >= 1, m >= 2, got {means.shape}")
        if not np.all(np.isfinite(means)):
            raise InstanceError("means must be finite")
        if self.sigma < 0:
            raise InstanceError("sigma must be >= 0")
        if self.features is not None:
            feats = np.asarray(self.features, dtype=float)
            object.__setattr__(self, "features", feats)
            if feats.ndim != 2 or feats.shape[0] != means.shape[0] or feats.shape[1] < 1:
                raise InstanceError(f"features must be K x d, got {feats.shape}")
            if not np.all(np.isfinite(feats)):
                raise InstanceError("features must be finite")
        if self.theta is not None:
            if self.features is None:
                raise InstanceError("theta without features is meaningless")
            theta = np.asarray(self.theta, dtype=float)
            object.__setattr__(self, "theta", theta)
            if theta.shape != (self.features.shape[1], means.shape[1]):
                raise InstanceError(f"theta must be d x m, got {theta.shape}")
            if not np.allclose(self.features @ theta, means, atol=1e-9, rtol=0.0):
                raise InstanceError("means must equal features @ theta in the linear case")

    @property
    def n_arms(self) -> int:
        return self.means.shape[0]

    @property
    def n_objectives(self) -> int:
        return self.means.shape[1]

    def feature_matrix(self) -> np.ndarray:
        """Declared features, or the K x K one-hot map when none were given."""
        if self.features is not None:
            return self.features
        return np.eye(self.n_arms)


class ObservationBatch:
    """Append-only log of (arm, feature, reward, round) rows collected by a run."""

    def __init__(self) -> None:
        self._arms: list[int] = []
        self._features: list[np.ndarray] = []
        self._rewards: list[np.ndarray] = []
        self._rounds: list[int] = []

    def __len__(self) -> int:
        return len(self._arms)

    def append(self, arm: int, feature: np.ndarray, reward: np.ndarray, round_index: int) -> None:
        self._arms.append(int(arm))
        self._features.append(np.asarray(feature, dtype=float))
        self._rewards.append(np.asarray(reward, dtype=float))
        self._rounds.append(int(round_index))

    @property
    def arms(self) -> np.ndarray:
        return np.array(self._arms, dtype=int)

    @property
    def features(self) -> np.ndarray:
        return np.array(self._features, dtype=float)

    @property
    def rewards(self) -> np.ndarray:
        return np.array(self._rewards, dtype=float)

    @property
    def rounds(self) -> np.ndarray:
        return np.array(self._rounds, dtype=int)

    def round_slice(self, round_index: int) -> "ObservationBatch":
        """New batch containing only the rows of one round."""
        out = ObservationBatch()
        for a, f, rw, r in zip(self._arms, self._features, self._rewards, self._rounds):
            if r == round_index:
                out.append(a, f, rw, r)
        return out


@runtime_checkable
class Environment(Protocol):
    """Reward source: one stochastic reward vector per pull of an arm."""

    n_arms: int
    n_objectives: int

    def pull(self, arm: int, rng: np.random.Generator) -> np.ndarray: ...

    def true_means(self) -> np.ndarray: ...
