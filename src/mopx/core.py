"""Shared domain types, the environment contract, and deterministic randomness.

Arms are dense integer indices in ``[0, K)``; reward vectors are 1-D float
arrays of length ``m`` (one entry per objective, larger is better). Ordering
by arm index is the global tie-break order used everywhere downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

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

    def generator(self) -> np.random.Generator:
        """Fresh Philox generator for this (seed, path); same inputs, same draws."""
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(seq))


def reset_stream(gen: np.random.Generator, seed: int, path: tuple[int, ...]) -> np.random.Generator:
    """Return ``gen``, a Philox generator, reset to draw what ``RngStream(seed, path).generator()`` draws:
    a Philox stream is its key and a counter, here zero with an empty buffer and no half-used 32-bit draw.
    The key is the one ``Philox(seq)`` derives; no ``SeedSequence``-fed ``Philox`` is built."""
    zeros = np.zeros(4, dtype=np.uint64)
    key = np.random.SeedSequence(seed, spawn_key=path).generate_state(2, np.uint64)
    gen.bit_generator.state = {"state": {"counter": zeros, "key": key}, "buffer": zeros,
                               "buffer_pos": 4, "has_uint32": 0, "uinteger": 0, "bit_generator": "Philox"}
    return gen


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
        if not np.isfinite(self.sigma):  # NaN passes the check above
            raise InstanceError(f"sigma must be finite, got {self.sigma}")
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

    def subset(self, n_arms: int) -> "Instance":
        """The first ``n_arms`` arms, sharing their means and feature rows; all of them is the instance itself."""
        if n_arms == self.n_arms:
            return self
        if not 1 <= n_arms <= self.n_arms:
            raise ConfigurationError(f"cannot take K={n_arms} arms from a {self.n_arms}-arm instance")
        feats = self.features[:n_arms] if self.features is not None else None
        return Instance(means=self.means[:n_arms], sigma=self.sigma, features=feats, theta=self.theta)


class ObservationBatch:
    """Append-only log of (arm, feature, reward, round) rows collected by a run.

    Each ``extend`` call keeps its rows as one block: C-ordered copies of its
    arms, features and rewards under its round index, so a caller that edits
    its arrays after the write cannot change the log. The first write fixes the
    feature and reward widths. The array properties join the blocks into new
    read-only arrays; later writes never change them. ``round_slice`` reads
    only the blocks of its round.

    ``arm_totals`` keeps per-arm reward sums and pull counts, adding the blocks
    written since its last call: each sum starts at +0.0 and adds its rows in
    pull order, the order in which numpy's ``mean(axis=0)`` adds the rows of a
    C-ordered array with two or more columns, so ``sums[a] / counts[a]``
    equals ``rewards[arms == a].mean(axis=0)`` bit for bit.
    """

    def __init__(self) -> None:
        self._blocks: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]] = []  # (round, arms, features, rewards)
        self._size = 0
        self._row_shapes: tuple[tuple[int, ...], tuple[int, ...]] | None = None
        self._sums = np.zeros((0, 0))
        self._counts = np.zeros(0, dtype=int)
        self._totalled = 0  # blocks already added into _sums and _counts

    def __len__(self) -> int:
        return self._size

    def append(self, arm: int, feature: np.ndarray, reward: np.ndarray, round_index: int) -> None:
        """Write one row: ``extend`` of a one-row round."""
        self.extend([arm], [feature], [reward], round_index)

    def extend(self, arms, features, rewards, round_index: int) -> None:
        """Write the rows of one round: ``arms`` (n), ``features`` (n x d) and
        ``rewards`` (n x m), in pull order."""
        arms = np.array(arms, dtype=int)
        features = np.array(features, dtype=float, order="C")
        rewards = np.array(rewards, dtype=float, order="C")
        if (arms.ndim, features.ndim, rewards.ndim) != (1, 2, 2) or not (
            len(arms) == len(features) == len(rewards)
        ):
            raise DomainError(
                f"a write needs n arms, n x d features and n x m rewards, got shapes "
                f"{arms.shape}, {features.shape} and {rewards.shape}"
            )
        if len(arms) == 0:
            return
        row_shapes = (features.shape[1:], rewards.shape[1:])
        if self._row_shapes is None:
            self._row_shapes = row_shapes
            self._sums = np.zeros((0, rewards.shape[1]))
        elif row_shapes != self._row_shapes:
            (dim,), (n_objectives,) = self._row_shapes
            raise DomainError(
                f"rows of width d={features.shape[1]}, m={rewards.shape[1]} do not match the "
                f"log's d={dim}, m={n_objectives}"
            )
        if arms.min() < 0:
            raise DomainError(f"arm {int(arms.min())} is negative")
        self._blocks.append((int(round_index), arms, features, rewards))
        self._size += len(arms)

    def _joined(self, column: int, empty: np.ndarray) -> np.ndarray:
        joined = np.concatenate([block[column] for block in self._blocks]) if self._blocks else empty
        joined.flags.writeable = False
        return joined

    @property
    def arms(self) -> np.ndarray:
        return self._joined(1, np.empty(0, dtype=int))

    @property
    def features(self) -> np.ndarray:
        return self._joined(2, np.empty((0, 0)))

    @property
    def rewards(self) -> np.ndarray:
        return self._joined(3, np.empty((0, 0)))

    def arm_totals(self) -> tuple[np.ndarray, np.ndarray]:
        """Copies of the per-arm reward sums (K x m) and pull counts (K) over
        every row written so far. K is one past the largest arm written; arms
        never pulled have zero counts."""
        for _, arms, _, rewards in self._blocks[self._totalled:]:
            missing = int(arms.max()) + 1 - len(self._counts)
            if missing > 0:
                self._sums = np.concatenate([self._sums, np.zeros((missing, self._sums.shape[1]))])
                self._counts = np.concatenate([self._counts, np.zeros(missing, dtype=int)])
            np.add.at(self._sums, arms, rewards)
            self._counts += np.bincount(arms, minlength=len(self._counts))
        self._totalled = len(self._blocks)
        return self._sums.copy(), self._counts.copy()

    def round_slice(self, round_index: int) -> "ObservationBatch":
        """New batch holding the blocks written under one round."""
        out = ObservationBatch()
        for block_round, arms, features, rewards in self._blocks:
            if block_round == round_index:
                out.extend(arms, features, rewards, round_index)
        return out


class Environment(Protocol):
    """Reward source: one stochastic reward vector per pull of an arm.

    ``pull`` takes one arm and returns its (m,) reward, or a 1-D integer array
    of n arms, pulled in that order, and returns their n x m rewards.
    """

    n_arms: int
    n_objectives: int

    def pull(self, arm: int | np.ndarray, rng: np.random.Generator) -> np.ndarray: ...
