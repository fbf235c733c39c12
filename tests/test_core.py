import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import random_linear_instance
from mopx.core import (
    ConfigurationError,
    DomainError,
    Instance,
    InstanceError,
    ObservationBatch,
    RngStream,
    reset_stream,
)
from mopx.environments import GaussianEnvironment


def test_zero_noise_pull_is_exact():
    env = GaussianEnvironment(Instance(means=[[0.3, 0.7]], sigma=0.0))
    out = env.pull(0, RngStream(7).generator())
    assert out.tolist() == [0.3, 0.7]


def test_pull_mean_converges_at_five_standard_errors():
    env = GaussianEnvironment(Instance(means=[[0.3, 0.7]], sigma=1.0))
    gen = RngStream(123).generator()
    n = 10**5
    draws = np.array([env.pull(0, gen) for _ in range(n)])
    assert abs(draws[:, 0].mean() - 0.3) < 0.02
    assert abs(draws[:, 1].mean() - 0.7) < 5.0 / np.sqrt(n)


def test_pull_out_of_range_arm():
    env = GaussianEnvironment(Instance(means=[[0.3, 0.7]], sigma=1.0))
    with pytest.raises(DomainError):
        env.pull(1, RngStream(0).generator())


_SUBPROCESS_SNIPPET = """
import json
from mopx.core import Instance, RngStream
from mopx.environments import GaussianEnvironment
env = GaussianEnvironment(Instance(means=[[0.3, 0.7], [0.1, 0.2]], sigma=0.8))
gen = RngStream(99, (4, 2)).generator()
rows = [env.pull(t % 2, gen).tolist() for t in range(50)]
print(json.dumps(rows))
"""


def test_same_seed_and_path_is_bit_identical_across_processes():
    outputs = [
        subprocess.run(
            [sys.executable, "-c", _SUBPROCESS_SNIPPET], capture_output=True, text=True, check=True
        ).stdout
        for _ in range(2)
    ]
    assert outputs[0] == outputs[1]
    env = GaussianEnvironment(Instance(means=[[0.3, 0.7], [0.1, 0.2]], sigma=0.8))
    gen = RngStream(99, (4, 2)).generator()
    local = [env.pull(t % 2, gen).tolist() for t in range(50)]
    assert json.loads(outputs[0]) == local


def test_pull_consumes_one_draw_per_objective():
    env = GaussianEnvironment(Instance(means=[[0.3, 0.7]], sigma=0.5))
    used = RngStream(42).generator()
    mirror = RngStream(42).generator()
    env.pull(0, used)
    mirror.normal(0.0, 1.0, size=2)
    assert np.array_equal(used.normal(size=4), mirror.normal(size=4))


def test_distinct_paths_give_distinct_draws():
    a = RngStream(5, (1,)).generator().normal(size=8)
    b = RngStream(5, (2,)).generator().normal(size=8)
    assert not np.allclose(a, b)


def test_rng_stream_rejects_negative_components():
    with pytest.raises(DomainError):
        RngStream(-1)
    with pytest.raises(DomainError):
        RngStream(1, (-2,))


_PATHS = st.lists(st.integers(0, 2**40), max_size=3).map(tuple)


def _draws(gen: np.random.Generator) -> list[bytes]:
    """32-bit draws, integers with array bounds, normals and 32-bit floats, as bytes."""
    return [
        gen.integers(0, 2**32, size=3, dtype=np.uint32).tobytes(),
        gen.integers(0, np.array([3, 17, 2**20]), size=(5, 3)).tobytes(),
        gen.normal(size=7).tobytes(),
        gen.random(size=3, dtype=np.float32).tobytes(),
    ]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**63), _PATHS, st.integers(0, 2**63), _PATHS, st.integers(0, 9))
def test_a_reset_generator_draws_what_a_fresh_one_draws(seed, path, other_seed, other_path, used):
    """A generator left part way through another stream, with a half-used
    32-bit draw buffered, draws the stream's own bits once reset to it."""
    gen = RngStream(other_seed, other_path).generator()
    gen.integers(0, 2**32, size=used, dtype=np.uint32)
    gen.integers(0, 2**16, dtype=np.uint16)
    gen.normal(size=used)
    assert reset_stream(gen, seed, path) is gen
    assert _draws(gen) == _draws(RngStream(seed, path).generator())
    assert _draws(reset_stream(gen, seed, path)) == _draws(RngStream(seed, path).generator())


def test_reward_mean_is_permutation_invariant():
    rows = np.array([[0.2, 0.6], [0.4, 0.8], [0.0, 1.0]])
    perm = rows[[2, 0, 1]]
    assert np.allclose(rows.mean(axis=0), perm.mean(axis=0))


def test_instance_linear_consistency_checked():
    feats = np.array([[1.0, 0.0], [0.0, 1.0]])
    theta = np.array([[0.3, 0.7], [0.1, 0.2]])
    inst = Instance(means=feats @ theta, sigma=0.1, features=feats, theta=theta)
    assert inst.n_arms == 2 and inst.n_objectives == 2
    with pytest.raises(InstanceError):
        Instance(means=[[1.0, 1.0], [1.0, 1.0]], features=feats, theta=theta)
    with pytest.raises(InstanceError):
        Instance(means=[[0.1, 0.2]], sigma=-1.0)
    with pytest.raises(InstanceError):
        Instance(means=[[0.1]])



def test_instance_subset_shares_the_first_arms_of_the_instance():
    inst = random_linear_instance(np.random.default_rng(4), 6, 3, sigma=0.2)
    assert inst.subset(6) is inst
    sub = inst.subset(4)
    assert (sub.n_arms, sub.sigma, sub.theta) == (4, inst.sigma, inst.theta)
    for mine, full in ((sub.means, inst.means), (sub.features, inst.features)):
        assert np.shares_memory(mine, full) and mine.tobytes() == full[:4].tobytes()
    assert Instance(means=[[0.1, 0.2], [0.3, 0.4]]).subset(1).features is None
    for k in (0, 7):
        with pytest.raises(ConfigurationError, match=f"^cannot take K={k} arms from a 6-arm instance$"):
            inst.subset(k)

def test_observation_batch_round_slicing():
    batch = ObservationBatch()
    batch.append(0, [1.0], [0.1, 0.2], 1)
    batch.append(1, [0.5], [0.3, 0.4], 1)
    batch.append(0, [1.0], [0.5, 0.6], 2)
    assert len(batch) == 3
    assert sorted(set(batch.arms.tolist())) == [0, 1]
    sliced = batch.round_slice(2)
    assert len(sliced) == 1 and sliced.arms.tolist() == [0]
    assert batch.rewards.shape == (3, 2)


def test_observation_batch_arrays_cannot_write_into_the_log():
    batch = ObservationBatch()
    batch.extend([0, 1], [[1.0], [0.5]], [[0.1, 0.2], [0.3, 0.4]], 1)
    before = [batch.arms.copy(), batch.features.copy(), batch.rewards.copy()]
    views = [batch.arms, batch.features, batch.rewards]
    for view in views:
        with pytest.raises(ValueError, match="read-only"):
            view[0] = 7
    for totals in batch.arm_totals():  # copies: writing into them leaves the log's totals
        totals[0] = 7
    for _ in range(40):  # later writes: the arrays read before them keep their rows
        batch.append(1, [2.0], [0.5, 0.6], 2)
    for got, want in zip(views, before):
        assert np.array_equal(got, want)
    assert [a.tolist() for a in (batch.arms[:2], batch.features[:2], batch.rewards[:2])] == [
        a.tolist() for a in before
    ]
    sums, counts = batch.arm_totals()
    assert counts.tolist()[:2] == [1, 41] and sums[0].tolist() == [0.1, 0.2]


def test_observation_batch_keeps_no_array_its_writer_can_edit():
    """Editing the arrays of a write after it changes none of the log's arrays,
    totals or round slices."""

    def written():
        arms, features, rewards = np.array([0, 1]), np.array([[1.0], [0.5]]), np.array([[0.1, 0.2], [0.3, 0.4]])
        return arms, features, rewards, np.array([2.0]), np.array([0.5, 0.6])

    def log(arms, features, rewards, feature, reward):
        batch = ObservationBatch()
        batch.extend(arms, features, rewards, 1)
        batch.append(1, feature, reward, 2)
        return batch

    def report(batch):
        arrays = [batch.arms, batch.features, batch.rewards, *batch.arm_totals()]
        for r in (1, 2):
            sliced = batch.round_slice(r)
            arrays += [sliced.arms, sliced.features, sliced.rewards]
        return [(a.shape, a.tobytes()) for a in arrays]

    arrays = written()
    batch = log(*arrays)
    for array in arrays:
        array[...] = 7
    assert report(batch) == report(log(*written()))


_SHAPES = "a write needs n arms, n x d features and n x m rewards, got shapes "


@pytest.mark.parametrize(
    "arms, features, rewards, message",
    [
        ([0], [1.0], [[0.1, 0.2]], _SHAPES + "(1,), (1,) and (1, 2)"),
        ([0, 1], [[1.0]], [[0.1, 0.2]], _SHAPES + "(2,), (1, 1) and (1, 2)"),
        ([0], [[1.0, 2.0]], [[0.1, 0.2]], "rows of width d=2, m=2 do not match the log's d=1, m=2"),
        ([0], [[1.0]], [[0.1, 0.2, 0.3]], "rows of width d=1, m=3 do not match the log's d=1, m=2"),
        ([-2], [[1.0]], [[0.1, 0.2]], "arm -2 is negative"),
    ],
)
def test_observation_batch_rejects_malformed_writes(arms, features, rewards, message):
    batch = ObservationBatch()
    batch.append(0, [1.0], [0.1, 0.2], 1)
    with pytest.raises(DomainError) as err:
        batch.extend(arms, features, rewards, 2)
    assert str(err.value) == message
    assert len(batch) == 1 and batch.arm_totals()[1].tolist()[:1] == [1]


_ROWS = st.lists(
    st.tuples(
        st.integers(0, 5),
        st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3),
        st.lists(st.floats(-1e3, 1e3) | st.just(-0.0), min_size=2, max_size=2),
        st.booleans(),
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(_ROWS)
def test_appended_rows_equal_the_same_rows_extended(rows):
    """Per-row appends, with the totals read at random points in between, give
    the same bits as one extend of the same rows."""
    appended, extended = ObservationBatch(), ObservationBatch()
    for arm, feature, reward, read_totals in rows:
        appended.append(arm, np.array(feature), np.array(reward), 1)
        if read_totals:
            appended.arm_totals()
    extended.extend([r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows], 1)
    pairs = list(zip(appended.arm_totals(), extended.arm_totals()))
    pairs += [(appended.arms, extended.arms), (appended.features, extended.features)]
    pairs += [(appended.rewards, extended.rewards), (appended.round_slice(1).arms, extended.arms)]
    for got, want in pairs:
        assert got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()
