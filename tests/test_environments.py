from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mopx.core import ConfigurationError, DomainError, Instance, RngStream
from mopx.environments import (
    GaussianEnvironment,
    LinearEnvironment,
    ReplayEnvironment,
    ReplayTable,
    brevity_score,
    instance_from_dict,
    load_instance_json,
    load_replay_csv,
    random_constrained_instance,
    random_linear_instance,
)
from mopx.harness import EnvironmentSource, environment_source_from_dict

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_linear_environment_zero_noise_matches_structure():
    feats = np.array([[1.0, 0.0], [0.5, 0.5]])
    theta = np.array([[0.3, 0.7], [0.1, 0.9]])
    env = LinearEnvironment(Instance(means=feats @ theta, features=feats, theta=theta))
    assert np.allclose(env.pull(0, RngStream(0).generator()), [0.3, 0.7])


def test_linear_environment_requires_structure():
    with pytest.raises(ConfigurationError):
        LinearEnvironment(Instance(means=[[0.1, 0.2]]))


def test_replay_pulls_come_from_records_and_average_out():
    table = ReplayTable([np.array([[0.2, 1.0], [0.4, 0.0]])])
    env = ReplayEnvironment(table)
    gen = RngStream(3).generator()
    draws = np.array([env.pull(0, gen) for _ in range(10_000)])
    allowed = {(0.2, 1.0), (0.4, 0.0)}
    assert {tuple(d) for d in draws} <= allowed
    assert abs(draws[:, 0].mean() - 0.3) < 0.01


def test_replay_sequential_mode_cycles_in_order():
    table = ReplayTable([np.array([[0.1, 0.0], [0.2, 0.0], [0.3, 0.0]])])
    env = ReplayEnvironment(table, mode="sequential")
    gen = RngStream(0).generator()
    first = [env.pull(0, gen)[0] for _ in range(5)]
    assert first == pytest.approx([0.1, 0.2, 0.3, 0.1, 0.2])


def test_replay_iid_draws_are_uncorrelated():
    table = ReplayTable([np.array([[0.0, 0.0], [1.0, 1.0]])])
    env = ReplayEnvironment(table)
    gen = RngStream(8).generator()
    n = 10**5
    seq = np.array([env.pull(0, gen)[0] for _ in range(n)])
    centred = seq - seq.mean()
    rho1 = float(centred[:-1] @ centred[1:] / (centred @ centred))
    assert abs(rho1) < 3.0 / np.sqrt(n)


def test_gaussian_pull_variance_near_sigma_squared():
    env = GaussianEnvironment(Instance(means=[[0.0, 0.0]], sigma=0.7))
    gen = RngStream(21).generator()
    draws = np.array([env.pull(0, gen) for _ in range(10**5)])
    assert abs(draws[:, 0].var() - 0.49) < 0.049


def test_environment_mean_fidelity_every_kind():
    n = 10**5
    feats = np.array([[1.0, 0.0], [0.0, 1.0]])
    theta = np.array([[0.2, 0.4], [0.6, 0.8]])
    kinds = {
        "gaussian": GaussianEnvironment(Instance(means=[[0.2, 0.4], [0.6, 0.8]], sigma=0.5)),
        "linear": LinearEnvironment(
            Instance(means=feats @ theta, sigma=0.5, features=feats, theta=theta)
        ),
        "replay": ReplayEnvironment(
            ReplayTable([np.array([[0.1, 0.4], [0.3, 0.4]]), np.array([[0.6, 0.8]])])
        ),
    }
    for name, env in kinds.items():
        gen = RngStream(5).generator()
        draws = np.array([env.pull(0, gen) for _ in range(n)])
        truth = env.true_means()[0]
        spread = max(np.max(np.std([env.pull(0, gen) for _ in range(100)], axis=0)), 1e-3)
        assert np.all(np.abs(draws.mean(axis=0) - truth) < 5 * spread / np.sqrt(n) + 5e-3), name


def test_environment_source_dispatch_and_replay_validation():
    inst = Instance(means=[[0.1, 0.2]])
    source = EnvironmentSource(kind="gaussian", instance=inst)
    assert isinstance(source.build(1), GaussianEnvironment)
    with pytest.raises(ConfigurationError):
        environment_source_from_dict({"kind": "refusal"})
    with pytest.raises(ConfigurationError):
        ReplayTable([np.zeros((0, 2))])
    with pytest.raises(ConfigurationError):
        ReplayEnvironment(ReplayTable([np.array([[0.1, 0.2]])]), mode="bogus")
    env = ReplayEnvironment(ReplayTable([np.array([[0.1, 0.2]])]))
    with pytest.raises(DomainError):
        env.pull(5, RngStream(0).generator())


def test_replay_subset_of_every_arm_is_the_table_itself():
    table = ReplayTable([np.array([[0.1, 0.2]]), np.array([[0.3, 0.4], [0.5, 0.6]])])
    assert table.subset(2) is table
    first = table.subset(1)
    assert first.n_arms == 1 and first.records[0] is table.records[0]
    for n_arms in (0, 3):
        with pytest.raises(ConfigurationError, match=f"cannot take {n_arms} arms from a 2-arm table"):
            table.subset(n_arms)


# ----------------------------------------------------------------- brevity


def test_brevity_worked_examples():
    assert brevity_score(10, 10, 100) == 1.0
    assert brevity_score(55, 10, 100) == 0.5
    assert brevity_score(150, 10, 100) == 0.0


def test_brevity_monotone_and_continuous_at_breakpoints():
    lengths = np.linspace(0, 140, 561)
    values = [brevity_score(x, 10, 100) for x in lengths]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    eps = 1e-9
    assert brevity_score(10 + eps, 10, 100) == pytest.approx(1.0, abs=1e-7)
    assert brevity_score(100 - eps, 10, 100) == pytest.approx(0.0, abs=1e-7)


def test_brevity_validates_thresholds():
    with pytest.raises(ConfigurationError):
        brevity_score(5, 100, 100)
    with pytest.raises(DomainError):
        brevity_score(-1, 10, 100)


# ---------------------------------------------------------------- file I/O


def test_replay_csv_round_trip(tmp_path):
    path = tmp_path / "replay.csv"
    path.write_text(
        "arm_id,obj_1,obj_2\n"
        "0,0.2,1.0\n"
        "0,0.4,0.0\n"
        "1,0.9,0.5\n"
    )
    table = load_replay_csv(path)
    assert table.n_arms == 2 and table.n_objectives == 2
    assert np.allclose(table.means()[0], [0.3, 0.5])


def test_replay_csv_brevity_recompute(tmp_path):
    path = tmp_path / "replay.csv"
    path.write_text(
        "arm_id,len_tokens,obj_1,obj_2\n"
        "0,55,0.2,0.9\n"
        "0,10,0.4,0.9\n"
    )
    table = load_replay_csv(path, brevity=(10, 100))
    assert np.allclose(table.records[0][:, 1], [0.5, 1.0])
    bare = tmp_path / "no_tokens.csv"
    bare.write_text("arm_id,obj_1,obj_2\n0,0.2,0.9\n")
    with pytest.raises(ConfigurationError, match="len_tokens"):
        load_replay_csv(bare, brevity=(10, 100))


def test_replay_csv_missing_arm(tmp_path):
    path = tmp_path / "gap.csv"
    path.write_text("arm_id,obj_1,obj_2\n0,0.1,0.2\n2,0.3,0.4\n")
    with pytest.raises(ConfigurationError, match="missing records"):
        load_replay_csv(path)


def test_instance_json_round_trip(tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(
        '{"K": 2, "m": 2, "sigma": 0.25, "means": [[0.1, 0.2], [0.3, 0.4]]}'
    )
    inst = load_instance_json(path)
    assert inst.sigma == 0.25 and inst.n_arms == 2
    with pytest.raises(ConfigurationError):
        instance_from_dict({"K": 3, "means": [[0.1, 0.2]]})


# --------------------------------------------------------------- generators


def test_random_constrained_instance_always_feasible():
    rng = np.random.default_rng(0)
    for _ in range(50):
        inst = random_constrained_instance(rng, 6, tau=0.95)
        assert np.any(inst.means[:, 1] >= 0.95)


def test_random_linear_instance_structure():
    rng = np.random.default_rng(1)
    inst = random_linear_instance(rng, 8, 3)
    assert inst.features.shape == (8, 3)
    assert np.allclose(inst.means, inst.features @ inst.theta)


# ------------------------------------------------------ batched pulls


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _check_batched_pull(make_env, arms: np.ndarray, seed: int) -> None:
    """One array pull equals len(arms) single pulls row for row, bit for bit,
    and leaves the generator where they leave it."""
    batched_gen, single_gen = RngStream(seed, (3,)).generator(), RngStream(seed, (3,)).generator()
    batched = make_env().pull(arms, batched_gen)
    env = make_env()
    single = np.array([env.pull(int(a), single_gen) for a in arms]).reshape(len(arms), -1)
    assert _same_bits(batched, single)
    assert batched_gen.integers(2**63) == single_gen.integers(2**63)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 200), st.integers(2, 4), st.integers(1, 7))
def test_batched_gaussian_pull_equals_single_pulls(seed, n, m, k):
    rng = np.random.default_rng(seed)
    instance = Instance(means=rng.uniform(-1, 1, size=(k, m)), sigma=float(rng.uniform(0, 2)))
    arms = rng.integers(k, size=n)
    _check_batched_pull(lambda: GaussianEnvironment(instance), arms, seed)


def _replay_table(rng, row_counts) -> ReplayTable:
    return ReplayTable([rng.uniform(size=(n, 2)) for n in row_counts])


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(1, 60), min_size=1, max_size=8),
    st.integers(1, 200),
    st.sampled_from(["iid", "sequential"]),
)
def test_batched_replay_pull_equals_single_pulls(seed, row_counts, n, mode):
    rng = np.random.default_rng(seed)
    table = _replay_table(rng, row_counts)
    arms = rng.integers(len(row_counts), size=n)
    _check_batched_pull(lambda: ReplayEnvironment(table, mode=mode), arms, seed)


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("mode", ["iid", "sequential"])
def test_batched_replay_pull_on_workload_and_fixture_row_counts(seed, mode):
    rng = np.random.default_rng(seed)
    workload = _replay_table(rng, rng.integers(40, 61, size=48))  # the benchmark's replay sizes
    fixture = load_replay_csv(FIXTURES / "replay_small.csv")
    for table in (workload, fixture):
        arms = np.repeat(np.arange(table.n_arms), 20)  # a uniform round's pull order
        _check_batched_pull(lambda: ReplayEnvironment(table, mode=mode), arms, seed)
        _check_batched_pull(lambda: ReplayEnvironment(table, mode=mode), rng.permutation(arms), seed)


def test_single_record_arms_draw_nothing():
    env = ReplayEnvironment(ReplayTable([np.array([[0.1, 0.2]]), np.array([[0.3, 0.4]])]))
    used, fresh = RngStream(8).generator(), RngStream(8).generator()
    rows = env.pull(np.array([1, 0, 1, 1]), used)
    assert rows.tolist() == [[0.3, 0.4], [0.1, 0.2], [0.3, 0.4], [0.3, 0.4]]
    assert env.pull(0, used).tolist() == [0.1, 0.2]
    assert np.array_equal(used.normal(size=4), fresh.normal(size=4))


def test_sequential_cursors_advance_in_pull_order():
    table = ReplayTable([np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]), np.array([[5.0, 5.0], [6.0, 6.0]])])
    env = ReplayEnvironment(table, mode="sequential")
    gen = RngStream(0).generator()
    assert env.pull(np.array([0, 1, 0, 0, 1, 0, 1]), gen)[:, 0].tolist() == [0, 5, 1, 2, 6, 0, 5]
    assert env.pull(1, gen).tolist() == [6.0, 6.0]


@pytest.mark.parametrize("make_env", [
    lambda: GaussianEnvironment(Instance(means=[[0.3, 0.7], [0.1, 0.2]], sigma=1.0)),
    lambda: ReplayEnvironment(ReplayTable([np.array([[0.1, 0.2]]), np.array([[0.3, 0.4]])])),
])
def test_pull_names_the_first_out_of_range_arm(make_env):
    env = make_env()
    for arm, first in ((2, 2), (-1, -1), (np.array([0, 1, 5, -3]), 5), (np.array([-3, 7]), -3)):
        with pytest.raises(DomainError) as err:
            env.pull(arm, RngStream(0).generator())
        assert str(err.value) == f"arm {first} out of range [0, 2)"


@pytest.mark.parametrize("arm", [1.0, True, np.array([0.0, 1.0]), np.array([True])])
def test_pull_rejects_arms_that_are_not_integers(arm):
    env = GaussianEnvironment(Instance(means=[[0.3, 0.7], [0.1, 0.2]], sigma=1.0))
    with pytest.raises(DomainError) as err:
        env.pull(arm, RngStream(0).generator())
    assert str(err.value) == f"arms must be integers, got {arm!r}"


def test_empty_pull_returns_no_rows():
    env = GaussianEnvironment(Instance(means=[[0.3, 0.7]], sigma=1.0))
    assert env.pull(np.array([], dtype=int), RngStream(0).generator()).shape == (0, 2)
