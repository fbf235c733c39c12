import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import random_linear_instance, reference_read_arm_csv
from mopx import environments
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
)
from mopx.harness import EnvironmentSource, environment_source_from_dict

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _table(*records: np.ndarray) -> ReplayTable:
    """A replay table of one record array per arm."""
    return ReplayTable(np.concatenate(records), [len(rows) for rows in records])


def test_linear_environment_zero_noise_matches_structure():
    feats = np.array([[1.0, 0.0], [0.5, 0.5]])
    theta = np.array([[0.3, 0.7], [0.1, 0.9]])
    env = LinearEnvironment(Instance(means=feats @ theta, features=feats, theta=theta))
    assert np.allclose(env.pull(0, RngStream(0).generator()), [0.3, 0.7])


def test_linear_environment_requires_structure():
    with pytest.raises(ConfigurationError):
        LinearEnvironment(Instance(means=[[0.1, 0.2]]))


def test_replay_pulls_come_from_records_and_average_out():
    table = _table(np.array([[0.2, 1.0], [0.4, 0.0]]))
    env = ReplayEnvironment(table)
    gen = RngStream(3).generator()
    draws = np.array([env.pull(0, gen) for _ in range(10_000)])
    allowed = {(0.2, 1.0), (0.4, 0.0)}
    assert {tuple(d) for d in draws} <= allowed
    assert abs(draws[:, 0].mean() - 0.3) < 0.01


def test_replay_sequential_mode_cycles_in_order():
    table = _table(np.array([[0.1, 0.0], [0.2, 0.0], [0.3, 0.0]]))
    env = ReplayEnvironment(table, mode="sequential")
    gen = RngStream(0).generator()
    first = [env.pull(0, gen)[0] for _ in range(5)]
    assert first == pytest.approx([0.1, 0.2, 0.3, 0.1, 0.2])


def test_replay_iid_draws_are_uncorrelated():
    table = _table(np.array([[0.0, 0.0], [1.0, 1.0]]))
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
            _table(np.array([[0.1, 0.4], [0.3, 0.4]]), np.array([[0.6, 0.8]]))
        ),
    }
    for name, env in kinds.items():
        gen = RngStream(5).generator()
        draws = np.array([env.pull(0, gen) for _ in range(n)])
        truth = (env.table if name == "replay" else env.instance).means[0]
        spread = max(np.max(np.std([env.pull(0, gen) for _ in range(100)], axis=0)), 1e-3)
        assert np.all(np.abs(draws.mean(axis=0) - truth) < 5 * spread / np.sqrt(n) + 5e-3), name


def test_environment_source_dispatch_and_replay_validation():
    inst = Instance(means=[[0.1, 0.2]])
    source = EnvironmentSource(inst, GaussianEnvironment)
    assert isinstance(source.build(1), GaussianEnvironment)
    with pytest.raises(ConfigurationError):
        environment_source_from_dict({"kind": "refusal"})
    with pytest.raises(ConfigurationError):
        ReplayTable(np.zeros((0, 2)), [0])
    with pytest.raises(ConfigurationError):
        ReplayEnvironment(_table(np.array([[0.1, 0.2]])), mode="bogus")
    env = ReplayEnvironment(_table(np.array([[0.1, 0.2]])))
    with pytest.raises(DomainError):
        env.pull(5, RngStream(0).generator())


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(st.integers(1, 130), min_size=1, max_size=8), st.integers(2, 4))
def test_replay_means_equal_each_arms_own_array_mean(seed, row_counts, m):
    """Means read off the one array equal ``mean(axis=0)`` of each arm's
    records as an array of its own, bit for bit, and are computed once."""
    rng = np.random.default_rng(seed)
    records = [np.round(rng.normal(size=(n, m)) * 10.0 ** rng.integers(-3, 4), 3) for n in row_counts]
    table = _table(*records)
    want = np.array([rows.copy().mean(axis=0) for rows in records])
    assert table.means.tobytes() == want.tobytes() and table.means is table.means
    truth = EnvironmentSource(table, ReplayEnvironment).true_means(len(row_counts))
    assert np.shares_memory(truth, table.means) and truth.tobytes() == table.means.tobytes()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(st.integers(1, 40), min_size=2, max_size=8), st.integers(2, 4), st.data())
def test_replay_subset_reuses_the_means_of_its_first_arms(seed, row_counts, m, data):
    """A subset reads its means off the full table's, and they equal the means
    of a table built from the subset's records alone, bit for bit."""
    rng = np.random.default_rng(seed)
    records = [np.round(rng.normal(size=(n, m)) * 10.0 ** rng.integers(-3, 4), 3) for n in row_counts]
    table = _table(*records)
    n_arms = data.draw(st.integers(1, len(records) - 1))
    sub, built = table.subset(n_arms), _table(*records[:n_arms])
    assert np.shares_memory(sub.means, table.means) and not sub.means.flags.writeable
    for name in ("rows", "lengths", "starts", "means"):
        got, want = getattr(sub, name), getattr(built, name)
        assert got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert (sub.n_arms, sub.n_objectives) == (n_arms, m)


def test_replay_subset_of_every_arm_is_the_table_itself():
    table = _table(np.array([[0.1, 0.2]]), np.array([[0.3, 0.4], [0.5, 0.6]]))
    assert table.subset(2) is table
    first = table.subset(1)
    assert first.n_arms == 1 and first.rows.tolist() == [[0.1, 0.2]]
    assert np.shares_memory(first.rows, table.rows)
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
    assert np.allclose(table.means[0], [0.3, 0.5])


def test_replay_csv_brevity_recompute(tmp_path):
    path = tmp_path / "replay.csv"
    path.write_text(
        "arm_id,len_tokens,obj_1,obj_2\n"
        "0,55,0.2,0.9\n"
        "0,10,0.4,0.9\n"
    )
    table = load_replay_csv(path, brevity=(10, 100))
    assert np.allclose(table.rows[:, 1], [0.5, 1.0])
    bare = tmp_path / "no_tokens.csv"
    bare.write_text("arm_id,obj_1,obj_2\n0,0.2,0.9\n")
    with pytest.raises(ConfigurationError, match="len_tokens"):
        load_replay_csv(bare, brevity=(10, 100))


def test_replay_csv_missing_arm(tmp_path):
    path = tmp_path / "gap.csv"
    path.write_text("arm_id,obj_1,obj_2\n0,0.1,0.2\n2,0.3,0.4\n")
    with pytest.raises(ConfigurationError, match="missing records"):
        load_replay_csv(path)


@pytest.mark.parametrize("kind", ["replay", "embedding"])
@pytest.mark.parametrize("body", ["0,0.2,1.0\n1,0.9,0.5\n", '0,0.2,1.0\n"1", 0.9,0.5\r\n'])  # one-pass, per-line
def test_arm_csv_reads_a_file_with_a_byte_order_mark_as_one_without(tmp_path, kind, body):
    text = "arm_id,obj_1,obj_2\n" + body
    (tmp_path / "plain.csv").write_text(text, encoding="utf-8", newline="")
    (tmp_path / "marked.csv").write_text(text, encoding="utf-8-sig", newline="")
    assert (tmp_path / "marked.csv").read_bytes()[:3] == b"\xef\xbb\xbf"
    plain = environments._read_arm_csv(tmp_path / "plain.csv", kind)
    marked = environments._read_arm_csv(tmp_path / "marked.csv", kind)
    assert plain[0] == marked[0] == ["arm_id", "obj_1", "obj_2"]
    assert plain[1].tobytes() == marked[1].tobytes() and plain[2].tolist() == marked[2].tolist()


# Cell spellings: plain ones the one-pass parse reads, and ones only the
# per-line reader reads or rejects.
_PLAIN_ARMS = ("{}", "00{}", "+{}")
_ODD_ARMS = (" {}", '"{}"', "{}_0", "{}e0", "{}.0", "#{}", "")
_PLAIN_VALUES = ("0.125", "-0.5", "3", "1e-3", "+.5", "2.", "-0", "7E+2")
_ODD_VALUES = (" 0.25", "0.25 ", '"0.75"', "1_000.5", "nan", "-inf", "1e400", "Infinity", "abc", "", "0x10")
_FAULTS = ("spelling", "line", "arm", "ragged", "header", "line end")


@st.composite
def _arm_csv_files(draw):
    """The text of an arm_id CSV file: plain half the time, else with one
    kind of fault or odd spelling, in a few of its rows."""
    fault = draw(st.sampled_from((None,) * len(_FAULTS) + _FAULTS))
    width = draw(st.integers(1, 4))
    names = ["len_tokens", "obj_1", "obj_2"] if draw(st.booleans()) else ["e_1", "e_2", "e_3"]
    head = ",".join(["arm_id", *names[: width - 1]])
    if fault == "header":
        quoted = [f'"{head}"', f'arm_id,"{head[7:]}"']
        head = draw(st.sampled_from([*quoted, head.replace(",", ", "), " arm_id" + head[6:], "", "id,x"]))
        head = head.replace(",", draw(st.sampled_from([",", "\r", "\x00,"])), draw(st.integers(0, 1)))
    n_arms = draw(st.integers(1, 6))
    arms = draw(st.permutations(range(n_arms))) + draw(st.lists(st.integers(0, n_arms - 1), max_size=8))
    lines = [head]
    for arm in draw(st.permutations(arms)):
        faulty = fault is not None and draw(st.integers(0, 3)) == 0
        if faulty and fault == "arm":
            arm = draw(st.sampled_from([-1, n_arms + 1]))  # negative, or leaving arms missing
        arm_spellings = _PLAIN_ARMS + (_ODD_ARMS if faulty and fault == "spelling" else ())
        value_spellings = _PLAIN_VALUES + (_ODD_VALUES if faulty and fault == "spelling" else ())
        n_values = width - 1 + (draw(st.sampled_from([-1, 1])) if faulty and fault == "ragged" else 0)
        cells = [draw(st.sampled_from(arm_spellings)).format(arm)]
        for _ in range(max(n_values, 0)):
            value = draw(st.sampled_from(value_spellings))
            cells.append(value if value != "3" else repr(draw(st.floats(-1e3, 1e3))))
        lines.append(",".join(cells))
        if faulty and fault == "line":
            lines.append(draw(st.sampled_from(["", "  ", "# note", ","])))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(1, len(lines))), "")  # a blank line
    end = draw(st.sampled_from(["\r\n", "\r"])) if fault == "line end" else "\n"
    return end.join(lines) + draw(st.sampled_from([end, "", end + end]))


def _read_outcome(read, path, kind, repeats):
    """(header, per-arm row bytes and shapes) of a read, or its error text."""
    try:
        header, per_arm = read(path, kind, repeats)
    except Exception as err:  # every failure must match, whatever its type
        return f"{type(err).__name__}: {err}"
    arrays = [np.array(rows, dtype=float).reshape(len(rows), len(header) - 1) for rows in per_arm]
    return header, [(a.shape, a.tobytes()) for a in arrays]


def _split_read(path, kind, repeats):
    header, rows, lengths = environments._read_arm_csv(path, kind, repeats)
    assert rows.dtype == float and rows.shape == (lengths.sum(), len(header) - 1)
    return header, np.split(rows, np.cumsum(lengths)[:-1])


@settings(max_examples=400, deadline=None)
@given(text=_arm_csv_files(), repeats=st.booleans())
@example(text="arm_id,obj_1,obj_2\n0,0.5,0.25\n1,1e400,0\n", repeats=True)
@example(text="arm_id,obj_1,obj_2\r\n0,0.5,0.25\r\n\r\n1,+1,1_0\r\n", repeats=True)
@example(text='arm_id,"obj_1",obj_2\n1,0.5,0.25\n0,"0.5",0\n1,1e-3,2.\n', repeats=True)
@example(text="arm_id,e_1\n0,0.5\n1e0,0.25\n", repeats=False)
@example(text="arm_id,e_1\n1,0.5\n0,0.25\n1,0\n", repeats=False)
@example(text='arm_id,"obj_1",obj_2\n0,0.5,0.25\n', repeats=True)
@example(text="arm_id,e_1\re_2,e_3\n0,0.5,0.25\n", repeats=True)
@example(text="arm_id,e_\x001\n0,0.5\n", repeats=True)
@example(text="arm_id,e_1\n0,0.5\n2,0.25\n40,0\n", repeats=True)
def test_arm_csv_reader_matches_the_per_line_reader(text, repeats):
    """Same header and arrays bit for bit, or the same error text, as the
    per-line reader it replaces, on plain and odd files alike."""
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "arms.csv"
        path.write_bytes(text.encode())
        for kind in ("replay", "embedding"):
            want = _read_outcome(reference_read_arm_csv, path, kind, repeats)
            assert _read_outcome(_split_read, path, kind, repeats) == want


def test_plain_files_are_read_in_one_pass(monkeypatch, tmp_path):
    """The fixture and a benchmark-shaped file never reach the per-line reader."""
    def per_line(*args):
        raise AssertionError("read line by line")

    rng = np.random.default_rng(3)
    rows = [f"{arm},{a:.3f},{b:.3f}" for arm in range(48) for a, b in rng.uniform(0, 1, size=(50, 2))]
    path = tmp_path / "replay.csv"
    path.write_text("arm_id,obj_1,obj_2\n" + "\n".join(rows) + "\n")
    monkeypatch.setattr(environments, "_read_arm_lines", per_line)
    for source in (FIXTURES / "replay_small.csv", path):
        _, per_arm = reference_read_arm_csv(source, "replay")
        table = load_replay_csv(source)
        assert table.rows.tobytes() == np.array([row for rows in per_arm for row in rows]).tobytes()
        assert table.lengths.tolist() == [len(rows) for rows in per_arm]


def test_a_respelled_file_is_read_from_disk_once(monkeypatch, tmp_path):
    """The per-line reader parses the text the one-pass reader decoded."""
    path = tmp_path / "replay.csv"
    path.write_text('arm_id,obj_1,obj_2\r\n"0", +0.5, 0.25\r\n\r\n1,0.75,0.5\r\n', newline="")
    opened, open_file = [], Path.open
    monkeypatch.setattr(Path, "open", lambda self, *args, **kw: opened.append(self) or open_file(self, *args, **kw))
    table = load_replay_csv(path)
    assert opened == [path]
    assert table.rows.tolist() == [[0.5, 0.25], [0.75, 0.5]]


def test_a_far_arm_id_is_refused_at_once(tmp_path):
    """Neither the time nor the message grows with the largest arm_id."""
    path = tmp_path / "replay.csv"
    path.write_text("arm_id,obj_1,obj_2\n0,0.5,0.5\n1000000000000,0.5,0.5\n")
    start = time.perf_counter()
    with pytest.raises(ConfigurationError) as raised:
        load_replay_csv(path)
    assert time.perf_counter() - start < 1.0
    assert str(raised.value).endswith("[1, 2, 3, 4, 5, 6, 7, 8, 9, 10] and 999999999989 more")
    assert len(str(raised.value).encode()) < 500


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
    return _table(*(rng.uniform(size=(n, 2)) for n in row_counts))


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
    env = ReplayEnvironment(_table(np.array([[0.1, 0.2]]), np.array([[0.3, 0.4]])))
    used, fresh = RngStream(8).generator(), RngStream(8).generator()
    rows = env.pull(np.array([1, 0, 1, 1]), used)
    assert rows.tolist() == [[0.3, 0.4], [0.1, 0.2], [0.3, 0.4], [0.3, 0.4]]
    assert env.pull(0, used).tolist() == [0.1, 0.2]
    assert np.array_equal(used.normal(size=4), fresh.normal(size=4))


def test_sequential_cursors_advance_in_pull_order():
    table = _table(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]), np.array([[5.0, 5.0], [6.0, 6.0]]))
    env = ReplayEnvironment(table, mode="sequential")
    gen = RngStream(0).generator()
    assert env.pull(np.array([0, 1, 0, 0, 1, 0, 1]), gen)[:, 0].tolist() == [0, 5, 1, 2, 6, 0, 5]
    assert env.pull(1, gen).tolist() == [6.0, 6.0]


@pytest.mark.parametrize("make_env", [
    lambda: GaussianEnvironment(Instance(means=[[0.3, 0.7], [0.1, 0.2]], sigma=1.0)),
    lambda: ReplayEnvironment(_table(np.array([[0.1, 0.2]]), np.array([[0.3, 0.4]]))),
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
