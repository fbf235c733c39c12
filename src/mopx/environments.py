"""Reward sources: synthetic Gaussian/linear environments and file-backed replay.

Replay substitutes for live model evaluation: each arm carries a list of
already-scored pull records, and a pull returns one of them - sampled with
replacement by default (matching the i.i.d. reward assumption), or cycled in
recorded order in the strict-sequential mode used for exact regressions. The
sequential mode keeps a per-arm cursor and is the one stateful environment;
use a fresh instance per run. An array pull (see ``core.Environment``) gives
the same bits as single pulls of its arms, in order, from the same generator.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

from .core import ConfigurationError, DomainError, Instance


def brevity_score(length: float, tau_low: float, tau_high: float) -> float:
    """Map a token length into [0, 1]: 1 up to tau_low, 0 from tau_high, linear between."""
    if tau_low >= tau_high:
        raise ConfigurationError(f"need tau_low < tau_high, got {tau_low} >= {tau_high}")
    if length < 0:
        raise DomainError(f"length must be >= 0, got {length}")
    if length <= tau_low:
        return 1.0
    if length >= tau_high:
        return 0.0
    return (tau_high - length) / (tau_high - tau_low)


class ReplayTable:
    """Recorded pull observations of every arm, in one array: arm a's records,
    in recorded order, are ``rows[starts[a]:starts[a] + lengths[a]]``, and
    ``means[a]`` is their mean, computed unless given. Every arm needs at least one record."""

    def __init__(self, rows: np.ndarray, lengths: np.ndarray, means: np.ndarray | None = None):
        rows = np.asarray(rows, dtype=float)
        lengths = np.asarray(lengths, dtype=np.int64)
        if lengths.ndim != 1 or len(lengths) == 0:
            raise ConfigurationError("replay table has no arms")
        if (lengths < 1).any():
            raise ConfigurationError(f"replay arm {np.flatnonzero(lengths < 1)[0]} has no recorded pulls")
        if rows.ndim != 2 or len(rows) != lengths.sum():
            raise ConfigurationError(f"replay table needs {lengths.sum()} rows of records, got shape {rows.shape}")
        self.starts = np.cumsum(lengths) - lengths
        faulty = ~np.isfinite(rows).all(axis=1)
        if faulty.any():
            arm = np.searchsorted(self.starts, np.flatnonzero(faulty)[0], side="right") - 1
            raise ConfigurationError(f"replay arm {arm} has non-finite records")
        if rows.shape[1] < 2:
            raise ConfigurationError("replay records need m >= 2 objectives")
        self.rows = rows
        self.lengths = lengths
        if means is None:
            means = np.array([rows[start : start + n].mean(axis=0) for start, n in zip(self.starts, lengths)])
            means.flags.writeable = False  # every cell of a sweep reads these
        self.means = means

    @property
    def n_arms(self) -> int:
        return len(self.lengths)

    @property
    def n_objectives(self) -> int:
        return self.rows.shape[1]

    def subset(self, n_arms: int) -> "ReplayTable":
        """The first ``n_arms`` arms; all of them is the table itself."""
        if n_arms == self.n_arms:
            return self
        if not 1 <= n_arms <= self.n_arms:
            raise ConfigurationError(f"cannot take {n_arms} arms from a {self.n_arms}-arm table")
        # each arm's mean reads only its own rows
        return ReplayTable(self.rows[: self.starts[n_arms]], self.lengths[:n_arms], means=self.means[:n_arms])


class GaussianEnvironment:
    """Independent Gaussian noise of scale sigma around each arm's mean vector."""

    def __init__(self, instance: Instance):
        self.instance = instance
        self.n_arms = instance.n_arms
        self.n_objectives = instance.n_objectives

    def pull(self, arm: int | np.ndarray, rng: np.random.Generator) -> np.ndarray:
        arms = _checked_arms(arm, self.n_arms)
        noise = rng.normal(0.0, 1.0, size=arms.shape + (self.n_objectives,)) * self.instance.sigma
        return self.instance.means[arms] + noise

    @property
    def features(self) -> np.ndarray | None:
        return self.instance.features


class LinearEnvironment(GaussianEnvironment):
    """Gaussian environment whose means are guaranteed to follow the linear model."""

    def __init__(self, instance: Instance):
        if instance.features is None or instance.theta is None:
            raise ConfigurationError("a linear environment needs features and theta")
        super().__init__(instance)


class ReplayEnvironment:
    """Samples recorded pulls; iid mode draws uniformly with replacement."""

    def __init__(self, table: ReplayTable, mode: str = "iid"):
        if mode not in ("iid", "sequential"):
            raise ConfigurationError(f"unknown replay mode {mode!r}")
        self.table = table
        self.mode = mode
        self.n_arms = table.n_arms
        self.n_objectives = table.n_objectives
        self._cursors = [0] * table.n_arms

    def pull(self, arm: int | np.ndarray, rng: np.random.Generator) -> np.ndarray:
        arms = _checked_arms(arm, self.n_arms)
        table = self.table
        lengths = table.lengths[arms]
        if self.mode == "iid":
            # one bounded draw per pull; an arm with one record draws nothing
            offsets = rng.integers(lengths)
        else:
            offsets = np.empty_like(lengths)
            for i, a in enumerate(arms.flat):  # cursors advance in pull order
                offsets.flat[i] = self._cursors[a] % lengths.flat[i]
                self._cursors[a] += 1
        return table.rows.take(table.starts[arms] + offsets, axis=0)


def _checked_arms(arm, n_arms: int) -> np.ndarray:
    """``arm`` as an int array (0-d for a single arm), all inside [0, n_arms)."""
    arms = np.asarray(arm)
    if arms.dtype.kind not in "iu":
        raise DomainError(f"arms must be integers, got {arm!r}")
    outside = (arms < 0) | (arms >= n_arms)
    if outside.any():
        first = arm if arms.ndim == 0 else arms[outside][0]
        raise DomainError(f"arm {first} out of range [0, {n_arms})")
    return arms


def _write_csv(path: str | Path, header: str, rows) -> None:
    """One line per row, a dict's values in order or a sequence's items, under
    the comma-separated ``header``; floats are written as ``repr(float(v))``,
    the shortest text that reads back to the same float, and None as an empty cell."""
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header.split(","))
        for row in rows:
            values = row.values() if isinstance(row, dict) else row
            writer.writerow(["" if v is None else repr(float(v)) if isinstance(v, float) else v for v in values])


_PLAIN = b"0123456789.,eE+-\n"  # the characters of a body the one-pass parse reads


def _read_arm_csv(path: str | Path, kind: str, repeats: bool = True) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The header and rows of a CSV file whose first column is ``arm_id``.

    Every row needs the header's width and every cell a number; the cells
    after ``arm_id`` are read as finite floats. Returns the stripped header,
    the rows' other cells, arm 0's rows first (K one past the largest arm_id;
    file order within an arm), and each arm's row count. Errors name the
    ``kind`` of file, its path and the line. With ``repeats=False`` an arm may
    have only one row. A plain file (digits, signs, points, exponents, commas
    and newlines below an unquoted header) is parsed in one call and checked
    by column; other spellings (quotes, spaces, ``1_000``) and every file a
    check rejects are read line by line, which also names the faulty line.
    """
    try:
        with Path(path).open(newline="", encoding="utf-8-sig") as handle:
            text = handle.read()
    except UnicodeDecodeError as err:
        raise ConfigurationError(f"{kind} file {path} is not UTF-8 text: {err}") from None
    head, _, body = text.partition("\n")
    header = [h.strip() for h in head.split(",")]
    plain = head.isprintable() and '"' not in head and not body.encode().translate(None, _PLAIN)
    if plain and header[0] == "arm_id" and len(header) > 1 and body.strip("\n"):
        cells = np.dtype([("arm", np.int64), ("values", float, (len(header) - 1,))])
        try:
            table = np.loadtxt(body.split("\n"), dtype=cells, delimiter=",", comments=None, ndmin=1)
            arms, rows = table["arm"], table["values"]
            lengths = np.bincount(arms) if arms.max() < len(arms) else np.zeros(1)  # bincount rejects arms < 0
        except ValueError:  # a cell or a row width the per-line reader reads or names
            lengths = np.zeros(1)
        if lengths.all() and (repeats or lengths.max() == 1) and np.isfinite(rows).all():
            return header, rows[np.argsort(arms, kind="stable")], lengths
    return _read_arm_lines(text, path, kind, repeats)


def _read_arm_lines(text: str, path: str | Path, kind: str, repeats: bool) -> tuple[list[str], np.ndarray, np.ndarray]:
    """``_read_arm_csv`` on the ``text`` of ``path``, line by line, with
    ``csv.reader``, ``int()`` and ``float()``."""
    path = Path(path)
    per_arm: dict[int, list[list[float]]] = {}
    reader = csv.reader(io.StringIO(text, newline=""))

    def fault(message: str) -> ConfigurationError:
        return ConfigurationError(f"{kind} file {path} line {reader.line_num} {message}")

    header = next(reader, None)
    if header is None:
        raise ConfigurationError(f"{kind} file {path} is empty")
    header = [h.strip() for h in header]
    if header[:1] != ["arm_id"]:
        raise ConfigurationError(f"{kind} file {path} must start with an arm_id column")
    for row in reader:
        if not row:
            continue
        if len(row) != len(header):
            raise fault(f"has {len(row)} values, the header has {len(header)}")
        try:
            arm = int(row[0])
            values = [float(v) for v in row[1:]]
        except ValueError:
            raise fault(f"is not a row of numbers: {','.join(row)!r}") from None
        if not all(map(math.isfinite, values)):
            raise fault(f"holds a value that is not finite: {','.join(row)!r}")
        if arm < 0:
            raise fault(f"has a negative arm_id {arm}")
        if not repeats and arm in per_arm:
            raise fault(f"repeats arm_id {arm}")
        per_arm.setdefault(arm, []).append(values)
    if not per_arm:
        raise ConfigurationError(f"{kind} file {path} holds no records")
    if n_missing := max(per_arm) + 1 - len(per_arm):  # the first ten lie below len(per_arm) + 10
        missing = [a for a in range(min(max(per_arm) + 1, len(per_arm) + 10)) if a not in per_arm][:10]
        more = f" and {n_missing - 10} more" if n_missing > 10 else ""
        raise ConfigurationError(f"{kind} file {path} is missing records for arms {missing}{more}")
    rows = [row for a in range(len(per_arm)) for row in per_arm[a]]
    lengths = np.array([len(per_arm[a]) for a in range(len(per_arm))])
    return header, np.array(rows, dtype=float).reshape(len(rows), len(header) - 1), lengths


def load_replay_csv(path: str | Path, brevity: tuple[float, float] | None = None) -> ReplayTable:
    """Read a replay table from CSV: header arm_id[,len_tokens],obj_1,...,obj_m.

    With ``brevity=(tau_low, tau_high)`` the second objective is recomputed
    from the recorded token length column.
    """
    header, rows, lengths = _read_arm_csv(path, "replay")  # rows: [len_tokens,] obj_1, ..., obj_m
    has_tokens = header[1:2] == ["len_tokens"]
    if brevity is not None and not has_tokens:
        raise ConfigurationError("brevity recomputation needs a len_tokens column")
    if brevity is not None and rows.shape[1] > 2:  # narrower tables fail ReplayTable's m >= 2
        rows[:, 2] = [brevity_score(length, *brevity) for length in rows[:, 0].tolist()]
    return ReplayTable(np.ascontiguousarray(rows[:, 1:]) if has_tokens else rows, lengths)


def load_instance_json(path: str | Path) -> Instance:
    """Read an instance from JSON: {K, m, sigma, means, features?, theta?}."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except ValueError as err:
        raise ConfigurationError(f"instance file {path} is not valid JSON: {err}") from None
    if not isinstance(data, dict):
        raise ConfigurationError(f"instance file {path} must hold a JSON object, got {data!r}")
    return instance_from_dict(data)


def instance_from_dict(data: dict) -> Instance:
    """An instance from parsed JSON, coercing nothing: ``K`` and ``m`` are JSON
    integers, and ``sigma`` and every entry of ``means``, ``features`` and ``theta`` JSON numbers."""
    if "means" not in data:
        raise ConfigurationError("instance needs 'means'")
    for key in ("K", "m"):
        if key in data and type(data[key]) is not int:
            raise ConfigurationError(f"instance is malformed: {key} must be a JSON integer, got {data[key]!r}")
    if type(data.get("sigma", 0.0)) not in (int, float):
        raise ConfigurationError(f"instance is malformed: sigma must be a JSON number, got {data['sigma']!r}")
    for key in ("means", "features", "theta"):
        for leaf in _leaves(data.get(key, [])):
            if type(leaf) not in (int, float):
                raise ConfigurationError(f"instance is malformed: {key} holds {leaf!r}, not a JSON number")
    try:  # ragged rows, or an integer past the float range
        means = np.asarray(data["means"], dtype=float)
        features = np.asarray(data["features"], dtype=float) if "features" in data else None
        theta = np.asarray(data["theta"], dtype=float) if "theta" in data else None
        sigma = float(data.get("sigma", 0.0))
    except (ValueError, OverflowError) as err:
        raise ConfigurationError(f"instance is malformed: {err}") from None
    if "K" in data and means.ndim >= 1 and means.shape[0] != data["K"]:
        raise ConfigurationError(f"declared K={data['K']} but means has {means.shape[0]} rows")
    if "m" in data and means.ndim >= 2 and means.shape[1] != data["m"]:
        raise ConfigurationError(f"declared m={data['m']} but means has {means.shape[1]} columns")
    return Instance(means=means, sigma=sigma, features=features, theta=theta)


def _leaves(value) -> list:
    """The non-list items of nested JSON lists, in reading order."""
    return [leaf for item in value for leaf in _leaves(item)] if type(value) is list else [value]
