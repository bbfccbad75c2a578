r"""Tabular cohorts and the two CSV formats oncokit reads and writes.

Both formats are read and written here and nowhere else. A cohort file has
the header ``id,time,event,center`` and any number of feature columns
after it. Columns whose values all parse as numbers stay numeric and must
be finite; anything else is treated as categorical and expanded one-hot
(one column per level, level-sorted) in the original column order.
``load_labels`` reads only a cohort file's ids, times and events, checked
as ``load_ehr`` checks them, and leaves its other columns unparsed. An
``id,risk`` file, as ``oncokit predict`` writes it and ``oncokit eval``
reads it, holds one finite risk per id, in columns of any order. Both are
UTF-8 CSV (a leading byte-order mark is accepted) with each column named
once and every row as wide as the header; header names and ids are
stripped of surrounding space, and an id appears once.

A ``Cohort`` is stored as columns: ids, times, events, centers, the three
volume paths and one (n, p) covariate matrix, all read-only.

``read_rows`` decodes a file once and hands back its columns by name and
the line of each row, and each column is converted in one pass. A plain
file, the kind ``save_ehr`` and ``save_predictions`` write, is split on
commas as text. It has no ``"``, no lone ``\r``, no NUL, one kind of line
end (``\n`` or ``\r\n``) and no field longer than
``csv.field_size_limit()``; every row has the header's width and every
row's first field is not blank, so no row is blank. Any other file is read
by ``csv.reader``, which gives a plain file the same fields. A file that
is not UTF-8, or that ``csv.reader`` refuses, is a ``DataError``. Only
columns that fail a check on their values are walked row by row, in
memory, to name the offending ``path:line``.
"""

from __future__ import annotations

import codecs
import csv
import io
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DataError, write_atomic

REQUIRED_COLUMNS = ("id", "time", "event", "center")


class Subject(NamedTuple):
    """One cohort row, as ``Cohort.subjects`` yields it."""
    id: str
    covariates: np.ndarray
    time: float
    event: int
    center: str
    ct_path: str | None
    pet_path: str | None
    mask_path: str | None


def _column(values, n: int, dtype=object, blank=None) -> np.ndarray:
    """A read-only copy of one column; ``values=None`` fills it with ``blank``."""
    arr = np.full(n, blank, dtype) if values is None else np.array(values, dtype=dtype)
    if arr.shape != (n,):
        raise DataError(f"column of shape {arr.shape} for {n} subjects")
    arr.setflags(write=False)
    return arr


class Cohort:
    """Subjects stored as columns; row ``i`` of each belongs to ``ids[i]``."""

    def __init__(self, ids, times, events, covariates, feature_names,
                 centers=None, ct_paths=None, pet_paths=None, mask_paths=None):
        n = len(ids)
        self.ids = _column(ids, n)
        if len(set(self.ids)) != n:
            raise DataError("cohort ids must be unique")
        self._times = _column(times, n, np.float64)
        self._events = _column(events, n, np.int64)
        self.feature_names = list(feature_names)
        x = np.array(covariates, dtype=np.float64, order="C")
        if x.shape != (n, len(self.feature_names)):
            raise DataError(f"covariate matrix of shape {x.shape} for {n} subjects "
                            f"and {len(self.feature_names)} features")
        x.setflags(write=False)
        self._x = x
        self.centers = _column(centers, n, blank="")
        self.ct_paths = _column(ct_paths, n)
        self.pet_paths = _column(pet_paths, n)
        self.mask_paths = _column(mask_paths, n)

    def __len__(self) -> int:
        return self.ids.shape[0]

    def covariate_matrix(self) -> np.ndarray:
        return self._x

    def times(self) -> np.ndarray:
        return self._times

    def events(self) -> np.ndarray:
        return self._events

    @property
    def subjects(self) -> list[Subject]:
        """Row views, for callers that walk the cohort one subject at a time."""
        return [Subject(*row) for row in zip(
            self.ids, self._x, self._times.tolist(), self._events.tolist(),
            self.centers, self.ct_paths, self.pet_paths, self.mask_paths)]

    def replace(self, rows=slice(None), covariates=None, feature_names=None,
                **paths) -> "Cohort":
        """The cohort restricted to ``rows``, with the covariates, feature
        names or volume-path columns (``ct_paths=...``) swapped in."""
        x = self._x[rows] if covariates is None else covariates
        cols = {"ct_paths": self.ct_paths, "pet_paths": self.pet_paths,
                "mask_paths": self.mask_paths}
        cols = {k: v[rows] for k, v in cols.items()} | paths
        return Cohort(self.ids[rows], self._times[rows], self._events[rows], x,
                      self.feature_names if feature_names is None else feature_names,
                      self.centers[rows], **cols)

    def subset(self, indices) -> "Cohort":
        return self.replace(np.asarray(indices, dtype=np.intp))

    def select_features(self, indices) -> "Cohort":
        """Project onto a subset of covariate columns (by index)."""
        indices = list(indices)
        return self.replace(covariates=self._x[:, indices],
                            feature_names=[self.feature_names[i] for i in indices])


def _floats(values, n: int) -> np.ndarray | None:
    """``float`` of every text, or None when one does not parse."""
    try:
        return np.fromiter(map(float, values), np.float64, n)
    except ValueError:
        return None


def _split_plain(text: str):
    r"""The header, columns and row lines of a plain file, split as text;
    None for any other file. Each line end becomes a ``"\n"`` token of its
    own, so the rows are strides of one flat list and one count checks
    every row's width."""
    eol = "\r\n" if "\r" in text else "\n"
    text = text.removesuffix(eol)
    n = text.count("\n")
    marked = text.replace(eol, ",\n,")     # a lone "\r" is left in place
    if not text or any(c in marked for c in '"\r\0'):
        return None
    # a field longer than the limit would hold a whole block, with no comma
    block = max(1, (csv.field_size_limit() + 1) // 2)
    if any(marked.find(",", i, i + block) < 0 for i in range(0, len(marked) - block + 1, block)):
        return None
    flat = marked.split(",")
    width = flat.index("\n") if n else len(flat)
    stride = width + 1
    if len(flat) != (n + 1) * stride - 1 or flat[width::stride].count("\n") != n \
            or not all(map(str.strip, flat[::stride])):
        return None
    return flat[:width], [flat[j::stride] for j in range(stride, stride + width)], range(2, n + 2)


def read_rows(path, required) -> tuple[dict[str, Sequence[str]], Sequence[int]]:
    """The text of each column of a UTF-8 CSV file (a leading byte-order
    mark is dropped) by its header name, stripped, in header order, and the
    physical line each row that is not blank ends on. The file must have a
    header that names each ``required`` column and no column twice, and
    every row must have the header's width. Nothing else is stripped."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:           # a directory, a missing or unreadable file
        raise DataError(f"{path}: cannot read: {exc.strerror or exc}") from None
    content = data.removeprefix(codecs.BOM_UTF8)
    try:
        text = content.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text, byte {len(data) - len(content) + exc.start}: "
                        f"{exc.reason}") from None
    plain = _split_plain(text)
    if plain is None:
        reader = csv.reader(io.StringIO(text, newline=""))
        try:
            header = next(reader, None)
            body = [(reader.line_num, row) for row in reader if any(map(str.strip, row))]
        except csv.Error as exc:
            raise DataError(f"{path}:{reader.line_num}: {exc}") from None
    else:
        header, columns, lines = plain
    if header is None:
        raise DataError(f"{path}: empty file")
    header = [name.strip() for name in header]
    for name in required:
        if name not in header:
            raise DataError(f"{path}: missing required column {name!r}")
    for name in header:
        if header.count(name) > 1:
            raise DataError(f"{path}: duplicate column {name!r}")
    if plain is None:
        for line, row in body:
            if len(row) != len(header):
                raise DataError(f"{path}:{line}: expected {len(header)} fields, got {len(row)}")
        lines = [line for line, _ in body]
        columns = list(zip(*(row for _, row in body))) or [()] * len(header)
    return dict(zip(header, columns)), lines


def _first_bad_row(path: Path, columns, lines, checks) -> None:
    """Raise the ``path:line`` error of the first row that fails a check.
    ``checks`` holds (column name, check) pairs, tried in order on each
    row; a check returns what is wrong with one text of the column, or
    None."""
    for i, line in enumerate(lines):
        for name, check in checks:
            problem = check(name, columns[name][i])
            if problem:
                raise DataError(f"{path}:{line}: {problem}")


def _time_problem(name: str, text: str) -> str | None:
    try:
        time = float(text)
    except ValueError:
        return f"non-numeric {name} {text.strip()!r}"
    if not np.isfinite(time) or time <= 0:
        return f"{name} must be finite and positive, got {time}"
    return None


def _event_problem(name: str, text: str) -> str | None:
    text = text.strip()
    return None if text in ("0", "1") else f"{name} must be 0 or 1, got {text!r}"


def _feature_problem(name: str, text: str) -> str | None:
    if np.isfinite(float(text)):          # every text of the column parses
        return None
    return f"feature {name!r} must be finite, got {text.strip()!r}"


def _risk_problem(name: str, text: str) -> str | None:
    try:
        finite = np.isfinite(float(text))
    except ValueError:
        finite = False
    return None if finite else f"{name} must be a finite number, got {text!r}"


def _unique():
    """A check that refuses a stripped text it has seen before."""
    seen: set[str] = set()

    def check(name: str, text: str) -> str | None:
        text = text.strip()
        if text in seen:
            return f"duplicate {name} {text!r}"
        seen.add(text)
        return None
    return check


def _labels(path: Path, raw, lines) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The stripped ids, the times and the events of a cohort file's
    columns; a bad time or event or a repeated id is refused, naming its
    ``path:line``."""
    n = len(lines)
    ids, event_text = (list(map(str.strip, raw[name])) for name in ("id", "event"))
    times = _floats(raw["time"], n)     # float() ignores what strip() removes
    if times is None or not (np.isfinite(times) & (times > 0)).all() \
            or not set(event_text) <= {"0", "1"} or len(set(ids)) != n:
        _first_bad_row(path, raw, lines, [("time", _time_problem), ("event", _event_problem),
                                          ("id", _unique())])
    return ids, times, np.fromiter(map(int, event_text), np.int64, n)


def load_labels(path) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The ids, times and events of a cohort CSV, checked as ``load_ehr``
    checks them; the center and feature columns are not read."""
    path = Path(path)
    return _labels(path, *read_rows(path, REQUIRED_COLUMNS))


def load_ehr(path) -> Cohort:
    """Read a cohort CSV."""
    path = Path(path)
    raw, lines = read_rows(path, REQUIRED_COLUMNS)
    n = len(lines)
    ids, times, events = _labels(path, raw, lines)

    feature_names: list[str] = []
    numeric: list[str] = []
    blocks = []
    for name, column in raw.items():
        if name in REQUIRED_COLUMNS:
            continue
        values = _floats(column, n)
        if values is None:         # categorical: one column per sorted level
            text = list(map(str.strip, column))
            levels = sorted(set(text))
            code = {lv: k for k, lv in enumerate(levels)}
            codes = np.fromiter(map(code.__getitem__, text), np.intp, n)
            blocks.append((codes[:, None] == np.arange(len(levels))).astype(np.float64))
            feature_names.extend(f"{name}={lv}" for lv in levels)
        else:
            blocks.append(values[:, None])
            feature_names.append(name)
            numeric.append(name)
    x = np.hstack(blocks) if blocks else np.empty((n, 0))
    if not np.isfinite(x).all():
        _first_bad_row(path, raw, lines, [(name, _feature_problem) for name in numeric])
    return Cohort(ids, times, events, x, feature_names, list(map(str.strip, raw["center"])))


def load_predictions(path) -> tuple[list[str], np.ndarray]:
    """Ids and risks of an ``id,risk`` CSV, each id stripped as
    ``load_ehr`` strips cohort ids. A repeated id or a risk that is not a
    finite number is refused, naming its ``path:line``."""
    path = Path(path)
    raw, lines = read_rows(path, ("id", "risk"))
    ids = list(map(str.strip, raw["id"]))
    risks = _floats(raw["risk"], len(lines))
    if risks is None or not np.isfinite(risks).all() or len(set(ids)) != len(ids):
        _first_bad_row(path, raw, lines, [("id", _unique()), ("risk", _risk_problem)])
    return ids, risks


def _write_csv(path, header: list[str], rows) -> None:
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(rows)
    write_atomic(path, text.getvalue().encode("utf-8"))


def save_ehr(cohort: Cohort, path) -> None:
    """Write a cohort back out in the canonical CSV layout."""
    features = (map(repr, col) for col in cohort.covariate_matrix().T.tolist())
    _write_csv(path, [*REQUIRED_COLUMNS, *cohort.feature_names],
               zip(cohort.ids, map(repr, cohort.times().tolist()),
                   cohort.events().tolist(), cohort.centers, *features))


def save_predictions(ids, risks, path) -> None:
    """Write per-subject risks as an ``id,risk`` CSV."""
    risks = np.asarray(risks, dtype=np.float64).tolist()
    _write_csv(path, ["id", "risk"], zip(ids, map(repr, risks)))
