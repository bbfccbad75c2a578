r"""Tabular cohort handling: CSV ingestion and one-hot expansion.

The expected layout is UTF-8 CSV (a leading byte-order mark is accepted)
with header ``id,time,event,center`` and any number of feature columns
after it, each name used once. Columns whose values all parse as numbers
stay numeric and must be finite; anything else is treated as categorical
and expanded one-hot (one column per level, level-sorted) in the original
column order.

A ``Cohort`` is stored as columns: ids, times, events, centers, the three
volume paths and one (n, p) covariate matrix, all read-only.

``read_rows`` decodes the file once and hands back its columns, and each
column is converted in one pass. A plain file, the kind ``save_ehr`` and
``oncokit predict`` write, is split on commas as text. It has no ``"``, no
lone ``\r``, no NUL, one kind of line end (``\n`` or ``\r\n``) and no
field longer than ``csv.field_size_limit()``; every row has the header's
width and every row's first field is not blank, so no row is blank. Any
other file is read by ``csv.reader``, which gives a plain file the same
fields. A file that is not UTF-8, or that ``csv.reader`` refuses, is a
``DataError``. Only a file that fails a check on its values is walked row
by row, to name the offending ``path:line``.
"""

from __future__ import annotations

import codecs
import csv
import io
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

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
    arr = np.array([blank] * n if values is None else values, dtype=dtype)
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


Columns = tuple[list[str] | None, int, list[Sequence[str]] | None]


def _split_plain(text: str) -> Columns | None:
    r"""``read_rows`` of a plain file, split as text; None for any other file.
    Each line end becomes a ``"\n"`` token of its own, so the rows are
    strides of one flat list and one count checks every row's width."""
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
    return flat[:width], n, [flat[j::stride] for j in range(stride, stride + width)]


def read_rows(path) -> Columns:
    """The header, the number of rows that are not blank and the text of
    each column of a UTF-8 CSV file (a leading byte-order mark is dropped).
    The header is None for an empty file, and the columns are None when a
    row's width differs from the header's. Nothing is stripped."""
    path = Path(path)
    data = path.read_bytes()
    content = data.removeprefix(codecs.BOM_UTF8)
    try:
        text = content.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text, byte {len(data) - len(content) + exc.start}: "
                        f"{exc.reason}") from None
    plain = _split_plain(text)
    if plain is not None:
        return plain
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise DataError(f"{path}:{reader.line_num}: {exc}") from None
    if not rows:
        return None, 0, None
    header, body = rows[0], [row for row in rows[1:] if any(map(str.strip, row))]
    if not set(map(len, body)) <= {len(header)}:
        return header, len(body), None
    return header, len(body), list(zip(*body)) or [()] * len(header)


def numbered_rows(reader) -> Iterator[tuple[int, list[str]]]:
    """``(line, row)`` for every row of a ``csv.reader`` that is not blank.
    ``line`` is the physical line the row ends on, so a quoted field that
    holds a newline does not shift the lines of the rows after it."""
    for row in reader:
        if any(map(str.strip, row)):
            yield reader.line_num, row


def _first_bad_row(path: Path, header: list[str], numeric=()) -> None:
    """Raise the ``path:line`` error of the first row that fails a check: its
    width, its time, its event, a repeated id or, in the feature columns
    named in ``numeric``, a value that is not finite."""
    col = {name: header.index(name) for name in (*REQUIRED_COLUMNS, *numeric)}
    seen: set[str] = set()
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        next(reader)
        for lineno, row in numbered_rows(reader):
            if len(row) != len(header):
                raise DataError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            time_text = row[col["time"]].strip()
            try:
                time = float(time_text)
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-numeric time {time_text!r}") from None
            if not np.isfinite(time) or time <= 0:
                raise DataError(f"{path}:{lineno}: time must be finite and positive, got {time}")
            event_text = row[col["event"]].strip()
            if event_text not in ("0", "1"):
                raise DataError(f"{path}:{lineno}: event must be 0 or 1, got {event_text!r}")
            sid = row[col["id"]].strip()
            if sid in seen:
                raise DataError(f"{path}:{lineno}: duplicate id {sid!r}")
            seen.add(sid)
            for name in numeric:
                text = row[col[name]].strip()
                if not np.isfinite(float(text)):
                    raise DataError(f"{path}:{lineno}: feature {name!r} must be finite, "
                                    f"got {text!r}")


def load_ehr(path) -> Cohort:
    """Read a cohort CSV."""
    path = Path(path)
    header, n, columns = read_rows(path)
    if header is None:
        raise DataError(f"{path}: empty file")
    header = [h.strip() for h in header]
    for col in REQUIRED_COLUMNS:
        if col not in header:
            raise DataError(f"{path}: missing required column {col!r}")
    for name in header:
        if header.count(name) > 1:
            raise DataError(f"{path}: duplicate column {name!r}")

    if columns is None:
        _first_bad_row(path, header)
    raw = dict(zip(header, columns))
    ids, centers, event_text = (list(map(str.strip, raw[name]))
                                for name in ("id", "center", "event"))
    times = _floats(raw["time"], n)     # float() ignores what strip() removes
    if times is None or not (np.isfinite(times) & (times > 0)).all() \
            or not set(event_text) <= {"0", "1"} or len(set(ids)) != n:
        _first_bad_row(path, header)
    events = np.fromiter(map(int, event_text), np.int64, n)

    feature_names: list[str] = []
    numeric: list[str] = []
    blocks = []
    for name in header:
        if name in REQUIRED_COLUMNS:
            continue
        values = _floats(raw[name], n)
        if values is None:         # categorical: one column per sorted level
            text = list(map(str.strip, raw[name]))
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
        _first_bad_row(path, header, numeric)
    return Cohort(ids, times, events, x, feature_names, centers)


def save_ehr(cohort: Cohort, path) -> None:
    """Write a cohort back out in the canonical CSV layout."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(list(REQUIRED_COLUMNS) + cohort.feature_names)
    features = (map(repr, col) for col in cohort.covariate_matrix().T.tolist())
    writer.writerows(zip(cohort.ids, map(repr, cohort.times().tolist()),
                         cohort.events().tolist(), cohort.centers, *features))
    write_atomic(path, text.getvalue().encode("utf-8"))
