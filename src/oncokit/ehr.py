"""Tabular cohort handling: CSV ingestion, one-hot expansion, feature stats.

The expected layout is UTF-8 CSV (a leading byte-order mark is accepted)
with header ``id,time,event,center`` and any number of feature columns
after it, each name used once. Columns whose values all parse as numbers
stay numeric and must be finite; anything else is treated as categorical
and expanded one-hot (one column per level, level-sorted) in the original
column order.

A ``Cohort`` is stored as columns: ids, times, events, centers, the three
volume paths and one (n, p) covariate matrix, all read-only. The file is
read once and each column converted in one pass; only a file that fails a
check is walked row by row, to name the offending ``path:line``.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import NamedTuple

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


def _first_bad_row(path: Path, rows: list, header: list[str], numeric=()) -> None:
    """Raise the ``path:line`` error of the first row that fails a check: its
    width, its time, its event, a repeated id or, in the feature columns
    named in ``numeric``, a value that is not finite."""
    col = {name: header.index(name) for name in (*REQUIRED_COLUMNS, *numeric)}
    seen: set[str] = set()
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
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


def load_ehr(path, normalize: bool = False,
             stats: dict[str, dict[str, float]] | None = None) -> Cohort:
    """Read a cohort CSV; optionally z-score numeric features.

    When ``normalize`` is set and no stats are given, means and stds are
    fit from this file (retrievable via ``fit_feature_stats``); passing
    previously saved stats reuses them, which is how prediction-time inputs
    are kept on the training scale.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise DataError(f"{path}: empty file")
    header = [h.strip() for h in rows[0]]
    for col in REQUIRED_COLUMNS:
        if col not in header:
            raise DataError(f"{path}: missing required column {col!r}")
    for name in header:
        if header.count(name) > 1:
            raise DataError(f"{path}: duplicate column {name!r}")

    body = [row for row in rows[1:] if any(map(str.strip, row))]
    n = len(body)
    if not set(map(len, body)) <= {len(header)}:
        _first_bad_row(path, rows, header)
    raw = dict(zip(header, zip(*body))) if n else dict.fromkeys(header, ())
    ids, centers, event_text = (list(map(str.strip, raw[name]))
                                for name in ("id", "center", "event"))
    times = _floats(raw["time"], n)     # float() ignores what strip() removes
    if times is None or not (np.isfinite(times) & (times > 0)).all() \
            or not set(event_text) <= {"0", "1"} or len(set(ids)) != n:
        _first_bad_row(path, rows, header)
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
        _first_bad_row(path, rows, header, numeric)
    cohort = Cohort(ids, times, events, x, feature_names, centers)

    if normalize or stats is not None:
        if stats is None:
            stats = fit_feature_stats(cohort)
        cohort = apply_feature_stats(cohort, stats)
    return cohort


def fit_feature_stats(cohort: Cohort) -> dict[str, dict[str, float]]:
    """Mean/std per numeric feature; one-hot columns are left alone."""
    x = cohort.covariate_matrix()
    stats = {}
    for j, name in enumerate(cohort.feature_names):
        if "=" in name:
            continue
        stats[name] = {"mean": float(x[:, j].mean()), "std": float(x[:, j].std())}
    return stats


def apply_feature_stats(cohort: Cohort, stats: dict[str, dict[str, float]]) -> Cohort:
    """The cohort with each feature named in ``stats`` z-scored."""
    cols = [j for j, name in enumerate(cohort.feature_names) if name in stats]
    entries = [stats[cohort.feature_names[j]] for j in cols]
    mean = np.array([e["mean"] for e in entries], dtype=np.float64)
    scale = np.array([e["std"] if e["std"] > 0 else 1.0 for e in entries], dtype=np.float64)
    x = cohort.covariate_matrix().copy()
    x[:, cols] = (x[:, cols] - mean) / scale
    return cohort.replace(covariates=x)


def save_feature_stats(stats: dict, path) -> None:
    write_atomic(path, json.dumps(stats, indent=2, sort_keys=True).encode())


def load_feature_stats(path) -> dict:
    return json.loads(Path(path).read_text())


def save_ehr(cohort: Cohort, path) -> None:
    """Write a cohort back out in the canonical CSV layout."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(list(REQUIRED_COLUMNS) + cohort.feature_names)
    features = (map(repr, col) for col in cohort.covariate_matrix().T.tolist())
    writer.writerows(zip(cohort.ids, map(repr, cohort.times().tolist()),
                         cohort.events().tolist(), cohort.centers, *features))
    write_atomic(path, text.getvalue().encode("utf-8"))
