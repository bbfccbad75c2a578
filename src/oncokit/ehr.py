"""Tabular cohort handling: CSV ingestion, one-hot expansion, feature stats.

The expected layout is UTF-8 CSV with header ``id,time,event,center`` and
any number of feature columns after it. Columns whose values all parse as
numbers stay numeric; anything else is treated as categorical and expanded
one-hot (one column per level, level-sorted) in the original column order.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, write_atomic

REQUIRED_COLUMNS = ("id", "time", "event", "center")


@dataclass
class Subject:
    id: str
    covariates: np.ndarray
    time: float
    event: int
    center: str = ""
    ct_path: str | None = None
    pet_path: str | None = None
    mask_path: str | None = None


@dataclass
class Cohort:
    subjects: list[Subject]
    feature_names: list[str]

    def __post_init__(self):
        ids = [s.id for s in self.subjects]
        if len(set(ids)) != len(ids):
            raise DataError("cohort ids must be unique")
        width = len(self.feature_names)
        for s in self.subjects:
            if s.covariates.shape != (width,):
                raise DataError(
                    f"subject {s.id}: covariate width {s.covariates.shape} != {width}")

    def __len__(self) -> int:
        return len(self.subjects)

    def covariate_matrix(self) -> np.ndarray:
        return np.stack([s.covariates for s in self.subjects]).astype(np.float64)

    def times(self) -> np.ndarray:
        return np.array([s.time for s in self.subjects], dtype=np.float64)

    def events(self) -> np.ndarray:
        return np.array([s.event for s in self.subjects], dtype=np.int64)

    def subset(self, indices) -> "Cohort":
        return Cohort([self.subjects[i] for i in indices], list(self.feature_names))

    def select_features(self, indices) -> "Cohort":
        """Project onto a subset of covariate columns (by index)."""
        indices = list(indices)
        names = [self.feature_names[i] for i in indices]
        subs = [Subject(s.id, s.covariates[indices], s.time, s.event, s.center,
                        s.ct_path, s.pet_path, s.mask_path) for s in self.subjects]
        return Cohort(subs, names)


def _is_number(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


def load_ehr(path, normalize: bool = False,
             stats: dict[str, dict[str, float]] | None = None) -> Cohort:
    """Read a cohort CSV; optionally z-score numeric features.

    When ``normalize`` is set and no stats are given, means and stds are
    fit from this file (retrievable via ``fit_feature_stats``); passing
    previously saved stats reuses them, which is how prediction-time inputs
    are kept on the training scale.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise DataError(f"{path}: empty file")
    header = [h.strip() for h in rows[0]]
    for col in REQUIRED_COLUMNS:
        if col not in header:
            raise DataError(f"{path}: missing required column {col!r}")
    col_idx = {name: header.index(name) for name in REQUIRED_COLUMNS}
    feature_cols = [(i, name) for i, name in enumerate(header)
                    if name not in REQUIRED_COLUMNS]

    records = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(header):
            raise DataError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
        sid = row[col_idx["id"]].strip()
        time_text = row[col_idx["time"]].strip()
        if not _is_number(time_text):
            raise DataError(f"{path}:{lineno}: non-numeric time {time_text!r}")
        time = float(time_text)
        if not np.isfinite(time) or time <= 0:
            raise DataError(f"{path}:{lineno}: time must be finite and positive, got {time}")
        event_text = row[col_idx["event"]].strip()
        if event_text not in ("0", "1"):
            raise DataError(f"{path}:{lineno}: event must be 0 or 1, got {event_text!r}")
        center = row[col_idx["center"]].strip()
        feats = {name: row[i].strip() for i, name in feature_cols}
        records.append((sid, time, int(event_text), center, feats))

    # numeric unless any value fails to parse
    numeric_cols = {name: all(_is_number(rec[4][name]) for rec in records)
                    for _, name in feature_cols}
    levels = {name: sorted({rec[4][name] for rec in records})
              for _, name in feature_cols if not numeric_cols[name]}

    feature_names: list[str] = []
    for _, name in feature_cols:
        if numeric_cols[name]:
            feature_names.append(name)
        else:
            feature_names.extend(f"{name}={lv}" for lv in levels[name])

    subjects = []
    for sid, time, event, center, feats in records:
        vec: list[float] = []
        for _, name in feature_cols:
            if numeric_cols[name]:
                vec.append(float(feats[name]))
            else:
                vec.extend(1.0 if feats[name] == lv else 0.0 for lv in levels[name])
        subjects.append(Subject(sid, np.array(vec, dtype=np.float64), time, event, center))
    cohort = Cohort(subjects, feature_names)

    if normalize or stats is not None:
        if stats is None:
            stats = fit_feature_stats(cohort)
        apply_feature_stats(cohort, stats)
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


def apply_feature_stats(cohort: Cohort, stats: dict[str, dict[str, float]]) -> None:
    cols = []
    for j, name in enumerate(cohort.feature_names):
        entry = stats.get(name)
        if entry is not None:
            cols.append((j, entry["mean"], entry["std"] if entry["std"] > 0 else 1.0))
    for s in cohort.subjects:
        vec = s.covariates.copy()
        for j, mean, scale in cols:
            vec[j] = (vec[j] - mean) / scale
        s.covariates = vec


def save_feature_stats(stats: dict, path) -> None:
    write_atomic(path, json.dumps(stats, indent=2, sort_keys=True).encode())


def load_feature_stats(path) -> dict:
    return json.loads(Path(path).read_text())


def save_ehr(cohort: Cohort, path) -> None:
    """Write a cohort back out in the canonical CSV layout."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(list(REQUIRED_COLUMNS) + cohort.feature_names)
    for s in cohort.subjects:
        writer.writerow([s.id, repr(float(s.time)), s.event, s.center]
                        + [repr(float(v)) for v in s.covariates])
    write_atomic(path, text.getvalue().encode("utf-8"))
