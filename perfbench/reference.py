"""The benchmark's own reference computations, in plain numpy.

Nothing here imports oncokit: these are the independent calculations the
workloads check the program's outputs against.
"""

from __future__ import annotations

import csv
import struct
from pathlib import Path

import numpy as np

_MVOL_HEADER = struct.Struct("<4sI3I3fB3x")
MASK_CODE = 2


def concordance(times, risks, events, block: int = 512) -> tuple[int, int]:
    """Strict-tie, hazard-oriented pairwise concordance counts.

    A pair (j, i) is comparable when subject j has an event and
    t_j < t_i; it is concordant when r_j > r_i (the earlier failure has the
    higher risk). Ties in risk earn no credit. Returns (concordant,
    comparable); the pairs are enumerated in blocks of event rows to bound
    memory.
    """
    t = np.asarray(times, dtype=np.float64)
    r = np.asarray(risks, dtype=np.float64)
    rows = np.flatnonzero(np.asarray(events) == 1)
    concordant = comparable = 0
    for start in range(0, rows.size, block):
        j = rows[start:start + block]
        later = t[j, None] < t[None, :]
        comparable += int(later.sum())
        concordant += int((later & (r[j, None] > r[None, :])).sum())
    return concordant, comparable


def breslow_score(beta, x, times, events) -> np.ndarray:
    """Gradient of the Breslow partial log-likelihood at ``beta``.

    Every event at time t is scored against the risk set {j : t_j >= t},
    which covers its whole tie group.
    """
    x = np.asarray(x, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    eta = x @ np.asarray(beta, dtype=np.float64)
    w = np.exp(eta - eta.max())
    order = np.argsort(times, kind="stable")
    ts, ws, xs = times[order], w[order], x[order]
    s0 = np.cumsum(ws[::-1])[::-1]
    s1 = np.cumsum((ws[:, None] * xs)[::-1], axis=0)[::-1]
    first = np.searchsorted(ts, ts, side="left")
    ev = np.asarray(events)[order] == 1
    return (xs[ev] - s1[first[ev]] / s0[first[ev], None]).sum(axis=0)


def mtlr_sequence_scores(theta, bias, x) -> np.ndarray:
    """(n, m+1) scores f(x, k) = sum_{j >= k} (theta_j . x + b_j), f(x, m) = 0."""
    g = np.atleast_2d(np.asarray(x, dtype=np.float64)) @ np.asarray(theta).T + bias
    suffix = np.cumsum(g[:, ::-1], axis=1)[:, ::-1]
    return np.concatenate([suffix, np.zeros((g.shape[0], 1))], axis=1)


def _logsumexp(f: np.ndarray) -> np.ndarray:
    top = f.max(axis=1, keepdims=True)
    return top[:, 0] + np.log(np.exp(f - top).sum(axis=1))


def mtlr_risk(theta, bias, x) -> np.ndarray:
    """Cumulative incidence mass sum_j (1 - S(tau_j)) for each row of x."""
    f = mtlr_sequence_scores(theta, bias, x)
    p = np.exp(f - _logsumexp(f)[:, None])
    alive = np.cumsum(p[:, ::-1], axis=1)[:, ::-1][:, 1:]     # S(tau_1..tau_m)
    return (1.0 - np.clip(alive, 0.0, 1.0)).sum(axis=1)


def _admissible(boundaries, times, events) -> np.ndarray:
    """(n, m+1) mask of label sequences consistent with each outcome."""
    b = np.asarray(boundaries, dtype=np.float64)
    t = np.asarray(times, dtype=np.float64)
    ev = np.asarray(events) == 1
    k = np.arange(b.size + 1)[None, :]
    at_event = np.searchsorted(b, t, side="left")[:, None]
    alive_past = np.searchsorted(b, t, side="right")[:, None]
    return np.where(ev[:, None], k == at_event, k >= alive_past)


def mtlr_objective(theta, bias, smoothing, boundaries, x, times, events) -> float:
    """Negative log-likelihood plus the C/2 * ||theta||^2 smoothness term."""
    f = mtlr_sequence_scores(theta, bias, x)
    masked = np.where(_admissible(boundaries, times, events), f, -np.inf)
    nll = float((_logsumexp(f) - _logsumexp(masked)).sum())
    return nll + 0.5 * smoothing * float(np.sum(np.square(theta)))


def mtlr_start_objective(boundaries, times, events) -> float:
    """Objective at theta = 0, b = 0: every sequence scores 0, so subject i
    contributes log(m+1) - log(#admissible sequences). This is at most
    n * log(m+1), with equality when nobody is censored."""
    counts = _admissible(boundaries, times, events).sum(axis=1)
    m1 = np.asarray(boundaries).size + 1
    return float((np.log(m1) - np.log(counts)).sum())


def dsc(pred, truth) -> float:
    """Dice 2|A.B| / (|A| + |B|) of two binary masks; two empty masks score 1."""
    a = np.asarray(pred) > 0.5
    b = np.asarray(truth) > 0.5
    total = int(a.sum()) + int(b.sum())
    return 1.0 if total == 0 else 2.0 * int((a & b).sum()) / total


def read_mask(path) -> tuple[np.ndarray, int]:
    """Payload and modality code of an MVOL file, parsed from its documented
    layout: magic, u32 version, u32 extents, f32 spacing, u8 modality,
    3 reserved bytes, then float32 little-endian voxels."""
    raw = Path(path).read_bytes()
    magic, _, h, w, d, _, _, _, code = _MVOL_HEADER.unpack_from(raw)
    if magic != b"MVOL":
        raise ValueError(f"{path}: not an MVOL file")
    data = np.frombuffer(raw, dtype="<f4", offset=_MVOL_HEADER.size)
    return data.reshape(h, w, d), code


def is_binary_mask(data: np.ndarray) -> bool:
    return bool(np.isin(data, (0.0, 1.0)).all())


def read_cohort(path):
    """(ids, times, events, x) from a numeric cohort CSV laid out as
    ``id,time,event,center,<features...>``."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    ids = [row[0] for row in rows]
    times = np.array([float(row[1]) for row in rows])
    events = np.array([int(row[2]) for row in rows])
    x = np.array([[float(v) for v in row[4:]] for row in rows])
    return ids, times, events, x


def read_risks(path) -> dict[str, float]:
    """id -> risk from an ``id,risk`` predictions CSV."""
    with open(path, newline="", encoding="utf-8") as fh:
        return {row["id"]: float(row["risk"]) for row in csv.DictReader(fh)}
