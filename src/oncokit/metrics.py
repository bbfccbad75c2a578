"""Evaluation metrics: overlap scores for masks, concordance for risks.

The concordance index is implemented twice on purpose. ``concordance_detail``
orders subjects by time and counts concordant pairs level by level with
numpy sorts and ``searchsorted``, returning the index with its pair counts;
``c_index_naive`` is the literal quadratic double sum over ordered pairs

    C = sum 1[T_i > T_j] 1[eta_i > eta_j] delta_j
        -----------------------------------------
        sum 1[T_i > T_j] delta_j

kept as an oracle. Both use strict inequalities by default (ties in eta
score nothing); pass ties="harrell" for half-credit tie handling. As
printed, a larger score paired with a longer survival counts as concordant;
orientation="hazard" negates the scores first, which is the convention for
risk outputs where larger means an earlier expected event.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, EvaluationError


@dataclass
class ConfusionCounts:
    tp: int
    fn: int
    fp: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fn + self.fp + self.tn


@dataclass
class PrecisionRecall:
    precision: float
    recall: float
    precision_defaulted: bool = False   # no positive predictions
    recall_defaulted: bool = False      # no positive truth


def _check_mask(name: str, arr) -> np.ndarray:
    a = np.asarray(arr)
    u = np.unique(a)
    if not np.isin(u, (0, 1)).all():
        raise ContractError(f"{name} must be binary, found values {u[:5]}")
    return a.astype(np.float64)


def dsc(pred, truth) -> float:
    """Dice similarity 2|A.B| / (|A| + |B|); two empty masks score 1.0."""
    a = _check_mask("pred", pred)
    b = _check_mask("truth", truth)
    if a.shape != b.shape:
        raise ContractError(f"dsc shapes differ: {a.shape} vs {b.shape}")
    sa, sb = a.sum(), b.sum()
    if sa == 0 and sb == 0:
        return 1.0
    return float(2.0 * (a * b).sum() / (sa + sb))


def confusion(pred, truth) -> ConfusionCounts:
    a = _check_mask("pred", pred)
    b = _check_mask("truth", truth)
    if a.shape != b.shape:
        raise ContractError(f"confusion shapes differ: {a.shape} vs {b.shape}")
    tp = int(((a == 1) & (b == 1)).sum())
    fn = int(((a == 0) & (b == 1)).sum())
    fp = int(((a == 1) & (b == 0)).sum())
    tn = int(((a == 0) & (b == 0)).sum())
    return ConfusionCounts(tp, fn, fp, tn)


def precision_recall(counts: ConfusionCounts) -> PrecisionRecall:
    """tp/(tp+fp) and tp/(tp+fn); empty denominators default to 1.0, flagged."""
    if counts.tp + counts.fp == 0:
        precision, p_flag = 1.0, True
    else:
        precision, p_flag = counts.tp / (counts.tp + counts.fp), False
    if counts.tp + counts.fn == 0:
        recall, r_flag = 1.0, True
    else:
        recall, r_flag = counts.tp / (counts.tp + counts.fn), False
    return PrecisionRecall(precision, recall, p_flag, r_flag)


@dataclass
class ConcordanceResult:
    value: float
    concordant: float
    comparable_pairs: int
    n: int
    orientation: str
    ties: str


def _validate(times, risks, events):
    t = np.asarray(times, dtype=np.float64)
    r = np.asarray(risks, dtype=np.float64)
    e = np.asarray(events)
    if not (t.shape == r.shape == e.shape) or t.ndim != 1:
        raise ContractError("times, risks and events must be equal-length vectors")
    if t.shape[0] < 2:
        raise ContractError("need at least 2 subjects")
    if (t <= 0).any():
        raise ContractError("times must be positive")
    if not np.isin(np.unique(e), (0, 1)).all():
        raise ContractError("events must be 0 or 1")
    return t, r, e.astype(np.int64)


def _earlier_higher(rank: np.ndarray, query: np.ndarray) -> int:
    """Sum over the positions k in ``query`` of #{q < k : rank[q] > rank[k]}.

    Bottom-up merge levels: at width w each pair of adjacent w-blocks counts,
    for every queried position of its right block, the left block's ranks
    above it, by one sort of the left blocks keyed by (pair, rank) and two
    ``searchsorted`` calls. Every q < k meets k in exactly one level.
    """
    n = rank.shape[0]
    span = int(rank.max()) + 1
    pos = np.arange(n)
    total = 0
    width = 1
    while width < n:
        block = pos // width
        pair = block >> 1
        keys = pair * span + rank
        left = np.sort(keys[(block & 1) == 0])
        right = ((block & 1) == 1) & query
        total += int((np.searchsorted(left, (pair[right] + 1) * span, side="left")
                      - np.searchsorted(left, keys[right], side="right")).sum())
        width *= 2
    return total


def concordance_detail(times, risks, events, orientation: str = "literal",
                       ties: str = "strict") -> ConcordanceResult:
    """Concordance over comparable pairs, counted with sorts in O(n log^2 n).

    Subjects are ordered by time descending and, inside a time tie, by
    risk rank ascending, so for an event subject the subjects before it
    with a higher rank are exactly its concordant partners: a tied earlier
    subject never ranks above it. Harrell ties count equal ranks at strictly
    larger times from one sort keyed by (rank, time rank).
    """
    t, r, e = _validate(times, risks, events)
    if orientation not in ("literal", "hazard"):
        raise ContractError(f"unknown orientation {orientation!r}")
    if ties not in ("strict", "harrell"):
        raise ContractError(f"unknown ties mode {ties!r}")
    if orientation == "hazard":
        r = -r
    n = t.shape[0]
    rank = np.searchsorted(np.unique(r), r)
    event = e == 1
    sorted_t = np.sort(t)
    comparable = int((n - np.searchsorted(sorted_t, t[event], side="right")).sum())
    if comparable == 0:
        raise EvaluationError("no comparable pairs: concordance is undefined")
    order = np.lexsort((rank, -t))
    concordant = float(_earlier_higher(rank[order], event[order]))
    if ties == "harrell":
        t_rank = np.searchsorted(sorted_t, t)             # equal times, equal rank
        keys = rank * n + t_rank
        ordered = np.sort(keys)
        equal = (np.searchsorted(ordered, (rank[event] + 1) * n, side="left")
                 - np.searchsorted(ordered, keys[event], side="right"))
        concordant += 0.5 * int(equal.sum())
    return ConcordanceResult(concordant / comparable, concordant, comparable,
                             n, orientation, ties)


def c_index_naive(times, risks, events, orientation: str = "literal",
                  ties: str = "strict") -> float:
    """Definitional quadratic enumeration; the oracle for ``concordance_detail``."""
    t, r, e = _validate(times, risks, events)
    if orientation == "hazard":
        r = -r
    later = t[:, None] > t[None, :]          # T_i > T_j
    weight = later * e[None, :]              # only event rows j count
    den = weight.sum()
    if den == 0:
        raise EvaluationError("no comparable pairs: concordance is undefined")
    higher = r[:, None] > r[None, :]
    num = float((weight * higher).sum())
    if ties == "harrell":
        num += 0.5 * float((weight * (r[:, None] == r[None, :])).sum())
    return num / float(den)
