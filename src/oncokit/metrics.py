"""Evaluation metrics: overlap scores for masks, concordance for risks.

The concordance index is implemented twice on purpose. ``concordance_detail``
sorts by time and counts with a Fenwick tree in O(n log n), returning the
index with its pair counts; ``c_index_naive`` is the literal quadratic
double sum over ordered pairs

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


class _Fenwick:
    """Prefix-sum tree over ranks, for counting inserted values."""

    def __init__(self, size: int):
        self.size = size
        self.tree = [0] * (size + 1)
        self.total = 0

    def add(self, idx: int, amount: int = 1) -> None:
        i = idx + 1
        while i <= self.size:
            self.tree[i] += amount
            i += i & (-i)
        self.total += amount

    def prefix(self, idx: int) -> int:
        """Count of inserted ranks <= idx."""
        s = 0
        i = idx + 1
        while i > 0:
            s += self.tree[i]
            i -= i & (-i)
        return s


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


def concordance_detail(times, risks, events, orientation: str = "literal",
                       ties: str = "strict") -> ConcordanceResult:
    """Fenwick-tree concordance over comparable pairs.

    Walking times in descending order, subjects already inserted are exactly
    those with strictly larger T (equal times are flushed as a group), so
    each event row j contributes (inserted total) comparable pairs and the
    count of inserted scores above its own as concordant.
    """
    t, r, e = _validate(times, risks, events)
    if orientation not in ("literal", "hazard"):
        raise ContractError(f"unknown orientation {orientation!r}")
    if ties not in ("strict", "harrell"):
        raise ContractError(f"unknown ties mode {ties!r}")
    if orientation == "hazard":
        r = -r
    n = t.shape[0]
    uniq = np.unique(r)
    rank = np.searchsorted(uniq, r)
    order = np.argsort(-t, kind="stable")
    tree = _Fenwick(uniq.shape[0])
    comparable = 0
    concordant = 0.0
    pos = 0
    while pos < n:
        group_end = pos
        while group_end < n and t[order[group_end]] == t[order[pos]]:
            group_end += 1
        group = order[pos:group_end]
        for j in group:
            if e[j] == 1 and tree.total > 0:
                comparable += tree.total
                leq = tree.prefix(int(rank[j]))
                concordant += tree.total - leq
                if ties == "harrell":
                    eq = leq - (tree.prefix(int(rank[j]) - 1) if rank[j] > 0 else 0)
                    concordant += 0.5 * eq
        for j in group:
            tree.add(int(rank[j]))
        pos = group_end
    if comparable == 0:
        raise EvaluationError("no comparable pairs: concordance is undefined")
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
