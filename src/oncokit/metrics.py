"""Evaluation metrics: overlap scores for masks, concordance for risks.

The concordance index is implemented twice on purpose. ``concordance_detail``
orders subjects by time and counts concordant pairs level by level with
numpy sorts and ``searchsorted``, returning the index with its pair counts;
``c_index_naive`` is the literal quadratic double sum over ordered pairs

    C = sum 1[T_i > T_j] 1[eta_i > eta_j] delta_j
        -----------------------------------------
        sum 1[T_i > T_j] delta_j

kept as an oracle. As printed, a larger score paired with a longer survival
counts as concordant. ``concordance_detail`` takes hazard-oriented risks
(larger means an earlier expected event), so it equals ``c_index_naive``
of the negated risks. Both use strict inequalities: ties in eta score
nothing.
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
    def dice(self) -> float:
        """2|A.B| / (|A| + |B|); two empty masks score 1.0."""
        sizes = 2 * self.tp + self.fn + self.fp
        return 1.0 if sizes == 0 else 2.0 * self.tp / sizes

    @property
    def precision(self) -> float:
        """tp/(tp+fp); an empty prediction gives 1.0."""
        predicted = self.tp + self.fp
        return self.tp / predicted if predicted else 1.0

    @property
    def recall(self) -> float:
        """tp/(tp+fn); an empty truth gives 1.0."""
        actual = self.tp + self.fn
        return self.tp / actual if actual else 1.0


def _check_mask(name: str, arr) -> np.ndarray:
    """The mask as booleans; every value must be 0 or 1."""
    a = np.asarray(arr)
    if not ((a == 0) | (a == 1)).all():
        raise ContractError(f"{name} must be binary, found values {np.unique(a)[:5]}")
    return a == 1


def dsc(pred, truth) -> float:
    """Dice similarity 2|A.B| / (|A| + |B|); two empty masks score 1.0."""
    return confusion(pred, truth).dice


def confusion(pred, truth) -> ConfusionCounts:
    a = _check_mask("pred", pred)
    b = _check_mask("truth", truth)
    if a.shape != b.shape:
        raise ContractError(f"mask shapes differ: {a.shape} vs {b.shape}")
    tp = int(np.count_nonzero(a & b))
    n_pred, n_truth = int(np.count_nonzero(a)), int(np.count_nonzero(b))
    return ConfusionCounts(tp, n_truth - tp, n_pred - tp, a.size - n_pred - n_truth + tp)


@dataclass
class ConcordanceResult:
    value: float
    concordant: float
    comparable_pairs: int
    n: int


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


def concordance_detail(times, risks, events) -> ConcordanceResult:
    """Concordance of hazard-oriented risks over comparable pairs, counted
    with sorts in O(n log^2 n).

    The ranks are those of the negated risks. Subjects are ordered by time
    descending and, inside a time tie, by rank ascending, so for an event
    subject the subjects before it with a higher rank are exactly its
    concordant partners: a tied earlier subject never ranks above it.
    """
    t, r, e = _validate(times, risks, events)
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
    return ConcordanceResult(concordant / comparable, concordant, comparable, n)


def c_index_naive(times, risks, events) -> float:
    """The printed double sum, enumerated; with the risks negated, the
    oracle for ``concordance_detail``."""
    t, r, e = _validate(times, risks, events)
    later = t[:, None] > t[None, :]          # T_i > T_j
    weight = later * e[None, :]              # only event rows j count
    den = weight.sum()
    if den == 0:
        raise EvaluationError("no comparable pairs: concordance is undefined")
    higher = r[:, None] > r[None, :]
    return float((weight * higher).sum()) / float(den)
