"""Overlap metrics and both concordance implementations."""

import numpy as np
import pytest

from oncokit.errors import ContractError, EvaluationError
from oncokit.metrics import (
    c_index_naive,
    concordance_detail,
    confusion,
    dsc,
    precision_recall,
)

RNG = np.random.default_rng(555)


def _concordance(times, risks, events, **kw):
    return concordance_detail(times, risks, events, **kw).value


class TestDsc:
    def test_identical_masks(self):
        m = (RNG.random(50) > 0.5).astype(float)
        m[0] = 1.0
        assert dsc(m, m) == 1.0

    def test_disjoint(self):
        a = np.array([1.0, 1.0, 0.0, 0.0])
        b = np.array([0.0, 0.0, 1.0, 1.0])
        assert dsc(a, b) == 0.0

    def test_half_overlap(self):
        a = np.array([1.0, 1.0, 0.0, 0.0])
        b = np.array([1.0, 0.0, 1.0, 0.0])
        assert dsc(a, b) == 0.5

    def test_both_empty_is_one(self):
        assert dsc(np.zeros(5), np.zeros(5)) == 1.0

    def test_symmetric_and_bounded(self):
        for _ in range(100):
            a = (RNG.random(30) > 0.5).astype(float)
            b = (RNG.random(30) > 0.5).astype(float)
            d1, d2 = dsc(a, b), dsc(b, a)
            assert d1 == d2
            assert 0.0 <= d1 <= 1.0

    def test_non_binary_rejected(self):
        with pytest.raises(ContractError):
            dsc(np.array([0.5, 1.0]), np.array([1.0, 1.0]))


class TestConfusion:
    def test_counts_partition(self):
        a = (RNG.random(40) > 0.5).astype(float)
        b = (RNG.random(40) > 0.5).astype(float)
        c = confusion(a, b)
        assert c.total == 40

    def test_perfect_prediction(self):
        y = np.array([1.0, 0.0, 1.0])
        pr = precision_recall(confusion(y, y))
        assert (pr.precision, pr.recall) == (1.0, 1.0)
        assert not pr.precision_defaulted

    def test_all_negative_prediction_flagged(self):
        truth = np.array([1.0, 0.0, 1.0])
        pr = precision_recall(confusion(np.zeros(3), truth))
        assert pr.precision == 1.0 and pr.precision_defaulted
        assert pr.recall == 0.0 and not pr.recall_defaulted

    def test_hand_counts(self):
        # tp=3, fp=1, fn=2
        pred = np.array([1, 1, 1, 1, 0, 0, 0.0])
        truth = np.array([1, 1, 1, 0, 1, 1, 0.0])
        pr = precision_recall(confusion(pred, truth))
        assert pr.precision == pytest.approx(0.75)
        assert pr.recall == pytest.approx(0.6)


class TestCIndex:
    def test_two_subject_hand_case(self):
        # score rises with survival: fully concordant under the literal form
        assert _concordance([1, 2], [0.5, 0.9], [1, 1]) == 1.0

    def test_three_subject_censoring_case(self):
        # comparable pairs are (2,1) and (3,1); (3,2) drops since delta_2 = 0
        assert _concordance([1, 2, 3], [0.9, 0.5, 0.1], [1, 0, 1]) == 0.0

    def test_constant_scores_zero_under_strict(self):
        assert _concordance([1, 2, 3], [0.5, 0.5, 0.5], [1, 1, 1]) == 0.0

    def test_constant_scores_half_under_harrell(self):
        assert _concordance([1, 2, 3], [0.5, 0.5, 0.5], [1, 1, 1], ties="harrell") == 0.5

    def test_hazard_orientation_flips(self):
        t = [1, 2, 3, 4.0]
        r = [4.0, 3.0, 2.0, 1.0]   # higher risk, earlier event
        assert _concordance(t, r, [1, 1, 1, 1]) == 0.0
        assert _concordance(t, r, [1, 1, 1, 1], orientation="hazard") == 1.0

    def test_complement_identity_without_ties(self):
        for _ in range(50):
            n = int(RNG.integers(5, 40))
            t = RNG.uniform(1, 100, size=n)
            r = RNG.normal(size=n)
            e = (RNG.random(n) > 0.3).astype(int)
            if e.sum() == 0 or (np.argsort(t) is None):
                continue
            try:
                a = _concordance(t, r, e)
                b = _concordance(t, -r, e)
            except EvaluationError:
                continue
            assert a + b == pytest.approx(1.0)

    def test_fast_equals_naive_exactly(self):
        for trial in range(300):
            n = int(RNG.integers(3, 60))
            t = np.round(RNG.uniform(1, 20, size=n), 1)   # force time ties
            r = np.round(RNG.normal(size=n), 2)           # force score ties
            e = (RNG.random(n) > 0.4).astype(int)
            try:
                naive = c_index_naive(t, r, e)
            except EvaluationError:
                with pytest.raises(EvaluationError):
                    _concordance(t, r, e)
                continue
            assert _concordance(t, r, e) == naive
            assert _concordance(t, r, e, ties="harrell") == c_index_naive(t, r, e, ties="harrell")

    def test_random_scores_near_half(self):
        n = 10_000
        t = RNG.uniform(1, 100, size=n)
        r = RNG.normal(size=n)
        e = (RNG.random(n) > 0.3).astype(int)
        assert abs(_concordance(t, r, e) - 0.5) <= 0.02

    def test_detail_counts(self):
        res = concordance_detail([1, 2, 3], [0.1, 0.5, 0.9], [1, 1, 1])
        assert res.comparable_pairs == 3
        assert res.value == 1.0
        assert res.orientation == "literal"

    def test_no_comparable_pairs_raises(self):
        with pytest.raises(EvaluationError):
            _concordance([5, 5], [0.1, 0.2], [1, 1])
        with pytest.raises(EvaluationError):
            _concordance([1, 2], [0.1, 0.2], [0, 0])

    def test_input_validation(self):
        with pytest.raises(ContractError):
            _concordance([1], [0.5], [1])
        with pytest.raises(ContractError):
            _concordance([1, -2], [0.5, 0.6], [1, 1])
        with pytest.raises(ContractError):
            _concordance([1, 2], [0.5, 0.6], [1, 2])
