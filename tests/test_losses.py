"""Dice, focal and combined loss values plus gradient checks."""

import math

import numpy as np
import pytest

from gradcheck import check_op

from oncokit.autodiff import Tensor, sigmoid
from oncokit.errors import ShapeError
from oncokit import losses
from oncokit.losses import combined_loss, dice_loss, focal_loss

RNG = np.random.default_rng(99)


class TestDice:
    def test_perfect_overlap_near_zero(self):
        y = (RNG.random(64) > 0.5).astype(float)
        assert float(dice_loss(Tensor(y), Tensor(y)).data) <= 1e-5

    def test_disjoint_near_one(self):
        y = np.zeros(16)
        y[:8] = 1.0
        loss = float(dice_loss(Tensor(1.0 - y), Tensor(y)).data)
        assert loss >= 1.0 - 1e-4

    def test_uniform_half_case(self):
        # p = 0.5 everywhere, y has 2 of 4 ones: 1 - (2*1)/(1+2) = 1/3
        p = np.full(4, 0.5)
        y = np.array([1.0, 1.0, 0.0, 0.0])
        loss = float(dice_loss(Tensor(p), Tensor(y)).data)
        assert loss == pytest.approx(1.0 / 3.0, abs=1e-4)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            dice_loss(Tensor(np.zeros(3)), Tensor(np.zeros(4)))

    def test_gradient(self):
        p = RNG.uniform(0.05, 0.95, size=(3, 4))
        y = (RNG.random((3, 4)) > 0.5).astype(float)
        err = check_op(lambda a: dice_loss(a, Tensor(y)), [p])
        assert err <= 1e-6


class TestFocal:
    def test_confident_correct_vanishes(self):
        p = np.array([1.0 - 1e-6])
        y = np.array([1.0])
        assert float(focal_loss(Tensor(p), Tensor(y)).data) <= 1e-9

    def test_half_probability_value(self):
        # y=1, p=0.5, alpha=1, gamma=2: 0.25 * ln 2
        loss = float(focal_loss(Tensor([0.5]), Tensor([1.0])).data)
        assert loss == pytest.approx(0.25 * math.log(2.0), rel=1e-12)

    def test_mean_reduction(self):
        p = Tensor([0.5, 0.5])
        y = Tensor([1.0, 1.0])
        single = float(focal_loss(Tensor([0.5]), Tensor([1.0])).data)
        assert float(focal_loss(p, y).data) == pytest.approx(single)

    def test_gamma_zero_is_cross_entropy(self, monkeypatch):
        monkeypatch.setattr(losses, "_FOCAL_GAMMA", 0.0)
        p = RNG.uniform(0.1, 0.9, size=8)
        y = (RNG.random(8) > 0.5).astype(float)
        loss = float(focal_loss(Tensor(p), Tensor(y)).data)
        ce = -np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))
        assert loss == pytest.approx(ce, rel=1e-10)

    def test_gradient(self):
        p = RNG.uniform(0.05, 0.95, size=(10,))
        y = (RNG.random(10) > 0.4).astype(float)
        err = check_op(lambda a: focal_loss(a, Tensor(y)), [p])
        assert err <= 1e-6


class TestCombined:
    def test_perfect_prediction_near_zero(self):
        y = (RNG.random(32) > 0.5).astype(float)
        p = np.clip(y, 1e-6, 1 - 1e-6)
        assert float(combined_loss(Tensor(p), Tensor(y)).data) <= 1e-4

    def test_is_exact_sum(self):
        p = RNG.uniform(0.1, 0.9, size=20)
        y = (RNG.random(20) > 0.5).astype(float)
        total = float(combined_loss(Tensor(p), Tensor(y)).data)
        parts = float(dice_loss(Tensor(p), Tensor(y)).data) + \
            float(focal_loss(Tensor(p), Tensor(y)).data)
        assert total == pytest.approx(parts, rel=1e-14)

    def test_gradient_through_sigmoid(self):
        logits = RNG.normal(size=(2, 3, 3))
        y = (RNG.random((2, 3, 3)) > 0.5).astype(float)
        err = check_op(lambda a: combined_loss(sigmoid(a), Tensor(y)), [logits])
        assert err <= 1e-5

    def test_nonnegative(self):
        for _ in range(50):
            p = RNG.uniform(0.01, 0.99, size=12)
            y = (RNG.random(12) > 0.5).astype(float)
            assert float(combined_loss(Tensor(p), Tensor(y)).data) >= 0.0
