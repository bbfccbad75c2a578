"""Hand-worked cases for the benchmark's reference computations.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import math
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import reference  # noqa: E402


def test_concordance_counts_only_earlier_events():
    # comparable: (0,1), (0,2), (1,2); subject 2 is censored, so never first
    times, events = [1.0, 2.0, 3.0], [1, 1, 0]
    assert reference.concordance(times, [3.0, 2.0, 1.0], events) == (3, 3)
    assert reference.concordance(times, [1.0, 2.0, 3.0], events) == (0, 3)


def test_concordance_strict_ties_and_tied_times():
    # equal risks earn nothing; equal times are not comparable
    assert reference.concordance([1.0, 2.0], [5.0, 5.0], [1, 1]) == (0, 1)
    assert reference.concordance([2.0, 2.0], [1.0, 9.0], [1, 1]) == (0, 0)


def test_concordance_blocks_agree_with_one_block():
    rng = np.random.default_rng(0)
    t = rng.exponential(size=60)
    r = rng.normal(size=60)
    e = rng.integers(0, 2, size=60)
    assert reference.concordance(t, r, e, block=7) == reference.concordance(t, r, e)


def test_breslow_score_two_subjects():
    x = np.array([[1.0], [0.0]])
    # beta = 0: first event sees mean x = 1/2, the second sees only itself
    score = reference.breslow_score([0.0], x, [1.0, 2.0], [1, 1])
    assert score == pytest.approx([0.5])
    # beta = log 2 weights subject 0 twice: 1 - 2/3
    score = reference.breslow_score([math.log(2.0)], x, [1.0, 2.0], [1, 1])
    assert score == pytest.approx([1.0 / 3.0])


def test_breslow_score_tie_group_shares_risk_set():
    x = np.array([[1.0], [0.0]])
    # both events at t = 1 see the full set: (1 - 1/2) + (0 - 1/2) = 0
    assert reference.breslow_score([0.0], x, [1.0, 1.0], [1, 1]) == pytest.approx([0.0])
    # a censored subject adds to the risk set but scores nothing itself
    score = reference.breslow_score([0.0], x, [1.0, 1.0], [0, 1])
    assert score == pytest.approx([-0.5])


def test_mtlr_risk_single_boundary():
    theta, x = np.zeros((1, 1)), np.array([0.0])
    # scores (0, 0): half the mass dies in interval 0, S(tau_1) = 1/2
    assert reference.mtlr_risk(theta, np.array([0.0]), x) == pytest.approx([0.5])
    # scores (log 3, 0): probabilities (3/4, 1/4), risk 1 - 1/4
    assert reference.mtlr_risk(theta, np.array([math.log(3.0)]), x) == pytest.approx([0.75])


def test_mtlr_risk_two_boundaries_uses_theta():
    theta = np.array([[1.0], [0.0]])
    bias = np.array([0.0, math.log(2.0)])
    # g = (x, log 2) at x = log 3; f = (log 6, log 2, 0); p = (6, 2, 1) / 9
    # S(tau_1) = 3/9, S(tau_2) = 1/9, risk = 6/9 + 8/9
    risk = reference.mtlr_risk(theta, bias, np.array([math.log(3.0)]))
    assert risk == pytest.approx([14.0 / 9.0])


def test_mtlr_objective_at_zero_equals_start_value():
    boundaries = np.array([1.0, 2.0, 3.0])
    times = np.array([0.5, 2.5, 1.5, 3.0])
    events = np.array([1, 0, 1, 0])
    # events pin one of 4 sequences: log 4 each; censored at 2.5 keeps 2,
    # censored at 3.0 keeps 1: log 4 - log 2 and log 4 - log 1
    expected = 2 * math.log(4.0) + math.log(2.0) + math.log(4.0)
    start = reference.mtlr_start_objective(boundaries, times, events)
    assert start == pytest.approx(expected)
    assert start < 4 * math.log(4.0)
    zero = reference.mtlr_objective(np.zeros((3, 2)), np.zeros(3), 1.0, boundaries,
                                    np.ones((4, 2)), times, events)
    assert zero == pytest.approx(expected)


def test_mtlr_objective_adds_smoothing():
    boundaries = np.array([1.0])
    theta = np.array([[2.0]])
    # one event at 0.5 must take sequence 0: f = (2 + 0, 0) at x = 1
    value = reference.mtlr_objective(theta, np.zeros(1), 0.5, boundaries,
                                     np.array([[1.0]]), [0.5], [1])
    nll = math.log(math.exp(2.0) + 1.0) - 2.0
    assert value == pytest.approx(nll + 0.25 * 4.0)


def test_dsc_hand_cases():
    assert reference.dsc([1, 1, 0, 0], [1, 0, 1, 0]) == 0.5
    assert reference.dsc([0, 0], [0, 0]) == 1.0
    assert reference.dsc([1, 0], [0, 1]) == 0.0
    assert reference.dsc([1, 1, 1], [1, 1, 1]) == 1.0


def test_read_mask_parses_documented_layout(tmp_path):
    data = np.zeros((2, 3, 4), dtype="<f4")
    data[1, 2, 3] = 1.0
    header = b"MVOL" + struct.pack("<I3I3fB3x", 1, 2, 3, 4, 1.0, 1.0, 1.0, 2)
    path = tmp_path / "m.mvol"
    path.write_bytes(header + data.tobytes())
    read, code = reference.read_mask(path)
    assert code == 2 and read.shape == (2, 3, 4)
    assert np.array_equal(read, data)
    assert reference.is_binary_mask(read)
    assert not reference.is_binary_mask(read * 0.5)
