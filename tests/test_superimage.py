"""Super-image tiling: grid choice, index mapping, exact invertibility."""

import numpy as np
import pytest

from oncokit.errors import ContractError
from oncokit.superimage import (
    SuperImageLayout,
    choose_grid,
    from_super_image,
    to_super_image,
)


def _brute_force_best_pair(n):
    best = None
    for a in range(1, n + 1):
        if n % a == 0:
            b = n // a
            if a <= b and (best is None or b - a < best[1] - best[0]):
                best = (a, b)
    return best


class TestChooseGrid:
    def test_paper_cases(self):
        assert choose_grid(64) == (8, 8)
        assert choose_grid(48) == (6, 8)
        assert choose_grid(88) == (8, 11)

    def test_trivial_depths(self):
        assert choose_grid(1) == (1, 1)
        assert choose_grid(2) == (1, 2)
        assert choose_grid(3) == (1, 3)

    def test_primes_pad_to_square(self):
        assert choose_grid(5) == (3, 3)
        assert choose_grid(7) == (3, 3)
        assert choose_grid(11) == (4, 4)
        assert choose_grid(13) == (4, 4)

    def test_matches_brute_force_enumeration(self):
        for d in range(1, 200):
            sh, sw = choose_grid(d)
            assert sh * sw >= d
            assert sh <= sw
            if sh * sw == d:
                assert (sh, sw) == _brute_force_best_pair(d)
            else:
                # padded: product is the smallest perfect square >= d
                side = int(np.ceil(np.sqrt(d)))
                assert sh == sw == side


class TestLayout:
    def test_paper_worked_example(self):
        layout = SuperImageLayout.for_volume((80, 80, 48, 2))
        assert (layout.sh, layout.sw) == (6, 8)
        assert layout.image_shape == (480, 640, 2)

    def test_explicit_lopsided_grid(self):
        layout = SuperImageLayout.for_volume((80, 80, 48, 2), grid=(24, 2))
        assert layout.image_shape == (80 * 24, 80 * 2, 2)

    def test_grid_too_small_rejected(self):
        with pytest.raises(ContractError):
            SuperImageLayout.for_volume((4, 4, 10, 1), grid=(3, 3))

    def test_json_roundtrip(self):
        layout = SuperImageLayout.for_volume((8, 9, 10, 2))
        assert SuperImageLayout.from_json(layout.to_json()) == layout


class TestMapping:
    def test_single_slice(self):
        v = np.random.default_rng(0).normal(size=(5, 6, 1, 1)).astype(np.float32)
        layout = SuperImageLayout.for_volume(v.shape, grid=(1, 1))
        s = to_super_image(v, layout)
        assert np.array_equal(s[:, :, 0], v[:, :, 0, 0])

    def test_index_formula_exhaustive(self):
        h, w, d = 4, 4, 6
        v = np.arange(h * w * d, dtype=np.float32).reshape(h, w, d, 1)
        layout = SuperImageLayout.for_volume(v.shape, grid=(2, 3))
        s = to_super_image(v, layout)
        for hh in range(h):
            for ww in range(w):
                for dd in range(d):
                    r, c = divmod(dd, layout.sw)
                    assert s[hh + h * r, ww + w * c, 0] == v[hh, ww, dd, 0]

    def test_checkerboard_hand_case(self):
        v = np.zeros((2, 2, 2, 1), dtype=np.float32)
        v[0, 0, 0, 0] = 1.0
        v[1, 1, 1, 0] = 1.0
        layout = SuperImageLayout.for_volume(v.shape, grid=(1, 2))
        s = to_super_image(v, layout)
        expected = np.zeros((2, 4))
        expected[0, 0] = 1.0    # slice 0 in cell (0, 0)
        expected[1, 3] = 1.0    # slice 1 in cell (0, 1)
        assert np.array_equal(s[:, :, 0], expected)
        assert np.array_equal(from_super_image(s, layout), v)

    def test_padding_slices_zero(self):
        v = np.ones((3, 3, 5, 1), dtype=np.float32)
        layout = SuperImageLayout.for_volume(v.shape)   # pads 5 -> 9
        s = to_super_image(v, layout)
        assert s.sum() == v.sum()   # mass conservation, pads contribute zero

    def test_shape_mismatch_rejected(self):
        layout = SuperImageLayout.for_volume((4, 4, 4, 1))
        with pytest.raises(ContractError):
            to_super_image(np.zeros((4, 4, 5, 1), dtype=np.float32), layout)
        with pytest.raises(ContractError):
            from_super_image(np.zeros((9, 9, 1), dtype=np.float32), layout)


class TestRoundTrip:
    def test_random_shapes_bit_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            h = int(rng.integers(1, 12))
            w = int(rng.integers(1, 12))
            d = int(rng.integers(1, 24))
            c = int(rng.integers(1, 3))
            v = rng.normal(size=(h, w, d, c)).astype(np.float32)
            layout = SuperImageLayout.for_volume(v.shape)
            back = from_super_image(to_super_image(v, layout), layout)
            assert back.tobytes() == v.tobytes()

    def test_all_zero_si_gives_zero_volume(self):
        layout = SuperImageLayout.for_volume((3, 3, 4, 2))
        v = from_super_image(np.zeros(layout.image_shape, dtype=np.float32), layout)
        assert v.shape == (3, 3, 4, 2)
        assert v.sum() == 0.0

