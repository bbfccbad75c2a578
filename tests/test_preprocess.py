"""Intensity normalization and resampling contracts."""

import numpy as np
import pytest

from oncokit.errors import ContractError
from oncokit.preprocess import (
    ct_window_normalize,
    pet_zscore,
    resample_isotropic,
)
from oncokit.volume import Volume


def _vol(data, modality="CT", spacing=(1.0, 1.0, 1.0)):
    return Volume(np.asarray(data, dtype=np.float32), spacing, modality)


class TestCtWindow:
    def test_endpoints(self):
        v = _vol(np.array([[[-1024.0, 0.0, 1024.0]]]))
        out = ct_window_normalize(v)
        assert np.allclose(out.data, [[[-1.0, 0.0, 1.0]]])

    def test_clamps_outliers(self):
        out = ct_window_normalize(_vol([[[2000.0]]]))
        assert out.data[0, 0, 0] == pytest.approx(1.0)

    def test_midpoint(self):
        out = ct_window_normalize(_vol([[[512.0]]]))
        assert out.data[0, 0, 0] == pytest.approx(0.5)

    def test_rejects_non_ct(self):
        with pytest.raises(ContractError):
            ct_window_normalize(_vol([[[0.0]]], modality="PET"))

    def test_windowed_volume_is_windowed_again(self):
        # a volume does not record that it was windowed
        rng = np.random.default_rng(3)
        v = _vol(rng.uniform(-2000, 2000, size=(4, 4, 4)))
        once = ct_window_normalize(v)
        twice = ct_window_normalize(once)
        assert np.allclose(twice.data, once.data / 1024.0, rtol=1e-6, atol=0)


class TestPetZscore:
    def test_constant_volume_is_zero(self):
        out = pet_zscore(_vol(np.full((3, 3, 3), 7.0), modality="PET"))
        assert np.allclose(out.data, 0.0)

    def test_standardizes(self):
        rng = np.random.default_rng(4)
        v = _vol(rng.uniform(0, 10, size=(8, 8, 8)), modality="PET")
        out = pet_zscore(v).data.astype(np.float64)
        assert abs(out.mean()) <= 1e-6
        assert abs(out.std() - 1.0) <= 1e-6

    def test_two_voxel_case(self):
        out = pet_zscore(_vol(np.array([[[0.0, 2.0]]]), modality="PET"))
        assert np.allclose(out.data, [[[-1.0, 1.0]]], atol=1e-6)

    def test_rejects_non_pet(self):
        with pytest.raises(ContractError):
            pet_zscore(_vol([[[1.0]]], modality="CT"))


class TestResample:
    def test_identity_at_target_spacing(self):
        rng = np.random.default_rng(5)
        v = _vol(rng.normal(size=(6, 5, 4)))
        assert resample_isotropic(v) is v

    def test_extent_formula(self):
        v = _vol(np.zeros((10, 10, 10)), spacing=(2.0, 2.0, 2.0))
        out = resample_isotropic(v)
        assert out.shape == (20, 20, 20)
        assert out.spacing == (1.0, 1.0, 1.0)

    def test_linear_ramp_exact(self):
        # trilinear interpolation reproduces affine fields at the sample
        # coordinates exactly (up to rounding)
        h, w, d = 9, 7, 5
        ih, iw, idd = np.meshgrid(np.arange(h), np.arange(w), np.arange(d),
                                  indexing="ij")
        field = 2.0 * ih - 0.5 * iw + 3.0 * idd + 1.0
        v = _vol(field, spacing=(2.0, 2.0, 2.0))
        out = resample_isotropic(v)
        step = 0.5
        sh = np.minimum(np.arange(out.shape[0]) * step, h - 1.0)[:, None, None]
        sw = np.minimum(np.arange(out.shape[1]) * step, w - 1.0)[None, :, None]
        sd = np.minimum(np.arange(out.shape[2]) * step, d - 1.0)[None, None, :]
        expected = 2.0 * sh - 0.5 * sw + 3.0 * sd + 1.0
        assert np.abs(out.data - expected).max() <= 1e-6

    def test_mask_stays_binary(self):
        rng = np.random.default_rng(6)
        m = (rng.random((8, 8, 8)) > 0.5).astype(np.float32)
        v = Volume(m, (1.7, 1.3, 2.0), "MASK")
        out = resample_isotropic(v)
        assert set(np.unique(out.data)) <= {0.0, 1.0}
