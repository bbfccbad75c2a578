"""Intensity normalization and isotropic resampling.

CT intensities are clamped to (-1024, 1024) and scaled into (-1, 1); PET
intensities are z-scored over the whole volume. Resampling is trilinear for
images and nearest-neighbor for masks so binarity survives. No step marks
the volume it returns, so none can tell whether it already ran; ``oncokit
prep`` refuses a CT whose values all lie in [-1, 1], as windowing leaves
them, rather than window it a second time.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, ShapeError
from .volume import Volume

CT_WINDOW = 1024.0


def ct_window_normalize(volume: Volume) -> Volume:
    """Clamp CT values to +-1024 HU and scale into [-1, 1].

    Not idempotent: a volume that is already windowed is scaled down by
    1024 again, as the volume does not record that it was windowed.
    """
    if volume.modality != "CT":
        raise ContractError(f"ct_window_normalize expects CT, got {volume.modality}")
    out = np.clip(volume.data, -CT_WINDOW, CT_WINDOW) / CT_WINDOW
    return volume.with_data(out)


def pet_zscore(volume: Volume) -> Volume:
    """Standardize PET values: (x - mean) / (std + 1e-8), population std."""
    if volume.modality != "PET":
        raise ContractError(f"pet_zscore expects PET, got {volume.modality}")
    data = volume.data.astype(np.float64)
    out = (data - data.mean()) / (data.std() + 1e-8)
    return volume.with_data(out)


def _sample_coords(old_extent: int, new_extent: int, step: float) -> np.ndarray:
    return np.minimum(np.arange(new_extent) * step, old_extent - 1.0)


def trilinear_sample(data: np.ndarray, ch, cw, cd) -> np.ndarray:
    """Sample a (H, W, D) array at fractional coordinate grids (broadcastable)."""
    h0 = np.floor(ch).astype(np.int64)
    w0 = np.floor(cw).astype(np.int64)
    d0 = np.floor(cd).astype(np.int64)
    hmax, wmax, dmax = (e - 1 for e in data.shape)
    h0 = np.clip(h0, 0, hmax)
    w0 = np.clip(w0, 0, wmax)
    d0 = np.clip(d0, 0, dmax)
    h1 = np.minimum(h0 + 1, hmax)
    w1 = np.minimum(w0 + 1, wmax)
    d1 = np.minimum(d0 + 1, dmax)
    fh = np.clip(ch, 0, hmax) - h0
    fw = np.clip(cw, 0, wmax) - w0
    fd = np.clip(cd, 0, dmax) - d0
    out = np.zeros(np.broadcast(ch, cw, cd).shape)
    for hi, wh in ((h0, 1.0 - fh), (h1, fh)):
        for wi, ww in ((w0, 1.0 - fw), (w1, fw)):
            for di, wd in ((d0, 1.0 - fd), (d1, fd)):
                out += wh * ww * wd * data[hi, wi, di]
    return out


def nearest_sample(data: np.ndarray, ch, cw, cd) -> np.ndarray:
    idx = []
    for coords, extent in zip((ch, cw, cd), data.shape):
        idx.append(np.clip(np.rint(coords).astype(np.int64), 0, extent - 1))
    return data[tuple(idx)]


def resample_isotropic(volume: Volume, target_spacing: float = 1.0) -> Volume:
    """Resample to an isotropic grid (default 1.0 mm per voxel).

    New extents are round(old * spacing / target). Output voxel i samples
    the input at i * target / spacing, clamped to the grid, with trilinear
    interpolation; MASK volumes use nearest-neighbor instead. A volume
    already on that grid is returned as it is.
    """
    if target_spacing <= 0:
        raise ContractError("target spacing must be positive")
    new_extents = tuple(int(round(e * s / target_spacing))
                        for e, s in zip(volume.shape, volume.spacing))
    if any(e < 1 for e in new_extents):
        raise ShapeError(
            f"resampling {volume.shape} at {volume.spacing} mm to "
            f"{target_spacing} mm collapses an extent: {new_extents}")
    if new_extents == volume.shape and all(s == target_spacing for s in volume.spacing):
        return volume
    axes = [_sample_coords(old, new, target_spacing / s)
            for old, new, s in zip(volume.shape, new_extents, volume.spacing)]
    ch = axes[0][:, None, None]
    cw = axes[1][None, :, None]
    cd = axes[2][None, None, :]
    data = volume.data.astype(np.float64)
    if volume.modality == "MASK":
        out = nearest_sample(data, ch, cw, cd)
    else:
        out = trilinear_sample(data, ch, cw, cd)
    return volume.with_data(out, spacing=(target_spacing,) * 3)
