"""Paired random augmentation of CT/PET/mask triplets.

One call draws one set of transform parameters and applies the identical
geometry to all three volumes. The recipe is fixed: the H and W axes are
each mirrored with probability 1/2, the axial (H-W) plane is rotated by an
angle drawn from +-45 degrees, and an elastic field of coarse random
displacements (up to 4 voxels, on a 16-voxel grid) is added. Rotation and
elastic deformation compose into a single displacement field sampled once
(trilinear for images, nearest-neighbor for the mask). The PET volume
alone is then gamma-corrected, with a gamma drawn from (0.5, 2). The
caller's generator is drawn in that order (H mirror, W mirror, angle,
gamma, elastic field), so a fixed seed reproduces outputs bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError
from .preprocess import nearest_sample, trilinear_sample
from .volume import Volume

AXIS_NAMES = ("H", "W", "D")
MIRROR_AXES = ("H", "W")
ROTATION_DEG = (-45.0, 45.0)
GAMMA_RANGE = (0.5, 2.0)     # PET only
ELASTIC = (16, 4.0)          # (grid spacing, max displacement), in voxels


def mirror(volume: Volume, axes: tuple[str, ...]) -> Volume:
    """Flip along the named axes; an involution, so applying twice is identity."""
    out = volume.data
    for ax in axes:
        out = np.flip(out, axis=AXIS_NAMES.index(ax))
    return volume.with_data(np.ascontiguousarray(out))


def _elastic_field(rng: np.random.Generator, shape, grid_spacing: int,
                   max_disp: float) -> np.ndarray:
    """Coarse random displacements, trilinearly upsampled to the full grid."""
    nodes = [max(2, int(math.ceil(e / grid_spacing)) + 1) for e in shape]
    coarse = rng.uniform(-max_disp, max_disp, size=(3, *nodes))
    field_ = np.empty((3, *shape))
    axes = [np.minimum(np.arange(e) / grid_spacing, n - 1.0)
            for e, n in zip(shape, nodes)]
    ch = axes[0][:, None, None]
    cw = axes[1][None, :, None]
    cd = axes[2][None, None, :]
    for a in range(3):
        field_[a] = trilinear_sample(coarse[a], ch, cw, cd)
    return field_


def _gamma_correct(data: np.ndarray, gamma: float) -> np.ndarray:
    lo, hi = float(data.min()), float(data.max())
    if hi <= lo:
        return data
    unit = (data - lo) / (hi - lo)
    return lo + (hi - lo) * unit ** gamma


def augment(ct: Volume, pet: Volume, mask: Volume,
            rng: np.random.Generator) -> tuple[Volume, Volume, Volume]:
    """Return one jointly augmented (CT, PET, mask) triplet drawn from
    ``rng``; a generator per worker, seeded from the run's seeds, keeps a
    run reproducible."""
    if not (ct.shape == pet.shape == mask.shape):
        raise ContractError(
            f"augment needs identical shapes, got {ct.shape}/{pet.shape}/{mask.shape}")
    shape = ct.shape

    flips = tuple(ax for ax in MIRROR_AXES if rng.random() < 0.5)
    angle = math.radians(rng.uniform(*ROTATION_DEG))
    gamma = rng.uniform(*GAMMA_RANGE)
    disp = _elastic_field(rng, shape, *ELASTIC)

    if flips:
        ct, pet, mask = (mirror(v, flips) for v in (ct, pet, mask))

    center = [(e - 1) / 2.0 for e in shape]
    ih = np.arange(shape[0], dtype=np.float64)[:, None, None] - center[0]
    iw = np.arange(shape[1], dtype=np.float64)[None, :, None] - center[1]
    idd = np.arange(shape[2], dtype=np.float64)[None, None, :] - center[2]
    cos_a, sin_a = math.cos(angle), math.sin(angle)
    # output voxel -> source coordinate: rotate in the axial plane about the
    # center, then add the elastic displacement; the partial grids broadcast
    # against each other inside the samplers
    src_h = cos_a * ih - sin_a * iw + center[0] + disp[0]
    src_w = sin_a * ih + cos_a * iw + center[1] + disp[1]
    src_d = idd + center[2] + disp[2]
    ct = ct.with_data(trilinear_sample(ct.data.astype(np.float64), src_h, src_w, src_d))
    pet = pet.with_data(trilinear_sample(pet.data.astype(np.float64), src_h, src_w, src_d))
    mask = mask.with_data(nearest_sample(mask.data, src_h, src_w, src_d))
    pet = pet.with_data(_gamma_correct(pet.data.astype(np.float64), gamma))
    return ct, pet, mask
