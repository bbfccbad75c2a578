"""Paired random augmentation of CT/PET/mask triplets.

One call draws one set of transform parameters and applies the identical
geometry to all three volumes: mirroring, in-plane (H-W) rotation, zoom and
elastic deformation compose into a single displacement field sampled once
(trilinear for images, nearest-neighbor for the mask). Gamma correction is
drawn per call and applied to the PET volume only. Everything is driven by
one generator, so a fixed seed reproduces outputs bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .preprocess import nearest_sample, trilinear_sample
from .volume import Volume

AXIS_NAMES = ("H", "W", "D")


@dataclass
class AugmentConfig:
    mirror_axes: tuple[str, ...] = ()
    rotation_deg: tuple[float, float] | None = None   # e.g. (-45, 45)
    zoom: float = 1.0                                  # magnification factor
    gamma_range: tuple[float, float] | None = None     # e.g. (0.5, 2), PET only
    elastic: tuple[int, float] | None = None           # (grid spacing vox, max disp vox)
    seed: int = 0

    def __post_init__(self):
        for ax in self.mirror_axes:
            if ax not in AXIS_NAMES:
                raise ContractError(f"mirror axis must be one of {AXIS_NAMES}, got {ax!r}")
        if self.zoom <= 0:
            raise ContractError("zoom factor must be positive")
        if self.gamma_range is not None and min(self.gamma_range) <= 0:
            raise ContractError("gamma bounds must be positive")

    @classmethod
    def recommended(cls, seed: int = 0) -> "AugmentConfig":
        """The combination that worked best in ablations: mirroring,
        +-45 degree rotation, PET gamma in (0.5, 2), elastic deformation."""
        return cls(mirror_axes=("H", "W"), rotation_deg=(-45.0, 45.0),
                   gamma_range=(0.5, 2.0), elastic=(16, 4.0), seed=seed)


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


def augment(ct: Volume, pet: Volume, mask: Volume, cfg: AugmentConfig,
            rng: np.random.Generator | None = None) -> tuple[Volume, Volume, Volume]:
    """Return one jointly augmented (CT, PET, mask) triplet.

    Pass a generator to advance draws across calls (e.g. one per worker
    seeded from (base seed, subject id)); otherwise a fresh generator is
    built from cfg.seed and the call is self-contained.
    """
    if not (ct.shape == pet.shape == mask.shape):
        raise ContractError(
            f"augment needs identical shapes, got {ct.shape}/{pet.shape}/{mask.shape}")
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    shape = ct.shape

    flips = tuple(ax for ax in cfg.mirror_axes if rng.random() < 0.5)
    angle = math.radians(rng.uniform(*cfg.rotation_deg)) if cfg.rotation_deg else 0.0
    gamma = rng.uniform(*cfg.gamma_range) if cfg.gamma_range else None
    disp = None
    if cfg.elastic is not None:
        disp = _elastic_field(rng, shape, cfg.elastic[0], float(cfg.elastic[1]))

    if flips:
        ct, pet, mask = (mirror(v, flips) for v in (ct, pet, mask))

    warped = angle != 0.0 or cfg.zoom != 1.0 or disp is not None
    if warped:
        center = [(e - 1) / 2.0 for e in shape]
        ih = np.arange(shape[0], dtype=np.float64)[:, None, None] - center[0]
        iw = np.arange(shape[1], dtype=np.float64)[None, :, None] - center[1]
        idd = np.arange(shape[2], dtype=np.float64)[None, None, :] - center[2]
        scale = 1.0 / cfg.zoom
        cos_a, sin_a = math.cos(angle), math.sin(angle)
        # output voxel -> source coordinate: rotate in the axial plane,
        # scale about the center, then add the elastic displacement; the
        # partial grids broadcast against each other inside the samplers
        src_h = scale * (cos_a * ih - sin_a * iw) + center[0]
        src_w = scale * (sin_a * ih + cos_a * iw) + center[1]
        src_d = scale * idd + center[2]
        if disp is not None:
            src_h = src_h + disp[0]
            src_w = src_w + disp[1]
            src_d = src_d + disp[2]
        ct = ct.with_data(trilinear_sample(ct.data.astype(np.float64), src_h, src_w, src_d))
        pet = pet.with_data(trilinear_sample(pet.data.astype(np.float64), src_h, src_w, src_d))
        mask = mask.with_data(nearest_sample(mask.data, src_h, src_w, src_d))

    if gamma is not None:
        pet = pet.with_data(_gamma_correct(pet.data.astype(np.float64), gamma))

    return ct, pet, mask
