"""Lossless conversion between volumes and 2D super images.

A depth-D volume becomes one 2D mosaic by tiling its axial slices onto an
(sh, sw) grid, row-major: slice d lands in grid cell (d // sw, d % sw), so
voxel (h, w, d) maps to pixel (h + H * (d // sw), w + W * (d % sw)). The
mosaic is (H * sh, W * sw) with C channels carried through unchanged. A
grid with more cells than slices leaves the cells past slice D - 1 zero,
and the mapping is exactly invertible on the D real slices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in range(2, int(math.isqrt(n)) + 1):
        if n % p == 0:
            return False
    return True


def _best_factor_pair(n: int) -> tuple[int, int]:
    """Factor pair (a, b) of n with a <= b minimizing b - a."""
    a = int(math.isqrt(n))
    while n % a:
        a -= 1
    return a, n // a


def choose_grid(depth: int) -> tuple[int, int]:
    """Most square-like grid for a depth-D stack, returned with sh <= sw.

    Composite depths (and D <= 3) factor directly. A prime depth above 3
    has no usable factorization, so the stack is padded up to the nearest
    integer admitting a perfectly balanced split: the smallest perfect
    square >= D.
    """
    if depth < 1:
        raise ContractError("depth must be >= 1")
    if depth <= 3 or not _is_prime(depth):
        return _best_factor_pair(depth)
    side = int(math.isqrt(depth))
    if side * side < depth:
        side += 1
    return side, side


@dataclass(frozen=True)
class SuperImageLayout:
    """Binding between a (H, W, D, C) stack and its (H*sh, W*sw, C) mosaic."""

    sh: int
    sw: int
    source_shape: tuple[int, int, int, int]   # (H, W, D, C)

    def __post_init__(self):
        h, w, d, c = self.source_shape
        if self.sh < 1 or self.sw < 1:
            raise ContractError("grid extents must be >= 1")
        if self.sh * self.sw < d:
            raise ContractError(
                f"grid {self.sh}x{self.sw} holds {self.sh * self.sw} slices, need {d}")

    @property
    def padded_depth(self) -> int:
        return self.sh * self.sw

    @property
    def image_shape(self) -> tuple[int, int, int]:
        h, w, _, c = self.source_shape
        return (h * self.sh, w * self.sw, c)

    @classmethod
    def for_volume(cls, shape: tuple[int, int, int, int],
                   grid: tuple[int, int] | None = None) -> "SuperImageLayout":
        if grid is None:
            grid = choose_grid(shape[2])
        return cls(grid[0], grid[1], tuple(int(e) for e in shape))

    def to_json(self) -> dict:
        h, w, d, c = self.source_shape
        return {"sh": self.sh, "sw": self.sw, "H": h, "W": w, "D": d, "C": c}

    @classmethod
    def from_json(cls, obj: dict) -> "SuperImageLayout":
        return cls(int(obj["sh"]), int(obj["sw"]),
                   (int(obj["H"]), int(obj["W"]), int(obj["D"]), int(obj["C"])))


def to_super_image(volume: np.ndarray, layout: SuperImageLayout) -> np.ndarray:
    """Tile a (H, W, D, C) stack into its (H*sh, W*sw, C) mosaic.

    Slices beyond D (when the grid overshoots) are zero; they are appended
    at the end so slice d always occupies cell (d // sw, d % sw).
    """
    if tuple(volume.shape) != layout.source_shape:
        raise ContractError(
            f"volume shape {volume.shape} does not match layout {layout.source_shape}")
    h, w, d, c = layout.source_shape
    dp = layout.padded_depth
    if dp != d:
        padded = np.zeros((h, w, dp, c), dtype=volume.dtype)
        padded[:, :, :d] = volume
        volume = padded
    # (H, W, D', C) -> (sh, sw, H, W, C) -> (sh, H, sw, W, C) -> mosaic
    tiles = volume.transpose(2, 0, 1, 3).reshape(layout.sh, layout.sw, h, w, c)
    mosaic = tiles.transpose(0, 2, 1, 3, 4).reshape(h * layout.sh, w * layout.sw, c)
    return np.ascontiguousarray(mosaic)


def from_super_image(image: np.ndarray, layout: SuperImageLayout) -> np.ndarray:
    """Exact left inverse of ``to_super_image``; padding slices are dropped."""
    h, w, d, c = layout.source_shape
    expected = layout.image_shape
    if tuple(image.shape) != expected:
        raise ContractError(
            f"super image shape {image.shape} does not match layout {expected}")
    tiles = image.reshape(layout.sh, h, layout.sw, w, c).transpose(0, 2, 1, 3, 4)
    volume = tiles.reshape(layout.padded_depth, h, w, c).transpose(1, 2, 0, 3)
    return np.ascontiguousarray(volume[:, :, :d])
