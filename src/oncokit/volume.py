"""Volumes and the MVOL container format.

A volume is a 3D scalar grid of 32-bit floats stored H-major (then W, then
D) with per-axis spacing in millimetres and a modality tag. The MVOL layout
is fixed:

    offset  size  field
    0       4     magic "MVOL"
    4       4     u32 LE version (1)
    8       12    u32 LE x3 extents (H, W, D)
    20      12    f32 LE x3 spacing in mm
    32      1     u8 modality (0 CT, 1 PET, 2 MASK, 3 MR)
    33      3     reserved (zero)
    36      ...   H*W*D f32 LE payload, row-major

Round trips are bit-exact. A volume carries no record of the
preprocessing steps that produced it, in memory or on disk.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ContractError, FormatError, write_atomic

MAGIC = b"MVOL"
VERSION = 1
HEADER_SIZE = 36

MODALITIES = ("CT", "PET", "MASK", "MR")
_MODALITY_CODE = {name: i for i, name in enumerate(MODALITIES)}

# refuse extents whose payload could not possibly be intended (guards
# against garbage headers before attempting a huge allocation)
_MAX_VOXELS = 2 ** 31


@dataclass(frozen=True)
class Volume:
    """One scalar grid plus its geometry and modality."""

    data: np.ndarray                      # float32, shape (H, W, D)
    spacing: tuple[float, float, float]   # mm per voxel along H, W, D
    modality: str

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float32)
        if arr.ndim != 3:
            raise ContractError(f"volume data must be rank 3, got shape {arr.shape}")
        if any(e < 1 for e in arr.shape):
            raise ContractError(f"volume extents must be >= 1, got {arr.shape}")
        if self.modality not in _MODALITY_CODE:
            raise ContractError(f"unknown modality {self.modality!r}")
        if any(s <= 0 for s in self.spacing):
            raise ContractError(f"spacing must be positive, got {self.spacing}")
        if self.modality == "MASK":
            if not ((arr == 0) | (arr == 1)).all():
                raise ContractError("MASK volumes must contain only 0 and 1")
        object.__setattr__(self, "data", arr)
        # spacing is carried on disk as f32; snap to that grid up front so a
        # write/read cycle reproduces the in-memory value exactly
        object.__setattr__(self, "spacing", tuple(float(np.float32(s)) for s in self.spacing))

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape

    def with_data(self, data, spacing=None) -> "Volume":
        return replace(self, data=np.asarray(data, dtype=np.float32),
                       spacing=spacing or self.spacing)


def write_volume(volume: Volume, path) -> None:
    h, w, d = volume.shape
    header = MAGIC + struct.pack(
        "<I3I3fB3x", VERSION, h, w, d, *volume.spacing,
        _MODALITY_CODE[volume.modality])
    payload = np.ascontiguousarray(volume.data, dtype="<f4").tobytes()
    write_atomic(path, header + payload)


def read_volume(path) -> Volume:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:           # a directory, a missing or unreadable file
        raise FormatError(f"{path}: cannot read: {exc.strerror or exc}") from None
    if len(raw) < HEADER_SIZE:
        raise FormatError(f"{path}: truncated header, {len(raw)} bytes (need {HEADER_SIZE})")
    if raw[:4] != MAGIC:
        raise FormatError(f"{path}: bad magic {raw[:4]!r} at byte offset 0")
    version, h, w, d, sh, sw, sd, code = struct.unpack("<I3I3fB", raw[4:33])
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version} at byte offset 4")
    if min(h, w, d) < 1 or h * w * d > _MAX_VOXELS:
        raise FormatError(f"{path}: extent overflow ({h}, {w}, {d}) at byte offset 8")
    if code >= len(MODALITIES):
        raise FormatError(f"{path}: unknown modality code {code} at byte offset 32")
    expected = HEADER_SIZE + 4 * h * w * d
    if len(raw) != expected:
        raise FormatError(
            f"{path}: payload truncated at byte offset {len(raw)} "
            f"(declared size needs {expected} bytes)")
    data = np.frombuffer(raw, dtype="<f4", offset=HEADER_SIZE).reshape(h, w, d)
    try:
        return Volume(data=data.copy(), spacing=(sh, sw, sd), modality=MODALITIES[code])
    except ContractError as exc:     # a non-positive spacing or a non-binary mask
        raise FormatError(f"{path}: {exc}") from None
