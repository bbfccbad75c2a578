"""Weight checkpoints: length-prefixed named parameter blobs.

Layout after a 4-byte magic ("OKPT") and a u32 little-endian blob count:

    u32 name length, name (UTF-8),
    u32 rank, u32 * rank shape,
    f32 LE payload (row-major)

repeated per parameter. A JSON manifest with the model configuration is
written next to the file as ``<path>.json``. Payloads are 32-bit on disk,
so a save/load round trip quantizes 64-bit training weights to f32.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .errors import FormatError, write_atomic

MAGIC = b"OKPT"


def save_checkpoint(params: dict[str, Tensor], path, config: dict) -> None:
    chunks = [MAGIC, struct.pack("<I", len(params))]
    for name, tensor in params.items():
        raw_name = name.encode("utf-8")
        arr = np.ascontiguousarray(tensor.data, dtype="<f4")
        chunks.append(struct.pack("<I", len(raw_name)))
        chunks.append(raw_name)
        chunks.append(struct.pack("<I", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.tobytes())
    write_atomic(path, b"".join(chunks))
    manifest = {"format": "okpt-v1", "parameters": len(params), "config": config}
    write_atomic(str(path) + ".json", json.dumps(manifest, indent=2, sort_keys=True).encode())


def load_checkpoint(path) -> dict[str, Tensor]:
    raw = Path(path).read_bytes()
    if raw[:4] != MAGIC:
        raise FormatError(f"{path}: bad checkpoint magic at byte offset 0")
    offset = 4
    (count,) = struct.unpack_from("<I", raw, offset)
    offset += 4
    params: dict[str, Tensor] = {}
    for _ in range(count):
        try:
            (name_len,) = struct.unpack_from("<I", raw, offset)
            offset += 4
            name = raw[offset:offset + name_len].decode("utf-8")
            offset += name_len
            (rank,) = struct.unpack_from("<I", raw, offset)
            offset += 4
            shape = struct.unpack_from(f"<{rank}I", raw, offset)
            offset += 4 * rank
            size = int(np.prod(shape)) if rank else 1
            payload = np.frombuffer(raw, dtype="<f4", count=size, offset=offset)
            offset += 4 * size
        except (struct.error, ValueError) as exc:
            raise FormatError(f"{path}: truncated checkpoint at byte offset {offset}") from exc
        params[name] = Tensor(payload.reshape(shape).astype(np.float64),
                              requires_grad=True)
    return params


def load_manifest(path) -> dict:
    return json.loads(Path(str(path) + ".json").read_text())
