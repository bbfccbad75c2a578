"""Transformer encoder over flattened volume patches.

A channels-first (C, H, W, D) input (or (C, H, W) in 2D mode), the layout
of every image layer, is cut into non-overlapping P-sided patches, each
flattened and linearly projected to a K-dimensional token; a learnable 1D
positional row is added per token. Blocks are pre-norm residual:

    z' = MSA(Norm(z)) + z
    z  = MLP(Norm(z')) + z'

with multi-head attention softmax(q k^T / sqrt(K_h)) v per head, heads
concatenated and mixed by one output projection. The encoder exposes taps
at the quarter points of the stack (blocks 3/6/9/12 for the 12-layer
configuration) for decoders that want multi-scale features.

Tabular covariates can join the sequence as one linearly projected token
prepended at position 0, whose positional row is reserved in the table. The
taps hold the image tokens only; the final layer keeps the whole sequence.

The layout is ``segnets.encoder_layer_specs``, drawn by ``segnets.draw``:
``embed.w``, the table ``pos.w`` and ``ehr.*``, then per block ``blocks.i.``
+ ``ln1``, ``q``, ``k``, ``v``, ``msa``, ``ln2``, ``mlp1`` and ``mlp2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Tensor,
    concat,
    gelu,
    layer_norm,
    matmul,
    narrow,
    reshape,
    softmax,
    transpose,
)
from .errors import ContractError, ShapeError
from .segnets import draw, encoder_layer_specs, linear


@dataclass(frozen=True)
class EncoderConfig:
    input_shape: tuple[int, ...]      # spatial extents, rank 2 or 3
    channels: int = 2
    patch: int = 16
    embed_dim: int = 768
    layers: int = 12
    heads: int = 12
    mlp_ratio: int = 4
    ehr_dim: int | None = None

    def __post_init__(self):
        if len(self.input_shape) not in (2, 3):
            raise ContractError("input_shape must have rank 2 or 3")
        if self.embed_dim % self.heads:
            raise ContractError(
                f"heads ({self.heads}) must divide embed_dim ({self.embed_dim})")
        for axis, extent in enumerate(self.input_shape):
            if extent % self.patch:
                raise ShapeError(
                    f"axis {axis} extent {extent} is not divisible by patch {self.patch}")

    @property
    def rank(self) -> int:
        return len(self.input_shape)

    @property
    def grid(self) -> tuple[int, ...]:
        return tuple(e // self.patch for e in self.input_shape)

    @property
    def tokens(self) -> int:
        return int(np.prod(self.grid))

    @property
    def patch_elems(self) -> int:
        return self.patch ** self.rank * self.channels

    @property
    def head_dim(self) -> int:
        return self.embed_dim // self.heads

    @property
    def tap_layers(self) -> tuple[int, ...]:
        return tuple(math.ceil(self.layers * f) for f in (0.25, 0.5, 0.75, 1.0))


# (patch, embed_dim, layers, heads, mlp_ratio) per model preset; "paper" is
# ViT-B/16: 12 layers, 12 heads, K=768, 16-sided patches
_PRESETS = {"toy": (8, 64, 4, 4, 2), "paper": (16, 768, 12, 12, 4)}


def encoder_preset(preset: str, input_shape, patch: int | None = None,
                   ehr_dim: int | None = None) -> EncoderConfig:
    """Encoder configuration of a named preset over CT and PET channels;
    ``patch`` overrides its patch side."""
    default_patch, *sizes = _PRESETS[preset]
    return EncoderConfig(tuple(input_shape), 2, patch or default_patch, *sizes, ehr_dim)


@dataclass
class EncoderOutput:
    final: Tensor                     # (N [+1], K): the EHR token, if any, first
    taps: list[Tensor]                # (N, K) each: image tokens only


def extract_patches(x: Tensor, patch: int) -> Tensor:
    """Flatten the non-overlapping patches of a (C, spatial...) input whose
    extents ``patch`` divides, in raster order over the patch grid.

    Within a patch values are laid out position-major then channel.
    """
    c, grid = x.shape[0], tuple(e // patch for e in x.shape[1:])
    r = len(grid)
    t = reshape(x, (c, *(v for g in grid for v in (g, patch))))
    # (C, g_1, P, ..., g_r, P) -> (g_1, ..., g_r, P, ..., P, C)
    t = transpose(t, (*range(1, 2 * r, 2), *range(2, 2 * r + 1, 2), 0))
    return reshape(t, (math.prod(grid), patch ** r * c))


class ViTEncoder:
    """Parameter store plus forward passes for the patch transformer."""

    def __init__(self, cfg: EncoderConfig, seed: int = 0):
        self.cfg = cfg
        self.params = draw(encoder_layer_specs(cfg), seed)

    # ----------------------------------------------------------------- embed
    def patch_embed(self, x: Tensor) -> Tensor:
        """Project the patches of a (C, spatial...) input and add their
        positional rows: tokens z_0."""
        cfg = self.cfg
        if x.shape[0] != cfg.channels:
            raise ShapeError(f"expected {cfg.channels} channels, got {x.shape[0]}")
        if tuple(x.shape[1:]) != tuple(cfg.input_shape):
            raise ShapeError(
                f"input spatial extents {x.shape[1:]} do not match config {cfg.input_shape}")
        projected = linear(self.params, extract_patches(x, cfg.patch), "embed")
        offset = 1 if cfg.ehr_dim is not None else 0
        return projected + narrow(self.params["pos.w"], 0, offset, cfg.tokens)

    def ehr_token(self, covariates: Tensor) -> Tensor:
        """Project a covariate vector to one (1, K) token at position 0."""
        cfg = self.cfg
        if cfg.ehr_dim is None:
            raise ContractError("encoder was built without an EHR slot")
        cov = covariates if isinstance(covariates, Tensor) else Tensor(covariates)
        if cov.shape != (cfg.ehr_dim,):
            raise ContractError(
                f"covariate width {cov.shape} does not match projection ({cfg.ehr_dim},)")
        tok = linear(self.params, reshape(cov, (1, cfg.ehr_dim)), "ehr")
        return tok + narrow(self.params["pos.w"], 0, 0, 1)

    # ----------------------------------------------------------------- blocks
    def _msa(self, z: Tensor, prefix: str) -> Tensor:
        cfg = self.cfg
        p = self.params
        n = z.shape[0]
        heads, kh = cfg.heads, cfg.head_dim

        def split(t: Tensor) -> Tensor:
            return transpose(reshape(t, (n, heads, kh)), (1, 0, 2))

        q, k, v = (split(linear(p, z, prefix + part)) for part in "qkv")
        att = softmax(matmul(q, transpose(k, (0, 2, 1))) * (1.0 / math.sqrt(kh)))
        mixed = matmul(att, v)                                  # (heads, N, kh)
        merged = reshape(transpose(mixed, (1, 0, 2)), (n, heads * kh))
        return linear(p, merged, prefix + "msa")

    def block(self, z: Tensor, index: int) -> Tensor:
        p = self.params
        prefix = f"blocks.{index}."
        normed = layer_norm(z, p[prefix + "ln1.gain"], p[prefix + "ln1.bias"])
        z = self._msa(normed, prefix) + z
        normed = layer_norm(z, p[prefix + "ln2.gain"], p[prefix + "ln2.bias"])
        hidden = gelu(linear(p, normed, prefix + "mlp1"))
        return linear(p, hidden, prefix + "mlp2") + z

    def encode(self, z0: Tensor) -> EncoderOutput:
        """Run all blocks, recording taps at the quarter-point layers; with an
        EHR slot, the taps drop the EHR token after the last block."""
        taps = []
        tap_at = set(self.cfg.tap_layers)
        z = z0
        for i in range(self.cfg.layers):
            z = self.block(z, i)
            if (i + 1) in tap_at:
                # a layer can serve several tap slots in very short stacks
                for _ in range(self.cfg.tap_layers.count(i + 1)):
                    taps.append(z)
        if self.cfg.ehr_dim is not None:
            taps = [narrow(t, 0, 1, t.shape[0] - 1) for t in taps]
        return EncoderOutput(final=z, taps=taps)

    def forward(self, x: Tensor, covariates: Tensor | None = None) -> EncoderOutput:
        tokens = self.patch_embed(x)
        if covariates is not None:
            tokens = concat([self.ehr_token(covariates), tokens], axis=0)
        elif self.cfg.ehr_dim is not None:
            raise ContractError("encoder expects covariates for its EHR slot")
        return self.encode(tokens)

