"""Transformer encoder over flattened volume patches.

A (H, W, D, C) input (or (H, W, C) in 2D mode) is cut into non-overlapping
P-sided patches, each flattened and linearly projected to a K-dimensional
token; a learnable 1D positional row is added per token. Blocks are
pre-norm residual:

    z' = MSA(Norm(z)) + z
    z  = MLP(Norm(z')) + z'

with multi-head attention softmax(q k^T / sqrt(K_h)) v per head, heads
concatenated and mixed by one output projection. The encoder exposes taps
at the quarter points of the stack (blocks 3/6/9/12 for the 12-layer
configuration) for decoders that want multi-scale features.

Tabular covariates can join the sequence as one linearly projected token
prepended at position 0, whose positional row is reserved in the table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    trunc_normal,
    zeros,
)
from .errors import ContractError, ShapeError


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


def encoder_preset(preset: str, input_shape, channels: int = 2, patch: int | None = None,
                   ehr_dim: int | None = None) -> EncoderConfig:
    """Encoder configuration of a named preset; ``patch`` overrides its patch side."""
    default_patch, *sizes = _PRESETS[preset]
    return EncoderConfig(tuple(input_shape), channels, patch or default_patch, *sizes, ehr_dim)


@dataclass
class EncoderOutput:
    final: Tensor                     # (N [+1], K)
    taps: list[Tensor] = field(default_factory=list)
    has_ehr_token: bool = False


def extract_patches(x: Tensor, patch: int, rank: int) -> Tensor:
    """Flatten non-overlapping patches, raster order over the patch grid.

    Within a patch values are laid out position-major then channel, matching
    a plain reshape of the (P, ..., C) block.
    """
    if x.ndim != rank + 1:
        raise ShapeError(f"expected rank {rank + 1} input (spatial + channels), got {x.shape}")
    spatial = x.shape[:-1]
    c = x.shape[-1]
    for axis, extent in enumerate(spatial):
        if extent % patch:
            raise ShapeError(f"axis {axis} extent {extent} is not divisible by patch {patch}")
    grid = tuple(e // patch for e in spatial)
    if rank == 3:
        h, w, d = grid
        t = reshape(x, (h, patch, w, patch, d, patch, c))
        t = transpose(t, (0, 2, 4, 1, 3, 5, 6))
        return reshape(t, (h * w * d, patch ** 3 * c))
    h, w = grid
    t = reshape(x, (h, patch, w, patch, c))
    t = transpose(t, (0, 2, 1, 3, 4))
    return reshape(t, (h * w, patch ** 2 * c))


class ViTEncoder:
    """Parameter store plus forward passes for the patch transformer."""

    def __init__(self, cfg: EncoderConfig, seed: int = 0):
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        k = cfg.embed_dim
        pos_rows = cfg.tokens + (1 if cfg.ehr_dim is not None else 0)
        params: dict[str, Tensor] = {
            "embed.proj": trunc_normal(rng, (cfg.patch_elems, k)),
            "embed.pos": trunc_normal(rng, (pos_rows, k)),
        }
        if cfg.ehr_dim is not None:
            params["ehr.proj"] = trunc_normal(rng, (cfg.ehr_dim, k))
            params["ehr.bias"] = zeros((k,), requires_grad=True)
        hidden = cfg.mlp_ratio * k
        for i in range(cfg.layers):
            p = f"blocks.{i}."
            params[p + "ln1.gain"] = Tensor(np.ones(k), requires_grad=True)
            params[p + "ln1.bias"] = zeros((k,), requires_grad=True)
            params[p + "wq"] = trunc_normal(rng, (k, k))
            params[p + "wk"] = trunc_normal(rng, (k, k))
            params[p + "wv"] = trunc_normal(rng, (k, k))
            params[p + "bq"] = zeros((k,), requires_grad=True)
            params[p + "bk"] = zeros((k,), requires_grad=True)
            params[p + "bv"] = zeros((k,), requires_grad=True)
            params[p + "w_msa"] = trunc_normal(rng, (k, k))
            params[p + "b_msa"] = zeros((k,), requires_grad=True)
            params[p + "ln2.gain"] = Tensor(np.ones(k), requires_grad=True)
            params[p + "ln2.bias"] = zeros((k,), requires_grad=True)
            params[p + "mlp.w1"] = trunc_normal(rng, (k, hidden))
            params[p + "mlp.b1"] = zeros((hidden,), requires_grad=True)
            params[p + "mlp.w2"] = trunc_normal(rng, (hidden, k))
            params[p + "mlp.b2"] = zeros((k,), requires_grad=True)
        self.params = params

    # ----------------------------------------------------------------- embed
    def patch_embed(self, x: Tensor) -> Tensor:
        """Project patches and add their positional rows: tokens z_0."""
        cfg = self.cfg
        if x.shape[-1] != cfg.channels:
            raise ShapeError(f"expected {cfg.channels} channels, got {x.shape[-1]}")
        if tuple(x.shape[:-1]) != tuple(cfg.input_shape):
            raise ShapeError(
                f"input spatial extents {x.shape[:-1]} do not match config {cfg.input_shape}")
        patches = extract_patches(x, cfg.patch, cfg.rank)
        projected = matmul(patches, self.params["embed.proj"])
        offset = 1 if cfg.ehr_dim is not None else 0
        pos = narrow(self.params["embed.pos"], 0, offset, cfg.tokens)
        return projected + pos

    def ehr_token(self, covariates: Tensor) -> Tensor:
        """Project a covariate vector to one (1, K) token at position 0."""
        cfg = self.cfg
        if cfg.ehr_dim is None:
            raise ContractError("encoder was built without an EHR slot")
        cov = covariates if isinstance(covariates, Tensor) else Tensor(covariates)
        if cov.shape != (cfg.ehr_dim,):
            raise ContractError(
                f"covariate width {cov.shape} does not match projection ({cfg.ehr_dim},)")
        tok = matmul(reshape(cov, (1, cfg.ehr_dim)), self.params["ehr.proj"])
        tok = tok + self.params["ehr.bias"]
        return tok + narrow(self.params["embed.pos"], 0, 0, 1)

    # ----------------------------------------------------------------- blocks
    def _msa(self, z: Tensor, prefix: str) -> Tensor:
        cfg = self.cfg
        p = self.params
        n = z.shape[0]
        heads, kh = cfg.heads, cfg.head_dim

        def split(t: Tensor) -> Tensor:
            return transpose(reshape(t, (n, heads, kh)), (1, 0, 2))

        q = split(matmul(z, p[prefix + "wq"]) + p[prefix + "bq"])
        k = split(matmul(z, p[prefix + "wk"]) + p[prefix + "bk"])
        v = split(matmul(z, p[prefix + "wv"]) + p[prefix + "bv"])
        att = softmax(matmul(q, transpose(k, (0, 2, 1))) * (1.0 / math.sqrt(kh)), axis=-1)
        mixed = matmul(att, v)                                  # (heads, N, kh)
        merged = reshape(transpose(mixed, (1, 0, 2)), (n, heads * kh))
        return matmul(merged, p[prefix + "w_msa"]) + p[prefix + "b_msa"]

    def block(self, z: Tensor, index: int) -> Tensor:
        p = self.params
        prefix = f"blocks.{index}."
        normed = layer_norm(z, p[prefix + "ln1.gain"], p[prefix + "ln1.bias"])
        z = self._msa(normed, prefix) + z
        normed = layer_norm(z, p[prefix + "ln2.gain"], p[prefix + "ln2.bias"])
        hidden = gelu(matmul(normed, p[prefix + "mlp.w1"]) + p[prefix + "mlp.b1"])
        return matmul(hidden, p[prefix + "mlp.w2"]) + p[prefix + "mlp.b2"] + z

    def encode(self, z0: Tensor) -> EncoderOutput:
        """Run all blocks, recording taps at the quarter-point layers."""
        taps = []
        tap_at = set(self.cfg.tap_layers)
        z = z0
        for i in range(self.cfg.layers):
            z = self.block(z, i)
            if (i + 1) in tap_at:
                # a layer can serve several tap slots in very short stacks
                for _ in range(self.cfg.tap_layers.count(i + 1)):
                    taps.append(z)
        return EncoderOutput(final=z, taps=taps,
                             has_ehr_token=self.cfg.ehr_dim is not None)

    def forward(self, x: Tensor, covariates: Tensor | None = None) -> EncoderOutput:
        tokens = self.patch_embed(x)
        if covariates is not None:
            tokens = concat([self.ehr_token(covariates), tokens], axis=0)
        elif self.cfg.ehr_dim is not None:
            raise ContractError("encoder expects covariates for its EHR slot")
        return self.encode(tokens)


def tokens_to_grid(tokens: Tensor, cfg: EncoderConfig) -> Tensor:
    """Reshape an (N, K) tap to a channels-first spatial grid (K, H/P, ...)."""
    grid = cfg.grid
    if tokens.shape != (cfg.tokens, cfg.embed_dim):
        raise ShapeError(
            f"tap shape {tokens.shape} does not match ({cfg.tokens}, {cfg.embed_dim})")
    t = reshape(tokens, (*grid, cfg.embed_dim))
    axes = (len(grid),) + tuple(range(len(grid)))
    return transpose(t, axes)
