"""Segmentation networks and their parameter/MAC accounting.

Every network reads channels-first (C, spatial...) input, the layout of
every image layer, and its same-size convolutions keep their input's
extents: only pooling and transposed convolutions change the resolution.

``UNet`` is the plain encoder-decoder with skip concatenation, available in
2D and 3D with shared per-stage widths (so the 3D/2D parameter ratio is
driven purely by the kernel volume, about 3x for 3-sided kernels).

``UnetrDecoder`` turns transformer taps back into a mask: every tap is
reshaped to its spatial grid, brought up the resolution ladder by stride-2
transposed convolutions with 3-sided conv+norm+relu stacks in between, and
concatenated into a chain that ends at input resolution, where a 1-sided
convolution emits one logit channel. Deeper taps enter later and therefore
pass through fewer upsampling stages; the raw input joins at full
resolution through a small convolutional stem.

Every network is laid out once, as one list of ``LayerSpec``s (the U-Net,
the transformer encoder that ``vit`` draws, the decoder, and the whole
UNETR for counting), and two walkers read it: ``draw`` draws the weights in
layout order from one seeded generator, and ``model_stats`` checks that
shapes resolve and sums learnable parameters and multiply-accumulates, so
counting a model draws nothing:

    conv           k^rank * C_in * C_out * prod(extents), extents kept
    transposed     k^rank * C_in * C_out * prod(input extents), doubled
    pool           0 MACs, 0 parameters, extents halved
    linear         in * out (parameters add out for the bias)
    norm           0 MACs, 2 * C parameters
    table          0 MACs, rows * width parameters (the positional rows)
    branch         0 MACs, 0 parameters; the walk restarts at the input
                   extents divided by the patch, the spec's ``kernel``

A spec's ``name`` is the prefix of its parameters' names: ``draw`` calls a
weight ``name.w`` and a bias ``name.b``, and a norm's gain and bias
``name.gain`` and ``name.bias``. A ``branch`` is how the decoder's parallel
paths fit one walk: each tap chain and the ladder start from the token
grid, so each is preceded by ``branch(patch)``.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass, replace

import numpy as np

from .autodiff import (
    Tensor,
    channel_norm,
    concat,
    conv,
    matmul,
    maxpool,
    relu,
    reshape,
    transpose,
    transposed_conv,
    trunc_normal,
)
from .errors import ContractError, ShapeError


@dataclass(frozen=True)
class LayerSpec:
    # kind: conv | transposed_conv | norm | pool | linear | table | branch
    kind: str
    rank: int = 0
    c_in: int = 0
    c_out: int = 0
    kernel: int = 0        # for branch: the patch, the divisor of the input extents
    _: KW_ONLY
    name: str = ""         # the prefix of the layer's parameter names
    bias: bool = True      # linear only


def model_stats(net_or_specs, input_shape) -> dict:
    """Parameter and MAC totals for a network over a given spatial shape.

    Walks the spec chain once. Spatial specs (conv, transposed_conv, pool,
    branch) must see ``spec.rank`` extents; a ``branch`` restarts the walk at
    the input extents divided by its ``kernel``.
    """
    specs = net_or_specs.layer_specs() if hasattr(net_or_specs, "layer_specs") \
        else list(net_or_specs)
    inputs = tuple(int(e) for e in input_shape)
    spatial = inputs
    params = 0
    macs = 0
    for index, spec in enumerate(specs):
        if spec.kind in ("conv", "transposed_conv", "pool", "branch") \
                and len(spatial) != spec.rank:
            raise ShapeError(f"layer {index} ({spec.kind}): expected rank-{spec.rank} "
                             f"extents, got {spatial}")
        if spec.kind == "conv":
            params += spec.c_out * spec.c_in * spec.kernel ** spec.rank + spec.c_out
            macs += spec.kernel ** spec.rank * spec.c_in * spec.c_out * math.prod(spatial)
        elif spec.kind == "transposed_conv":
            params += spec.c_in * spec.c_out * spec.kernel ** spec.rank
            macs += spec.kernel ** spec.rank * spec.c_in * spec.c_out * math.prod(spatial)
            spatial = tuple(2 * s for s in spatial)
        elif spec.kind == "norm":
            params += 2 * spec.c_in
        elif spec.kind == "pool":
            if any(s % 2 for s in spatial):
                raise ShapeError(f"layer {index} (pool): odd extents {spatial}")
            spatial = tuple(s // 2 for s in spatial)
        elif spec.kind == "branch":
            if any(s % spec.kernel for s in inputs):
                raise ShapeError(f"layer {index} (branch): extents {inputs} "
                                 f"not divisible by {spec.kernel}")
            spatial = tuple(s // spec.kernel for s in inputs)
        elif spec.kind == "linear":
            params += spec.c_in * spec.c_out + (spec.c_out if spec.bias else 0)
            macs += spec.c_in * spec.c_out
        elif spec.kind == "table":
            params += spec.c_in * spec.c_out
        else:
            raise ContractError(f"layer {index}: unknown kind {spec.kind!r}")
    return {"params": int(params), "macs": int(macs)}


def predict_mask(logits) -> np.ndarray:
    """Binarize logits: sigmoid(logit) strictly above 0.5."""
    arr = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    prob = 1.0 / (1.0 + np.exp(-np.clip(arr, -60, 60)))
    return (prob > 0.5).astype(np.float32)


def draw(specs: list[LayerSpec], seed: int) -> dict[str, Tensor]:
    """Each layer's parameters, named by its spec's prefix and drawn in
    layout order from one seeded generator: He-normal (conv or transposed)
    weights, truncated-normal (std 0.02) linear weights and tables, zero
    biases, unit norm gains."""
    rng = np.random.default_rng(seed)
    params = {}
    for s in specs:
        if s.kind in ("conv", "transposed_conv"):
            fan_in = s.c_in * s.kernel ** s.rank
            channels = (s.c_out, s.c_in) if s.kind == "conv" else (s.c_in, s.c_out)
            params[s.name + ".w"] = rng.normal(0.0, math.sqrt(2.0 / fan_in),
                                               size=channels + (s.kernel,) * s.rank)
        elif s.kind in ("linear", "table"):
            params[s.name + ".w"] = trunc_normal(rng, (s.c_in, s.c_out)).data
        elif s.kind == "norm":
            params[s.name + ".gain"] = np.ones(s.c_in)
            params[s.name + ".bias"] = np.zeros(s.c_in)
        if s.kind == "conv" or (s.kind == "linear" and s.bias):
            params[s.name + ".b"] = np.zeros(s.c_out)
    return {name: Tensor(value, requires_grad=True) for name, value in params.items()}


def linear(params: dict[str, Tensor], x: Tensor, name: str) -> Tensor:
    """The forward pass of a ``linear`` spec: ``x @ name.w`` (+ ``name.b``)."""
    y = matmul(x, params[name + ".w"])
    return y + params[name + ".b"] if name + ".b" in params else y


def _conv_block(rank: int, name: str, c_in: int, c_out: int) -> list[LayerSpec]:
    """A 3-sided conv + instance norm (+ relu, which has no parameters)."""
    return [LayerSpec("conv", rank, c_in, c_out, 3, name=name),
            LayerSpec("norm", rank, c_out, c_out, name=name + ".norm")]


def _stage(rank: int, name: str, c_in: int, c_out: int) -> list[LayerSpec]:
    """Two conv blocks, ``name.c1`` from ``c_in`` and ``name.c2``."""
    return _conv_block(rank, name + ".c1", c_in, c_out) \
        + _conv_block(rank, name + ".c2", c_out, c_out)


def _tconv(rank: int, name: str, c_in: int, c_out: int) -> LayerSpec:
    return LayerSpec("transposed_conv", rank, c_in, c_out, 2, name=name)


def _head(rank: int, c_in: int) -> LayerSpec:
    """The 1-sided conv that emits the one logit channel."""
    return LayerSpec("conv", rank, c_in, 1, 1, name="head")


def _block(params: dict[str, Tensor], x: Tensor, name: str) -> Tensor:
    """The forward pass of ``_conv_block``: conv, instance norm, relu."""
    x = conv(x, params[name + ".w"], bias=params[name + ".b"])
    x = channel_norm(x, params[name + ".norm.gain"], params[name + ".norm.bias"])
    return relu(x)


def unet_layer_specs(rank: int, in_channels: int, depth: int,
                     base_width: int) -> list[LayerSpec]:
    """``UNet``'s layout, encoder first."""
    if rank not in (2, 3):
        raise ContractError("rank must be 2 or 3")
    widths = [base_width * 2 ** i for i in range(depth + 1)]
    specs = []
    c_prev = in_channels
    for i in range(depth):
        specs += _stage(rank, f"enc{i}", c_prev, widths[i])
        specs.append(LayerSpec("pool", rank, kernel=2))
        c_prev = widths[i]
    specs += _stage(rank, "mid", c_prev, widths[depth])
    for i in reversed(range(depth)):
        specs.append(_tconv(rank, f"dec{i}.up", widths[i + 1], widths[i]))
        specs += _stage(rank, f"dec{i}", 2 * widths[i], widths[i])
    return specs + [_head(rank, widths[0])]


class UNet:
    """Vanilla U-Net: two conv+norm+relu per stage, max-pool downsampling,
    transposed-conv upsampling with skip concatenation, one logit channel.

    Spatial extents must be divisible by 2**depth.
    """

    def __init__(self, rank: int, in_channels: int = 2, depth: int = 4,
                 base_width: int = 16, seed: int = 0):
        self.rank = rank
        self.in_channels = in_channels
        self.depth = depth
        self._specs = unet_layer_specs(rank, in_channels, depth, base_width)
        self.params = draw(self._specs, seed)

    def layer_specs(self) -> list[LayerSpec]:
        return list(self._specs)

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != self.rank + 1 or x.shape[0] != self.in_channels:
            raise ShapeError(
                f"expected ({self.in_channels}, spatial...) rank-{self.rank} input, "
                f"got {x.shape}")
        div = 2 ** self.depth
        if any(e % div for e in x.shape[1:]):
            raise ShapeError(f"extents {x.shape[1:]} not divisible by {div}")
        p = self.params
        skips = []
        for i in range(self.depth):
            x = _block(p, x, f"enc{i}.c1")
            x = _block(p, x, f"enc{i}.c2")
            skips.append(x)
            x = maxpool(x)
        x = _block(p, x, "mid.c1")
        x = _block(p, x, "mid.c2")
        for i in reversed(range(self.depth)):
            x = transposed_conv(x, p[f"dec{i}.up.w"])
            x = concat([x, skips[i]], axis=0)
            x = _block(p, x, f"dec{i}.c1")
            x = _block(p, x, f"dec{i}.c2")
        return conv(x, p["head.w"], bias=p["head.b"])


def _ladder_steps(patch: int) -> int:
    """The decoder's number of 2x upsampling steps, log2 of the patch size."""
    steps = int(round(math.log2(patch)))
    if 2 ** steps != patch or steps < 1:
        raise ContractError(f"patch size {patch} must be a power of two >= 2")
    if steps - 1 > 3:
        raise ContractError("at most three intermediate taps are available")
    return steps


def tokens_to_grid(tokens: Tensor, cfg: "EncoderConfig") -> Tensor:
    """Reshape an (N, K) tap to a channels-first spatial grid (K, H/P, ...)."""
    grid = cfg.grid
    if tokens.shape != (cfg.tokens, cfg.embed_dim):
        raise ShapeError(
            f"tap shape {tokens.shape} does not match ({cfg.tokens}, {cfg.embed_dim})")
    t = reshape(tokens, (*grid, cfg.embed_dim))
    return transpose(t, (len(grid),) + tuple(range(len(grid))))


def _decoder_specs(cfg: "EncoderConfig", width: int) -> list[LayerSpec]:
    """``UnetrDecoder``'s layout: stem, tap chains, then the ladder."""
    rank, k, steps = cfg.rank, cfg.embed_dim, _ladder_steps(cfg.patch)
    widths = [width * 2 ** i for i in range(steps)]

    # full-resolution stem over the raw input
    specs = _stage(rank, "stem", cfg.channels, widths[0])

    # per-tap processing: one deconv off the grid, then conv+deconv
    # pairs until the tap reaches its ladder level
    for level in range(1, steps):
        name = f"tap{level}"
        specs += [LayerSpec("branch", rank, kernel=cfg.patch),
                  _tconv(rank, f"{name}.up{steps - 1}", k, widths[steps - 1])]
        for r in range(steps - 1, level, -1):
            specs += _conv_block(rank, f"{name}.c{r}", widths[r], widths[r])
            specs.append(_tconv(rank, f"{name}.up{r - 1}", widths[r], widths[r - 1]))

    # ladder from the final tap back to full resolution
    specs += [LayerSpec("branch", rank, kernel=cfg.patch),
              _tconv(rank, "ladder.up_final", k, widths[steps - 1])]
    for level in range(steps - 1, 0, -1):
        specs += _stage(rank, f"ladder{level}", 2 * widths[level], widths[level])
        specs.append(_tconv(rank, f"ladder{level}.up", widths[level], widths[level - 1]))
    return specs + _stage(rank, "out", 2 * widths[0], widths[0]) + [_head(rank, widths[0])]


class UnetrDecoder:
    """Convolutional decoder over transformer taps plus the raw input."""

    def __init__(self, enc_cfg: "EncoderConfig", width: int = 16, seed: int = 0):
        self.cfg = enc_cfg
        self._specs = _decoder_specs(enc_cfg, width)
        self.steps = _ladder_steps(enc_cfg.patch)
        self.params = draw(self._specs, seed)

    def layer_specs(self) -> list[LayerSpec]:
        return list(self._specs)

    def forward(self, enc_out: "EncoderOutput", x: Tensor) -> Tensor:
        """Decode taps to one logit channel at the input's resolution.

        ``x`` is the encoder's (C, spatial...) input, which also feeds the
        stem; ``enc_out.taps`` hold image tokens only.
        """
        cfg = self.cfg
        if x.shape != (cfg.channels, *cfg.input_shape):
            raise ShapeError(
                f"input {x.shape} does not match ({cfg.channels}, {cfg.input_shape})")
        p = self.params
        taps = enc_out.taps
        steps = self.steps

        stem = _block(p, x, "stem.c1")
        stem = _block(p, stem, "stem.c2")

        # taps[3] is the final-layer tap; intermediate levels draw from the
        # deepest available earlier taps
        inter = taps[:3]
        current = transposed_conv(tokens_to_grid(taps[3], cfg), p["ladder.up_final.w"])
        for level in range(steps - 1, 0, -1):
            tap_tensor = inter[3 - (steps - 1) + (level - 1)]
            skip = transposed_conv(tokens_to_grid(tap_tensor, cfg),
                                   p[f"tap{level}.up{steps - 1}.w"])
            for r in range(steps - 1, level, -1):
                skip = _block(p, skip, f"tap{level}.c{r}")
                skip = transposed_conv(skip, p[f"tap{level}.up{r - 1}.w"])
            current = concat([current, skip], axis=0)
            current = _block(p, current, f"ladder{level}.c1")
            current = _block(p, current, f"ladder{level}.c2")
            current = transposed_conv(current, p[f"ladder{level}.up.w"])
        current = concat([current, stem], axis=0)
        current = _block(p, current, "out.c1")
        current = _block(p, current, "out.c2")
        return conv(current, p["head.w"], bias=p["head.b"])


def encoder_layer_specs(cfg: "EncoderConfig") -> list[LayerSpec]:
    """``vit.ViTEncoder``'s layout: the patch projection, the positional
    table (a row more for an EHR slot), the EHR projection, then per block
    a norm, the q, k, v and output projections, a norm and the MLP pair."""
    k, hidden, ehr = cfg.embed_dim, cfg.mlp_ratio * cfg.embed_dim, cfg.ehr_dim
    specs = [LayerSpec("linear", 1, cfg.patch_elems, k, name="embed", bias=False),
             LayerSpec("table", 1, cfg.tokens + int(ehr is not None), k, name="pos")]
    if ehr is not None:
        specs.append(LayerSpec("linear", 1, ehr, k, name="ehr"))
    for i in range(cfg.layers):
        p = f"blocks.{i}."
        specs.append(LayerSpec("norm", 1, k, k, name=p + "ln1"))
        specs += [LayerSpec("linear", 1, k, k, name=p + part) for part in "qkv"]
        specs += [LayerSpec("linear", 1, k, k, name=p + "msa"),
                  LayerSpec("norm", 1, k, k, name=p + "ln2"),
                  LayerSpec("linear", 1, k, hidden, name=p + "mlp1"),
                  LayerSpec("linear", 1, hidden, k, name=p + "mlp2")]
    return specs


def unetr_layer_specs(cfg: "EncoderConfig", width: int = 16) -> list[LayerSpec]:
    """Specs for the full transformer + decoder model, for accounting only:
    the encoder's, then the decoder's.

    The attention score/value products are data-dependent matmuls rather
    than layers; as elsewhere, only parameterized maps are counted. An EHR
    slot's projection and positional row are left out.
    """
    return encoder_layer_specs(replace(cfg, ehr_dim=None)) + _decoder_specs(cfg, width)
