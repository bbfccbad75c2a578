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

``model_stats`` walks a network's layer specs, checking that shapes resolve
and summing learnable parameters and multiply-accumulates:

    conv           k^rank * C_in * C_out * prod(output extents)
    transposed     k^rank * C_in * C_out * prod(input extents)
    linear         in * out (parameters add out for the bias)
    norm           0 MACs, 2 * C parameters
    table          0 MACs, rows * width parameters (the positional rows)
    branch         0 MACs, 0 parameters; the walk restarts at the input
                   extents divided by ``stride``

A ``branch`` is how the decoder's parallel paths fit one walk: each tap
chain and the ladder start from the token grid, so each is preceded by
``branch(patch)``. One layout function lays each network out, either on a
builder that also draws its weights (``UNet``, ``UnetrDecoder``) or on one
that only records specs (``unet_layer_specs``, ``unetr_layer_specs``), so
counting a model draws nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Tensor,
    channel_norm,
    concat,
    conv,
    maxpool,
    relu,
    transposed_conv,
)
from .errors import ContractError, ShapeError
from .vit import EncoderConfig, EncoderOutput, tokens_to_grid


@dataclass(frozen=True)
class LayerSpec:
    # kind: conv | transposed_conv | norm | activation | pool | linear | table | branch
    kind: str
    rank: int = 0
    c_in: int = 0
    c_out: int = 0
    kernel: int = 0
    stride: int = 1        # for branch: the divisor of the input extents
    padding: int = 0
    bias: bool = True      # linear only


def model_stats(net_or_specs, input_shape) -> dict:
    """Parameter and MAC totals for a network over a given spatial shape.

    Walks the spec chain once. Spatial specs (conv, transposed_conv, pool,
    branch) must see ``spec.rank`` extents; a ``branch`` restarts the walk at
    the input extents divided by its ``stride``.
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
            out_sp = tuple((s + 2 * spec.padding - spec.kernel) // spec.stride + 1
                           for s in spatial)
            if any(e < 1 for e in out_sp):
                raise ShapeError(f"layer {index} ({spec.kind}): extents {spatial} collapse")
            params += spec.c_out * spec.c_in * spec.kernel ** spec.rank + spec.c_out
            macs += spec.kernel ** spec.rank * spec.c_in * spec.c_out * math.prod(out_sp)
            spatial = out_sp
        elif spec.kind == "transposed_conv":
            params += spec.c_in * spec.c_out * spec.kernel ** spec.rank
            macs += spec.kernel ** spec.rank * spec.c_in * spec.c_out * math.prod(spatial)
            spatial = tuple((s - 1) * spec.stride + spec.kernel for s in spatial)
        elif spec.kind == "norm":
            params += 2 * spec.c_in
        elif spec.kind == "activation":
            pass
        elif spec.kind == "pool":
            if any(s % 2 for s in spatial):
                raise ShapeError(f"layer {index} (pool): odd extents {spatial}")
            spatial = tuple(s // 2 for s in spatial)
        elif spec.kind == "branch":
            if any(s % spec.stride for s in inputs):
                raise ShapeError(f"layer {index} (branch): extents {inputs} "
                                 f"not divisible by {spec.stride}")
            spatial = tuple(s // spec.stride for s in inputs)
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


def _conv_init(rng, c_out, c_in, k, rank):
    fan_in = c_in * k ** rank
    w = rng.normal(0.0, math.sqrt(2.0 / fan_in), size=(c_out, c_in) + (k,) * rank)
    return Tensor(w, requires_grad=True), Tensor(np.zeros(c_out), requires_grad=True)


def _tconv_init(rng, c_in, c_out, k, rank):
    fan_in = c_in * k ** rank
    w = rng.normal(0.0, math.sqrt(2.0 / fan_in), size=(c_in, c_out) + (k,) * rank)
    return Tensor(w, requires_grad=True)


def _norm_init(c):
    return Tensor(np.ones(c), requires_grad=True), Tensor(np.zeros(c), requires_grad=True)


class _SpecBuilder:
    """Records the layer specs of a network as its layers are laid out."""

    def __init__(self, rank):
        self.rank = rank
        self.specs: list[LayerSpec] = []

    def conv_block(self, name, c_in, c_out):
        self.specs.append(LayerSpec("conv", self.rank, c_in, c_out, 3, 1, 1))
        self.specs.append(LayerSpec("norm", self.rank, c_out, c_out))
        self.specs.append(LayerSpec("activation", self.rank, c_out, c_out))

    def final_conv(self, name, c_in):
        self.specs.append(LayerSpec("conv", self.rank, c_in, 1, 1, 1, 0))

    def tconv(self, name, c_in, c_out):
        self.specs.append(LayerSpec("transposed_conv", self.rank, c_in, c_out, 2, 2))

    def pool(self):
        self.specs.append(LayerSpec("pool", self.rank, 0, 0, 2, 2))

    def branch(self, stride):
        self.specs.append(LayerSpec("branch", self.rank, stride=stride))


class _ParamBuilder(_SpecBuilder):
    """A ``_SpecBuilder`` that also draws each layer's parameters, in layout
    order, from one seeded generator."""

    def __init__(self, rank, seed):
        super().__init__(rank)
        self.rng = np.random.default_rng(seed)
        self.params: dict[str, Tensor] = {}

    def conv_block(self, name, c_in, c_out):
        w, b = _conv_init(self.rng, c_out, c_in, 3, self.rank)
        self.params[name + ".w"] = w
        self.params[name + ".b"] = b
        gain, bias = _norm_init(c_out)
        self.params[name + ".norm.gain"] = gain
        self.params[name + ".norm.bias"] = bias
        super().conv_block(name, c_in, c_out)

    def final_conv(self, name, c_in):
        w, b = _conv_init(self.rng, 1, c_in, 1, self.rank)
        self.params[name + ".w"] = w
        self.params[name + ".b"] = b
        super().final_conv(name, c_in)

    def tconv(self, name, c_in, c_out):
        self.params[name + ".w"] = _tconv_init(self.rng, c_in, c_out, 2, self.rank)
        super().tconv(name, c_in, c_out)


def _block(params: dict[str, Tensor], x: Tensor, name: str) -> Tensor:
    """The 3-sided conv + instance norm + relu laid out by ``conv_block``."""
    x = conv(x, params[name + ".w"], bias=params[name + ".b"])
    x = channel_norm(x, params[name + ".norm.gain"], params[name + ".norm.bias"])
    return relu(x)


def _lay_out_unet(b: _SpecBuilder, in_channels: int, depth: int, base_width: int) -> None:
    """Lays the U-Net's layers out on ``b``, encoder first."""
    if b.rank not in (2, 3):
        raise ContractError("rank must be 2 or 3")
    widths = [base_width * 2 ** i for i in range(depth + 1)]
    c_prev = in_channels
    for i in range(depth):
        b.conv_block(f"enc{i}.c1", c_prev, widths[i])
        b.conv_block(f"enc{i}.c2", widths[i], widths[i])
        b.pool()
        c_prev = widths[i]
    b.conv_block("mid.c1", c_prev, widths[depth])
    b.conv_block("mid.c2", widths[depth], widths[depth])
    for i in reversed(range(depth)):
        b.tconv(f"dec{i}.up", widths[i + 1], widths[i])
        b.conv_block(f"dec{i}.c1", 2 * widths[i], widths[i])
        b.conv_block(f"dec{i}.c2", widths[i], widths[i])
    b.final_conv("head", widths[0])


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
        b = _ParamBuilder(rank, seed)
        _lay_out_unet(b, in_channels, depth, base_width)
        self.params = b.params
        self._specs = b.specs

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


def unet_layer_specs(rank: int, in_channels: int, depth: int,
                     base_width: int) -> list[LayerSpec]:
    """``UNet``'s layer specs, for accounting only: nothing is drawn."""
    b = _SpecBuilder(rank)
    _lay_out_unet(b, in_channels, depth, base_width)
    return b.specs


def _lay_out_unetr_decoder(b: _SpecBuilder, enc_cfg: EncoderConfig, width: int) -> int:
    """Lays the UNETR decoder's layers out on ``b`` and returns its number of
    2x upsampling steps, log2 of the patch size."""
    steps = int(round(math.log2(enc_cfg.patch)))
    if 2 ** steps != enc_cfg.patch or steps < 1:
        raise ContractError(f"patch size {enc_cfg.patch} must be a power of two >= 2")
    if steps - 1 > 3:
        raise ContractError("at most three intermediate taps are available")
    k = enc_cfg.embed_dim
    widths = [width * 2 ** i for i in range(steps)]

    # full-resolution stem over the raw input
    b.conv_block("stem.c1", enc_cfg.channels, widths[0])
    b.conv_block("stem.c2", widths[0], widths[0])

    # per-tap processing: one deconv off the grid, then conv+deconv
    # pairs until the tap reaches its ladder level
    for level in range(1, steps):
        name = f"tap{level}"
        b.branch(enc_cfg.patch)
        b.tconv(f"{name}.up{steps - 1}", k, widths[steps - 1])
        for r in range(steps - 1, level, -1):
            b.conv_block(f"{name}.c{r}", widths[r], widths[r])
            b.tconv(f"{name}.up{r - 1}", widths[r], widths[r - 1])

    # ladder from the final tap back to full resolution
    b.branch(enc_cfg.patch)
    b.tconv("ladder.up_final", k, widths[steps - 1])
    for level in range(steps - 1, 0, -1):
        b.conv_block(f"ladder{level}.c1", 2 * widths[level], widths[level])
        b.conv_block(f"ladder{level}.c2", widths[level], widths[level])
        b.tconv(f"ladder{level}.up", widths[level], widths[level - 1])
    b.conv_block("out.c1", 2 * widths[0], widths[0])
    b.conv_block("out.c2", widths[0], widths[0])
    b.final_conv("head", widths[0])
    return steps


class UnetrDecoder:
    """Convolutional decoder over transformer taps plus the raw input."""

    def __init__(self, enc_cfg: EncoderConfig, width: int = 16, seed: int = 0):
        b = _ParamBuilder(enc_cfg.rank, seed)
        self.cfg = enc_cfg
        self.steps = _lay_out_unetr_decoder(b, enc_cfg, width)
        self.params = b.params
        self._specs = b.specs

    def layer_specs(self) -> list[LayerSpec]:
        return list(self._specs)

    def forward(self, enc_out: EncoderOutput, x: Tensor) -> Tensor:
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


def unetr_layer_specs(cfg: EncoderConfig, width: int = 16) -> list[LayerSpec]:
    """Specs for the full transformer + decoder model, for accounting only:
    the encoder's, then the decoder's.

    The attention score/value products are data-dependent matmuls rather
    than layers; as elsewhere, only parameterized maps are counted. An EHR
    slot's projection and positional row are left out.
    """
    k = cfg.embed_dim
    specs = [LayerSpec("linear", 1, cfg.patch_elems, k, bias=False),
             LayerSpec("table", 1, cfg.tokens, k)]
    for _ in range(cfg.layers):
        specs.append(LayerSpec("norm", 1, k, k))
        for _ in range(4):   # q, k, v, output mix
            specs.append(LayerSpec("linear", 1, k, k))
        specs.append(LayerSpec("norm", 1, k, k))
        specs.append(LayerSpec("linear", 1, k, cfg.mlp_ratio * k))
        specs.append(LayerSpec("linear", 1, cfg.mlp_ratio * k, k))
    decoder = _SpecBuilder(cfg.rank)
    _lay_out_unetr_decoder(decoder, cfg, width)
    return specs + decoder.specs
