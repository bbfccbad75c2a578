"""Joint segmentation + survival model over one multimodal encoder.

The sequence [EHR token | image tokens] runs through the shared
transformer. The decoder consumes the taps, which hold the image tokens
only, plus the raw volume for the mask; the survival head reads the final
layer, taking the EHR token's output concatenated with the mean of the
image-token outputs, and maps it linearly to per-boundary scores for the
discretized survival likelihood. One backward pass reaches both heads:

    loss = dice + focal (mask)  +  beta * survival NLL

The head is one ``linear`` spec, ``surv``, drawn by ``segnets.draw``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, concat, narrow, sigmoid, tmean
from .errors import ContractError
from .losses import combined_loss
from .mtlr import mtlr_nll_from_scores
from .optim import share_params
from .segnets import LayerSpec, UnetrDecoder, draw, linear
from .vit import EncoderConfig, ViTEncoder

@dataclass
class TmssOutput:
    logits: Tensor            # (1, spatial...)
    scores: Tensor            # (1, m) boundary scores


class TmssModel:
    """Shared encoder, mask decoder and linear survival head, whose tensors
    sit in one ``params`` dict that the encoder and decoder share."""

    def __init__(self, enc_cfg: EncoderConfig, boundaries, decoder_width: int = 8,
                 seed: int = 0):
        if enc_cfg.ehr_dim is None:
            raise ContractError("TMSS needs an encoder config with an EHR slot")
        self.boundaries = np.asarray(boundaries, dtype=np.float64)
        self.encoder = ViTEncoder(enc_cfg, seed=seed)
        self.decoder = UnetrDecoder(enc_cfg, width=decoder_width, seed=seed + 1)
        head = LayerSpec("linear", 1, 2 * enc_cfg.embed_dim, self.boundaries.shape[0],
                         name="surv")
        self.params = draw([head], seed + 2)
        share_params(self.encoder, self.decoder, self)

    def set_params(self, values: dict[str, Tensor]) -> None:
        """Replace every parameter in place; ``values`` must carry exactly the
        model's names, each with the model's shape."""
        missing = sorted(self.params.keys() - values.keys())
        unknown = sorted(values.keys() - self.params.keys())
        if missing or unknown:
            raise ContractError(f"parameters missing: {missing}; unknown: {unknown}")
        for name, t in values.items():
            if t.shape != self.params[name].shape:
                raise ContractError(f"parameter {name!r} has shape {t.shape}, "
                                    f"expected {self.params[name].shape}")
        self.params.update(values)

    def forward(self, volume_hwdc: Tensor, covariates: Tensor) -> TmssOutput:
        """``volume_hwdc`` is channels-last (spatial..., C), transposed once for both parts."""
        axes = tuple(range(volume_hwdc.ndim))
        x = volume_hwdc.transpose((axes[-1],) + axes[:-1])
        enc_out = self.encoder.forward(x, covariates)
        logits = self.decoder.forward(enc_out, x)
        final = enc_out.final
        ehr_out = narrow(final, 0, 0, 1)                          # (1, K)
        img_mean = tmean(narrow(final, 0, 1, final.shape[0] - 1), axis=0, keepdims=True)
        feats = concat([ehr_out, img_mean], axis=1)               # (1, 2K)
        return TmssOutput(logits=logits, scores=linear(self.params, feats, "surv"))


def tmss_loss(logits: Tensor, mask: Tensor, scores: Tensor, time: float,
              event: int, boundaries, beta: float) -> Tensor:
    """Joint objective for one subject: segmentation plus weighted survival."""
    seg = combined_loss(sigmoid(logits), mask)
    if beta == 0.0:
        return seg
    nll = mtlr_nll_from_scores(scores, boundaries, np.array([time]),
                               np.array([event]))
    return seg + beta * nll
