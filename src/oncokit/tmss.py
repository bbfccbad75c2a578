"""Joint segmentation + survival model over one multimodal encoder.

The sequence [EHR token | image tokens] runs through the shared
transformer. The decoder consumes the image-token taps (plus the raw
volume) for the mask; the survival head reads the final layer, taking the
EHR token's output concatenated with the mean of the image-token outputs,
and maps it linearly to per-boundary scores for the discretized survival
likelihood. One backward pass reaches both heads:

    loss = dice + focal (mask)  +  beta * survival NLL
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Tensor,
    concat,
    matmul,
    narrow,
    sigmoid,
    tmean,
    trunc_normal,
    zeros,
)
from .errors import ContractError
from .losses import combined_loss
from .mtlr import mtlr_nll_from_scores
from .optim import ParamTree
from .segnets import UnetrDecoder
from .vit import EncoderConfig, ViTEncoder

DEFAULT_SURVIVAL_WEIGHT = 0.3


@dataclass
class TmssOutput:
    logits: Tensor            # (1, spatial...)
    scores: Tensor            # (1, m) boundary scores


class TmssModel:
    """Shared encoder, mask decoder and linear survival head."""

    def __init__(self, enc_cfg: EncoderConfig, boundaries, decoder_width: int = 8,
                 seed: int = 0):
        if enc_cfg.ehr_dim is None:
            raise ContractError("TMSS needs an encoder config with an EHR slot")
        self.boundaries = np.asarray(boundaries, dtype=np.float64)
        self.encoder = ViTEncoder(enc_cfg, seed=seed)
        self.decoder = UnetrDecoder(enc_cfg, width=decoder_width, seed=seed + 1)
        rng = np.random.default_rng(seed + 2)
        m = self.boundaries.shape[0]
        k = enc_cfg.embed_dim
        self.head = {
            "surv.w": trunc_normal(rng, (2 * k, m), std=0.02),
            "surv.b": zeros((m,), requires_grad=True),
        }
        self._tree = ParamTree(("enc.", self.encoder.params),
                               ("dec.", self.decoder.params), ("", self.head))

    @property
    def params(self) -> dict[str, Tensor]:
        return self._tree.flat()

    def set_params(self, flat: dict[str, Tensor]) -> None:
        self._tree.assign(flat)

    def forward(self, volume_hwdc: Tensor, covariates: Tensor) -> TmssOutput:
        """volume_hwdc is channels-last (spatial..., C) as the embedder expects."""
        enc_out = self.encoder.forward(volume_hwdc, covariates)
        axes = tuple(range(volume_hwdc.ndim))
        channels_first = volume_hwdc.transpose((axes[-1],) + axes[:-1])
        logits = self.decoder.forward(enc_out, channels_first)
        final = enc_out.final
        ehr_out = narrow(final, 0, 0, 1)                          # (1, K)
        img_mean = tmean(narrow(final, 0, 1, final.shape[0] - 1), axis=0, keepdims=True)
        feats = concat([ehr_out, img_mean], axis=1)               # (1, 2K)
        scores = matmul(feats, self.head["surv.w"]) + self.head["surv.b"]
        return TmssOutput(logits=logits, scores=scores)


def tmss_loss(logits: Tensor, mask: Tensor, scores: Tensor, time: float,
              event: int, boundaries, beta: float = DEFAULT_SURVIVAL_WEIGHT) -> Tensor:
    """Joint objective for one subject: segmentation plus weighted survival."""
    seg = combined_loss(sigmoid(logits), mask)
    if beta == 0.0:
        return seg
    nll = mtlr_nll_from_scores(scores, boundaries, np.array([time]),
                               np.array([event]))
    return seg + beta * nll
