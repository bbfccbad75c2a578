"""Training losses for binary segmentation: dice, focal, and their sum.

All three accept probabilities (already sigmoid-activated) as tensors or
arrays and return scalar tensors, so they are differentiable end to end
when evaluated under a tape.
"""

from __future__ import annotations

from .autodiff import Tensor, as_tensor, clip, log, power, tsum, tmean
from .errors import ShapeError

_PROB_FLOOR = 1e-7
_DICE_SMOOTH = 1e-5
_FOCAL_GAMMA = 2.0


def dice_loss(pred, target) -> Tensor:
    """1 - (2 sum(p y) + s) / (sum(p^2) + sum(y^2) + s), s = 1e-5.

    The smoothing term keeps empty masks finite and pins the empty-vs-empty
    case at zero loss.
    """
    pred = as_tensor(pred)
    target = as_tensor(target)
    if pred.shape != target.shape:
        raise ShapeError(f"dice_loss shapes differ: {pred.shape} vs {target.shape}")
    inter = tsum(pred * target)
    denom = tsum(pred * pred) + tsum(target * target)
    return 1.0 - (2.0 * inter + _DICE_SMOOTH) / (denom + _DICE_SMOOTH)


def focal_loss(pred, target) -> Tensor:
    """Mean-reduced focal loss with the standard two-branch form.

    Per element: -[y (1-p)^gamma log p + (1-y) p^gamma log(1-p)], with
    gamma = 2 and p clamped to [1e-7, 1 - 1e-7] before the logs (the
    positive class weight alpha is 1).
    """
    pred = as_tensor(pred)
    target = as_tensor(target)
    if pred.shape != target.shape:
        raise ShapeError(f"focal_loss shapes differ: {pred.shape} vs {target.shape}")
    p = clip(pred, _PROB_FLOOR, 1.0 - _PROB_FLOOR)
    y = target
    pos = y * power(1.0 - p, _FOCAL_GAMMA) * log(p)
    neg_term = (1.0 - y) * power(p, _FOCAL_GAMMA) * log(1.0 - p)
    return -tmean(pos + neg_term)


def combined_loss(pred, target) -> Tensor:
    """dice_loss + focal_loss, the segmentation training objective."""
    return dice_loss(pred, target) + focal_loss(pred, target)
