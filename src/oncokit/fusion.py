"""Risk-score ensembling across survival models.

Proportional-hazards risks live on an exponential scale while discretized
survival-mass risks are bounded by the grid size, so averaging raw values
would let one branch dominate. Each branch is therefore z-scored across
the cohort before the elementwise mean, which also makes the fused ranking
invariant to positive affine rescaling of either input.

Both inputs are expected in hazard orientation (larger score, earlier
expected event); the output keeps that orientation.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError


def _zscore(values: np.ndarray) -> np.ndarray:
    std = values.std()
    if std == 0:
        return values - values.mean()
    return (values - values.mean()) / std


def deep_fusion_risk(cox_risks, mtlr_risks) -> np.ndarray:
    """Average two z-scored per-subject risk lists into one fused score per
    subject."""
    a = np.asarray(cox_risks, dtype=np.float64)
    b = np.asarray(mtlr_risks, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ContractError(
            f"risk lists must be equal-length vectors, got {a.shape} and {b.shape}")
    return 0.5 * (_zscore(a) + _zscore(b))
