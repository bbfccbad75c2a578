"""AdamW with decoupled weight decay and a warm-restart cosine schedule.

Parameters live in plain name -> Tensor dicts; a step returns a fresh dict
so the tensors themselves stay immutable. Given the same state and inputs
the update is bit-deterministic. A model built from several parts exposes
one flat dict through ``ParamTree``, which namespaces each part's names
with a prefix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import math
import numpy as np

from .autodiff import Tensor
from .errors import ContractError, NumericError, ShapeError


@dataclass
class OptimState:
    """Per-parameter moment accumulators plus the training schedule knobs.

    Defaults follow the training recipe used throughout: base learning rate
    1e-3 decaying to a 1e-5 floor over each 25-epoch period, weight decay
    1e-5, betas (0.9, 0.999) and eps 1e-8.
    """

    base_lr: float = 1e-3
    weight_decay: float = 1e-5
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
    period: int = 25
    floor_lr: float = 1e-5
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if self.step < 0:
            raise ContractError("optimizer step counter must be >= 0")


class ParamTree:
    """One flat name -> Tensor view over several parts' parameter dicts.

    Parts are (prefix, dict) pairs; the flat names are prefix + part name,
    in part order. ``assign`` writes flat entries back into the first part
    whose prefix they carry, so a "" prefix catches names stored whole.
    """

    def __init__(self, *parts: tuple[str, dict[str, Tensor]]):
        self.parts = parts

    def flat(self) -> dict[str, Tensor]:
        return {prefix + name: t for prefix, params in self.parts
                for name, t in params.items()}

    def assign(self, flat: dict[str, Tensor]) -> None:
        for name, value in flat.items():
            owners = [part for part in self.parts if name.startswith(part[0])]
            if not owners:
                raise ContractError(f"parameter {name!r} matches no part prefix")
            prefix, params = owners[0]
            params[name[len(prefix):]] = value


def cosine_lr(epoch: float, state: OptimState) -> float:
    """Warm-restart cosine annealing.

    lr(e) = floor + 0.5 * (base - floor) * (1 + cos(pi * (e mod P) / P)),
    so epoch 0 (and every multiple of the period) returns the base rate and
    the end of each period approaches the floor before restarting.
    """
    if epoch < 0:
        raise ContractError("epoch must be >= 0")
    p = float(state.period)
    phase = math.fmod(float(epoch), p)
    return state.floor_lr + 0.5 * (state.base_lr - state.floor_lr) * (
        1.0 + math.cos(math.pi * phase / p))


def adamw_step(params: dict[str, Tensor], grads: dict[str, Tensor | np.ndarray],
               state: OptimState, lr: float | None = None) -> dict[str, Tensor]:
    """One AdamW update over every parameter; returns the new parameter dict.

    Weight decay is decoupled: it scales the weights directly and never
    enters the moment estimates. Moments are bias-corrected with the shared
    step counter, which this call increments.
    """
    if lr is None:
        lr = state.base_lr
    state.step += 1
    t = state.step
    b1, b2 = state.betas
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    out: dict[str, Tensor] = {}
    for name, p in params.items():
        g = grads[name]
        g = g.data if isinstance(g, Tensor) else np.asarray(g, dtype=np.float64)
        if g.shape != p.shape:
            raise ShapeError(f"gradient for {name!r} has shape {g.shape}, expected {p.shape}")
        if np.isnan(g).any():
            raise NumericError(f"NaN gradient for parameter {name!r}")
        m = state.m.get(name)
        if m is None:
            m = np.zeros(p.shape)
            v = np.zeros(p.shape)
        else:
            v = state.v[name]
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * (g * g)
        state.m[name] = m
        state.v[name] = v
        update = (m / c1) / (np.sqrt(v / c2) + state.eps)
        new = p.data - lr * update - lr * state.weight_decay * p.data
        out[name] = Tensor._wrap(new, requires_grad=True)
    return out
