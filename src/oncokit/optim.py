"""AdamW with decoupled weight decay, a warm-restart cosine schedule, and
the one training loop that drives them.

Parameters live in plain name -> Tensor dicts; a step returns a fresh dict
so the tensors themselves stay immutable. Given the same state and inputs
the update is bit-deterministic. ``train`` writes each step back into the
caller's dict, so a model built from parts shares one dict among them
(``share_params``) and every part sees the update.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import math
import numpy as np

from .autodiff import Tape, Tensor, backward
from .errors import ContractError, NumericError, ShapeError

BETAS = (0.9, 0.999)
EPS = 1e-8
FLOOR_LR = 1e-5


@dataclass
class OptimState:
    """Per-parameter moment accumulators plus the training schedule knobs.

    Defaults follow the training recipe used throughout: base learning rate
    1e-3 decaying to the ``FLOOR_LR`` of 1e-5 over each 25-epoch period and
    weight decay 1e-5; the moments use ``BETAS`` and ``EPS``.
    """

    base_lr: float = 1e-3
    weight_decay: float = 1e-5
    period: int = 25
    step: int = field(default=0, init=False)
    m: dict[str, np.ndarray] = field(default_factory=dict, init=False)
    v: dict[str, np.ndarray] = field(default_factory=dict, init=False)


def share_params(*parts) -> dict[str, Tensor]:
    """One dict holding every part's parameters under the part's own names,
    in part order; it becomes each part's ``params``, so an in-place update
    reaches them all. Two parts with a name in common are a
    ``ContractError``."""
    joined: dict[str, Tensor] = {}
    for part in parts:
        shared = joined.keys() & part.params.keys()
        if shared:
            raise ContractError(f"parts share parameter names {sorted(shared)}")
        joined.update(part.params)
    for part in parts:
        part.params = joined
    return joined


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
    return FLOOR_LR + 0.5 * (state.base_lr - FLOOR_LR) * (
        1.0 + math.cos(math.pi * phase / p))


def adamw_step(params: dict[str, Tensor], grads: dict[str, Tensor | np.ndarray],
               state: OptimState, lr: float) -> dict[str, Tensor]:
    """One AdamW update over every parameter; returns the new parameter dict.

    Weight decay is decoupled: it scales the weights directly and never
    enters the moment estimates. Moments are bias-corrected with the shared
    step counter, which this call increments. ``state.m`` and ``state.v``
    are updated in place, so a step allocates no new moment arrays; each
    parameter gets a fresh array, and the tensors passed in stay unchanged.
    """
    state.step += 1
    t = state.step
    b1, b2 = BETAS
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
            m = state.m[name] = np.zeros(p.shape)
            v = state.v[name] = np.zeros(p.shape)
        else:
            v = state.v[name]
        # m = b1 * m + (1 - b1) * g and likewise v: the same operations in
        # the same order, written into the state's own arrays
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        update = (m / c1) / (np.sqrt(v / c2) + EPS)
        new = p.data - lr * update - lr * state.weight_decay * p.data
        out[name] = Tensor._wrap(new, requires_grad=True)
    return out


def _sample_grads(params: dict[str, Tensor], loss, index: int,
                  epoch: int) -> tuple[float, dict[str, np.ndarray]]:
    """One sample's loss and its gradient for every parameter. The tape and
    everything it holds die on return, before the next sample's forward."""
    with Tape() as tape:
        value = loss(index, epoch)
    grads = backward(tape, value)
    return float(value.data), {name: grads[p].data for name, p in params.items()}


def train(params: dict[str, Tensor], loss, n: int, epochs: int, batch_size: int,
          state: OptimState, seed: int, grad_tol: float = -math.inf):
    """AdamW over seeded minibatches of samples 0..n-1, written into ``params``.

    Each epoch draws a permutation from the seeded generator and takes its
    learning rate from the warm-restart cosine schedule. ``loss(index,
    epoch)`` builds one sample's scalar loss on its own tape from the tensors
    now in ``params``; that tape is freed before the next sample's forward
    pass, so one sample's tape is alive at a time. Gradients are summed over
    the batch, in batch order, into one array per parameter, which is
    divided by the batch size in place and handed to ``adamw_step``: beside
    the parameters and moments, an update holds that sum, the new
    parameters and one parameter's temporaries. When the batch gradient's
    norm is at most ``grad_tol`` the loop stops before that update (the
    default never stops). Returns the mean loss of each finished epoch, the
    number of updates and the last batch-gradient norm.
    """
    rng = np.random.default_rng(seed)
    history: list[float] = []
    updates = 0
    grad_norm = math.inf
    for epoch in range(epochs):
        order = rng.permutation(n)
        lr_now = cosine_lr(epoch, state)
        epoch_loss = 0.0
        for start in range(0, n, batch_size):
            batch = order[start:start + batch_size]
            totals: dict[str, np.ndarray] = {}
            for idx in batch:
                value, grads = _sample_grads(params, loss, int(idx), epoch)
                if totals:
                    for name, g in grads.items():
                        totals[name] += g
                else:      # leaf gradients are read-only, and two may share one array
                    totals = {name: g.copy() for name, g in grads.items()}
                del grads           # dead before the next sample's forward pass
                epoch_loss += value
            for g in totals.values():
                g /= len(batch)
            grad_norm = float(np.sqrt(sum(float((g * g).sum()) for g in totals.values())))
            if grad_norm <= grad_tol:
                return history, updates, grad_norm
            params.update(adamw_step(params, totals, state, lr=lr_now))
            updates += 1
        history.append(epoch_loss / n)
    return history, updates, grad_norm
