"""Multi-task logistic regression over discretized time, with a relu MLP
front end of zero or more hidden layers (N-MTLR when there is at least one).

Time is cut at boundaries 0 < tau_1 < ... < tau_m (event-time quantiles by
default, with the last boundary pushed to the data maximum). A subject's
outcome is encoded as the monotone binary sequence y_j = [dead by tau_j];
the k-th admissible sequence has k leading zeros, so there are m+1 of them
and the sequence score is the suffix sum

    f(x, k) = sum_{j > k} (theta_j . h(x) + b_j),     f(x, m) = 0,

where h is the front end: the identity without hidden layers (the linear
model), otherwise relu(... relu(x W_1 + c_1) ... W_L + c_L).

An uncensored subject contributes -f(x, k) + log Z with Z the sum of
exponentiated scores over all m+1 sequences. A subject censored at time c
is marginalized: its numerator sums exp f over every sequence consistent
with being alive at c (all k with at least as many leading zeros as there
are boundaries at or before c).
The sequence scores are one reverse cumulative sum over the boundary
axis, a differentiable tape op, so the likelihood costs O(n m). The
admissible sequences come from two ``searchsorted`` calls over the whole
cohort. Log-sum-exps are max-subtracted; masked-out sequences get a -1e30
offset, which underflows to an exact zero weight in 64-bit.

``survival_from_scores`` and ``risk_from_scores`` take one subject's (m,)
boundary scores or an (n, m) batch; a batch is scored with one row-wise
max-subtracted softmax between the reverse cumulative sums, which is how
cohort risks are computed.

The smoothness penalty C/2 * sum ||theta_j||^2 is part of the objective.
Fitting runs full-batch AdamW on the head and the front end together under
the shared warm-restart cosine schedule until the gradient norm drops below
1e-6 (or the iteration cap), and is deterministic for a fixed seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .autodiff import (
    Tape,
    Tensor,
    backward,
    concat,
    logsumexp,
    matmul,
    rcumsum,
    relu,
    transpose,
    trunc_normal,
    tsum,
    zeros,
)
from .ehr import Cohort
from .errors import ContractError, malformed, write_atomic
from .optim import OptimState, adamw_step, cosine_lr

_MASK_OFF = -1e30


@dataclass
class SurvivalCurve:
    """One curve, or a batch of curves on shared times (one per row)."""

    times: np.ndarray        # starts at 0
    survival: np.ndarray     # (..., len(times)): starts at 1, nonincreasing, within [0, 1]

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        self.survival = np.asarray(self.survival, dtype=np.float64)
        if np.any(self.survival[..., 0] > 1.0 + 1e-12):
            raise ContractError("survival curve must start at or below 1")
        if np.any(np.diff(self.survival, axis=-1) > 1e-12):
            raise ContractError("survival curve must be nonincreasing")


@dataclass
class MtlrModel:
    """MTLR head over a relu MLP front end; with no ``hidden_widths`` the
    front end is the identity and the model is linear MTLR. ``iterations``
    counts the AdamW updates of the fit; when the iteration cap stops it,
    ``final_grad_norm`` is the norm before the last update, not at the
    returned parameters."""

    boundaries: np.ndarray           # (m,), strictly increasing, > 0
    theta: np.ndarray                # (m, width of the last hidden layer, or p)
    bias: np.ndarray                 # (m,)
    smoothing: float                 # C
    feature_names: list[str] = field(default_factory=list)
    iterations: int = 0
    final_grad_norm: float = 0.0
    hidden_widths: tuple[int, ...] = ()
    mlp_params: dict[str, np.ndarray] = field(default_factory=dict)   # mlp.<i>.w / .b

    def features(self, covariates) -> np.ndarray:
        """Front-end output for one subject's (p,) covariates or an (n, p)
        matrix; the covariates themselves when there are no hidden layers."""
        x = np.asarray(covariates, dtype=np.float64)
        width = self.mlp_params["mlp.0.w"].shape[0] if self.hidden_widths \
            else self.theta.shape[1]
        if x.shape[-1:] != (width,):
            raise ContractError(f"covariate width {x.shape[-1:]} != model width ({width},)")
        for i in range(len(self.hidden_widths)):
            x = np.maximum(x @ self.mlp_params[f"mlp.{i}.w"] + self.mlp_params[f"mlp.{i}.b"],
                           0.0)
        return x


def time_grid(times, events, m: int | None = None) -> np.ndarray:
    """Event-time quantile boundaries; defaults to m = ceil(sqrt(#events)).

    The last boundary is forced to the maximum observed time so every
    subject's outcome lies on the grid. Duplicate quantiles collapse.
    """
    times = np.asarray(times, dtype=np.float64)
    events = np.asarray(events)
    event_times = times[events == 1]
    if event_times.size == 0:
        raise ContractError("cannot build a time grid without any events")
    if m is None:
        m = int(np.ceil(np.sqrt(event_times.size)))
    m = max(1, m)
    qs = np.quantile(event_times, np.arange(1, m + 1) / m)
    qs[-1] = times.max()
    grid = np.unique(qs)
    if grid[0] <= 0:
        raise ContractError("time grid boundaries must be positive")
    return grid


def event_interval(boundaries: np.ndarray, t):
    """Number of boundaries strictly before an event at time t (a scalar, or
    elementwise over an array of times)."""
    t = np.asarray(t, dtype=np.float64)
    late = t > boundaries[-1]
    if np.any(late):
        raise ContractError(
            f"event time {t[late].flat[0]} lies beyond the last boundary {boundaries[-1]}")
    k = np.searchsorted(boundaries, t, side="left")
    return int(k) if k.ndim == 0 else k


def censor_interval(boundaries: np.ndarray, c):
    """Number of boundaries at or before a censoring time c (a scalar, or
    elementwise over an array of times)."""
    k = np.searchsorted(boundaries, c, side="right")
    return int(k) if np.ndim(k) == 0 else k


def _admissible_offsets(boundaries, times, events) -> np.ndarray:
    """(n, m+1) additive mask: 0 where a sequence is consistent, -1e30 not.

    An event admits the one sequence k = event_interval; a censored subject
    admits every k from censor_interval to m.
    """
    m = boundaries.shape[0]
    died = events == 1
    first = censor_interval(boundaries, times)
    first[died] = event_interval(boundaries, times[died])
    last = np.where(died, first, m)
    k = np.arange(m + 1)
    admitted = (k >= first[:, None]) & (k <= last[:, None])
    return np.where(admitted, 0.0, _MASK_OFF)


def _sequence_scores(scores: Tensor) -> Tensor:
    """(n, m) boundary scores -> (n, m+1) sequence scores: column k is the
    suffix sum of boundary columns k..m-1 (0-based), and column m is 0."""
    return rcumsum(concat([scores, zeros((scores.shape[0], 1))], axis=1), axis=1)


def mtlr_nll_from_scores(scores: Tensor, boundaries, times, events) -> Tensor:
    """Negative log-likelihood given per-boundary scores G (n, m).

    This is the piece shared by the linear model, the neural front end and
    any head producing boundary scores; it is differentiable through
    ``scores``.
    """
    boundaries = np.asarray(boundaries, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    events = np.asarray(events)
    m = boundaries.shape[0]
    if scores.shape != (times.shape[0], m):
        raise ContractError(
            f"scores shape {scores.shape} does not match (n, m) = "
            f"({times.shape[0]}, {m})")
    f = _sequence_scores(scores)                           # (n, m+1)
    offs = Tensor(_admissible_offsets(boundaries, times, events))
    return tsum(logsumexp(f, axis=1) - logsumexp(f + offs, axis=1))


def mtlr_objective(theta: Tensor, bias: Tensor, features: Tensor, boundaries, times,
                   events, smoothing: float) -> Tensor:
    """Penalized negative log-likelihood of the head over front-end features."""
    scores = matmul(features, transpose(theta, (1, 0))) + bias
    nll = mtlr_nll_from_scores(scores, boundaries, times, events)
    if smoothing != 0.0:
        nll = nll + (smoothing / 2.0) * tsum(theta * theta)
    return nll


@dataclass
class FitConfig:
    iterations: int = 2000
    base_lr: float = 0.05
    grad_tol: float = 1e-6
    seed: int = 0


def _fit_params(param_init: dict[str, Tensor], loss_fn, cfg: FitConfig):
    """Full-batch AdamW loop without weight decay, on a 50-update cosine
    period: returns the parameters, the number of updates and the last
    gradient norm."""
    params = dict(param_init)
    state = OptimState(base_lr=cfg.base_lr, weight_decay=0.0, period=50)
    grad_norm = np.inf
    iterations = 0
    for step in range(cfg.iterations):
        with Tape() as tape:
            loss = loss_fn(params)
        grads = backward(tape, loss)
        gmap = {name: grads[p].data for name, p in params.items()}
        grad_norm = float(np.sqrt(sum(float((g * g).sum()) for g in gmap.values())))
        if grad_norm <= cfg.grad_tol:
            break
        params = adamw_step(params, gmap, state, lr=cosine_lr(step, state))
        iterations = step + 1
    return params, iterations, grad_norm


def _mlp_forward(params: dict[str, Tensor], x: Tensor, depth: int) -> Tensor:
    """The front end on the tape (``MtlrModel.features`` is its numpy twin)."""
    h = x
    for i in range(depth):
        h = relu(matmul(h, params[f"mlp.{i}.w"]) + params[f"mlp.{i}.b"])
    return h


def mtlr_fit(cohort: Cohort, m: int | None = None, smoothing: float = 1.0,
             config: FitConfig | None = None, hidden_widths=()) -> MtlrModel:
    """MTLR head and relu MLP front end trained end to end.

    Hidden weights start truncated-normal from ``config.seed``, the head at
    zero. An empty ``hidden_widths`` (the default) fits linear MTLR.
    """
    cfg = config or FitConfig()
    boundaries = time_grid(cohort.times(), cohort.events(), m)
    x = cohort.covariate_matrix()
    times = cohort.times()
    events = cohort.events()
    n_bounds = boundaries.shape[0]
    hidden_widths = tuple(int(wd) for wd in hidden_widths)

    rng = np.random.default_rng(cfg.seed)
    init: dict[str, Tensor] = {}
    width = x.shape[1]
    for i, wd in enumerate(hidden_widths):
        init[f"mlp.{i}.w"] = trunc_normal(rng, (width, wd), std=1.0 / np.sqrt(width))
        init[f"mlp.{i}.b"] = zeros((wd,), requires_grad=True)
        width = wd
    init["theta"] = zeros((n_bounds, width), requires_grad=True)
    init["bias"] = zeros((n_bounds,), requires_grad=True)
    depth = len(hidden_widths)
    xt = Tensor(x)

    def loss_fn(params):
        return mtlr_objective(params["theta"], params["bias"],
                              _mlp_forward(params, xt, depth), boundaries, times,
                              events, smoothing)

    params, iterations, grad_norm = _fit_params(init, loss_fn, cfg)
    mlp = {name: t.data.copy() for name, t in params.items() if name.startswith("mlp.")}
    return MtlrModel(boundaries, params["theta"].data.copy(), params["bias"].data.copy(),
                     smoothing, list(cohort.feature_names), iterations, grad_norm,
                     hidden_widths, mlp)


# ----------------------------------------------------------------- inference

def _sequence_probabilities(scores) -> np.ndarray:
    """Row-wise softmax over the m+1 sequence scores: (..., m) -> (..., m+1)."""
    g = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    f = _sequence_scores(Tensor(g)).data
    e = np.exp(f - f.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    return probs.reshape(np.shape(scores)[:-1] + (g.shape[1] + 1,))


def survival_from_scores(boundaries: np.ndarray, scores) -> SurvivalCurve:
    """Survival probabilities at the grid boundaries (prefixed with S(0)=1)
    from per-boundary scores g_j = theta_j . x + b_j: one subject's (m,)
    scores give one curve, an (n, m) batch gives n curves in one
    (n, m+1) array.

    S(tau_j) sums the probability mass of every sequence that is still
    alive at tau_j, i.e. death regions j..m: a reverse cumulative sum.
    """
    probs = _sequence_probabilities(scores)
    surv = np.flip(np.cumsum(np.flip(probs[..., 1:], -1), axis=-1), -1)
    ones = np.ones(surv.shape[:-1] + (1,))
    times = np.concatenate([[0.0], boundaries])
    return SurvivalCurve(times, np.concatenate([ones, np.clip(surv, 0.0, 1.0)], axis=-1))


def risk_from_scores(boundaries: np.ndarray, scores):
    """Scalar risk: cumulative incidence mass sum_j (1 - S(tau_j)); a float
    for one subject's (m,) scores, an (n,) array for an (n, m) batch.

    Monotone under shifting probability mass to earlier intervals, bounded
    by the grid size, and higher for earlier expected events.
    """
    curve = survival_from_scores(boundaries, scores)
    risk = (1.0 - curve.survival[..., 1:]).sum(axis=-1)
    return float(risk) if risk.ndim == 0 else risk


def _head_scores(model: MtlrModel, covariates) -> np.ndarray:
    return model.features(covariates) @ model.theta.T + model.bias


def mtlr_survival(model: MtlrModel, covariates) -> SurvivalCurve:
    """Survival curve of one subject."""
    return survival_from_scores(model.boundaries, _head_scores(model, covariates))


def mtlr_risk(model: MtlrModel, covariates) -> float:
    """Scalar risk of one subject."""
    return risk_from_scores(model.boundaries, _head_scores(model, covariates))


def mtlr_cohort_risks(model: MtlrModel, cohort: Cohort) -> np.ndarray:
    return risk_from_scores(model.boundaries, _head_scores(model, cohort.covariate_matrix()))


# ----------------------------------------------------------------- storage

def save_mtlr(model: MtlrModel, path) -> None:
    """JSON of type "mtlr", or "nmtlr" with the front end's ``hidden_widths``
    and ``mlp`` weights appended when the model has hidden layers."""
    payload = {
        "type": "nmtlr" if model.hidden_widths else "mtlr",
        "boundaries": [float(v) for v in model.boundaries],
        "theta": [[float(v) for v in row] for row in model.theta],
        "bias": [float(v) for v in model.bias],
        "smoothing": model.smoothing,
        "feature_names": model.feature_names,
    }
    if model.hidden_widths:
        payload["hidden_widths"] = list(model.hidden_widths)
        payload["mlp"] = {name: arr.tolist() for name, arr in model.mlp_params.items()}
    write_atomic(path, json.dumps(payload, indent=2).encode())


def mtlr_from_json(obj: dict, source) -> MtlrModel:
    """The model in ``obj``, the decoded JSON that ``save_mtlr`` writes, of
    either type, checking every array's shape against the feature names and
    the layer widths; ``source`` names the file in error messages."""
    with malformed(f"{source}: mtlr model"):
        kind = obj.get("type")
        if kind not in ("mtlr", "nmtlr"):
            raise ContractError(f"{source} does not hold an mtlr or nmtlr model")
        boundaries = np.array(obj["boundaries"], dtype=np.float64)
        theta = np.array(obj["theta"], dtype=np.float64)
        bias = np.array(obj["bias"], dtype=np.float64)
        names = list(obj["feature_names"])
        widths = tuple(int(wd) for wd in obj["hidden_widths"]) if kind == "nmtlr" else ()
        mlp = {}
        width = len(names)
        for i, wd in enumerate(widths):
            mlp[f"mlp.{i}.w"] = np.array(obj["mlp"][f"mlp.{i}.w"], dtype=np.float64)
            mlp[f"mlp.{i}.b"] = np.array(obj["mlp"][f"mlp.{i}.b"], dtype=np.float64)
            if mlp[f"mlp.{i}.w"].shape != (width, wd) or mlp[f"mlp.{i}.b"].shape != (wd,):
                raise ValueError(f"layer {i} weights do not map width {width} to {wd}")
            width = wd
        m = boundaries.shape[0]
        if boundaries.shape != (m,) or bias.shape != (m,) or theta.shape != (m, width):
            raise ValueError(f"boundaries {boundaries.shape}, theta {theta.shape} and bias "
                             f"{bias.shape} do not agree with a width-{width} front end")
        return MtlrModel(boundaries, theta, bias, float(obj["smoothing"]), names,
                         hidden_widths=widths, mlp_params=mlp)
