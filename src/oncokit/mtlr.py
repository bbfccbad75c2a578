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

The likelihood runs on an interval-major layout: one product with the
(m+1, m) suffix matrix turns the (n, m) boundary scores into (m+1, n)
sequence scores, so every log-sum-exp reduces along the first axis, over
rows of n contiguous values. (At these sizes BLAS runs the O(n m^2)
product faster than numpy's cumulative sum down that axis.) log Z is
``logsumexp`` over that axis. The numerator is ``tail_logsumexp``: an
event's one sequence score, read by index, and for a censored subject the
log-sum-exp over the suffix of admissible sequences, shifted by that
suffix's own max. Nothing is masked with an offset, so a subject whose
admissible sequences sit far below its best one keeps a finite
likelihood. The admissible sequences come from two ``searchsorted`` calls
over the whole cohort, made once per fit: ``mtlr_fit`` hands the layout
they give ``tail_logsumexp`` to every iteration.

``survival_from_scores`` and ``risk_from_scores`` take one subject's (m,)
boundary scores or an (n, m) batch, which is how cohort risks are
computed. They use the same interval-major layout with one max-subtracted
softmax per subject, but build the scores with a cumulative sum instead of
the suffix product, so a subject's risk has the same digits alone and in a
batch.

The smoothness penalty C/2 * sum ||theta_j||^2 is part of the objective.
Fitting runs ``optim.train`` with the whole cohort as its one sample, so
each epoch is one full-batch AdamW update of the head and the front end
together, without weight decay, under a 50-update warm-restart cosine
period. It stops once the gradient norm is at most ``GRAD_TOL`` (1e-6) or
at the iteration cap, and is deterministic for a fixed seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .autodiff import (
    Tensor,
    logsumexp,
    matmul,
    relu,
    tail_logsumexp,
    tail_sets,
    transpose,
    trunc_normal,
    tsum,
    zeros,
)
from .ehr import Cohort
from .errors import ContractError, malformed, write_atomic
from .optim import OptimState, train

GRAD_TOL = 1e-6


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


def _suffix_matrix(m: int) -> np.ndarray:
    """(m+1, m) matrix of ones on and above the diagonal: row k sums boundary
    scores k..m-1 (0-based), so it maps boundary scores to the m+1 sequence
    scores, and its last row, all zeros, gives f(x, m) = 0."""
    return (np.arange(m) >= np.arange(m + 1)[:, None]).astype(np.float64)


def _admitted_range(boundaries, times, events):
    """Each subject's first admissible sequence, and whether it is the only
    one: an event admits the one sequence k = event_interval, a censored
    subject every k from censor_interval to m."""
    died = events == 1
    first = np.empty(times.shape, dtype=np.intp)
    first[died] = event_interval(boundaries, times[died])
    first[~died] = censor_interval(boundaries, times[~died])
    return first, died


def _admitted_tails(boundaries, times, events):
    """``tail_logsumexp``'s layout of the admitted ranges on the (m+1, n)
    sequence scores."""
    return tail_sets(*_admitted_range(boundaries, times, events), boundaries.shape[0] + 1)


def mtlr_nll_from_scores(scores: Tensor, boundaries, times, events, *, tails=None) -> Tensor:
    """Negative log-likelihood given per-boundary scores G (n, m).

    This is the piece shared by the linear model, the neural front end and
    any head producing boundary scores; it is differentiable through
    ``scores``. A fit passes ``tails``, the admitted ranges it derived once
    from the same boundaries, times and events.
    """
    boundaries = np.asarray(boundaries, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    events = np.asarray(events)
    m = boundaries.shape[0]
    if scores.shape != (times.shape[0], m):
        raise ContractError(
            f"scores shape {scores.shape} does not match (n, m) = "
            f"({times.shape[0]}, {m})")
    f = matmul(Tensor(_suffix_matrix(m)), transpose(scores, (1, 0)))   # (m+1, n)
    if tails is None:
        tails = _admitted_tails(boundaries, times, events)
    return tsum(logsumexp(f) - tail_logsumexp(f, tails))


def mtlr_objective(theta: Tensor, bias: Tensor, features: Tensor, boundaries, times,
                   events, smoothing: float, *, tails=None) -> Tensor:
    """Penalized negative log-likelihood of the head over front-end features;
    ``tails`` is passed on to ``mtlr_nll_from_scores``."""
    scores = matmul(features, transpose(theta, (1, 0))) + bias
    nll = mtlr_nll_from_scores(scores, boundaries, times, events, tails=tails)
    if smoothing != 0.0:
        nll = nll + (smoothing / 2.0) * tsum(theta * theta)
    return nll


def _mlp_forward(params: dict[str, Tensor], x: Tensor, depth: int) -> Tensor:
    """The front end on the tape (``MtlrModel.features`` is its numpy twin)."""
    h = x
    for i in range(depth):
        h = relu(matmul(h, params[f"mlp.{i}.w"]) + params[f"mlp.{i}.b"])
    return h


def mtlr_fit(cohort: Cohort, m: int | None = None, smoothing: float = 1.0,
             hidden_widths=(), *, iterations: int = 2000, lr: float = 0.05,
             seed: int = 0) -> MtlrModel:
    """MTLR head and relu MLP front end trained end to end, with at most
    ``iterations`` AdamW updates from the base learning rate ``lr``.

    Hidden weights start truncated-normal from ``seed``, the head at zero.
    An empty ``hidden_widths`` (the default) fits linear MTLR.
    """
    boundaries = time_grid(cohort.times(), cohort.events(), m)
    x = cohort.covariate_matrix()
    times = cohort.times()
    events = cohort.events()
    n_bounds = boundaries.shape[0]
    hidden_widths = tuple(int(wd) for wd in hidden_widths)

    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    width = x.shape[1]
    for i, wd in enumerate(hidden_widths):
        params[f"mlp.{i}.w"] = trunc_normal(rng, (width, wd), std=1.0 / np.sqrt(width))
        params[f"mlp.{i}.b"] = zeros((wd,), requires_grad=True)
        width = wd
    params["theta"] = zeros((n_bounds, width), requires_grad=True)
    params["bias"] = zeros((n_bounds,), requires_grad=True)
    depth = len(hidden_widths)
    xt = Tensor(x)
    tails = _admitted_tails(boundaries, times, events)

    def loss(index, epoch):
        return mtlr_objective(params["theta"], params["bias"],
                              _mlp_forward(params, xt, depth), boundaries, times,
                              events, smoothing, tails=tails)

    state = OptimState(base_lr=lr, weight_decay=0.0, period=50)
    _, updates, grad_norm = train(params, loss, 1, iterations, 1, state, seed, GRAD_TOL)
    mlp = {name: t.data.copy() for name, t in params.items() if name.startswith("mlp.")}
    return MtlrModel(boundaries, params["theta"].data.copy(), params["bias"].data.copy(),
                     smoothing, list(cohort.feature_names), updates, grad_norm,
                     hidden_widths, mlp)


# ----------------------------------------------------------------- inference

def _sequence_probabilities(scores) -> np.ndarray:
    """Softmax over the m+1 sequence scores: (..., m) -> (..., m+1).

    The scores are laid out interval-major, (m+1, n), as in the likelihood,
    but built and normalized with cumulative sums down the first axis rather
    than the suffix product and ``np.sum``: a cumulative sum adds in order
    whatever n is, so a subject's probabilities carry the same digits alone
    and in a batch.
    """
    g = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    n, m = g.shape
    f = np.zeros((m + 1, n))
    np.cumsum(g.T[::-1], axis=0, out=f[m - 1::-1])      # f[k] = sum over j >= k
    e = np.exp(f - f.max(axis=0))
    # C order: numpy sums the rows of an F-ordered batch in another order
    # than a lone row, and risk_from_scores sums along the rows
    probs = np.ascontiguousarray((e / np.cumsum(e, axis=0)[-1]).T)
    return probs.reshape(np.shape(scores)[:-1] + (m + 1,))


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
    write_atomic(path, json.dumps(payload).encode())


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
