"""Proportional-hazards model: Newton-Raphson on the partial likelihood.

The risk for covariates x is exp(w . x); ties are handled with the Breslow
approximation (every event in a tie group shares the full risk set) both in
the likelihood and in the baseline cumulative hazard estimator. Both are
array sweeps, not per-subject loops. ``cox_fit`` sorts the rows by
descending time once, and gathers the sorted covariates, the event mask
and each event's tie-group end once; every Newton step and the baseline
read that sorted cohort. Cumulative sums of w and w x read at the last row
of each tie group give every event's risk-set sums S0 and S1, so its
risk-set mean m_e = S1 / S0.

The Hessian is one centred Gram product, not a cumulative sum of w x x^T.
With c_i the sum of 1 / S0_e over the events e whose risk set holds row i
(a reverse cumulative sum), and mu the column mean of x,

    H = sum_e (m_e - mu)(m_e - mu)^T - sum_i w_i c_i (x_i - mu)(x_i - mu)^T,

which holds exactly for any mu. It is centred because each event's term
is a risk-set covariance, S2 / S0 - m_e m_e^T: summed uncentred, two
values of size |x|^2 cancel to one of the size of the spread, so
covariates far from zero (ages, or a value offset by 1e4) would lose
about log10(|x|^2 / spread^2) digits. The log-likelihood and the score keep
their uncentred sums, so the fitted coefficients do not move.

Newton steps are halved until the log-likelihood increases, or drops by no
more than 1e-11 * (1 + |ll|), the rounding of a flat step near the optimum;
so the trajectory is monotone up to that allowance. Iteration stops when
the score norm drops below 1e-8.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .ehr import Cohort
from .errors import ContractError, DivergenceError, NumericError, malformed, write_atomic

MAX_ABS_COEF = 50.0
SCORE_TOL = 1e-8
MAX_ITER = 100


@dataclass
class CoxModel:
    coefficients: np.ndarray
    feature_names: list[str]
    baseline_hazard: list[tuple[float, float]]   # (time, cumulative hazard)
    iterations: int = 0
    log_likelihood: float = 0.0
    ll_trajectory: list[float] = field(default_factory=list)
    ridge: float = 0.0


class _RiskSets(NamedTuple):
    """A cohort sorted by descending time, with what every Newton step and
    the baseline read from that order; built once per fit by ``_risk_sets``.

    Row i of the sorted cohort is at risk at an event whose tie group ends
    at sorted row ``at`` exactly when i <= at, so a cumulative sum over the
    sorted rows read at ``at`` covers the event's whole risk set
    {j : t_j >= t_event}, ties included (Breslow).
    """

    x: np.ndarray          # (n, p) covariates in cohort order
    order: np.ndarray      # (n,) cohort rows by descending time, stable
    ends: np.ndarray       # (n,) per sorted row, its tie group's last sorted row
    times: np.ndarray      # (n,) sorted times
    events: np.ndarray     # (n,) sorted event indicators
    xs: np.ndarray         # (n, p) sorted covariates
    centre: np.ndarray     # (p,) column mean of x
    centred: np.ndarray    # (n, p) sorted covariates minus ``centre``
    is_event: np.ndarray   # (n,) sorted event mask
    event_xs: np.ndarray   # (d, p) covariates of the d events, sorted
    at: np.ndarray         # (d,) tie-group end of each event


def _risk_sets(x, times, events) -> _RiskSets:
    order = np.argsort(-times, kind="stable")
    ascending = -times[order]
    ends = np.searchsorted(ascending, ascending, side="right") - 1
    xs = x[order]
    centre = x.mean(axis=0)
    sorted_events = events[order]
    is_event = sorted_events == 1
    return _RiskSets(x, order, ends, times[order], sorted_events, xs, centre, xs - centre,
                     is_event, xs[is_event], ends[is_event])


def _loglik_parts(beta, rs: _RiskSets, ridge):
    """Breslow partial log-likelihood, score and Hessian in one sweep.

    Cumulative sums of w and w x over the sorted rows, read at each event's
    tie-group end, are the risk-set sums S0 and S1 of that event, and ll
    and the score are sums over the events. The Hessian is the centred Gram
    product described in the module docstring.
    """
    p = rs.x.shape[1]
    eta = (rs.x @ beta)[rs.order]    # rs.xs @ beta may round a row by its position
    shift = eta.max()
    ws = np.exp(eta - shift)
    s0 = np.cumsum(ws)[rs.at]
    s1 = np.cumsum(ws[:, None] * rs.xs, axis=0)[rs.at]
    mean = s1 / s0[:, None]
    ll = float((eta[rs.is_event] - (np.log(s0) + shift)).sum())
    score = (rs.event_xs - mean).sum(axis=0)
    # c_i: the sum of 1 / S0 over the events whose risk set holds sorted row i
    c = np.cumsum(np.bincount(rs.at, weights=1.0 / s0, minlength=ws.shape[0])[::-1])[::-1]
    spread = mean - rs.centre
    hess = spread.T @ spread - rs.centred.T @ ((ws * c)[:, None] * rs.centred)

    if ridge > 0:
        ll -= 0.5 * ridge * float(beta @ beta)
        score -= ridge * beta
        hess -= ridge * np.eye(p)
    return ll, score, hess


def cox_fit(cohort: Cohort, ridge: float = 0.0) -> CoxModel:
    """Fit coefficients and the Breslow baseline cumulative hazard.

    Raises on degenerate inputs (no events, constant features), on apparent
    separation (a coefficient walking past +-50) and on a singular Hessian,
    where the message suggests refitting with a ridge penalty.
    """
    x = cohort.covariate_matrix()
    times = cohort.times()
    events = cohort.events()
    n, p = x.shape
    if events.sum() < 1:
        raise ContractError("cox_fit needs at least one observed event")
    variances = x.var(axis=0)
    for j, v in enumerate(variances):
        if v == 0.0:
            raise ContractError(
                f"feature {cohort.feature_names[j]!r} has zero variance; drop it")

    rs = _risk_sets(x, times, events)
    beta = np.zeros(p)
    ll, score, hess = _loglik_parts(beta, rs, ridge)
    trajectory = [ll]
    iterations = 0
    for iterations in range(1, MAX_ITER + 1):
        if np.abs(score).max() <= SCORE_TOL:
            iterations -= 1
            break
        try:
            step = np.linalg.solve(-hess, score)
        except np.linalg.LinAlgError as exc:
            raise NumericError(
                "singular Hessian in cox_fit; consider a ridge penalty "
                "(cox_fit(..., ridge=1e-4))") from exc
        scale = 1.0
        for _ in range(40):
            candidate = beta + scale * step
            new_ll, new_score, new_hess = _loglik_parts(candidate, rs, ridge)
            # accept genuine increases, plus full steps once the likelihood
            # is flat at float resolution (|ll|-scaled tolerance)
            if new_ll > ll or new_ll >= ll - 1e-11 * (1.0 + abs(ll)):
                break
            scale *= 0.5
        else:
            break
        beta, ll, score, hess = candidate, new_ll, new_score, new_hess
        trajectory.append(ll)
        worst = np.abs(beta).max()
        if worst > MAX_ABS_COEF:
            name = cohort.feature_names[int(np.abs(beta).argmax())]
            raise DivergenceError(
                f"coefficient for {name!r} exceeded {MAX_ABS_COEF} "
                "(data may be separable)")

    baseline = _breslow_baseline(beta, rs)
    return CoxModel(beta, list(cohort.feature_names), baseline,
                    iterations=iterations, log_likelihood=float(ll),
                    ll_trajectory=[float(v) for v in trajectory], ridge=ridge)


def _breslow_baseline(beta, rs: _RiskSets) -> list[tuple[float, float]]:
    """Cumulative hazard steps d_g / S0(t_g) at each event time, ascending.

    S0 is read the way ``_loglik_parts`` reads it, at tie-group ends of the
    descending-time cumulative sum.
    """
    eta = rs.x @ beta
    shift = eta.max()
    w = np.exp(eta - shift)
    last = np.flatnonzero(rs.ends == np.arange(rs.ends.shape[0]))[::-1]   # ascending time
    at_risk = np.cumsum(w[rs.order])[last]
    at_or_after = np.cumsum(rs.events)[last]     # events at times >= t_g
    deaths = at_or_after - np.append(at_or_after[1:], 0)
    keep = (deaths > 0) & (at_risk > 0)
    cumulative = np.cumsum(deaths[keep] / (at_risk[keep] * np.exp(shift)))
    return [(float(t), float(h)) for t, h in zip(rs.times[last][keep], cumulative)]


def cox_risk(model: CoxModel, covariates) -> np.ndarray | float:
    """Relative risk exp(w . x) for one vector or a (n, p) matrix."""
    x = np.asarray(covariates, dtype=np.float64)
    p = model.coefficients.shape[0]
    if x.shape[-1] != p:
        raise ContractError(f"covariate width {x.shape[-1]} != model width {p}")
    eta = x @ model.coefficients
    risk = np.exp(eta)
    return float(risk) if risk.ndim == 0 else risk


def cox_cohort_risks(model: CoxModel, cohort: Cohort) -> np.ndarray:
    return cox_risk(model, cohort.covariate_matrix())


def save_cox(model: CoxModel, path) -> None:
    payload = {
        "type": "cox",
        "coefficients": [float(v) for v in model.coefficients],
        "feature_names": model.feature_names,
        "baseline_hazard": [[t, h] for t, h in model.baseline_hazard],
        "iterations": model.iterations,
        "log_likelihood": model.log_likelihood,
        "ridge": model.ridge,
    }
    write_atomic(path, json.dumps(payload).encode())


def cox_from_json(obj: dict, source) -> CoxModel:
    """The model in ``obj``, the decoded JSON that ``save_cox`` writes;
    ``source`` names the file in error messages."""
    if obj.get("type") != "cox":
        raise ContractError(f"{source} does not hold a cox model")
    with malformed(f"{source}: cox model"):
        model = CoxModel(
            np.array(obj["coefficients"], dtype=np.float64),
            list(obj["feature_names"]),
            [(float(t), float(h)) for t, h in obj["baseline_hazard"]],
            iterations=int(obj["iterations"]),
            log_likelihood=float(obj["log_likelihood"]),
            ridge=float(obj.get("ridge", 0.0)),
        )
        if model.coefficients.shape != (len(model.feature_names),):
            raise ValueError(f"coefficients of shape {model.coefficients.shape} "
                             f"for {len(model.feature_names)} feature names")
    return model
