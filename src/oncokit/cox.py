"""Proportional-hazards model: Newton-Raphson on the partial likelihood.

The risk for covariates x is exp(w . x); ties are handled with the Breslow
approximation (every event in a tie group shares the full risk set) both in
the likelihood and in the baseline cumulative hazard estimator. Newton steps
are halved until the log-likelihood increases, or drops by no more than
1e-11 * (1 + |ll|), the rounding of a flat step near the optimum; so the
trajectory is monotone up to that allowance. Iteration stops when the score
norm drops below 1e-8.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .ehr import Cohort
from .errors import ContractError, DivergenceError, NumericError
from .metrics import concordance_detail

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


def _loglik_parts(beta, x, times, events, ridge):
    """Breslow partial log-likelihood, score and Hessian in one sweep.

    Subjects are processed by descending time so the running sums always
    cover the risk set {j : t_j >= t_i}; a tie group is added to the sums
    before its events are scored.
    """
    n, p = x.shape
    eta = x @ beta
    shift = eta.max()
    w = np.exp(eta - shift)
    order = np.argsort(-times, kind="stable")

    s0 = 0.0
    s1 = np.zeros(p)
    s2 = np.zeros((p, p))
    ll = 0.0
    score = np.zeros(p)
    hess = np.zeros((p, p))

    pos = 0
    while pos < n:
        end = pos
        t = times[order[pos]]
        while end < n and times[order[end]] == t:
            end += 1
        for idx in order[pos:end]:
            wi = w[idx]
            s0 += wi
            s1 += wi * x[idx]
            s2 += wi * np.outer(x[idx], x[idx])
        for idx in order[pos:end]:
            if events[idx] == 1:
                ll += eta[idx] - (np.log(s0) + shift)
                mean = s1 / s0
                score += x[idx] - mean
                hess -= s2 / s0 - np.outer(mean, mean)
        pos = end

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

    beta = np.zeros(p)
    ll, score, hess = _loglik_parts(beta, x, times, events, ridge)
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
            new_ll, new_score, new_hess = _loglik_parts(candidate, x, times, events, ridge)
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

    baseline = _breslow_baseline(beta, x, times, events)
    return CoxModel(beta, list(cohort.feature_names), baseline,
                    iterations=iterations, log_likelihood=float(ll),
                    ll_trajectory=[float(v) for v in trajectory], ridge=ridge)


def _breslow_baseline(beta, x, times, events) -> list[tuple[float, float]]:
    eta = x @ beta
    shift = eta.max()
    w = np.exp(eta - shift)
    order = np.argsort(times, kind="stable")
    total = float(w.sum())
    cumulative = 0.0
    steps = []
    pos = 0
    n = len(times)
    removed = 0.0
    while pos < n:
        end = pos
        t = times[order[pos]]
        d = 0
        group_w = 0.0
        while end < n and times[order[end]] == t:
            idx = order[end]
            d += events[idx]
            group_w += w[idx]
            end += 1
        at_risk = total - removed
        if d > 0 and at_risk > 0:
            cumulative += d / (at_risk * np.exp(shift))
            steps.append((float(t), float(cumulative)))
        removed += group_w
        pos = end
    return steps


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


def cox_c_index(model: CoxModel, cohort: Cohort):
    """Concordance of model risks on a cohort, hazard orientation."""
    risks = cox_cohort_risks(model, cohort)
    return concordance_detail(cohort.times(), risks, cohort.events(),
                              orientation="hazard")


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
    Path(path).write_text(json.dumps(payload, indent=2))


def load_cox(path) -> CoxModel:
    obj = json.loads(Path(path).read_text())
    if obj.get("type") != "cox":
        raise ContractError(f"{path} does not hold a cox model")
    return CoxModel(
        np.array(obj["coefficients"], dtype=np.float64),
        list(obj["feature_names"]),
        [(float(t), float(h)) for t, h in obj["baseline_hazard"]],
        iterations=int(obj["iterations"]),
        log_likelihood=float(obj["log_likelihood"]),
        ridge=float(obj.get("ridge", 0.0)),
    )
