"""Closed-form sweeps against the slower implementations they replaced.

The oracles below are the earlier implementations of the Cox likelihood
parts (a per-event loop, and the cumulative sum of w x x^T that the centred
Gram Hessian replaced, next to an exact rational Hessian), the Breslow
baseline, the MTLR admissible-sequence mask and the
subject-major MTLR likelihood built on it, the per-subject MTLR tail-sum
risk, the Fenwick-tree concordance, the cell-by-cell EHR reader, the
im2col convolution and transposed convolution, the np.var channel norm and
the argmax max pool, kept here only as references. Each survival case runs
on seeded cohorts with heavy ties (times rounded to integers) and with no
ties, at n = 50 and n = 2000.
"""

import csv
import math
from fractions import Fraction

import numpy as np
import pytest

from oncokit.autodiff import (
    Tape,
    Tensor,
    _blocks,
    _unblocks,
    backward,
    channel_norm,
    concat,
    conv,
    logsumexp,
    maxpool,
    narrow,
    transpose,
    transposed_conv,
    tsum,
    zeros,
)
from oncokit.cox import _breslow_baseline, _loglik_parts, _risk_sets, cox_fit
from oncokit.ehr import Cohort, load_ehr
from oncokit.errors import ContractError
from oncokit.metrics import c_index_naive, concordance_detail
from oncokit.mtlr import (
    MtlrModel,
    _admitted_range,
    censor_interval,
    event_interval,
    mtlr_cohort_risks,
    mtlr_nll_from_scores,
    mtlr_survival,
    risk_from_scores,
    survival_from_scores,
    time_grid,
)

_MASK_OFF = -1e30


# ------------------------------------------------------------------ oracles

def loglik_parts_loop(beta, x, times, events, ridge):
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


def loglik_parts_cumsum(beta, x, times, events, ridge):
    """Cumulative sums of w, w x and w x x^T read at each event's tie-group
    end, an (n, p, p) array for the Hessian."""
    p = x.shape[1]
    eta = x @ beta
    shift = eta.max()
    w = np.exp(eta - shift)
    order = np.argsort(-times, kind="stable")
    ascending = -times[order]
    ends = np.searchsorted(ascending, ascending, side="right") - 1
    xs, ws = x[order], w[order]
    is_event = events[order] == 1
    at = ends[is_event]
    s0 = np.cumsum(ws)[at]
    s1 = np.cumsum(ws[:, None] * xs, axis=0)[at]
    s2 = np.cumsum(ws[:, None, None] * (xs[:, :, None] * xs[:, None, :]), axis=0)[at]
    mean = s1 / s0[:, None]
    ll = float((eta[order][is_event] - (np.log(s0) + shift)).sum())
    score = (xs[is_event] - mean).sum(axis=0)
    hess = -(s2 / s0[:, None, None] - mean[:, :, None] * mean[:, None, :]).sum(axis=0)
    if ridge > 0:
        ll -= 0.5 * ridge * float(beta @ beta)
        score -= ridge * beta
        hess -= ridge * np.eye(p)
    return ll, score, hess


def hessian_exact(beta, x, times, events):
    """The Breslow Hessian in rational arithmetic on the float64 weights
    exp(eta - max eta), which it does not depend on the scale of."""
    eta = x @ beta
    w = [Fraction(v) for v in np.exp(eta - eta.max())]
    xf = [[Fraction(v) for v in row] for row in x]
    p = x.shape[1]
    hess = [[Fraction(0)] * p for _ in range(p)]
    for e in np.flatnonzero(events == 1):
        risk = np.flatnonzero(times >= times[e])
        s0 = sum(w[i] for i in risk)
        s1 = [sum(w[i] * xf[i][a] for i in risk) for a in range(p)]
        for a in range(p):
            for b in range(p):
                s2 = sum(w[i] * xf[i][a] * xf[i][b] for i in risk)
                hess[a][b] -= s2 / s0 - s1[a] * s1[b] / (s0 * s0)
    return hess


def breslow_baseline_loop(beta, x, times, events):
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


def admissible_offsets_loop(boundaries, times, events):
    m = boundaries.shape[0]
    n = times.shape[0]
    offs = np.full((n, m + 1), _MASK_OFF)
    for i in range(n):
        if events[i] == 1:
            offs[i, event_interval(boundaries, times[i])] = 0.0
        else:
            offs[i, censor_interval(boundaries, times[i]):] = 0.0
    return offs


def mtlr_nll_composed(scores, boundaries, times, events):
    """The likelihood on the subject-major (n, m+1) layout: suffix sums of
    the boundary scores, then log Z minus a log-sum-exp over the sequences
    with the -1e30 offset on every inadmissible one."""
    n, m = scores.shape
    f = concat([tsum(narrow(scores, 1, k, m - k), axis=1, keepdims=True) for k in range(m)]
               + [zeros((n, 1))], axis=1)
    offs = Tensor(admissible_offsets_loop(boundaries, times, events))
    return tsum(logsumexp(transpose(f, (1, 0))) - logsumexp(transpose(f + offs, (1, 0))))


def survival_loop(scores_row):
    """Survival at the boundaries from the (m+1) x m suffix matrix and
    per-boundary tail sums of the sequence probabilities."""
    m = scores_row.shape[0]
    suffix = np.zeros((m + 1, m))
    for k in range(m + 1):
        suffix[k, k:] = 1.0
    f = suffix @ scores_row
    f = f - f.max()
    e = np.exp(f)
    probs = e / e.sum()
    return np.array([probs[j:].sum() for j in range(1, m + 1)])


def risk_loop(scores_row):
    return float((1.0 - np.clip(survival_loop(scores_row), 0.0, 1.0)).sum())


class Fenwick:
    """Prefix-sum tree over ranks, for counting inserted values."""

    def __init__(self, size):
        self.size = size
        self.tree = [0] * (size + 1)
        self.total = 0

    def add(self, idx):
        i = idx + 1
        while i <= self.size:
            self.tree[i] += 1
            i += i & (-i)
        self.total += 1

    def prefix(self, idx):
        """Count of inserted ranks <= idx."""
        s = 0
        i = idx + 1
        while i > 0:
            s += self.tree[i]
            i -= i & (-i)
        return s


def concordance_fenwick(t, r, e):
    """(concordant, comparable) of the printed c-index: walking times in
    descending order, the subjects already inserted are those with strictly
    larger T."""
    n = t.shape[0]
    uniq = np.unique(r)
    rank = np.searchsorted(uniq, r)
    order = np.argsort(-t, kind="stable")
    tree = Fenwick(uniq.shape[0])
    comparable = 0
    concordant = 0.0
    pos = 0
    while pos < n:
        group_end = pos
        while group_end < n and t[order[group_end]] == t[order[pos]]:
            group_end += 1
        group = order[pos:group_end]
        for j in group:
            if e[j] == 1 and tree.total > 0:
                comparable += tree.total
                leq = tree.prefix(int(rank[j]))
                concordant += tree.total - leq
        for j in group:
            tree.add(int(rank[j]))
        pos = group_end
    return concordant, comparable


def _im2col(xp, kernel, stride, out_sp):
    """Gather sliding windows of a padded (C, spatial...) array into columns
    of shape (C * prod(kernel), prod(out_sp))."""
    c = xp.shape[0]
    cols = np.empty((c, *kernel, *out_sp), dtype=xp.dtype)
    for off in np.ndindex(*kernel):
        sl = tuple(slice(o, o + stride * (e - 1) + 1, stride)
                   for o, e in zip(off, out_sp))
        cols[(slice(None), *off)] = xp[(slice(None), *sl)]
    return cols.reshape(c * int(np.prod(kernel)), int(np.prod(out_sp)))


def _col2im(cols, channels, kernel, stride, padded_sp, out_sp):
    """Adjoint of _im2col: scatter-add columns back onto the padded grid."""
    acc = np.zeros((channels, *padded_sp))
    cols = cols.reshape(channels, *kernel, *out_sp)
    for off in np.ndindex(*kernel):
        sl = tuple(slice(o, o + stride * (e - 1) + 1, stride)
                   for o, e in zip(off, out_sp))
        acc[(slice(None), *sl)] += cols[(slice(None), *off)]
    return acc


def conv_im2col(x, w, b, stride, padding, g):
    """The im2col convolution: the output, and the gradients of
    sum(output * g) with respect to the input, the weight and the bias."""
    c_out, c_in = w.shape[:2]
    kernel = w.shape[2:]
    xp = np.pad(x, [(0, 0)] + [(padding, padding)] * (x.ndim - 1))
    out_sp = g.shape[1:]
    cols = _im2col(xp, kernel, stride, out_sp)
    w2 = w.reshape(c_out, -1)
    out = (w2 @ cols + b[:, None]).reshape(c_out, *out_sp)
    g2 = g.reshape(c_out, -1)
    gxp = _col2im(w2.T @ g2, c_in, kernel, stride, xp.shape[1:], out_sp)
    gx = gxp[(slice(None), *(slice(padding, padding + s) for s in x.shape[1:]))]
    return out, gx, (g2 @ cols.T).reshape(w.shape), g2.sum(axis=1)


def transposed_conv_col2im(x, w, g):
    """The col2im kernel-2, stride-2 transposed convolution: the output, and
    the gradients of sum(output * g) with respect to the input and the weight."""
    c_in, c_out = w.shape[:2]
    kernel, sp = w.shape[2:], x.shape[1:]
    w2, x2 = w.reshape(c_in, -1), x.reshape(c_in, -1)
    out = _col2im(w2.T @ x2, c_out, kernel, 2, g.shape[1:], sp)
    gcols = _im2col(g, kernel, 2, sp)
    return out, (w2 @ gcols).reshape(x.shape), (x2 @ gcols.T).reshape(w.shape)


def channel_norm_var(x, gain, bias, g, eps=1e-5):
    """The channel norm built on np.var: the output, and the gradients of
    sum(output * g) with respect to the input, the gain and the bias."""
    c = x.shape[0]
    x2, g2 = x.reshape(c, -1), g.reshape(c, -1)
    mu = x2.mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(x2.var(axis=1, keepdims=True) + eps)
    xhat = (x2 - mu) * inv
    out = xhat * gain[:, None] + bias[:, None]
    h = g2 * gain[:, None]
    gx = inv * (h - h.mean(axis=1, keepdims=True)
                - xhat * (h * xhat).mean(axis=1, keepdims=True))
    return out.reshape(x.shape), gx.reshape(x.shape), np.sum(g2 * xhat, axis=1), g2.sum(axis=1)


def maxpool_argmax(x, g):
    """The kernel-2 max pool that gathers each window's entries last and
    takes their argmax: the output, and the gradient of sum(output * g)
    with respect to the input."""
    windows = _blocks(x)
    idx = np.argmax(windows, axis=-1)
    gw = np.zeros(windows.shape)
    np.put_along_axis(gw, idx[..., None], g[..., None], axis=-1)
    return np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0], _unblocks(gw)


def _is_number(text):
    try:
        float(text)
        return True
    except ValueError:
        return False


def load_ehr_rows(path):
    """(ids, times, events, centers, feature names, matrix) of a valid cohort
    CSV, read row by row and cell by cell."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = [h.strip() for h in rows[0]]
    col_idx = {name: header.index(name) for name in ("id", "time", "event", "center")}
    feature_cols = [(i, name) for i, name in enumerate(header) if name not in col_idx]
    records = []
    for row in rows[1:]:
        if not row or all(not c.strip() for c in row):
            continue
        feats = {name: row[i].strip() for i, name in feature_cols}
        records.append((row[col_idx["id"]].strip(), float(row[col_idx["time"]].strip()),
                        int(row[col_idx["event"]].strip()), row[col_idx["center"]].strip(),
                        feats))
    numeric = {name: all(_is_number(rec[4][name]) for rec in records)
               for _, name in feature_cols}
    levels = {name: sorted({rec[4][name] for rec in records})
              for _, name in feature_cols if not numeric[name]}
    names = []
    for _, name in feature_cols:
        names.extend([name] if numeric[name] else [f"{name}={lv}" for lv in levels[name]])
    vectors = []
    for rec in records:
        vec = []
        for _, name in feature_cols:
            if numeric[name]:
                vec.append(float(rec[4][name]))
            else:
                vec.extend(1.0 if rec[4][name] == lv else 0.0 for lv in levels[name])
        vectors.append(np.array(vec, dtype=np.float64))
    return ([rec[0] for rec in records], [rec[1] for rec in records],
            [rec[2] for rec in records], [rec[3] for rec in records], names,
            np.stack(vectors).astype(np.float64))


# ------------------------------------------------------------------ cohorts

def _data(n, ties, seed, p=3):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p))
    times = rng.exponential(8.0, size=n) * np.exp(-0.5 * x[:, 0]) + 0.1
    if ties:
        times = np.ceil(times)
    events = (rng.random(n) < 0.7).astype(np.int64)
    return x, times, events


def _cohort(x, times, events):
    return Cohort([f"s{i}" for i in range(len(times))], times, events, x,
                  [f"x{j}" for j in range(x.shape[1])])


CASES = [(n, ties) for n in (50, 2000) for ties in (True, False)]


def _rel(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return float(np.abs(a - b).max() / max(np.abs(b).max(), 1e-300))


# ------------------------------------------------------------------ Cox

@pytest.mark.parametrize("n, ties", CASES)
@pytest.mark.parametrize("ridge", [0.0, 0.3])
def test_loglik_parts_match_loop(n, ties, ridge):
    x, times, events = _data(n, ties, seed=n + ties)
    if ties:
        assert np.unique(times).size < n // 2
    beta = np.array([0.7, -0.4, 0.2])
    ll, score, hess = _loglik_parts(beta, _risk_sets(x, times, events), ridge)
    ll0, score0, hess0 = loglik_parts_loop(beta, x, times, events, ridge)
    assert _rel(ll, ll0) <= 1e-10
    assert _rel(score, score0) <= 1e-10
    assert _rel(hess, hess0) <= 1e-10


@pytest.mark.parametrize("n, ties", CASES)
@pytest.mark.parametrize("ridge", [0.0, 0.3])
def test_loglik_parts_match_cumsum(n, ties, ridge):
    x, times, events = _data(n, ties, seed=n + ties)
    beta = np.array([0.7, -0.4, 0.2])
    ll, score, hess = _loglik_parts(beta, _risk_sets(x, times, events), ridge)
    ll0, score0, hess0 = loglik_parts_cumsum(beta, x, times, events, ridge)
    assert _rel(ll, ll0) <= 1e-12
    assert _rel(score, score0) <= 1e-12
    assert _rel(hess, hess0) <= 1e-12


@pytest.mark.parametrize("offset", [1e3, 1e4])
def test_hessian_matches_exact_far_from_origin(offset):
    # covariates far from zero: an uncentred sum of w x x^T cancels about
    # log10(offset^2) digits of the risk-set covariance, the centred Gram
    # product keeps them
    x, times, events = _data(40, True, seed=17)
    assert np.unique(times).size < 30
    x = x + offset
    beta = np.array([0.7, -0.4, 0.2])
    hess = _loglik_parts(beta, _risk_sets(x, times, events), 0.0)[2]
    exact = hessian_exact(beta, x, times, events)
    scale = max(abs(v) for row in exact for v in row)
    err = max(abs(Fraction(hess[a, b]) - exact[a][b]) for a in range(3) for b in range(3))
    assert float(err / scale) <= 1e-11


def test_cox_fit_invariant_to_covariate_shift():
    x, times, events = _data(2000, True, seed=23)
    beta = cox_fit(_cohort(x, times, events)).coefficients
    shifted = cox_fit(_cohort(x + 1e3, times, events)).coefficients
    assert _rel(shifted, beta) <= 1e-9


@pytest.mark.parametrize("n, ties", CASES)
def test_breslow_baseline_matches_loop(n, ties):
    x, times, events = _data(n, ties, seed=3 * n + ties)
    beta = np.array([0.7, -0.4, 0.2])
    steps = np.array(_breslow_baseline(beta, _risk_sets(x, times, events)))
    oracle = np.array(breslow_baseline_loop(beta, x, times, events))
    assert steps.shape == oracle.shape
    assert np.array_equal(steps[:, 0], oracle[:, 0])
    assert _rel(steps[:, 1], oracle[:, 1]) <= 1e-10


def test_breslow_baseline_reads_risk_sets_exactly():
    # each risk-set sum is read off the cumulative sum directly, where the
    # loop subtracted a running total that loses digits as the set shrinks
    x, times, events = _data(2000, False, seed=9)
    beta = np.array([0.7, -0.4, 0.2])
    steps = np.array(_breslow_baseline(beta, _risk_sets(x, times, events)))
    eta = x @ beta
    w = np.exp(eta - eta.max())
    exact = np.cumsum([1.0 / (math.fsum(w[times >= t]) * np.exp(eta.max()))
                       for t in steps[:, 0]])
    assert _rel(steps[:, 1], exact) <= 1e-14


# ------------------------------------------------------------------ MTLR

def _offsets(first, died, m):
    """The additive mask of the admitted range (first, died)."""
    k = np.arange(m + 1)
    last = np.where(died, first, m)
    admitted = (k >= first[:, None]) & (k <= last[:, None])
    return np.where(admitted, 0.0, _MASK_OFF)


@pytest.mark.parametrize("n, ties", CASES)
def test_admissible_offsets_match_loop(n, ties):
    x, times, events = _data(n, ties, seed=5 * n + ties)
    grid = time_grid(times, events, m=9)
    # censored rows on and between boundaries, and past the last one
    times[:3] = [grid[0], grid[-1], grid[-1] + 1.0]
    events[:3] = [0, 1, 0]
    first, died = _admitted_range(grid, times, events)
    assert np.array_equal(_offsets(first, died, grid.shape[0]),
                          admissible_offsets_loop(grid, times, events))


def test_admissible_offsets_reject_event_past_grid():
    with pytest.raises(ContractError, match="beyond the last boundary"):
        _admitted_range(np.array([1.0, 2.0]), np.array([0.5, 2.5]), np.array([1, 1]))
    with pytest.raises(ContractError, match="beyond the last boundary"):
        mtlr_nll_from_scores(Tensor(np.zeros((2, 2))), np.array([1.0, 2.0]),
                             np.array([0.5, 2.5]), np.array([0, 1]))
    # a censored row past the grid is fine
    first, died = _admitted_range(np.array([1.0, 2.0]), np.array([2.5]), np.array([0]))
    assert np.array_equal(_offsets(first, died, 2), [[_MASK_OFF, _MASK_OFF, 0.0]])


def _grad_rel(a, b):
    """Error relative to the larger of max |b| and 1: each entry of a score
    gradient is a difference of two partial sums of probabilities, so it
    lies within [-1, 1], and it is exactly 0 for a subject that admits every
    sequence, where the two paths leave float dust of different signs."""
    return float(np.abs(a - b).max() / max(np.abs(b).max(), 1.0))


def _nll_and_grad(nll, scores, boundaries, times, events):
    s = Tensor(scores, requires_grad=True)
    with Tape() as tape:
        loss = nll(s, boundaries, times, events)
    return float(loss.data), backward(tape, loss)[s].data


def _likelihood_case(n, m, cohort, seed):
    """Scores, boundaries 1..m, tied half-unit times and events. The first
    rows sit before the first boundary, on one, past the last and on the
    last; in the mixed cohort the first three are censored and the fourth
    is an event."""
    rng = np.random.default_rng(seed)
    boundaries = np.arange(1.0, m + 1.0)
    times = rng.integers(1, 2 * m + 3, size=n) / 2.0
    events = {"mixed": (rng.random(n) < 0.6).astype(np.int64),
              "censored": np.zeros(n, dtype=np.int64),
              "events": np.ones(n, dtype=np.int64)}[cohort]
    edge_times = [0.5, boundaries[m // 2], m + 1.0, boundaries[-1]][:n]
    times[:len(edge_times)] = edge_times
    if cohort == "mixed":
        events[:len(edge_times)] = [0, 0, 0, 1][:n]
    # an event can only happen on the grid
    times[events == 1] = np.minimum(times[events == 1], boundaries[-1])
    return rng.normal(size=(n, m)) * 2.0, boundaries, times, events


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("cohort", ["mixed", "censored", "events"])
@pytest.mark.parametrize("m", [1, 3, 16])
@pytest.mark.parametrize("n", [1, 7, 200])
def test_mtlr_nll_matches_composed(n, m, cohort):
    case = _likelihood_case(n, m, cohort, seed=100 * n + m)
    loss, grad = _nll_and_grad(mtlr_nll_from_scores, *case)
    ref_loss, ref_grad = _nll_and_grad(mtlr_nll_composed, *case)
    assert _rel(loss, ref_loss) <= 1e-12
    assert _grad_rel(grad, ref_grad) <= 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_mtlr_nll_far_below_best_sequence():
    # row 0 is censored after two boundaries: its admissible sequences
    # k = 2..4 score 0, -410 and 0 while sequence 0 scores 820, so its
    # admitted mass is exp(-820) of the best. Row 1 is censored on a
    # boundary, row 2 dies in an interval scoring 1,230 below its best and
    # row 3 in its first interval.
    boundaries = np.array([1.0, 2.0, 3.0, 4.0])
    scores = np.array([[410.0, 410.0, 410.0, -410.0],
                       [-400.0, 405.0, 395.0, -399.0],
                       [410.0, 410.0, 410.0, -410.0],
                       [-400.0, 400.0, -400.0, 400.0]])
    times = np.array([2.5, 2.0, 4.0, 1.0])
    events = np.array([0, 0, 1, 1])
    loss, grad = _nll_and_grad(mtlr_nll_from_scores, scores, boundaries, times, events)
    ref_loss, ref_grad = _nll_and_grad(mtlr_nll_composed, scores, boundaries, times, events)
    assert np.isfinite(loss) and np.isfinite(grad).all()
    assert _rel(loss, ref_loss) <= 1e-12
    assert _grad_rel(grad, ref_grad) <= 1e-12


@pytest.mark.parametrize("n, ties", CASES)
def test_batched_risks_and_curves_match_per_subject(n, ties):
    x, times, events = _data(n, ties, seed=7 * n + ties)
    rng = np.random.default_rng(n)
    grid = time_grid(times, events, m=12)
    m = grid.shape[0]
    model = MtlrModel(grid, rng.normal(size=(m, 3)), rng.normal(size=m) * 2, 1.0)
    scores = x @ model.theta.T + model.bias
    risks = mtlr_cohort_risks(model, _cohort(x, times, events))
    assert risks.shape == (n,)
    assert np.allclose(risks, [risk_loop(row) for row in scores], rtol=1e-12, atol=0)
    assert np.array_equal(risks, risk_from_scores(grid, scores))

    curves = survival_from_scores(grid, scores).survival
    assert curves.shape == (n, m + 1)
    assert np.array_equal(curves[:, 0], np.ones(n))
    loop = np.array([survival_loop(row) for row in scores])
    assert np.allclose(curves[:, 1:], loop, rtol=1e-12, atol=1e-15)
    for i in (0, n // 2, n - 1):
        assert np.array_equal(survival_from_scores(grid, scores[i]).survival, curves[i])
        assert risk_from_scores(grid, scores[i]) == risks[i]
        assert np.allclose(mtlr_survival(model, x[i]).survival, curves[i],
                           rtol=1e-12, atol=1e-15)


def test_nmtlr_batched_risks_match_per_subject():
    x, times, events = _data(200, True, seed=11)
    rng = np.random.default_rng(12)
    grid = time_grid(times, events, m=6)
    m = grid.shape[0]
    mlp = {"mlp.0.w": rng.normal(size=(3, 5)), "mlp.0.b": rng.normal(size=5)}
    model = MtlrModel(grid, rng.normal(size=(m, 5)), rng.normal(size=m), 1.0,
                      hidden_widths=(5,), mlp_params=mlp)
    risks = mtlr_cohort_risks(model, _cohort(x, times, events))
    feats = np.maximum(x @ mlp["mlp.0.w"] + mlp["mlp.0.b"], 0.0)
    oracle = [risk_loop(model.theta @ f + model.bias) for f in feats]
    assert np.allclose(risks, oracle, rtol=1e-12, atol=0)


# ------------------------------------------------------------------ concordance

@pytest.mark.parametrize("n", [2, 3, 17, 200, 2000])
@pytest.mark.parametrize("time_ties, risk_ties", [(False, False), (True, False),
                                                  (False, True), (True, True)])
def test_concordance_matches_fenwick_and_naive(n, time_ties, risk_ties):
    rng = np.random.default_rng(n + 2 * time_ties + risk_ties)
    t = rng.integers(1, max(2, n // 8), size=n) + 0.5 if time_ties \
        else rng.exponential(5.0, size=n) + 0.01
    r = rng.integers(0, max(2, n // 10), size=n).astype(np.float64) if risk_ties \
        else rng.normal(size=n)
    e = (rng.random(n) < 0.7).astype(np.int64)
    e[0] = 1
    t[0] = t.min() / 2          # subject 0 has an event before everyone else
    # r is a hazard-oriented risk; the printed form scores -r
    res = concordance_detail(t, r, e)
    concordant, comparable = concordance_fenwick(t, -r, e)
    assert (res.concordant, res.comparable_pairs) == (concordant, comparable)
    assert res.value == c_index_naive(t, -r, e)


# ------------------------------------------------------------------ EHR reader

def _ehr_text(n, seed):
    rng = np.random.default_rng(seed)
    lines = ["id,time,event,center,age,stage,dose,site"]
    for i in range(n):
        time = repr(float(rng.exponential(9.0) + 0.01)) if i % 4 else str(int(rng.integers(1, 30)))
        lines.append(f"p{i:04d}, {time},{int(rng.random() < 0.6)}, c{i % 3} ,"
                     f"{rng.normal(60, 9)!r},{'I II III IV'.split()[i % 4]},"
                     f"{int(rng.integers(0, 70))} ,{'oral larynx'.split()[i % 2]}")
        if i % 37 == 5:
            lines.append("")
        if i % 53 == 9:
            lines.append(" , , , , , , , ")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n, seed", [(1, 0), (40, 1), (2000, 2)])
def test_columnar_reader_matches_row_reader(tmp_path, n, seed):
    path = tmp_path / "ehr.csv"
    path.write_text(_ehr_text(n, seed))
    cohort = load_ehr(path)
    ids, times, events, centers, names, x = load_ehr_rows(path)
    assert list(cohort.ids) == ids
    assert cohort.times().tolist() == times
    assert cohort.events().tolist() == events
    assert list(cohort.centers) == centers
    assert cohort.feature_names == names
    assert names[:2] == ["age", "stage=I"]
    got = cohort.covariate_matrix()
    assert got.shape == x.shape and got.dtype == x.dtype
    assert got.tobytes() == x.tobytes()


# ------------------------------------------------------------------ convolution

CONV_CASES = [(sp, c_in, k, stride, padding)
              for sp in ((7, 9), (5, 7, 6)) for c_in in (1, 2, 16) for k in (1, 2, 3)
              for stride in (1, 2) for padding in (0, 1)] + [
    ((9, 8), 2, 3, 3, 2), ((6, 7, 5), 3, 2, 3, 2),      # stride and padding past the grid
    ((32, 64), 2, 3, 1, 1)] + [
    # inner extents 1 and 2, as at the bottom of the 3D U-Net
    (sp, c_in, k, stride, padding)
    for sp, c_in in [((2, 2, 1), 64)] + [(sp, c) for sp in ((4, 4, 2), (3, 1, 2), (16, 16, 8))
                                         for c in (2, 16)]
    for k in (1, 3) for stride in (1, 2) for padding in (0, 1, 2)
    if min(sp) + 2 * padding >= k]


@pytest.mark.parametrize("sp, c_in, k, stride, padding", CONV_CASES)
def test_conv_matches_im2col(sp, c_in, k, stride, padding):
    """The same-size ``conv`` gives the im2col convolution of any kernel
    side, stride and padding, gradients included.

    ``conv`` pads by q = k // 2 with the kernel grown to the odd side k | 1
    (an even kernel gains trailing zeros). The test adds the zeros that
    ``padding`` needs beyond q to the input, reads every stride-th output
    from the first that lines up, and crops the gradients back. At stride 1
    with ``padding`` equal to (k - 1) / 2, that is ``conv`` as the networks
    call it: nothing is added, read past or cropped.
    """
    rng = np.random.default_rng([len(sp), c_in, k, stride, padding])
    c_out = 8 if sp == (32, 64) else 3          # the super image: the U-Net's first layer
    x = rng.normal(size=(c_in, *sp))
    w = rng.normal(size=(c_out, c_in, *(k,) * len(sp)))
    b = rng.normal(size=c_out)
    g = rng.normal(size=(c_out, *((s + 2 * padding - k) // stride + 1 for s in sp)))
    expected = conv_im2col(x, w, b, stride, padding, g)

    q = k // 2
    lo, hi = max(0, padding - q), max(0, padding + q + 1 - k)
    first = max(0, q - padding)
    xp = np.pad(x, [(0, 0)] + [(lo, hi)] * len(sp))
    w_odd = np.zeros((c_out, c_in, *(k | 1,) * len(sp)))
    taps = (slice(None), slice(None), *(slice(0, k),) * len(sp))
    w_odd[taps] = w
    read = (slice(None), *(slice(first, first + stride * (e - 1) + 1, stride)
                           for e in g.shape[1:]))
    g_all = np.zeros((c_out, *xp.shape[1:]))
    g_all[read] = g
    tensors = [Tensor(a, requires_grad=True) for a in (xp, w_odd, b)]
    with Tape() as tape:
        out = conv(*tensors)
        loss = tsum(out * Tensor(g_all))
    grads = backward(tape, loss)
    inner = (slice(None), *(slice(lo, lo + s) for s in sp))
    gx, gw, gb = (grads[t].data for t in tensors)
    got = [out.data[read], gx[inner], gw[taps], gb]
    for a, e in zip(got, expected):
        assert a.shape == e.shape
        assert _rel(a, e) <= 1e-12


TCONV_CASES = [(sp, c_in) for sp in ((4, 5), (1, 3), (3, 2, 4), (2, 1, 3), (5, 4, 1))
               for c_in in (1, 3, 32)]


@pytest.mark.parametrize("sp, c_in", TCONV_CASES)
def test_transposed_conv_matches_col2im(sp, c_in):
    rng = np.random.default_rng([len(sp), *sp, c_in])
    c_out = 4
    x = rng.normal(size=(c_in, *sp))
    w = rng.normal(size=(c_in, c_out, *(2,) * len(sp)))
    g = rng.normal(size=(c_out, *(2 * s for s in sp)))
    expected = transposed_conv_col2im(x, w, g)
    tensors = [Tensor(a, requires_grad=True) for a in (x, w)]
    with Tape() as tape:
        out = transposed_conv(*tensors)
        loss = tsum(out * Tensor(g))
    grads = backward(tape, loss)
    got = [out.data] + [grads[t].data for t in tensors]
    for a, e in zip(got, expected):
        assert a.shape == e.shape
        assert _rel(a, e) <= 1e-12


# ------------------------------------------------------------------ channel norm and max pool

def _norm_input(sp, c, rng):
    """Normal channels, plus a constant channel (variance 0) and one with
    mean 1e6 and standard deviation 1."""
    x = rng.normal(size=(c, *sp)) * rng.uniform(0.5, 3.0, size=(c, *(1,) * len(sp)))
    x[0] = 2.5
    x[1] = 1e6 + rng.normal(size=sp)
    return x


NORM_CASES = [(sp, c) for sp in ((32, 64), (16, 32), (4, 8), (1, 3)) for c in (2, 8, 64)] + \
             [(sp, c) for sp in ((16, 16, 8), (8, 8, 4), (4, 4, 2), (2, 2, 1), (3, 1, 2))
              for c in (2, 8, 32)]


@pytest.mark.parametrize("sp, c", NORM_CASES)
def test_channel_norm_matches_var(sp, c):
    rng = np.random.default_rng([len(sp), *sp, c])
    x = _norm_input(sp, c, rng)
    gain, bias = rng.normal(size=c), rng.normal(size=c)
    g = rng.normal(size=x.shape)
    expected = channel_norm_var(x, gain, bias, g)
    tensors = [Tensor(a, requires_grad=True) for a in (x, gain, bias)]
    with Tape() as tape:
        out = channel_norm(*tensors)
        loss = tsum(out * Tensor(g))
    grads = backward(tape, loss)
    got = [out.data] + [grads[t].data for t in tensors]
    for a, e in zip(got, expected):
        assert a.shape == e.shape
        assert _rel(a, e) <= 1e-12


def _pool_input(sp, c, kind, rng):
    if kind == "distinct":
        return rng.normal(size=(c, *sp))
    if kind == "ties":             # small integers: most windows hold a tied maximum
        return np.round(rng.normal(size=(c, *sp)) * 1.5) + 0.0
    if kind == "zeros":            # +0 ties -0, in either order, in most windows
        return rng.choice([0.0, -0.0, -1.0], size=(c, *sp))
    return np.full((c, *sp), 0.75)   # every window is one four- or eight-way tie


POOL_SHAPES = ((32, 64), (4, 6), (2, 2), (16, 16, 8), (4, 4, 2), (2, 6, 4))
POOL_CASES = [(sp, c, kind) for sp in POOL_SHAPES
              for c in (1, 8) for kind in ("distinct", "ties", "constant")] \
    + [(sp, c, "zeros") for sp in POOL_SHAPES for c in (1, 8)]


@pytest.mark.parametrize("sp, c, kind", POOL_CASES)
def test_maxpool_matches_argmax(sp, c, kind):
    rng = np.random.default_rng([len(sp), *sp, c])
    x = _pool_input(sp, c, kind, rng)
    g = rng.normal(size=(c, *(s // 2 for s in sp)))
    expected = maxpool_argmax(x, g)
    xt = Tensor(x, requires_grad=True)
    with Tape() as tape:
        out = maxpool(xt)
        loss = tsum(out * Tensor(g))
    got = (out.data, backward(tape, loss)[xt].data)
    for a, e in zip(got, expected):
        assert a.shape == e.shape
        # bytes hold the sign bit: a +0/-0 tie takes the sign of the first zero
        assert a.tobytes() == e.tobytes()
