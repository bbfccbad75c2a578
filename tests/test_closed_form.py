"""Closed-form sweeps against the slower implementations they replaced.

The oracles below are the earlier implementations of the Cox likelihood
parts, the Breslow baseline, the MTLR admissible-sequence mask, the
per-subject MTLR tail-sum risk, the Fenwick-tree concordance, the
cell-by-cell EHR reader and the im2col convolution, kept here only as
references. Each survival case runs on seeded cohorts with heavy ties
(times rounded to integers) and with no ties, at n = 50 and n = 2000.
"""

import csv
import math

import numpy as np
import pytest

from oncokit.autodiff import Tape, Tensor, _col2im, _im2col, backward, conv, tsum
from oncokit.cox import _breslow_baseline, _loglik_parts
from oncokit.ehr import Cohort, load_ehr
from oncokit.errors import ContractError
from oncokit.metrics import c_index_naive, concordance_detail
from oncokit.mtlr import (
    MtlrModel,
    _admissible_offsets,
    censor_interval,
    event_interval,
    mtlr_cohort_risks,
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


def concordance_fenwick(t, r, e, orientation, ties):
    """(concordant, comparable): walking times in descending order, the
    subjects already inserted are those with strictly larger T."""
    if orientation == "hazard":
        r = -r
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
                if ties == "harrell":
                    eq = leq - (tree.prefix(int(rank[j]) - 1) if rank[j] > 0 else 0)
                    concordant += 0.5 * eq
        for j in group:
            tree.add(int(rank[j]))
        pos = group_end
    return concordant, comparable


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
    ll, score, hess = _loglik_parts(beta, x, times, events, ridge)
    ll0, score0, hess0 = loglik_parts_loop(beta, x, times, events, ridge)
    assert _rel(ll, ll0) <= 1e-10
    assert _rel(score, score0) <= 1e-10
    assert _rel(hess, hess0) <= 1e-10


@pytest.mark.parametrize("n, ties", CASES)
def test_breslow_baseline_matches_loop(n, ties):
    x, times, events = _data(n, ties, seed=3 * n + ties)
    beta = np.array([0.7, -0.4, 0.2])
    steps = np.array(_breslow_baseline(beta, x, times, events))
    oracle = np.array(breslow_baseline_loop(beta, x, times, events))
    assert steps.shape == oracle.shape
    assert np.array_equal(steps[:, 0], oracle[:, 0])
    assert _rel(steps[:, 1], oracle[:, 1]) <= 1e-10


def test_breslow_baseline_reads_risk_sets_exactly():
    # each risk-set sum is read off the cumulative sum directly, where the
    # loop subtracted a running total that loses digits as the set shrinks
    x, times, events = _data(2000, False, seed=9)
    beta = np.array([0.7, -0.4, 0.2])
    steps = np.array(_breslow_baseline(beta, x, times, events))
    eta = x @ beta
    w = np.exp(eta - eta.max())
    exact = np.cumsum([1.0 / (math.fsum(w[times >= t]) * np.exp(eta.max()))
                       for t in steps[:, 0]])
    assert _rel(steps[:, 1], exact) <= 1e-14


# ------------------------------------------------------------------ MTLR

@pytest.mark.parametrize("n, ties", CASES)
def test_admissible_offsets_match_loop(n, ties):
    x, times, events = _data(n, ties, seed=5 * n + ties)
    grid = time_grid(times, events, m=9)
    # censored rows on and between boundaries, and past the last one
    times[:3] = [grid[0], grid[-1], grid[-1] + 1.0]
    events[:3] = [0, 1, 0]
    assert np.array_equal(_admissible_offsets(grid, times, events),
                          admissible_offsets_loop(grid, times, events))


def test_admissible_offsets_reject_event_past_grid():
    with pytest.raises(ContractError, match="beyond the last boundary"):
        _admissible_offsets(np.array([1.0, 2.0]), np.array([0.5, 2.5]), np.array([1, 1]))
    # a censored row past the grid is fine
    offs = _admissible_offsets(np.array([1.0, 2.0]), np.array([2.5]), np.array([0]))
    assert np.array_equal(offs, [[_MASK_OFF, _MASK_OFF, 0.0]])


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
    for orientation in ("literal", "hazard"):
        for ties in ("strict", "harrell"):
            res = concordance_detail(t, r, e, orientation=orientation, ties=ties)
            concordant, comparable = concordance_fenwick(t, r, e, orientation, ties)
            assert (res.concordant, res.comparable_pairs) == (concordant, comparable)
            assert res.value == c_index_naive(t, r, e, orientation=orientation, ties=ties)


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
    ((32, 64), 2, 3, 1, 1)]


@pytest.mark.parametrize("sp, c_in, k, stride, padding", CONV_CASES)
def test_conv_matches_im2col(sp, c_in, k, stride, padding):
    rng = np.random.default_rng([len(sp), c_in, k, stride, padding])
    c_out = 8 if sp == (32, 64) else 3          # the super image: the U-Net's first layer
    x = rng.normal(size=(c_in, *sp))
    w = rng.normal(size=(c_out, c_in, *(k,) * len(sp)))
    b = rng.normal(size=c_out)
    g = rng.normal(size=(c_out, *((s + 2 * padding - k) // stride + 1 for s in sp)))
    expected = conv_im2col(x, w, b, stride, padding, g)
    tensors = [Tensor(a, requires_grad=True) for a in (x, w, b)]
    with Tape() as tape:
        out = conv(*tensors, stride=stride, padding=padding)
        loss = tsum(out * Tensor(g))
    grads = backward(tape, loss)
    got = [out.data] + [grads[t].data for t in tensors]
    for a, e in zip(got, expected):
        assert a.shape == e.shape
        assert _rel(a, e) <= 1e-12
