"""Dense float64 tensors with taped reverse-mode differentiation.

Tensors are immutable values: every operation returns a fresh tensor and
nothing in this module writes into an input buffer, so tensors can be shared
freely across threads. Gradients are collected by running operations inside
a ``Tape`` context (one tape per training thread) and calling ``backward``
on a scalar result:

    with Tape() as tape:
        loss = (((w @ x) - y) ** 2).sum()   # any composition of ops
    grads = backward(tape, loss)
    dw = grads[w]

``backward`` consumes its tape: it frees each intermediate gradient and each
node's saved arrays as soon as the reverse pass has used them, so the
returned map holds the gradients of leaves only (tensors no recorded op
produced, such as ``w`` above), and a tape runs backward once.

Everything is computed in 64-bit floats so that analytic gradients can be
compared against central finite differences at tight tolerances.
"""

from __future__ import annotations

import itertools
import math
import threading
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ContractError, NumericError, ShapeError

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)
_NORM_EPS = 1e-5    # added to the variance in layer_norm and channel_norm

_LOCAL = threading.local()


def _tape_stack() -> list:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = []
        _LOCAL.stack = stack
    return stack


def _active_tape() -> "Tape | None":
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tensor:
    """Immutable dense array of float64 values, optionally tracked on a tape."""

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.array(data, dtype=np.float64)
        arr.setflags(write=False)
        self.data = arr
        self.requires_grad = bool(requires_grad)

    @classmethod
    def _wrap(cls, arr: np.ndarray, requires_grad: bool = False) -> "Tensor":
        # Fast path for freshly computed arrays: no defensive copy.
        t = cls.__new__(cls)
        a = np.asarray(arr, dtype=np.float64)
        a.setflags(write=False)
        t.data = a
        t.requires_grad = requires_grad
        return t

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    # arithmetic sugar
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __pow__(self, exponent):
        return power(self, exponent)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return transpose(self, axes)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def as_tensor(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


class _Node:
    __slots__ = ("op", "input_ids", "out_id", "backward_fn")

    def __init__(self, op, input_ids, out_id, backward_fn):
        self.op = op
        self.input_ids = input_ids
        self.out_id = out_id
        self.backward_fn = backward_fn


class Tape:
    """Ordered record of operations for one differentiation pass.

    Nodes are appended in execution order, so inputs always precede their
    consumers; ``backward`` walks the list once in reverse, freeing each
    node's saved arrays as it goes, so a tape runs backward once. A tape is
    meant to be confined to a single thread.
    """

    def __init__(self):
        self._nodes: list[_Node] = []
        self._ids: dict[int, int] = {}
        self._tensors: list[Tensor] = []
        self._spent = False

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _tape_stack().pop()
        assert popped is self
        return False

    def _ensure(self, t: Tensor) -> int:
        nid = self._ids.get(id(t))
        if nid is None:
            nid = len(self._tensors)
            self._ids[id(t)] = nid
            self._tensors.append(t)
        return nid

    def _lookup(self, t: Tensor) -> int | None:
        return self._ids.get(id(t))

    def __len__(self) -> int:
        return len(self._nodes)


class GradMap:
    """Leaf gradients keyed by tensor, as ``backward`` left them.

    A leaf is a tensor that no recorded op produced. Asking for a recorded
    intermediate is a ``ContractError``, as ``backward`` freed its gradient;
    a leaf the loss does not reach, and a tensor the tape never recorded,
    read as zeros.
    """

    def __init__(self, tape: Tape, table: dict[int, np.ndarray | None]):
        self._tape = tape
        self._table = table

    def __getitem__(self, t: Tensor) -> Tensor:
        nid = self._tape._lookup(t)
        g = None if nid is None else self._table.get(nid)
        if g is None:
            if nid in self._table:
                raise ContractError(f"{t!r} is not a leaf: backward keeps leaf "
                                    f"gradients only")
            return Tensor._wrap(np.zeros(t.shape))
        return Tensor._wrap(g)


def backward(tape: Tape, loss: Tensor) -> GradMap:
    """Reverse accumulation over the tape, seeding d(loss)/d(loss) = 1.

    ``loss`` must be a scalar produced under ``tape``. The pass consumes the
    tape: once a node has run, its output gradient and its saved arrays are
    dropped, so the returned ``GradMap`` holds leaf gradients only, and a
    second ``backward`` on the same tape is a ``ContractError``. Leaves that
    do not influence the loss read back as zero gradients of matching shape.
    """
    if loss.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    loss_id = tape._lookup(loss)
    if loss_id is None:
        raise ContractError("loss tensor was not recorded on this tape")
    if tape._spent:
        raise ContractError("backward already consumed this tape")
    tape._spent = True
    table: dict[int, np.ndarray | None] = {loss_id: np.ones(loss.shape)}
    # entries whose array this loop allocated: a backward_fn may return its
    # g itself, a view of it, or one array for two inputs, so only a sum
    # made here is added into in place
    owned: set[int] = set()
    for node in reversed(tape._nodes):
        # every consumer of the output came later on the tape, so its
        # gradient is complete; None marks it as freed, not a leaf
        out_grad = table.get(node.out_id)
        table[node.out_id] = None
        backward_fn, node.backward_fn = node.backward_fn, None
        if out_grad is None:
            continue
        for in_id, g in zip(node.input_ids, backward_fn(out_grad)):
            if g is None:
                continue
            existing = table.get(in_id)
            if existing is None:
                table[in_id] = g
            elif in_id in owned:
                existing += g
            else:
                table[in_id] = total = existing + g
                if isinstance(total, np.ndarray):    # not a numpy scalar
                    owned.add(in_id)
    return GradMap(tape, table)


def _record(op: str, out: Tensor, inputs: Sequence[Tensor], backward_fn) -> Tensor:
    tape = _active_tape()
    req = any(t.requires_grad for t in inputs)
    out.requires_grad = req
    if tape is not None and req:
        in_ids = tuple(tape._ensure(t) for t in inputs)
        out_id = tape._ensure(out)
        tape._nodes.append(_Node(op, in_ids, out_id, backward_fn))
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor._wrap(a.data + b.data)

    def bw(g):
        return (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape))

    return _record("add", out, (a, b), bw)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor._wrap(a.data - b.data)

    def bw(g):
        return (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape))

    return _record("sub", out, (a, b), bw)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor._wrap(a.data * b.data)
    ad, bd = a.data, b.data

    def bw(g):
        return (_unbroadcast(g * bd, a.shape), _unbroadcast(g * ad, b.shape))

    return _record("mul", out, (a, b), bw)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor._wrap(a.data / b.data)
    ad, bd = a.data, b.data

    def bw(g):
        return (
            _unbroadcast(g / bd, a.shape),
            _unbroadcast(-g * ad / (bd * bd), b.shape),
        )

    return _record("div", out, (a, b), bw)


def neg(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor._wrap(-a.data)
    return _record("neg", out, (a,), lambda g: (-g,))


def power(a, exponent: float) -> Tensor:
    """Elementwise a ** c for a scalar exponent c."""
    a = as_tensor(a)
    c = float(exponent)
    out = Tensor._wrap(a.data ** c)
    ad = a.data

    def bw(g):
        return (g * c * ad ** (c - 1.0),)

    return _record("pow", out, (a,), bw)


def log(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor._wrap(np.log(a.data))
    ad = a.data
    return _record("log", out, (a,), lambda g: (g / ad,))


def clip(a, lo: float, hi: float) -> Tensor:
    """Clamp to [lo, hi]; gradient passes only through the interior."""
    a = as_tensor(a)
    out = Tensor._wrap(np.clip(a.data, lo, hi))
    mask = (a.data > lo) & (a.data < hi)

    def bw(g):
        return (g * mask,)

    return _record("clip", out, (a,), bw)


# ---------------------------------------------------------------------------
# reductions and shape surgery
# ---------------------------------------------------------------------------

def _expand_reduced(g: np.ndarray, shape, axis, keepdims) -> np.ndarray:
    if axis is None:
        return np.broadcast_to(g.reshape((1,) * len(shape)), shape).copy() if shape else g.reshape(())
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    axes = tuple(a % len(shape) for a in axes)
    if not keepdims:
        for a in sorted(axes):
            g = np.expand_dims(g, a)
    return np.broadcast_to(g, shape).copy()


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = Tensor._wrap(np.sum(a.data, axis=axis, keepdims=keepdims))
    shape = a.shape

    def bw(g):
        return (_expand_reduced(g, shape, axis, keepdims),)

    return _record("sum", out, (a,), bw)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = Tensor._wrap(np.mean(a.data, axis=axis, keepdims=keepdims))
    shape = a.shape
    count = a.size if axis is None else int(
        np.prod([shape[ax % len(shape)] for ax in ((axis,) if isinstance(axis, int) else axis)])
    )

    def bw(g):
        return (_expand_reduced(g, shape, axis, keepdims) / count,)

    return _record("mean", out, (a,), bw)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out = Tensor._wrap(a.data.reshape(shape))
    in_shape = a.shape

    def bw(g):
        return (g.reshape(in_shape),)

    return _record("reshape", out, (a,), bw)


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    axes = tuple(axes)
    out = Tensor._wrap(np.transpose(a.data, axes))
    inv = tuple(sorted(range(len(axes)), key=axes.__getitem__))

    def bw(g):
        return (np.transpose(g, inv),)

    return _record("transpose", out, (a,), bw)


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    out = Tensor._wrap(np.concatenate([t.data for t in ts], axis=axis))
    sizes = [t.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        pieces = []
        for i in range(len(ts)):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(offsets[i], offsets[i + 1])
            pieces.append(g[tuple(sl)])
        return tuple(pieces)

    return _record("concat", out, ts, bw)


def narrow(a, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice along one axis; the gradient zero-pads back."""
    a = as_tensor(a)
    sl = [slice(None)] * a.ndim
    sl[axis] = slice(start, start + length)
    out = Tensor._wrap(a.data[tuple(sl)].copy())
    in_shape = a.shape

    def bw(g):
        full = np.zeros(in_shape)
        full[tuple(sl)] = g
        return (full,)

    return _record("narrow", out, (a,), bw)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def matmul(a, b) -> Tensor:
    """Matrix product with broadcasting over leading batch axes.

    Both operands must have rank >= 2; the trailing two axes contract in
    the usual way and any leading axes broadcast.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs rank >= 2 operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents disagree: {a.shape} vs {b.shape}")
    out = Tensor._wrap(np.matmul(a.data, b.data))
    ad, bd = a.data, b.data
    needs = (a.requires_grad, b.requires_grad)

    def bw(g):
        ga = _unbroadcast(np.matmul(g, bd.swapaxes(-1, -2)), ad.shape) \
            if needs[0] else None
        gb = _unbroadcast(np.matmul(ad.swapaxes(-1, -2), g), bd.shape) \
            if needs[1] else None
        return (ga, gb)

    return _record("matmul", out, (a, b), bw)


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

def relu(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.maximum(a.data, 0.0)
    # out > 0 exactly where a > 0, NaN included
    return _record("relu", Tensor._wrap(out_data), (a,), lambda g: (g * (out_data > 0.0),))


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    x = a.data
    e = np.exp(-np.abs(x))
    out_data = np.where(x >= 0, 1.0, e) / (1.0 + e)
    out = Tensor._wrap(out_data)

    def bw(g):
        return (g * out_data * (1.0 - out_data),)

    return _record("sigmoid", out, (a,), bw)


# erf for gelu: one polynomial per interval of |z| below the edge, past
# which math.erf(z) rounds to 1
_ERF_PER_UNIT = 256
_ERF_DEGREE = 4
_ERF_EDGE = 6.0
# For 0 <= y < 2**51, y + _ROUND is exactly _ROUND + round(y), so its bits
# less those of _ROUND are round(y) as an integer.
_ROUND = 1.5 * 2.0 ** 52
_ROUND_BITS = int(np.float64(_ROUND).view(np.int64))


def _fit_erf_table() -> np.ndarray:
    """Column k holds, lowest degree first, the coefficients of erf's
    interpolant at Chebyshev points in u = _ERF_PER_UNIT |z| - k, for u in
    [-1/2, 1/2]; the last column is the constant 1."""
    intervals = int(_ERF_EDGE * _ERF_PER_UNIT)
    u = np.cos(np.pi * (np.arange(_ERF_DEGREE + 1) + 0.5) / (_ERF_DEGREE + 1)) / 2
    z = (np.arange(intervals)[:, None] + u) / _ERF_PER_UNIT
    values = np.fromiter(map(math.erf, z.ravel().tolist()), np.float64, z.size)
    table = np.zeros((_ERF_DEGREE + 1, intervals + 1))
    table[:, :intervals] = np.linalg.solve(np.vander(u, increasing=True),
                                           values.reshape(z.shape).T)
    table[0::2, 0] = 0.0     # erf is odd: erf(0) = 0, and tiny z keep their relative accuracy
    table[0, intervals] = 1.0
    return table


_ERF_TABLE = _fit_erf_table()


def _erf(z: np.ndarray) -> np.ndarray:
    """erf(z) elementwise, within 5e-16 of ``math.erf``; NaN stays NaN."""
    s = np.minimum(np.abs(z), _ERF_EDGE) * _ERF_PER_UNIT     # inf lands on the last column
    r = s + _ROUND
    # a NaN's bits index past the table, and clip sends it to the last column
    c = np.take(_ERF_TABLE, r.view(np.int64) - _ROUND_BITS, axis=1, mode="clip")
    s -= r - _ROUND           # u in [-1/2, 1/2]
    p = c[-1]
    for k in range(_ERF_DEGREE - 1, -1, -1):
        p *= s
        p += c[k]
    return np.copysign(p, z)


def gelu(a) -> Tensor:
    """Exact Gaussian-error-function form: 0.5 x (1 + erf(x / sqrt(2))).

    ``erf`` is ``_erf``: on |z| < 6 a degree-4 polynomial per interval of
    width 1/256, interpolated from ``math.erf`` when the module loads, and
    +-1 beyond. It is within 5e-16 of ``math.erf`` everywhere, so ``gelu(x)``
    is within 5e-16 |x| of the same formula evaluated with ``math.erf``.
    """
    a = as_tensor(a)
    x = a.data
    cdf = 0.5 * (1.0 + _erf(x * _INV_SQRT2))
    out = Tensor._wrap(x * cdf)

    def bw(g):
        pdf = np.exp(-0.5 * x * x) * _INV_SQRT2PI
        return (g * (cdf + x * pdf),)

    return _record("gelu", out, (a,), bw)


# ---------------------------------------------------------------------------
# softmax family
# ---------------------------------------------------------------------------

def softmax(a) -> Tensor:
    """Numerically stable softmax (max-subtracted) along the last axis."""
    a = as_tensor(a)
    if np.isnan(a.data).any():
        raise NumericError("softmax received NaN input")
    shifted = a.data - np.max(a.data, axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / np.sum(e, axis=-1, keepdims=True)
    out = Tensor._wrap(out_data)

    def bw(g):
        inner = np.sum(g * out_data, axis=-1, keepdims=True)
        return (out_data * (g - inner),)

    return _record("softmax", out, (a,), bw)


def logsumexp(a) -> Tensor:
    """Max-shifted log-sum-exp down the first axis."""
    a = as_tensor(a)
    m = np.max(a.data, axis=0, keepdims=True)
    soft = a.data - m
    np.exp(soft, out=soft)
    s = np.sum(soft, axis=0, keepdims=True)
    out_data = np.squeeze(m + np.log(s), axis=0)
    soft /= s
    out = Tensor._wrap(out_data)

    def bw(g):
        return (np.expand_dims(g, 0) * soft,)

    return _record("logsumexp", out, (a,), bw)


class _Tails(NamedTuple):
    """Where ``tail_logsumexp`` reads a (rows, cols) tensor."""

    rows: int
    cols: int
    one: np.ndarray        # columns read at a single entry
    one_at: np.ndarray     # flat positions of those entries
    tail: np.ndarray       # columns reduced over a tail
    admitted: np.ndarray   # (rows, len(tail)) bool: the row lies in the column's tail


def tail_sets(start, single, rows: int) -> _Tails:
    """The reads of ``tail_logsumexp`` on a (rows, len(start)) tensor: column
    i is reduced over rows start[i] to the end, or, where ``single[i]``
    holds, read at row start[i] alone. A caller that reduces many tensors
    of one layout builds this once."""
    start = np.asarray(start)
    single = np.asarray(single, dtype=bool)
    if start.ndim != 1 or single.shape != start.shape:
        raise ShapeError(f"tail_sets needs one start and flag per column, got "
                         f"{start.shape} and {single.shape}")
    cols = start.shape[0]
    one = np.flatnonzero(single)
    tail = np.flatnonzero(~single)
    return _Tails(rows, cols, one, start[one] * cols + one, tail,
                  np.arange(rows)[:, None] >= start[tail])


def tail_logsumexp(a, tails: _Tails) -> Tensor:
    """Column-wise log-sum-exp of a 2D tensor over each column's tail of
    rows, or its one entry, as ``tails`` (from ``tail_sets``) lays out.

    Each tail is shifted by its own max, so a tail far below the rest of
    its column keeps its digits. Rows above a tail are clamped to that max
    before ``exp`` and then zeroed, so a large entry there cannot overflow.
    """
    a = as_tensor(a)
    if a.shape != (tails.rows, tails.cols):
        raise ShapeError(f"tail_logsumexp laid out for ({tails.rows}, {tails.cols}) "
                         f"got a tensor of shape {a.shape}")
    rows, cols = a.shape
    one, one_at, tail, admitted = tails.one, tails.one_at, tails.tail, tails.admitted
    out_data = np.empty(cols)
    out_data[one] = a.data.take(one_at)
    if tail.size:
        e = a.data[:, tail]
        top = np.where(admitted, e, -np.inf).max(axis=0)
        e -= top
        np.minimum(e, 0.0, out=e)
        np.exp(e, out=e)
        e *= admitted
        s = e.sum(axis=0)
        out_data[tail] = top + np.log(s)
    out = Tensor._wrap(out_data)

    def bw(g):
        grad = np.zeros((rows, cols))
        grad.put(one_at, g[one])
        if tail.size:
            grad[:, tail] = e * (g[tail] / s)
        return (grad,)

    return _record("tail_logsumexp", out, (a,), bw)


# ---------------------------------------------------------------------------
# normalization layers
# ---------------------------------------------------------------------------

def layer_norm(a, gain, bias) -> Tensor:
    """Zero-mean unit-variance over the last axis, then affine gain/bias.

    Uses the population variance; the 1e-5 added to it keeps constant rows
    finite (they normalize to exactly zero before the affine step).
    """
    a, gain, bias = as_tensor(a), as_tensor(gain), as_tensor(bias)
    k = a.shape[-1]
    if gain.shape != (k,) or bias.shape != (k,):
        raise ShapeError(f"layer_norm gain/bias must have shape ({k},)")
    mu = a.data.mean(axis=-1, keepdims=True)
    var = a.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _NORM_EPS)
    xhat = (a.data - mu) * inv
    out = Tensor._wrap(xhat * gain.data + bias.data)
    gd = gain.data

    def bw(g):
        lead = tuple(range(g.ndim - 1))
        ggain = np.sum(g * xhat, axis=lead)
        gbias = np.sum(g, axis=lead)
        h = g * gd
        gx = inv * (h - h.mean(axis=-1, keepdims=True)
                    - xhat * (h * xhat).mean(axis=-1, keepdims=True))
        return (gx, ggain, gbias)

    return _record("layer_norm", out, (a, gain, bias), bw)


def channel_norm(a, gain, bias) -> Tensor:
    """Per-channel normalization over all spatial positions.

    Input layout is (C, spatial...); gain and bias are per-channel. This is
    the single-sample stand-in for batch statistics used inside the
    segmentation nets.

    The forward pass centres each channel once. The variance is the mean
    square of the centred values (two passes over the input, never
    E[x^2] - E[x]^2), and scaling them in place by 1 / sqrt(var + eps),
    eps = 1e-5, gives ``xhat``. The affine step writes one new array. Over
    the m positions of a channel, with h = gain * g, mean(h) = gain * sum(g) / m
    and mean(h * xhat) = gain * sum(g * xhat) / m, so the backward pass
    takes two reductions per channel, which are also the bias and gain
    gradients, and gives
    gx = gain / sqrt(var + eps) * (g - sum(g) / m - xhat * sum(g * xhat) / m).
    """
    a, gain, bias = as_tensor(a), as_tensor(gain), as_tensor(bias)
    c = a.shape[0]
    if gain.shape != (c,) or bias.shape != (c,):
        raise ShapeError(f"channel_norm gain/bias must have shape ({c},)")
    in_shape = a.shape
    x2 = a.data.reshape(c, -1)
    m = x2.shape[1]
    xhat = x2 - x2.mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(np.vecdot(xhat, xhat) / m + _NORM_EPS)
    xhat *= inv[:, None]
    out2 = xhat * gain.data[:, None]
    out2 += bias.data[:, None]
    out = Tensor._wrap(out2.reshape(in_shape))
    scale = inv * gain.data

    def bw(g):
        g2 = g.reshape(c, -1)
        gbias = g2.sum(axis=1)
        ggain = np.vecdot(g2, xhat)
        gx = xhat * (ggain / m)[:, None]
        gx += (gbias / m)[:, None]
        np.subtract(g2, gx, out=gx)
        gx *= scale[:, None]
        return (gx.reshape(in_shape), ggain, gbias)

    return _record("channel_norm", out, (a, gain, bias), bw)


# ---------------------------------------------------------------------------
# convolution family
# ---------------------------------------------------------------------------

def _fold(a: np.ndarray, k: int, length: int) -> np.ndarray:
    """(k * C, length) array whose row o * C + c is a[c, o:o + length]."""
    out = np.empty((k, a.shape[0], length))
    for o in range(k):
        out[o] = a[:, o:o + length]
    return out.reshape(-1, length)


def conv(x, weight, bias=None) -> Tensor:
    """Same-size cross-correlation of a (C_in, spatial...) input with a
    (C_out, C_in, k...) kernel of one odd side k, plus an optional
    per-channel bias: the input is zero-padded by p = (k - 1) // 2, so the
    output keeps its extents.

    The input is laid out flat, as ``xf`` of shape (C_in, P), on a grid
    whose rows share their padding. Every axis after the first has extent
    s + p: the input's s positions, then p zeros. A kernel reaches p
    positions past either end of a row, so these zeros serve as this row's
    right pad and the next row's left pad. The first axis has p zero rows at
    both ends, and ``xf`` starts with the zeros that the first row's left
    reach needs: the input sits at the flat index of grid position (p, ..., p).

    Output position o reads kernel offset ``off`` at flat index
    shift(off) + j(o), where shift(off) and j(o) are the flat indices of
    ``off`` and o on the grid, so each offset reads one contiguous slice of
    ``xf``. The last kernel axis is folded into the GEMM: ``xs`` stacks the
    k copies of ``xf`` shifted by 0..k-1 along the flat axis, and each
    offset of the other kernel axes is one (C_out, k * C_in) @ (k * C_in, L)
    product on a slice of ``xs``, L the largest j + 1. The products
    accumulate on a buffer indexed by j; a reshape and a crop of each row to
    its input positions give the result.

    The backward pass places the gradient at each output's flat index j(o),
    behind as many leading zeros as the largest shift (``gd``). The weight
    gradient is one GEMM per offset of ``gd`` against the matching slice of
    ``xs``. The input gradient is the correlation of ``gd`` with the kernel
    flipped along every axis and transposed in its channels, computed like
    the forward pass on the folded ``gd``: one
    (C_in, k * C_out) @ (k * C_out, L) GEMM per offset over the L flat
    positions from the first input position to the last, then cropped like
    the output. No im2col matrix is built, and no padded copy is kept: the
    tape keeps the input and the weight, and the backward pass lays ``xf``
    out again as the forward pass does and rebuilds ``xs`` from it, freeing
    ``xs`` once the weight gradient is done.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    sp_rank = weight.ndim - 2
    if sp_rank not in (2, 3):
        raise ShapeError(f"conv weight must be rank 4 or 5, got shape {weight.shape}")
    if x.ndim != sp_rank + 1:
        raise ShapeError(f"conv input {x.shape} does not match weight {weight.shape}")
    c_out, c_in = weight.shape[0], weight.shape[1]
    if x.shape[0] != c_in:
        raise ShapeError(f"conv input channels {x.shape[0]} != weight C_in {c_in}")
    kernel = weight.shape[2:]
    k = kernel[0]
    if k % 2 == 0 or any(e != k for e in kernel):
        raise ShapeError(f"conv needs one odd kernel side on every axis, got {kernel}")
    pad = (k - 1) // 2
    sp = x.shape[1:]

    rows = tuple(s + pad for s in sp[1:])   # a row after the first axis: input, then gap
    steps = [math.prod(rows[d:]) for d in range(sp_rank)]   # flat stride of each axis
    start = pad * sum(steps)
    n = start + (sp[0] + pad) * steps[0]
    width = sp[0] * steps[0]
    span = 1 + sum((s - 1) * t for s, t in zip(sp, steps))   # L: last j + 1
    crop = (slice(None), slice(None), *(slice(0, s) for s in sp[1:]))   # a row's positions
    xd = x.data

    def lay_out():
        """The input on the padded flat grid, ``xf``: a zero fill and one
        strided copy, or a view of the input when k is 1."""
        if not pad:
            return xd.reshape(c_in, -1)
        xf = np.zeros((c_in, n))
        xf[:, start:start + width].reshape(c_in, sp[0], *rows)[crop] = xd
        return xf

    fold_len = n - k + 1
    # flat index of every offset whose last coordinate is 0, in weight order
    shifts = [sum(o * s for o, s in zip(off, steps))
              for off in itertools.product(range(k), repeat=sp_rank - 1)]
    # (offsets, C_out, k * C_in), columns in the row order of ``xs``
    wf = weight.data.reshape(c_out, c_in, -1, k).transpose(2, 0, 3, 1) \
        .reshape(-1, c_out, k * c_in)

    # j past span only reaches positions the crop drops, so it is never set
    acc = np.empty((c_out, width))
    _gemm_sum(wf, _fold(lay_out(), k, fold_len), shifts, acc, span)
    out_data = acc.reshape(c_out, sp[0], *rows)[crop]
    if bias is not None:
        bias = as_tensor(bias)
        if bias.shape != (c_out,):
            raise ShapeError(f"conv bias must have shape ({c_out},)")
        out_data = out_data + bias.data.reshape(c_out, *(1,) * sp_rank)
    out = Tensor._wrap(np.ascontiguousarray(out_data))

    inputs = (x, weight) if bias is None else (x, weight, bias)
    needs = tuple(t.requires_grad for t in inputs)
    wd = weight.data

    def bw(g):
        # built first, so the padded input dies before ``gs`` is made
        xs = _fold(lay_out(), k, fold_len) if needs[1] else None
        # gs[o] is gd shifted left by o, so gs.reshape(-1, lead + n) is gd
        # folded like ``xs``; g is written at its outputs in each copy
        lead = shifts[-1] + k - 1          # the largest shift
        gs = np.zeros((k, c_out, lead + n))
        for o in range(k):
            # a view: only the contiguous flat axis is split
            flat = gs[o, :, lead - o:lead - o + width]
            flat.reshape(c_out, sp[0], *rows)[crop] = g
        gw = None
        if needs[1]:
            g_placed = gs[0, :, lead:lead + span]
            gwf = np.empty((len(shifts), c_out, k * c_in))
            for i, s in enumerate(shifts):
                np.matmul(g_placed, xs[:, s:s + span].T, out=gwf[i])
            del xs          # freed before the input gradient's buffers exist
            gw = gwf.reshape(-1, c_out, k, c_in).transpose(1, 3, 0, 2).reshape(wd.shape)
        gx = None
        if needs[0]:
            # block o of the folded gd pairs with the kernel's last-axis
            # offset k - 1 - o, hence the flip
            gs = gs.reshape(-1, lead + n)
            wg = wd[..., ::-1].reshape(c_out, c_in, -1, k).transpose(2, 1, 3, 0) \
                .reshape(-1, c_in, k * c_out)
            # the input occupies flat indices start .. start + span - 1
            base = shifts[-1] + start
            gxf = np.empty((c_in, width))
            _gemm_sum(wg, gs, [base - s for s in shifts], gxf, span)
            gx = gxf.reshape(c_in, sp[0], *rows)[crop]
        if bias is None:
            return (gx, gw)
        return (gx, gw, g.reshape(c_out, -1).sum(axis=1))

    return _record("conv", out, inputs, bw)


def _gemm_sum(weights, src, starts, out, width):
    """out[:, :width] = sum over i of weights[i] @ src[:, starts[i]:starts[i] + width].

    The first product is written straight into ``out``. The product buffer
    shares ``out``'s strides: numpy adds two equally strided views several
    times faster than a view and a contiguous array.
    """
    head = out[:, :width]
    np.matmul(weights[0], src[:, starts[0]:starts[0] + width], out=head)
    part = np.empty(out.shape)[:, :width]
    for w, s in zip(weights[1:], starts[1:]):
        np.matmul(w, src[:, s:s + width], out=part)
        head += part


def _blocks(a: np.ndarray) -> np.ndarray:
    """(C, 2h_1, ..., 2h_r) -> (C, h_1, ..., h_r, 2^r): each 2x...x2 block's
    entries last, in C order of their offsets."""
    c, sp = a.shape[0], a.shape[1:]
    halves = tuple(s // 2 for s in sp)
    split = a.reshape(c, *(v for h in halves for v in (h, 2)))
    perm = (0, *range(1, 2 * len(sp), 2), *range(2, 2 * len(sp) + 1, 2))
    return split.transpose(perm).reshape(c, *halves, -1)


def _unblocks(b: np.ndarray) -> np.ndarray:
    """The inverse of ``_blocks``: (C, h_1, ..., h_r, 2^r) -> (C, 2h_1, ..., 2h_r)."""
    c, halves = b.shape[0], b.shape[1:-1]
    r = len(halves)
    perm = (0, *(v for i in range(1, r + 1) for v in (i, r + i)))
    return b.reshape(c, *halves, *(2,) * r).transpose(perm) \
        .reshape(c, *(2 * h for h in halves))


def transposed_conv(x, weight) -> Tensor:
    """Adjoint of ``conv`` with the same weight when its kernel and step are
    both 2: every spatial extent of the (C_in, spatial...) input doubles.

    The weight layout is (C_in, C_out, 2, ..., 2): its first axis matches
    the input channels of this op, and a kernel other than 2 on any spatial
    axis is a ``ContractError``. With kernel and step equal, the output
    windows do not overlap: one (C_out * 2^r, C_in) @ (C_in, prod(spatial))
    GEMM gives every output value, and a block interleave (``_unblocks``)
    puts each input position's 2^r values in its 2x...x2 output block. The
    backward pass reads the gradient back into that layout (``_blocks``)
    and takes two GEMMs.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    sp_rank = weight.ndim - 2
    if sp_rank not in (2, 3):
        raise ShapeError(f"transposed_conv weight must be rank 4 or 5, got {weight.shape}")
    if x.ndim != sp_rank + 1:
        raise ShapeError(f"transposed_conv input {x.shape} does not match weight {weight.shape}")
    c_in, c_out = weight.shape[0], weight.shape[1]
    if x.shape[0] != c_in:
        raise ShapeError(f"transposed_conv input channels {x.shape[0]} != weight C_in {c_in}")
    if weight.shape[2:] != (2,) * sp_rank:
        raise ContractError(f"transposed_conv needs kernel 2 on every spatial axis, "
                            f"got weight {weight.shape}")
    sp = x.shape[1:]

    w2 = weight.data.reshape(c_in, -1)          # (C_in, C_out * 2^r)
    x2 = x.data.reshape(c_in, -1)
    cols = (w2.T @ x2).reshape(c_out, -1, *sp)  # (C_out, 2^r, spatial...)
    out = Tensor._wrap(_unblocks(np.moveaxis(cols, 1, -1)))
    xd = x.data
    needs = (x.requires_grad, weight.requires_grad)

    def bw(g):
        gcols = np.moveaxis(_blocks(g), -1, 1).reshape(w2.shape[1], -1)
        gx = (w2 @ gcols).reshape(xd.shape) if needs[0] else None
        gw = (x2 @ gcols.T).reshape(weight.shape) if needs[1] else None
        return (gx, gw)

    return _record("transposed_conv", out, (x, weight), bw)


def maxpool(x) -> Tensor:
    """Kernel-2 / stride-2 max pooling; every spatial extent must be even.

    The input is read as 2^r strided views x[:, o_1::2, ..., o_r::2], one
    per offset o of the 2x...x2 window in C order, and the forward pass is
    one ``np.maximum`` chain over them. The backward pass routes each
    window's gradient to the first view equal to its maximum, so ties go to
    the first maximal element of the window; a window holding NaN has a NaN
    maximum and passes no gradient.
    """
    x = as_tensor(x)
    sp = x.shape[1:]
    if any(s % 2 for s in sp):
        raise ShapeError(f"maxpool needs even spatial extents, got {sp}")
    xd = x.data
    slices = [(slice(None), *(slice(o, None, 2) for o in off))
              for off in itertools.product((0, 1), repeat=len(sp))]
    views = [xd[sl] for sl in slices]
    # the earlier view second: where numpy's maximum meets +0 and -0 it
    # returns its second argument, as the first-max rule does
    out_data = np.maximum(views[1], views[0])
    for v in views[2:]:
        np.maximum(v, out_data, out=out_data)
    out = Tensor._wrap(out_data)

    def bw(g):
        gx = np.empty(xd.shape)             # the views cover it
        free = np.ones(out_data.shape, bool)  # windows whose gradient is not yet routed
        for sl, v in zip(slices, views):
            hit = v == out_data
            hit &= free
            free ^= hit
            gx[sl] = np.where(hit, g, 0.0)
        return (gx,)

    return _record("maxpool", out, (x,), bw)


# ---------------------------------------------------------------------------
# parameter initialization
# ---------------------------------------------------------------------------

def trunc_normal(rng: np.random.Generator, shape, std: float = 0.02) -> Tensor:
    """Normal(0, std) samples with anything beyond two deviations redrawn."""
    vals = rng.normal(0.0, std, size=shape)
    bad = np.abs(vals) > 2.0 * std
    while bad.any():
        vals[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(vals) > 2.0 * std
    return Tensor(vals, requires_grad=True)


def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor._wrap(np.zeros(shape), requires_grad=requires_grad)
