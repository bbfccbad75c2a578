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

Everything is computed in 64-bit floats so that analytic gradients can be
compared against central finite differences at tight tolerances.
"""

from __future__ import annotations

import math
import threading
from typing import Iterable, Sequence

import numpy as np
from scipy.special import erf as _erf

from .errors import ContractError, NumericError, ShapeError

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

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
    consumers; ``backward`` walks the list once in reverse. A tape is meant
    to be confined to a single thread.
    """

    def __init__(self):
        self._nodes: list[_Node] = []
        self._ids: dict[int, int] = {}
        self._tensors: list[Tensor] = []

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
    """Gradients keyed by tensor. Unrecorded tensors read as zeros."""

    def __init__(self, tape: Tape, table: dict[int, np.ndarray]):
        self._tape = tape
        self._table = table

    def __getitem__(self, t: Tensor) -> Tensor:
        nid = self._tape._lookup(t)
        if nid is None or nid not in self._table:
            return Tensor._wrap(np.zeros(t.shape))
        return Tensor._wrap(self._table[nid])


def backward(tape: Tape, loss: Tensor) -> GradMap:
    """Reverse accumulation over the tape, seeding d(loss)/d(loss) = 1.

    ``loss`` must be a scalar produced under ``tape``. Leaves that do not
    influence the loss read back as zero gradients of matching shape.
    """
    if loss.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    loss_id = tape._lookup(loss)
    if loss_id is None:
        raise ContractError("loss tensor was not recorded on this tape")
    table: dict[int, np.ndarray] = {loss_id: np.ones(loss.shape)}
    for node in reversed(tape._nodes):
        out_grad = table.get(node.out_id)
        if out_grad is None:
            continue
        input_grads = node.backward_fn(out_grad)
        for in_id, g in zip(node.input_ids, input_grads):
            if g is None:
                continue
            existing = table.get(in_id)
            if existing is None:
                table[in_id] = g
            else:
                table[in_id] = existing + g
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


def exp(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.exp(a.data)
    out = Tensor._wrap(out_data)
    return _record("exp", out, (a,), lambda g: (g * out_data,))


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
    inv = tuple(np.argsort(axes))

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


def rcumsum(a, axis: int = -1) -> Tensor:
    """Reverse cumulative sum: out[..., k, ...] = sum over j >= k along axis.

    Each input element feeds every output at or before its position, so the
    gradient is the forward cumulative sum of the upstream gradient.
    """
    a = as_tensor(a)
    out = Tensor._wrap(np.flip(np.cumsum(np.flip(a.data, axis), axis=axis), axis))
    return _record("rcumsum", out, (a,), lambda g: (np.cumsum(g, axis=axis),))


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
    out = Tensor._wrap(np.maximum(a.data, 0.0))
    mask = a.data > 0.0
    return _record("relu", out, (a,), lambda g: (g * mask,))


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    x = a.data
    out_data = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                        np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    out = Tensor._wrap(out_data)

    def bw(g):
        return (g * out_data * (1.0 - out_data),)

    return _record("sigmoid", out, (a,), bw)


def gelu(a) -> Tensor:
    """Exact Gaussian-error-function form: 0.5 x (1 + erf(x / sqrt(2)))."""
    a = as_tensor(a)
    x = a.data
    cdf = 0.5 * (1.0 + _erf(x * _INV_SQRT2))
    out = Tensor._wrap(x * cdf)
    pdf = np.exp(-0.5 * x * x) * _INV_SQRT2PI

    def bw(g):
        return (g * (cdf + x * pdf),)

    return _record("gelu", out, (a,), bw)


# ---------------------------------------------------------------------------
# softmax family
# ---------------------------------------------------------------------------

def softmax(a, axis: int = -1) -> Tensor:
    """Numerically stable softmax (max-subtracted) along one axis."""
    a = as_tensor(a)
    if np.isnan(a.data).any():
        raise NumericError("softmax received NaN input")
    shifted = a.data - np.max(a.data, axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / np.sum(e, axis=axis, keepdims=True)
    out = Tensor._wrap(out_data)

    def bw(g):
        inner = np.sum(g * out_data, axis=axis, keepdims=True)
        return (out_data * (g - inner),)

    return _record("softmax", out, (a,), bw)


def logsumexp(a, axis: int = -1, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    m = np.max(a.data, axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    s = np.sum(e, axis=axis, keepdims=True)
    out_data = m + np.log(s)
    soft = e / s
    if not keepdims:
        out_data = np.squeeze(out_data, axis=axis)
    out = Tensor._wrap(out_data)

    def bw(g):
        ge = g if keepdims else np.expand_dims(g, axis)
        return (ge * soft,)

    return _record("logsumexp", out, (a,), bw)


# ---------------------------------------------------------------------------
# normalization layers
# ---------------------------------------------------------------------------

def layer_norm(a, gain, bias, eps: float = 1e-5) -> Tensor:
    """Zero-mean unit-variance over the last axis, then affine gain/bias.

    Uses the population variance; ``eps`` keeps constant rows finite (they
    normalize to exactly zero before the affine step).
    """
    a, gain, bias = as_tensor(a), as_tensor(gain), as_tensor(bias)
    if eps <= 0:
        raise ContractError("layer_norm eps must be positive")
    k = a.shape[-1]
    if gain.shape != (k,) or bias.shape != (k,):
        raise ShapeError(f"layer_norm gain/bias must have shape ({k},)")
    mu = a.data.mean(axis=-1, keepdims=True)
    var = a.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
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


def channel_norm(a, gain, bias, eps: float = 1e-5) -> Tensor:
    """Per-channel normalization over all spatial positions.

    Input layout is (C, spatial...); gain and bias are per-channel. This is
    the single-sample stand-in for batch statistics used inside the
    segmentation nets.
    """
    a, gain, bias = as_tensor(a), as_tensor(gain), as_tensor(bias)
    c = a.shape[0]
    if gain.shape != (c,) or bias.shape != (c,):
        raise ShapeError(f"channel_norm gain/bias must have shape ({c},)")
    in_shape = a.shape
    x2 = a.data.reshape(c, -1)
    mu = x2.mean(axis=1, keepdims=True)
    var = x2.var(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x2 - mu) * inv
    out2 = xhat * gain.data[:, None] + bias.data[:, None]
    out = Tensor._wrap(out2.reshape(in_shape))
    gd = gain.data

    def bw(g):
        g2 = g.reshape(c, -1)
        ggain = np.sum(g2 * xhat, axis=1)
        gbias = np.sum(g2, axis=1)
        h = g2 * gd[:, None]
        gx = inv * (h - h.mean(axis=1, keepdims=True)
                    - xhat * (h * xhat).mean(axis=1, keepdims=True))
        return (gx.reshape(in_shape), ggain, gbias)

    return _record("channel_norm", out, (a, gain, bias), bw)


# ---------------------------------------------------------------------------
# convolution family
# ---------------------------------------------------------------------------

def _conv_out_extent(extent: int, k: int, stride: int, padding: int) -> int:
    return (extent + 2 * padding - k) // stride + 1


def _pad_spatial(x: np.ndarray, padding: int) -> np.ndarray:
    if padding == 0:
        return x
    # zeros plus one slice assignment: several times faster than np.pad
    # at these sizes
    xp = np.zeros((x.shape[0], *(s + 2 * padding for s in x.shape[1:])))
    xp[(slice(None), *(slice(padding, padding + s) for s in x.shape[1:]))] = x
    return xp


def _im2col(xp: np.ndarray, kernel: tuple[int, ...], stride: int,
            out_sp: tuple[int, ...]) -> np.ndarray:
    """Gather sliding windows of a padded (C, spatial...) array into columns
    of shape (C * prod(kernel), prod(out_sp))."""
    c = xp.shape[0]
    cols = np.empty((c, *kernel, *out_sp), dtype=xp.dtype)
    for off in np.ndindex(*kernel):
        sl = tuple(slice(o, o + stride * (e - 1) + 1, stride)
                   for o, e in zip(off, out_sp))
        cols[(slice(None), *off)] = xp[(slice(None), *sl)]
    return cols.reshape(c * int(np.prod(kernel)), int(np.prod(out_sp)))


def _col2im(cols: np.ndarray, channels: int, kernel: tuple[int, ...],
            stride: int, padded_sp: tuple[int, ...],
            out_sp: tuple[int, ...]) -> np.ndarray:
    """Adjoint of _im2col: scatter-add columns back onto the padded grid."""
    acc = np.zeros((channels, *padded_sp))
    cols = cols.reshape(channels, *kernel, *out_sp)
    for off in np.ndindex(*kernel):
        sl = tuple(slice(o, o + stride * (e - 1) + 1, stride)
                   for o, e in zip(off, out_sp))
        acc[(slice(None), *sl)] += cols[(slice(None), *off)]
    return acc


def _fold(a: np.ndarray, k: int, length: int) -> np.ndarray:
    """(k * C, length) array whose row o * C + c is a[c, o:o + length]."""
    out = np.empty((k, a.shape[0], length))
    for o in range(k):
        out[o] = a[:, o:o + length]
    return out.reshape(-1, length)


def conv(x, weight, bias=None, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation of a (C_in, spatial...) input with a
    (C_out, C_in, k...) kernel, plus an optional per-channel bias.

    The padded input is flattened to ``xf`` of shape (C_in, P), P the size
    of the padded grid. Output position o reads kernel offset ``off`` at
    flat index shift(off) + stride * j(o), where shift(off) and j(o) are the
    flat indices of ``off`` and o on the padded grid, so each offset reads
    one strided slice of ``xf``. The last kernel axis (extent k) is folded
    into the GEMM: ``xs`` stacks the k copies of ``xf`` shifted by 0..k-1
    along the flat axis, and each offset of the other kernel axes is one
    (C_out, k * C_in) @ (k * C_in, L) product on a strided slice of ``xs``.
    The products accumulate on a (C_out, O_1 * prod(padded[1:])) buffer
    indexed by j; a reshape and a crop of its trailing axes to the output
    extents give the result.

    The backward pass places the gradient on the padded grid at each
    output's anchor, flat index stride * j(o), behind as many leading zeros
    as the largest shift (``gd``). The weight gradient is one GEMM per
    offset of ``gd`` against the matching slice of ``xs``. The input
    gradient is the correlation of ``gd`` with the kernel flipped along
    every axis and transposed in its channels, computed like the forward
    pass on the folded ``gd``, one (C_in, k * C_out) @ (k * C_out, P) GEMM
    per offset accumulated onto the padded grid, then cropped by the
    padding. No im2col matrix is built: the tape keeps ``xf`` (the input
    itself when ``padding`` is 0) and the weight, and the backward pass
    rebuilds ``xs``.
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
    if stride < 1 or padding < 0:
        raise ContractError(f"conv needs stride >= 1 and padding >= 0, "
                            f"got stride {stride}, padding {padding}")
    kernel = weight.shape[2:]
    sp = x.shape[1:]
    out_sp = tuple(_conv_out_extent(s, k, stride, padding) for s, k in zip(sp, kernel))
    if any(e < 1 for e in out_sp):
        raise ShapeError(
            f"conv output extent would be non-positive: input {sp}, kernel {kernel}, "
            f"stride {stride}, padding {padding}")

    xp = _pad_spatial(x.data, padding)
    padded_sp = xp.shape[1:]
    xf = xp.reshape(c_in, -1)
    n = xf.shape[1]
    k_last = kernel[-1]
    fold_len = n - k_last + 1
    # flat stride of each spatial axis on the padded grid
    steps = [int(np.prod(padded_sp[d + 1:])) for d in range(sp_rank)]
    # flat index on the padded grid of every offset whose last coordinate
    # is 0, in weight order
    shifts = np.arange(n).reshape(padded_sp)[
        (*(slice(k) for k in kernel[:-1]), 0)].ravel().tolist()
    span = 1 + sum((e - 1) * s for e, s in zip(out_sp, steps))   # L: last j + 1
    reach = stride * (span - 1) + 1
    width = out_sp[0] * steps[0]
    # (offsets, C_out, k_last * C_in), columns in the row order of ``xs``
    wf = weight.data.reshape(c_out, c_in, -1, k_last).transpose(2, 0, 3, 1) \
        .reshape(-1, c_out, k_last * c_in)

    xs = _fold(xf, k_last, fold_len)
    # The first product is written straight into the accumulator; j past
    # span only reaches positions the crop drops, so it is never zeroed.
    # The product buffer shares the accumulator's strides: numpy adds two
    # equally strided views several times faster than a view and a
    # contiguous array.
    acc = np.empty((c_out, width))
    head = acc[:, :span]
    np.matmul(wf[0], xs[:, shifts[0]:shifts[0] + reach:stride], out=head)
    part = np.empty((c_out, width))[:, :span]
    for w_off, s in zip(wf[1:], shifts[1:]):
        np.matmul(w_off, xs[:, s:s + reach:stride], out=part)
        head += part
    crop = (slice(None), slice(None), *(slice(0, e) for e in out_sp[1:]))
    out_data = acc.reshape(c_out, out_sp[0], *padded_sp[1:])[crop]
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
        # gs[o] is gd shifted left by o, so gs.reshape(-1, lead + n) is gd
        # folded like ``xs``; g is written at its anchors in each copy
        lead = shifts[-1] + k_last - 1          # the largest shift
        gs = np.zeros((k_last, c_out, lead + n))
        anchors = (slice(None), *(slice(0, stride * e, stride) for e in out_sp))
        for o in range(k_last):
            # a view: only the contiguous flat axis is split
            gs[o, :, lead - o:lead - o + n].reshape(c_out, *padded_sp)[anchors] = g
        gw = None
        if needs[1]:
            xs = _fold(xf, k_last, fold_len)
            g_anchored = gs[0, :, lead:lead + reach]
            gwf = np.empty((len(shifts), c_out, k_last * c_in))
            for i, s in enumerate(shifts):
                np.matmul(g_anchored, xs[:, s:s + reach].T, out=gwf[i])
            gw = gwf.reshape(-1, c_out, k_last, c_in).transpose(1, 3, 0, 2).reshape(wd.shape)
        gx = None
        if needs[0]:
            # block o of the folded gd pairs with the kernel's last-axis
            # offset k_last - 1 - o, hence the flip
            gs = gs.reshape(-1, lead + n)
            wg = wd[..., ::-1].reshape(c_out, c_in, -1, k_last).transpose(2, 1, 3, 0) \
                .reshape(-1, c_in, k_last * c_out)
            base = shifts[-1]
            gxf = np.empty(xf.shape)
            np.matmul(wg[0], gs[:, base - shifts[0]:base - shifts[0] + n], out=gxf)
            part = np.empty(xf.shape)
            for w_off, s in zip(wg[1:], shifts[1:]):
                np.matmul(w_off, gs[:, base - s:base - s + n], out=part)
                gxf += part
            gx = gxf.reshape(c_in, *padded_sp)
            if padding:
                gx = gx[(slice(None), *(slice(padding, padding + e) for e in sp))]
        if bias is None:
            return (gx, gw)
        return (gx, gw, g.reshape(c_out, -1).sum(axis=1))

    return _record("conv", out, inputs, bw)


def transposed_conv(x, weight, stride: int = 2) -> Tensor:
    """Adjoint of ``conv`` with the same weight, stride and zero padding.

    Weight layout is (C_in, C_out, k...), i.e. the first axis matches the
    input channels of this op. With kernel 2 and stride 2 every spatial
    extent exactly doubles, which is the default decoder configuration.
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
    if stride < 1:
        raise ContractError(f"transposed_conv needs stride >= 1, got {stride}")
    kernel = weight.shape[2:]
    sp = x.shape[1:]
    out_sp = tuple((s - 1) * stride + k for s, k in zip(sp, kernel))

    w2 = weight.data.reshape(c_in, -1)          # (C_in, C_out * prod(k))
    x2 = x.data.reshape(c_in, -1)
    cols = w2.T @ x2                             # (C_out * prod(k), prod(sp))
    out = Tensor._wrap(_col2im(cols, c_out, kernel, stride, out_sp, sp))
    xd = x.data
    needs = (x.requires_grad, weight.requires_grad)

    def bw(g):
        gcols = _im2col(g, kernel, stride, sp)   # (C_out * prod(k), prod(sp))
        gx = (w2 @ gcols).reshape(xd.shape) if needs[0] else None
        gw = (x2 @ gcols.T).reshape(weight.shape) if needs[1] else None
        return (gx, gw)

    return _record("transposed_conv", out, (x, weight), bw)


def maxpool(x) -> Tensor:
    """Kernel-2 / stride-2 max pooling; every spatial extent must be even.

    Ties route the gradient to the first maximal element of the window.
    """
    x = as_tensor(x)
    sp_rank = x.ndim - 1
    sp = x.shape[1:]
    if any(s % 2 for s in sp):
        raise ShapeError(f"maxpool needs even spatial extents, got {sp}")
    c = x.shape[0]
    halves = tuple(s // 2 for s in sp)
    # split each spatial axis into (half, 2) then bring the window axes last
    split_shape = (c,) + tuple(v for h in halves for v in (h, 2))
    window_axes = tuple(2 + 2 * i for i in range(sp_rank))
    keep_axes = (0,) + tuple(1 + 2 * i for i in range(sp_rank))
    perm = keep_axes + window_axes
    windows = x.data.reshape(split_shape).transpose(perm).reshape(c, *halves, -1)
    idx = np.argmax(windows, axis=-1)
    out = Tensor._wrap(np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0])
    in_shape = x.shape

    def bw(g):
        gw = np.zeros((c, *halves, 2 ** sp_rank))
        np.put_along_axis(gw, idx[..., None], g[..., None], axis=-1)
        gw = gw.reshape(c, *halves, *((2,) * sp_rank))
        gw = gw.transpose(tuple(np.argsort(perm)))
        return (gw.reshape(in_shape),)

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
