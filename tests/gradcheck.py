"""Finite-difference oracle shared by the gradient tests.

The oracle only ever calls the forward function on perturbed numpy inputs;
it never touches a tape, so it stays independent of the reverse-mode path
it is used to check.
"""

import numpy as np

from oncokit.autodiff import Tape, Tensor, backward


def numeric_grad(f, arrays, index, h=1e-5):
    """Central-difference gradient of scalar f(*arrays) w.r.t. arrays[index]."""
    arrays = [np.array(a, dtype=np.float64) for a in arrays]
    target = arrays[index]
    grad = np.zeros_like(target)
    flat = target.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(*arrays)
        flat[i] = orig - h
        fm = f(*arrays)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def rel_err(a, b):
    # the 1e-6 floor acts as an absolute tolerance for gradients that are
    # mathematically zero but carry float dust on one side
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-6)
    return np.linalg.norm(a - b) / denom


def check_op(f, arrays, tol=1e-6, h=1e-5):
    """Compare taped gradients of scalar f against central differences.

    ``f`` must accept numpy arrays or Tensors interchangeably and return a
    scalar (float for arrays, 0-d Tensor for Tensors). Returns the worst
    relative error over all inputs.
    """
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    with Tape() as tape:
        out = f(*tensors)
    grads = backward(tape, out)

    def f_np(*arrs):
        res = f(*[Tensor(a) for a in arrs])
        return float(res.data)

    worst = 0.0
    for i, t in enumerate(tensors):
        analytic = grads[t].data
        numeric = numeric_grad(f_np, arrays, i, h=h)
        worst = max(worst, rel_err(analytic, numeric))
    return worst


def _cases():
    """One finite-difference case per tape op: op name -> (f, input arrays).

    Each ``f`` reads its op's output out through a fixed random weighting,
    so every output element reaches the scalar; inputs stay clear of kinks
    (relu, clip), ties (maxpool) and non-positive values (log, div, pow).
    """
    from oncokit import autodiff as ad

    rng = np.random.default_rng(8)

    def normal(*shape):
        return rng.normal(size=shape)

    def away(*shape):
        """Values at least 0.2 from zero, both signs."""
        return rng.choice([-1.0, 1.0], size=shape) * rng.uniform(0.2, 2.0, size=shape)

    def positive(*shape):
        return rng.uniform(0.5, 2.0, size=shape)

    weights = {}

    def readout(t):
        if t.shape not in weights:
            weights[t.shape] = normal(*t.shape)
        return ad.tsum(ad.mul(t, ad.Tensor(weights[t.shape])))

    return {
        "add": (lambda a, b: readout(ad.add(a, b)), [normal(3, 4), normal(4)]),
        "sub": (lambda a, b: readout(ad.sub(a, b)), [normal(3, 4), normal(3, 1)]),
        "mul": (lambda a, b: readout(ad.mul(a, b)), [normal(3, 4), normal(4)]),
        "div": (lambda a, b: readout(ad.div(a, b)), [normal(3, 4), positive(3, 4)]),
        "neg": (lambda a: readout(ad.neg(a)), [normal(3, 4)]),
        "pow": (lambda a: readout(ad.power(a, 1.5)), [positive(3, 4)]),
        "exp": (lambda a: readout(ad.exp(a)), [normal(3, 4)]),
        "log": (lambda a: readout(ad.log(a)), [positive(3, 4)]),
        "clip": (lambda a: readout(ad.clip(a, -1.0, 1.0)),
                 [np.array([[-2.0, -0.3, 0.4, 2.5], [0.7, -1.6, 0.1, -0.8]])]),
        "sum": (lambda a: readout(ad.tsum(a, axis=1)), [normal(3, 4)]),
        "mean": (lambda a: readout(ad.tmean(a, axis=0, keepdims=True)), [normal(3, 4)]),
        "reshape": (lambda a: readout(ad.reshape(a, (2, 6))), [normal(3, 4)]),
        "transpose": (lambda a: readout(ad.transpose(a, (2, 0, 1))), [normal(2, 3, 4)]),
        "concat": (lambda a, b: readout(ad.concat([a, b], axis=1)),
                   [normal(3, 2), normal(3, 4)]),
        "narrow": (lambda a: readout(ad.narrow(a, 1, 1, 2)), [normal(3, 4)]),
        "rcumsum": (lambda a: readout(ad.rcumsum(a, axis=1)), [normal(3, 4)]),
        "matmul": (lambda a, b: readout(ad.matmul(a, b)), [normal(2, 3, 4), normal(4, 5)]),
        "relu": (lambda a: readout(ad.relu(a)), [away(3, 4)]),
        "sigmoid": (lambda a: readout(ad.sigmoid(a)), [normal(3, 4)]),
        "gelu": (lambda a: readout(ad.gelu(a)), [normal(3, 4)]),
        "softmax": (lambda a: readout(ad.softmax(a, axis=-1)), [normal(3, 4)]),
        "logsumexp": (lambda a: readout(ad.logsumexp(a, axis=1)), [normal(3, 4)]),
        "layer_norm": (lambda a, g, b: readout(ad.layer_norm(a, g, b)),
                       [normal(3, 4), normal(4), normal(4)]),
        "channel_norm": (lambda a, g, b: readout(ad.channel_norm(a, g, b)),
                         [normal(2, 3, 4), normal(2), normal(2)]),
        "conv": (lambda x, w, b: readout(ad.conv(x, w, bias=b, padding=1)),
                 [normal(2, 5, 4), normal(3, 2, 3, 3), normal(3)]),
        "transposed_conv": (lambda x, w: readout(ad.transposed_conv(x, w, stride=2)),
                            [normal(2, 3, 2), normal(2, 3, 2, 2)]),
        "maxpool": (lambda x: readout(ad.maxpool(x)), [normal(2, 4, 4)]),
    }


GRADIENT_CASES = _cases()
