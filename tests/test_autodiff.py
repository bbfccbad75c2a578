"""Tensor/tape engine: forward semantics, gradient checks, adjoint identity."""

import math
import tracemalloc

import numpy as np
import pytest

from gradcheck import GRADIENT_CASES, check_op
from test_closed_form import conv_im2col

from oncokit.autodiff import (
    GradMap,
    Tape,
    Tensor,
    backward,
    clip,
    concat,
    conv,
    gelu,
    layer_norm,
    channel_norm,
    logsumexp,
    matmul,
    maxpool,
    narrow,
    relu,
    reshape,
    sigmoid,
    softmax,
    tail_logsumexp,
    tail_sets,
    transpose,
    transposed_conv,
    tsum,
)
from oncokit.errors import ContractError, NumericError, ShapeError
from oncokit.experiment import _seg_model
from oncokit.losses import combined_loss
from oncokit.segnets import UNet
from oncokit.synthetic import gen_synthetic_cohort
from oncokit.tmss import TmssModel, tmss_loss
from oncokit.vit import EncoderConfig

RNG = np.random.default_rng(1234)


class TestMatmul:
    def test_identity(self):
        eye = np.eye(3)
        out = matmul(Tensor(eye), Tensor(eye))
        assert np.array_equal(out.data, eye)

    def test_hand_case(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[1.0], [1.0]])
        out = matmul(a, b)
        assert np.array_equal(out.data, [[3.0], [7.0]])

    def test_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError) as e:
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
        assert "(2, 3)" in str(e.value) and "(4, 2)" in str(e.value)

    def test_gradient(self):
        a = RNG.normal(size=(3, 4))
        b = RNG.normal(size=(4, 2))
        err = check_op(lambda x, y: (matmul(x, y) * matmul(x, y)).sum(), [a, b])
        assert err <= 1e-6

    def test_batched_gradient(self):
        a = RNG.normal(size=(2, 3, 4))
        b = RNG.normal(size=(4, 5))
        err = check_op(lambda x, y: matmul(x, y).sum(), [a, b])
        assert err <= 1e-6


def _every_second(shape):
    """1 at every second position of each spatial axis, 0 elsewhere."""
    every = np.zeros(shape)
    every[(slice(None), *(slice(None, None, 2),) * (len(shape) - 1))] = 1.0
    return every


class TestConv:
    def test_one_by_one_identity(self):
        x = Tensor(RNG.normal(size=(1, 5, 5)))
        w = Tensor(np.ones((1, 1, 1, 1)))
        out = conv(x, w, bias=np.zeros(1))
        assert np.allclose(out.data, x.data)

    def test_all_ones_sum(self):
        # each output sums the input positions its 3x3 window covers
        x = Tensor(np.ones((1, 3, 3)))
        w = Tensor(np.ones((1, 1, 3, 3)))
        out = conv(x, w)
        assert out.shape == (1, 3, 3)
        assert out.data[0].tolist() == [[4.0, 6.0, 4.0], [6.0, 9.0, 6.0], [4.0, 6.0, 4.0]]

    def test_small_extents_kept(self):
        # extents the 3-sided kernel outgrows: every window covers the whole input
        for sp in ((1, 1), (2, 1), (1, 2, 2), (2, 2, 1)):
            out = conv(Tensor(np.ones((1, *sp))), Tensor(np.ones((1, 1, *(3,) * len(sp)))))
            assert out.shape == (1, *sp)
            assert np.all(out.data == math.prod(sp))

    def test_gradient_2d(self):
        x = RNG.normal(size=(2, 4, 4))
        w = RNG.normal(size=(3, 2, 3, 3))
        b = RNG.normal(size=(3,))
        err = check_op(lambda a, c, d: (conv(a, c, bias=d) ** 2).sum(), [x, w, b])
        assert err <= 1e-6

    def test_gradient_3d_strided(self):
        # the loss reads every second output, the outputs of a stride-2 conv
        x = RNG.normal(size=(1, 4, 4, 4))
        w = RNG.normal(size=(2, 1, 3, 3, 3))
        every = Tensor(_every_second((2, 4, 4, 4)))
        err = check_op(lambda a, c: (conv(a, c) ** 2 * every).sum(), [x, w])
        assert err <= 1e-6

    def test_gradient_3d_padded(self):
        x = RNG.normal(size=(2, 3, 4, 3))
        w = RNG.normal(size=(2, 2, 3, 3, 3))
        b = RNG.normal(size=(2,))
        err = check_op(lambda a, c, d: (conv(a, c, bias=d) ** 2).sum(), [x, w, b])
        assert err <= 1e-6

    def test_gradient_strided_padded(self):
        x = RNG.normal(size=(2, 5, 6))
        w = RNG.normal(size=(3, 2, 3, 3))
        b = RNG.normal(size=(3,))
        every = Tensor(_every_second((3, 5, 6)))
        err = check_op(lambda a, c, d: (conv(a, c, bias=d) ** 2 * every).sum(), [x, w, b])
        assert err <= 1e-6

    def test_taped_conv_keeps_no_padded_copy(self):
        # the tape holds the input itself; the backward pass lays the padded
        # copy out again, so a forward pass leaves little beyond its output
        x = Tensor(RNG.normal(size=(4, 24, 24, 12)), requires_grad=True)
        w = Tensor(RNG.normal(size=(4, 4, 3, 3, 3)), requires_grad=True)
        with Tape():
            tracemalloc.start()
            try:
                out = conv(x, w)
                kept = tracemalloc.get_traced_memory()[0] - out.data.nbytes
            finally:
                tracemalloc.stop()
        assert kept < 0.05 * x.data.nbytes

    @pytest.mark.parametrize("stride, padding", [(0, 0), (-1, 0), (1, -1)])
    def test_bad_stride_or_padding(self, stride, padding):
        # stride 1 and the kernel's own padding are the only geometry
        x, w = Tensor(np.zeros((1, 6, 6))), Tensor(np.zeros((1, 1, 3, 3)))
        with pytest.raises(TypeError):
            conv(x, w, stride=stride)
        with pytest.raises(TypeError):
            conv(x, w, padding=padding)

    @pytest.mark.parametrize("kernel", [(2, 2), (4, 4), (3, 1), (1, 3), (3, 3, 1), (2, 2, 2)])
    def test_bad_kernel(self, kernel):
        # the padding (k - 1) // 2 keeps the extents only for one odd side k
        x = Tensor(np.zeros((1, *(6,) * len(kernel))))
        with pytest.raises(ShapeError, match="odd kernel side"):
            conv(x, Tensor(np.zeros((1, 1, *kernel))))


class TestTransposedConv:
    def test_doubles_extents(self):
        x = Tensor(RNG.normal(size=(2, 8, 8, 8)))
        w = Tensor(RNG.normal(size=(2, 1, 2, 2, 2)))
        out = transposed_conv(x, w)
        assert out.shape == (1, 16, 16, 16)

    @pytest.mark.parametrize("rank", [2, 3])
    def test_adjoint_identity(self, rank):
        sp = (6,) * rank
        out_sp = (3,) * rank
        x = RNG.normal(size=(2, *sp))
        w = RNG.normal(size=(3, 2, *((2,) * rank)))
        y = RNG.normal(size=(3, *out_sp))
        # the kernel-2, stride-2 convolution
        strided = conv_im2col(x, w, np.zeros(3), 2, 0, y)[0]
        lhs = float(np.sum(strided * y))
        rhs = float(np.sum(x * transposed_conv(Tensor(y), Tensor(w)).data))
        assert abs(lhs - rhs) <= 1e-9

    def test_gradient(self):
        x = RNG.normal(size=(2, 3, 3))
        w = RNG.normal(size=(2, 2, 2, 2))
        err = check_op(lambda a, c: (transposed_conv(a, c) ** 2).sum(), [x, w])
        assert err <= 1e-6

    @pytest.mark.parametrize("kernel", [(3, 3), (2, 1)], ids=["3x3", "2x1"])
    def test_bad_kernel(self, kernel):
        with pytest.raises(ContractError):
            transposed_conv(Tensor(np.zeros((1, 3, 3))), Tensor(np.zeros((1, 1, *kernel))))


class TestLayerNorm:
    def test_constant_row_is_zero(self):
        x = Tensor(np.full((2, 5), 3.7))
        out = layer_norm(x, np.ones(5), np.zeros(5))
        assert np.allclose(out.data, 0.0)

    def test_two_point_row(self):
        out = layer_norm(Tensor([[1.0, 3.0]]), np.ones(2), np.zeros(2))
        assert np.allclose(out.data, [[-1.0, 1.0]], atol=1e-4)

    def test_gradient(self):
        x = RNG.normal(size=(3, 6))
        g = RNG.normal(size=(6,))
        b = RNG.normal(size=(6,))
        # weight the positions so the loss is not invariant to x (a plain
        # sum of squares of normalized rows nearly is, which starves the
        # finite-difference oracle of signal)
        r = Tensor(RNG.normal(size=(3, 6)))
        err = check_op(lambda a, c, d: ((layer_norm(a, c, d) * r) ** 2).sum(), [x, g, b])
        assert err <= 1e-6

    def test_channel_norm_gradient(self):
        x = RNG.normal(size=(3, 4, 4))
        g = RNG.normal(size=(3,))
        b = RNG.normal(size=(3,))
        r = Tensor(RNG.normal(size=(3, 4, 4)))
        err = check_op(lambda a, c, d: ((channel_norm(a, c, d) * r) ** 2).sum(), [x, g, b])
        assert err <= 1e-6


class TestSoftmax:
    def test_symmetry(self):
        out = softmax(Tensor([0.0, 0.0]))
        assert np.allclose(out.data, [0.5, 0.5])

    def test_large_inputs_stable(self):
        out = softmax(Tensor([1000.0, 0.0]))
        assert np.isfinite(out.data).all()
        assert out.data[0] == pytest.approx(1.0)

    def test_rows_sum_to_one(self):
        for _ in range(1000):
            x = RNG.normal(size=RNG.integers(2, 12)) * 10
            s = softmax(Tensor(x)).data
            assert (s > 0).all()
            assert abs(s.sum() - 1.0) <= 1e-12

    def test_nan_rejected(self):
        with pytest.raises(NumericError):
            softmax(Tensor([np.nan, 1.0]))

    def test_gradient(self):
        x = RNG.normal(size=(4, 5))
        err = check_op(lambda a: (softmax(a) ** 2).sum(), [x])
        assert err <= 1e-6

    def test_logsumexp_gradient(self):
        x = RNG.normal(size=(3, 7))
        err = check_op(lambda a: logsumexp(a).sum(), [x.T.copy()])
        assert err <= 1e-6

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_tail_logsumexp_values(self):
        # columns: a single read, a whole column, a one-row tail, and a tail
        # 900 below a row above it that must not overflow
        a = np.array([[0.5, 1.0, 2.0, 900.0],
                      [-1.0, 2.0, 3.0, -0.5],
                      [4.0, -3.0, 0.25, 0.0]])
        start = np.array([1, 0, 2, 1])
        single = np.array([True, False, False, False])
        out = tail_logsumexp(Tensor(a), tail_sets(start, single, 3)).data
        assert out[0] == a[1, 0]
        assert out[1] == pytest.approx(math.log(sum(math.exp(v) for v in a[:, 1])), rel=1e-15)
        assert out[2] == a[2, 2]
        assert out[3] == pytest.approx(math.log(math.exp(-0.5) + 1.0), rel=1e-15)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_tail_logsumexp_gradient(self):
        a = np.random.default_rng(3).normal(size=(5, 6)) * 3
        start = np.array([0, 4, 2, 1, 3, 0])
        single = np.array([False, True, False, True, False, True])
        tails = tail_sets(start, single, 5)
        err = check_op(lambda t: (tail_logsumexp(t, tails) ** 2).sum(), [a])
        assert err <= 1e-6

    def test_tail_logsumexp_shapes_checked(self):
        with pytest.raises(ShapeError):
            tail_logsumexp(Tensor(np.zeros((3, 2))),
                           tail_sets(np.array([0, 1, 2]), np.array([1, 0, 1]), 3))
        with pytest.raises(ShapeError):
            tail_logsumexp(Tensor(np.zeros(3)), tail_sets(np.array([0]), np.array([True]), 3))
        with pytest.raises(ShapeError):
            tail_sets(np.array([0, 1]), np.array([True]), 3)


class TestActivations:
    def test_relu_values(self):
        out = relu(Tensor([-1.0, 2.0]))
        assert np.array_equal(out.data, [0.0, 2.0])

    def test_sigmoid_zero(self):
        assert sigmoid(Tensor([0.0])).data[0] == pytest.approx(0.5)

    def test_sigmoid_extreme_stable(self):
        out = sigmoid(Tensor([-800.0, 800.0]))
        assert np.isfinite(out.data).all()

    def test_gelu_matches_math_erf(self):
        grid = np.linspace(-12.0, 12.0, 2_400_001)
        edges = np.array([0.0, -0.0, 1e-300, -1e-300, 6.0, -6.0, 40.0, -40.0])
        x = np.concatenate([grid, edges])
        ref = np.array([v * 0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in x.tolist()])
        out = gelu(Tensor(x)).data
        assert (np.abs(out - ref) <= 1e-15 * np.abs(x)).all()
        assert np.array_equal(np.signbit(gelu(Tensor([0.0, -0.0])).data), [False, True])
        assert np.isnan(gelu(Tensor([np.nan])).data).all()

    def test_gelu_gradient(self):
        x = RNG.normal(size=(10,))
        err = check_op(lambda a: gelu(a).sum(), [x])
        assert err <= 1e-6


class TestBackward:
    def test_sum_gives_ones(self):
        with Tape() as tape:
            x = Tensor(RNG.normal(size=(4,)), requires_grad=True)
            loss = x.sum()
        g = backward(tape, loss)
        assert np.array_equal(g[x].data, np.ones(4))

    def test_dot_gives_2x(self):
        with Tape() as tape:
            x = Tensor(RNG.normal(size=(5,)), requires_grad=True)
            loss = (x * x).sum()
        g = backward(tape, loss)
        assert np.allclose(g[x].data, 2 * x.data)

    def test_nonscalar_loss_rejected(self):
        with Tape() as tape:
            x = Tensor(np.zeros(3), requires_grad=True)
            y = x * 2.0
        with pytest.raises(ContractError):
            backward(tape, y)

    def test_uninfluential_leaf_gets_zeros(self):
        with Tape() as tape:
            x = Tensor(np.ones(3), requires_grad=True)
            y = Tensor(np.ones(3), requires_grad=True)
            loss = (x * 1.0).sum() + 0.0 * (y * 0.0).sum()
            loss = (x * x).sum()
        g = backward(tape, loss)
        assert np.array_equal(g[y].data, np.zeros(3))

    def test_intermediate_lookup_refused(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            y = x * 2.0
            loss = (y * y).sum()
        g = backward(tape, loss)
        with pytest.raises(ContractError, match="not a leaf"):
            g[y]
        with pytest.raises(ContractError, match="not a leaf"):
            g[loss]
        assert np.array_equal(g[x].data, np.full(3, 8.0))

    def test_second_backward_refused(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            loss = (x * x).sum()
        backward(tape, loss)
        with pytest.raises(ContractError, match="consumed"):
            backward(tape, loss)

    def test_unrecorded_tensor_gets_zeros(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            loss = (x * x).sum()
        g = backward(tape, loss)
        assert np.array_equal(g[Tensor(np.ones((2, 2)))].data, np.zeros((2, 2)))

    def test_three_layer_mlp_matches_differences(self):
        sizes = [(4, 8), (8,), (8, 6), (6,), (6, 1), (1,)]
        params = [RNG.normal(size=s) * 0.5 for s in sizes]
        x = RNG.normal(size=(3, 4))

        def net(w1, b1, w2, b2, w3, b3):
            h = relu(matmul(Tensor(x), w1) + b1)
            h = gelu(matmul(h, w2) + b2)
            return (matmul(h, w3) + b3).sum()

        err = check_op(net, params)
        assert err <= 1e-5


def _backward_out_of_place(tape, loss):
    """``backward`` with every second and later contribution summed into a
    fresh array."""
    table = {tape._lookup(loss): np.ones(loss.shape)}
    for node in reversed(tape._nodes):
        out_grad = table.get(node.out_id)
        if out_grad is None:
            continue
        for in_id, g in zip(node.input_ids, node.backward_fn(out_grad)):
            if g is not None:
                table[in_id] = g if in_id not in table else table[in_id] + g
    return GradMap(tape, table)


def _recording(backward_fn, out_id, received):
    """``backward_fn`` that first keeps a copy of the gradient it is given."""
    def bw(g):
        received[out_id] = np.array(g)
        return backward_fn(g)
    return bw


_W = np.random.default_rng(77).normal(size=(6, 4))


def _scalar_twice(x):
    s = tsum(x * _W[:3])
    return s * s + s

# each loss reaches a tensor more than once through aliases of one gradient
# array: add hands its g to both inputs, an unbroadcast (4,) bias gets g
# itself, reshape, transpose and concat return views, and the 0-d products
# of a scalar come back as numpy scalars
ALIASED = {
    "x_plus_x": (lambda x: tsum((x + x) * _W[:3]), [(3, 4)]),
    "x_times_x_plus_x": (lambda x: tsum((x * x + x) * _W[:3]), [(3, 4)]),
    "bias_over_rows": (lambda m, v, b: tsum(b * b) + tsum((m + b) * _W[:3])
                       + tsum((v + b) * _W[3]), [(3, 4), (4,), (4,)]),
    "views": (lambda x: tsum(reshape(x, (4, 3)) * _W[:4, :3])
              + tsum(transpose(x, (1, 0)) * _W[:4, 1:])
              + tsum(narrow(x, 1, 1, 2) * _W[:3, :2])
              + tsum(concat([x, x], axis=0) * _W), [(3, 4)]),
    "scalar_twice": (_scalar_twice, [(3, 4)]),
}


class TestInPlaceAccumulation:
    """``backward`` adds a third and later contribution into the sum it
    allocated for the second, and into nothing else."""

    @pytest.mark.parametrize("case", sorted(ALIASED))
    def test_every_gradient_equals_out_of_place_sum(self, case):
        f, shapes = ALIASED[case]
        rng = np.random.default_rng(78)
        inputs = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
        with Tape() as tape:
            loss = f(*inputs)
        reference = _backward_out_of_place(tape, loss)
        # backward frees intermediate gradients, so each node records the
        # output gradient it receives: that intermediate's final gradient
        received: dict[int, np.ndarray] = {}
        for node in tape._nodes:
            node.backward_fn = _recording(node.backward_fn, node.out_id, received)
        grads = backward(tape, loss)
        assert received.keys() == {node.out_id for node in tape._nodes}
        for nid, t in enumerate(tape._tensors):
            got = Tensor(received[nid]) if nid in received else grads[t]
            assert got.shape == reference[t].shape
            assert got.data.tobytes() == reference[t].data.tobytes()

    @pytest.mark.parametrize("case", sorted(ALIASED))
    def test_gradient_matches_differences(self, case):
        f, shapes = ALIASED[case]
        rng = np.random.default_rng(79)
        assert check_op(f, [rng.normal(size=s) for s in shapes]) <= 1e-6


class TestShapeOps:
    def test_concat_and_narrow_roundtrip(self):
        a = Tensor(RNG.normal(size=(2, 3)))
        b = Tensor(RNG.normal(size=(4, 3)))
        c = concat([a, b], axis=0)
        back = narrow(c, 0, 0, 2)
        assert np.array_equal(back.data, a.data)

    def test_concat_gradient(self):
        a = RNG.normal(size=(2, 3))
        b = RNG.normal(size=(4, 3))
        err = check_op(lambda x, y: (concat([x, y], axis=0) ** 2).sum(), [a, b])
        assert err <= 1e-6

    def test_narrow_gradient(self):
        a = RNG.normal(size=(5, 3))
        err = check_op(lambda x: (narrow(x, 0, 1, 2) ** 2).sum(), [a])
        assert err <= 1e-6

    def test_clip_gradient_interior(self):
        a = np.array([-2.0, -0.3, 0.4, 2.5])
        err = check_op(lambda x: (clip(x, -1.0, 1.0) ** 2).sum(), [a])
        assert err <= 1e-6

    def test_maxpool_values_and_gradient(self):
        x = np.arange(16, dtype=float).reshape(1, 4, 4)
        out = maxpool(Tensor(x))
        assert np.array_equal(out.data, [[[5.0, 7.0], [13.0, 15.0]]])
        a = RNG.normal(size=(2, 4, 4, 4))
        err = check_op(lambda t: (maxpool(t) ** 2).sum(), [a])
        assert err <= 1e-6


class TestTensorValueSemantics:
    def test_data_is_readonly(self):
        t = Tensor(np.zeros(3))
        with pytest.raises(ValueError):
            t.data[0] = 1.0

    def test_ops_do_not_alias_inputs(self):
        src = np.ones(4)
        t = Tensor(src)
        src[0] = 99.0
        assert t.data[0] == 1.0



class TestGradientCoverage:
    """Every op a model records on its tape has a finite-difference case in
    ``gradcheck.GRADIENT_CASES``, and every case passes."""

    @pytest.mark.parametrize("op", sorted(GRADIENT_CASES))
    def test_case_matches_finite_differences(self, op):
        f, arrays = GRADIENT_CASES[op]
        assert check_op(f, arrays) <= 1e-6

    @staticmethod
    def _taped_ops(loss) -> set:
        with Tape() as tape:
            value = loss()
        backward(tape, value)
        return {node.op for node in tape._nodes}

    @staticmethod
    def _mtlr_fit_ops(monkeypatch, hidden_widths) -> set:
        """Ops on the tape of one update of the real fit, which runs on
        ``optim.train``."""
        import oncokit.mtlr as mtlr
        import oncokit.optim as optim

        seen = set()
        real = optim.backward

        def spy(tape, loss):
            seen.update(node.op for node in tape._nodes)
            return real(tape, loss)

        monkeypatch.setattr(optim, "backward", spy)
        cohort = gen_synthetic_cohort(20, seed=1, beta=[1.0, -0.5], censor_frac=0.3)
        mtlr.mtlr_fit(cohort, m=3, hidden_widths=hidden_widths, iterations=1)
        return seen

    def test_every_model_op_has_a_case(self, monkeypatch):
        def seg_loss(net, x):
            mask = Tensor((RNG.random((1,) + x.shape[1:]) > 0.5).astype(float))
            return lambda: combined_loss(sigmoid(net.forward(Tensor(x))), mask)

        ops = set()
        for rank in (2, 3):
            net = UNet(rank, in_channels=2, depth=1, base_width=2)
            ops |= self._taped_ops(seg_loss(net, RNG.normal(size=(2,) + (4,) * rank)))
        unetr = _seg_model("unetr", "toy", (2, 8, 8, 8), seed=0, decoder_width=2, patch=4)
        ops |= self._taped_ops(seg_loss(unetr, RNG.normal(size=(2, 8, 8, 8))))

        tmss = TmssModel(EncoderConfig((8, 8, 8), 2, 4, 8, 1, 2, 2, ehr_dim=2),
                         [1.0, 2.0, 3.0], decoder_width=2)
        volume = Tensor(RNG.normal(size=(8, 8, 8, 2)))
        covariates = Tensor(RNG.normal(size=2))
        mask = Tensor(np.ones((1, 8, 8, 8)))

        def joint_loss():
            out = tmss.forward(volume, covariates)
            return tmss_loss(out.logits, mask, out.scores, 1.5, 1, tmss.boundaries,
                             beta=0.3)

        ops |= self._taped_ops(joint_loss)
        for hidden_widths in ((), (3,)):
            ops |= self._mtlr_fit_ops(monkeypatch, hidden_widths)
        assert ops - set(GRADIENT_CASES) == set()
