"""Tensor/tape engine: forward semantics, gradient checks, adjoint identity."""

import numpy as np
import pytest

from gradcheck import GRADIENT_CASES, check_op

from oncokit.autodiff import (
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
    rcumsum,
    relu,
    sigmoid,
    softmax,
    transposed_conv,
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


class TestConv:
    def test_one_by_one_identity(self):
        x = Tensor(RNG.normal(size=(1, 5, 5)))
        w = Tensor(np.ones((1, 1, 1, 1)))
        out = conv(x, w, bias=np.zeros(1))
        assert np.allclose(out.data, x.data)

    def test_all_ones_sum(self):
        x = Tensor(np.ones((1, 3, 3)))
        w = Tensor(np.ones((1, 1, 3, 3)))
        out = conv(x, w)
        assert out.shape == (1, 1, 1)
        assert out.data[0, 0, 0] == pytest.approx(9.0)

    def test_nonpositive_extent(self):
        with pytest.raises(ShapeError):
            conv(Tensor(np.zeros((1, 2, 2))), Tensor(np.zeros((1, 1, 3, 3))))

    def test_gradient_2d(self):
        x = RNG.normal(size=(2, 4, 4))
        w = RNG.normal(size=(3, 2, 3, 3))
        b = RNG.normal(size=(3,))
        err = check_op(lambda a, c, d: (conv(a, c, bias=d, padding=1) ** 2).sum(), [x, w, b])
        assert err <= 1e-6

    def test_gradient_3d_strided(self):
        x = RNG.normal(size=(1, 4, 4, 4))
        w = RNG.normal(size=(2, 1, 2, 2, 2))
        err = check_op(lambda a, c: (conv(a, c, stride=2) ** 2).sum(), [x, w])
        assert err <= 1e-6

    def test_gradient_3d_padded(self):
        x = RNG.normal(size=(2, 3, 4, 3))
        w = RNG.normal(size=(2, 2, 3, 3, 3))
        b = RNG.normal(size=(2,))
        err = check_op(lambda a, c, d: (conv(a, c, bias=d, padding=1) ** 2).sum(), [x, w, b])
        assert err <= 1e-6

    def test_gradient_strided_padded(self):
        x = RNG.normal(size=(2, 5, 6))
        w = RNG.normal(size=(3, 2, 3, 3))
        b = RNG.normal(size=(3,))
        err = check_op(lambda a, c, d: (conv(a, c, bias=d, stride=2, padding=1) ** 2).sum(),
                       [x, w, b])
        assert err <= 1e-6

    @pytest.mark.parametrize("stride, padding", [(0, 0), (-1, 0), (1, -1)])
    def test_bad_stride_or_padding(self, stride, padding):
        with pytest.raises(ContractError):
            conv(Tensor(np.zeros((1, 6, 6))), Tensor(np.zeros((1, 1, 3, 3))),
                 stride=stride, padding=padding)


class TestTransposedConv:
    def test_doubles_extents(self):
        x = Tensor(RNG.normal(size=(2, 8, 8, 8)))
        w = Tensor(RNG.normal(size=(2, 1, 2, 2, 2)))
        out = transposed_conv(x, w, stride=2)
        assert out.shape == (1, 16, 16, 16)

    @pytest.mark.parametrize("rank", [2, 3])
    def test_adjoint_identity(self, rank):
        sp = (6,) * rank
        out_sp = (3,) * rank
        x = RNG.normal(size=(2, *sp))
        w = RNG.normal(size=(3, 2, *((2,) * rank)))
        y = RNG.normal(size=(3, *out_sp))
        lhs = float(np.sum(conv(Tensor(x), Tensor(w), stride=2).data * y))
        rhs = float(np.sum(x * transposed_conv(Tensor(y), Tensor(w), stride=2).data))
        assert abs(lhs - rhs) <= 1e-9

    def test_gradient(self):
        x = RNG.normal(size=(2, 3, 3))
        w = RNG.normal(size=(2, 2, 2, 2))
        err = check_op(lambda a, c: (transposed_conv(a, c, stride=2) ** 2).sum(), [x, w])
        assert err <= 1e-6

    @pytest.mark.parametrize("stride", [0, -1])
    def test_bad_stride(self, stride):
        with pytest.raises(ContractError):
            transposed_conv(Tensor(np.zeros((1, 3, 3))), Tensor(np.zeros((1, 1, 2, 2))),
                            stride=stride)


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
        err = check_op(lambda a: (softmax(a, axis=-1) ** 2).sum(), [x])
        assert err <= 1e-6

    def test_logsumexp_gradient(self):
        x = RNG.normal(size=(3, 7))
        err = check_op(lambda a: logsumexp(a, axis=1).sum(), [x])
        assert err <= 1e-6


class TestActivations:
    def test_relu_values(self):
        out = relu(Tensor([-1.0, 2.0]))
        assert np.array_equal(out.data, [0.0, 2.0])

    def test_sigmoid_zero(self):
        assert sigmoid(Tensor([0.0])).data[0] == pytest.approx(0.5)

    def test_sigmoid_extreme_stable(self):
        out = sigmoid(Tensor([-800.0, 800.0]))
        assert np.isfinite(out.data).all()

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

    def test_rcumsum_values(self):
        a = np.array([[1.0, 2.0, 4.0], [8.0, 16.0, 32.0]])
        assert np.array_equal(rcumsum(Tensor(a), axis=1).data,
                              [[7.0, 6.0, 4.0], [56.0, 48.0, 32.0]])
        assert np.array_equal(rcumsum(Tensor(a), axis=0).data, [[9.0, 18.0, 36.0], a[1]])

    @pytest.mark.parametrize("shape, axis", [((6,), 0), ((6,), -1), ((4, 5), 0),
                                             ((4, 5), 1), ((4, 5), -1)])
    def test_rcumsum_gradient(self, shape, axis):
        a = RNG.normal(size=shape)
        r = RNG.normal(size=shape)
        err = check_op(lambda x: ((rcumsum(x, axis=axis) * r) ** 2).sum(), [a])
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
        """Ops on the tape of one update of the real fit."""
        import oncokit.mtlr as mtlr

        seen = set()
        real = mtlr.backward

        def spy(tape, loss):
            seen.update(node.op for node in tape._nodes)
            return real(tape, loss)

        monkeypatch.setattr(mtlr, "backward", spy)
        cohort = gen_synthetic_cohort(20, seed=1, beta=[1.0, -0.5], censor_frac=0.3)
        mtlr.mtlr_fit(cohort, m=3, config=mtlr.FitConfig(iterations=1),
                      hidden_widths=hidden_widths)
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
            return tmss_loss(out.logits, mask, out.scores, 1.5, 1, tmss.boundaries)

        ops |= self._taped_ops(joint_loss)
        for hidden_widths in ((), (3,)):
            ops |= self._mtlr_fit_ops(monkeypatch, hidden_widths)
        assert ops - set(GRADIENT_CASES) == set()
