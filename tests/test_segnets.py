"""U-Nets, the tap decoder, mask binarization and stats accounting."""

import numpy as np
import pytest

from oncokit.autodiff import Tape, Tensor, backward
from oncokit.errors import ShapeError
from oncokit.segnets import (
    LayerSpec,
    UNet,
    UnetrDecoder,
    model_stats,
    predict_mask,
    unetr_layer_specs,
)
from oncokit.vit import EncoderConfig, ViTEncoder

RNG = np.random.default_rng(77)


class TestUNetForward:
    def test_output_shape_2d(self):
        net = UNet(2, in_channels=2, depth=2, base_width=4, seed=0)
        out = net.forward(Tensor(RNG.normal(size=(2, 16, 16))))
        assert out.shape == (1, 16, 16)

    def test_output_shape_3d(self):
        net = UNet(3, in_channels=2, depth=2, base_width=4, seed=0)
        out = net.forward(Tensor(RNG.normal(size=(2, 8, 8, 8))))
        assert out.shape == (1, 8, 8, 8)

    def test_super_image_resolution_accepted(self):
        # the 480x640 mosaic from an 80x80x48 stack passes a depth-4 net
        net = UNet(2, in_channels=2, depth=4, base_width=2, seed=0)
        out = net.forward(Tensor(RNG.normal(size=(2, 480, 640))))
        assert out.shape == (1, 480, 640)

    def test_indivisible_extents_rejected(self):
        net = UNet(2, depth=3, base_width=4)
        with pytest.raises(ShapeError):
            net.forward(Tensor(RNG.normal(size=(2, 20, 20))))

    def test_gradients_reach_every_parameter(self):
        net = UNet(2, in_channels=1, depth=1, base_width=2, seed=1)
        with Tape() as tape:
            out = net.forward(Tensor(RNG.normal(size=(1, 4, 4))))
            loss = (out * out).sum()
        for name, p in net.params.items():
            assert tape._lookup(p) is not None, name


class TestPredictMask:
    def test_zero_logit_excluded_at_half(self):
        assert predict_mask(np.array([0.0]))[0] == 0.0

    def test_saturated_logits(self):
        out = predict_mask(np.array([10.0, -10.0]))
        assert list(out) == [1.0, 0.0]

    def test_threshold_zero_all_ones(self):
        out = predict_mask(RNG.normal(size=20), threshold=0.0)
        assert out.sum() == 20


class TestModelStats:
    def test_single_conv_closed_form(self):
        specs = [LayerSpec("conv", 3, 1, 8, 3, 1, 1)]
        stats = model_stats(specs, (6, 6, 6))
        assert stats["params"] == 27 * 8 + 8 == 224
        assert stats["macs"] == 27 * 1 * 8 * 6 * 6 * 6

    def test_empty_network(self):
        assert model_stats([], (4, 4)) == {"params": 0, "macs": 0}

    def test_conv_macs_equal_brute_force(self):
        # count multiplications one output element at a time on a probe
        c_in, c_out, k = 2, 3, 3
        spec = LayerSpec("conv", 2, c_in, c_out, k, 1, 0)
        probe = (6, 6)
        out_sp = (probe[0] - k + 1, probe[1] - k + 1)
        brute = 0
        for _ in range(c_out):
            for _ in range(out_sp[0]):
                for _ in range(out_sp[1]):
                    brute += c_in * k * k
        assert model_stats([spec], probe)["macs"] == brute

    def test_params_match_actual_arrays(self):
        for net in (UNet(2, 2, depth=2, base_width=4), UNet(3, 2, depth=2, base_width=4)):
            counted = model_stats(net, (16,) * net.rank)["params"]
            actual = sum(int(np.prod(p.shape)) for p in net.params.values())
            assert counted == actual

    def test_default_3d_to_2d_ratio_near_three(self):
        s3 = model_stats(UNet(3), (64, 64, 64))
        s2 = model_stats(UNet(2), (64, 64))
        ratio = s3["params"] / s2["params"]
        assert 2.5 <= ratio <= 3.5

    def test_macs_at_benchmark_shapes(self):
        # the MACs-per-sample figures of perfbench's seg-unet and tmss-joint
        # workloads read these totals; they are pinned to their known values
        assert model_stats(UNet(2, 2, depth=3, base_width=8), (32, 64))["macs"] == 18202624
        assert model_stats(UNet(3, 2, depth=3, base_width=8), (16, 16, 8))["macs"] == 28123136
        cfg = EncoderConfig((16, 16, 8), 2, 4, 64, 4, 4, 2, ehr_dim=3)
        assert model_stats(UnetrDecoder(cfg, width=8), (16, 16, 8))["macs"] == 21151744
        linear = [s for s in unetr_layer_specs(cfg, width=8) if s.kind in ("linear", "norm")]
        assert model_stats(linear, (1,))["macs"] == 139264

    def test_unresolvable_shape_names_layer(self):
        specs = [LayerSpec("conv", 2, 1, 1, 3, 1, 0),
                 LayerSpec("conv", 2, 1, 1, 3, 1, 0)]
        with pytest.raises(ShapeError) as e:
            model_stats(specs, (3, 3))
        assert "layer 1" in str(e.value)


class TestUnetrDecoder:
    def _encoder_and_decoder(self, input_shape=(16, 16, 8), patch=4, embed=16,
                             layers=4, channels=2, width=4):
        cfg = EncoderConfig(input_shape, channels, patch, embed, layers, 2, 2)
        enc = ViTEncoder(cfg, seed=0)
        dec = UnetrDecoder(cfg, width=width, seed=1)
        return enc, dec

    def test_output_matches_input_extents(self):
        enc, dec = self._encoder_and_decoder()
        x = Tensor(RNG.normal(size=(16, 16, 8, 2)))
        out = dec.forward(enc.forward(x), Tensor(x.data.transpose(3, 0, 1, 2)))
        assert out.shape == (1, 16, 16, 8)

    def test_resolution_ladder_p8(self):
        # patch 8 on a 32-cube: deepest grid 4^3, exactly three doublings
        enc, dec = self._encoder_and_decoder(input_shape=(32, 32, 32), patch=8,
                                             channels=1, width=2)
        assert dec.steps == 3
        x = Tensor(RNG.normal(size=(32, 32, 32, 1)))
        out = dec.forward(enc.forward(x), Tensor(x.data.transpose(3, 0, 1, 2)))
        assert out.shape == (1, 32, 32, 32)

    def test_gradient_reaches_positional_table(self):
        enc, dec = self._encoder_and_decoder()
        x = Tensor(RNG.normal(size=(16, 16, 8, 2)))
        with Tape() as tape:
            out = dec.forward(enc.forward(x), Tensor(x.data.transpose(3, 0, 1, 2)))
            loss = (out * out).sum()
        grads = backward(tape, loss)
        g = grads[enc.params["embed.pos"]].data
        assert np.abs(g).max() > 0

    def test_stats_params_match_actual(self):
        _, dec = self._encoder_and_decoder()
        stats = dec.stats((16, 16, 8))
        actual = sum(int(np.prod(p.shape)) for p in dec.params.values())
        assert stats["params"] == actual
        assert stats["macs"] > 0

    def test_2d_mode(self):
        cfg = EncoderConfig((16, 16), 1, 4, 16, 4, 2, 2)
        enc = ViTEncoder(cfg, seed=0)
        dec = UnetrDecoder(cfg, width=4, seed=1)
        x = Tensor(RNG.normal(size=(16, 16, 1)))
        out = dec.forward(enc.forward(x), Tensor(x.data.transpose(2, 0, 1)))
        assert out.shape == (1, 16, 16)


class TestOverfitSanity:
    def test_single_sample_overfit(self):
        # capacity check: a small net must memorize one sample quickly
        from oncokit.losses import combined_loss
        from oncokit.metrics import dsc
        from oncokit.optim import OptimState, adamw_step
        from oncokit.autodiff import sigmoid

        rng = np.random.default_rng(5)
        x = rng.normal(size=(1, 32, 32))
        truth = np.zeros((1, 32, 32))
        truth[0, 8:20, 10:24] = 1.0
        x = x + truth * 3.0
        net = UNet(2, in_channels=1, depth=2, base_width=8, seed=2)
        state = OptimState(base_lr=3e-3, weight_decay=0.0)
        xt, yt = Tensor(x), Tensor(truth)
        score = 0.0
        for step in range(200):
            with Tape() as tape:
                logits = net.forward(xt)
                loss = combined_loss(sigmoid(logits), yt)
            grads = backward(tape, loss)
            gmap = {k: grads[p] for k, p in net.params.items()}
            net.params = adamw_step(net.params, gmap, state)
            if step % 10 == 0 or step == 199:
                score = dsc(predict_mask(net.forward(xt)), truth)
                if score >= 0.99:
                    break
        assert score >= 0.99
