"""U-Nets, the tap decoder, mask binarization and stats accounting."""

import hashlib

import numpy as np
import pytest

from oncokit.autodiff import Tape, Tensor, backward
from oncokit.errors import ShapeError
from oncokit.segnets import (
    LayerSpec,
    UNet,
    UnetrDecoder,
    encoder_layer_specs,
    model_stats,
    predict_mask,
    unet_layer_specs,
    unetr_layer_specs,
)
from oncokit.tmss import TmssModel
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

    @pytest.mark.parametrize("args", [(3, 2, 3, 8), (2, 1, 2, 4), (2, 2, 0, 3)])
    def test_spec_layout_matches_built_unet(self, args):
        # unet_layer_specs lays the U-Net out without drawing its weights
        assert unet_layer_specs(*args) == UNet(*args).layer_specs()

    @pytest.mark.parametrize("args, digest", [
        ((3, 2, 3, 8), "8685144638dbf2042ef2cde7107c5eb3235f589f5492f6018957e5a15cf0d158"),
        ((2, 1, 2, 4), "47776cfdcda2f390f6a20241c4428d4052f70be055b376deb3f6a6c22b4962da"),
    ])
    def test_drawn_weights_pinned(self, args, digest):
        net = UNet(*args, seed=3)
        h = hashlib.sha256()
        for name, param in net.params.items():
            h.update(name.encode())
            h.update(param.data.tobytes())
        assert h.hexdigest() == digest


class TestPredictMask:
    def test_zero_logit_excluded_at_half(self):
        assert predict_mask(np.array([0.0]))[0] == 0.0

    def test_saturated_logits(self):
        out = predict_mask(np.array([10.0, -10.0]))
        assert list(out) == [1.0, 0.0]

    def test_threshold_zero_all_ones(self):
        # sigmoid above 0.5 is a logit above zero: every positive logit is 1
        out = predict_mask(np.abs(RNG.normal(size=20)) + 1e-3)
        assert out.sum() == 20


class TestModelStats:
    def test_single_conv_closed_form(self):
        specs = [LayerSpec("conv", 3, 1, 8, 3)]
        stats = model_stats(specs, (6, 6, 6))
        assert stats["params"] == 27 * 8 + 8 == 224
        assert stats["macs"] == 27 * 1 * 8 * 6 * 6 * 6

    def test_empty_network(self):
        assert model_stats([], (4, 4)) == {"params": 0, "macs": 0}

    def test_conv_macs_equal_brute_force(self):
        # count multiplications one output element at a time on a probe; a
        # conv is same-size, so there is one output element per input one
        c_in, c_out, k = 2, 3, 3
        spec = LayerSpec("conv", 2, c_in, c_out, k)
        probe = (6, 5)
        brute = 0
        for _ in range(c_out):
            for _ in range(probe[0]):
                for _ in range(probe[1]):
                    brute += c_in * k * k
        assert model_stats([spec], probe)["macs"] == brute

    def test_positional_stride_and_padding_refused(self):
        # name and bias are keyword-only, so the old (..., kernel, stride,
        # padding) call cannot bind its two trailing numbers to them
        with pytest.raises(TypeError):
            LayerSpec("conv", 2, 1, 8, 3, 1, 1)

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
        # 6x6 pools to 3x3, which the second pool cannot halve
        specs = [LayerSpec("pool", 2, kernel=2), LayerSpec("pool", 2, kernel=2)]
        with pytest.raises(ShapeError) as e:
            model_stats(specs, (6, 6))
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
        x = Tensor(RNG.normal(size=(2, 16, 16, 8)))
        out = dec.forward(enc.forward(x), x)
        assert out.shape == (1, 16, 16, 8)

    def test_resolution_ladder_p8(self):
        # patch 8 on a 32-cube: deepest grid 4^3, exactly three doublings
        enc, dec = self._encoder_and_decoder(input_shape=(32, 32, 32), patch=8,
                                             channels=1, width=2)
        assert dec.steps == 3
        x = Tensor(RNG.normal(size=(1, 32, 32, 32)))
        out = dec.forward(enc.forward(x), x)
        assert out.shape == (1, 32, 32, 32)

    def test_gradient_reaches_positional_table(self):
        enc, dec = self._encoder_and_decoder()
        x = Tensor(RNG.normal(size=(2, 16, 16, 8)))
        with Tape() as tape:
            out = dec.forward(enc.forward(x), x)
            loss = (out * out).sum()
        grads = backward(tape, loss)
        g = grads[enc.params["pos.w"]].data
        assert np.abs(g).max() > 0

    def test_stats_params_match_actual(self):
        _, dec = self._encoder_and_decoder()
        stats = model_stats(dec, (16, 16, 8))
        actual = sum(int(np.prod(p.shape)) for p in dec.params.values())
        assert stats["params"] == actual
        assert stats["macs"] > 0

    @pytest.mark.parametrize("shape, patch, params, macs", [
        ((16, 16), 4, 3629, 302080),
        ((32, 32), 16, 73789, 2666496),
    ])
    def test_stats_2d_pinned(self, shape, patch, params, macs):
        dec = UnetrDecoder(EncoderConfig(shape, 2, patch, 16, 4, 2, 2), width=4)
        assert model_stats(dec, shape) == {"params": params, "macs": macs}

    @pytest.mark.parametrize("extents", [(16, 16), (16, 16, 6)])
    def test_stats_rejects_extents(self, extents):
        _, dec = self._encoder_and_decoder()
        with pytest.raises(ShapeError, match="layer"):
            model_stats(dec, extents)

    @pytest.mark.parametrize("cfg, width", [
        (EncoderConfig((16, 16, 8), 2, 4, 16, 1, 2, 2), 4),
        (EncoderConfig((32, 32), 2, 16, 24, 1, 2, 2), 8),
        (EncoderConfig((16, 16, 16), 1, 8, 16, 1, 2, 2, ehr_dim=3), 2),
    ])
    def test_spec_layout_matches_built_decoder(self, cfg, width):
        # unetr_layer_specs lays the decoder out without drawing its weights
        specs = UnetrDecoder(cfg, width=width).layer_specs()
        assert unetr_layer_specs(cfg, width=width)[-len(specs):] == specs

    @pytest.mark.parametrize("cfg, width, digest", [
        (EncoderConfig((16, 16, 8), 2, 4, 16, 1, 2, 2), 4,
         "ac0d1eb4e40cb9a6f2df76ed0fc0648d57f7f3a13c97308787d9df994f7aea6e"),
        (EncoderConfig((32, 32), 2, 16, 24, 1, 2, 2), 8,
         "fd3fe69c6339d9885f9dc92811181c35498787986a698d5146dd3bb9493b1bd2"),
    ])
    def test_drawn_weights_pinned(self, cfg, width, digest):
        dec = UnetrDecoder(cfg, width=width, seed=3)
        h = hashlib.sha256()
        for name, param in dec.params.items():
            h.update(name.encode())
            h.update(param.data.tobytes())
        assert h.hexdigest() == digest

    def test_2d_mode(self):
        cfg = EncoderConfig((16, 16), 1, 4, 16, 4, 2, 2)
        enc = ViTEncoder(cfg, seed=0)
        dec = UnetrDecoder(cfg, width=4, seed=1)
        x = Tensor(RNG.normal(size=(1, 16, 16)))
        out = dec.forward(enc.forward(x), x)
        assert out.shape == (1, 16, 16)


class TestEncoderLayout:
    @pytest.mark.parametrize("build, digest", [
        (lambda: ViTEncoder(EncoderConfig((16, 16, 8), 2, 4, 16, 2, 2, 2), seed=3),
         "ed4becd51cf62b424041c87d6103ce43c86abb6a7cea0cf795c709b0609d5273"),
        (lambda: ViTEncoder(EncoderConfig((16, 16, 8), 2, 4, 16, 2, 2, 2, ehr_dim=3), seed=3),
         "47336540dbc4709470624c04d22374f66754a41d374c02d5ae5933af015d7216"),
        (lambda: TmssModel(EncoderConfig((8, 8, 8), 2, 4, 16, 1, 2, 2, ehr_dim=2),
                           [1.0, 2.0, 3.0], decoder_width=4, seed=3),
         "e9ded9233f581fa0bb7e04ec6190bbb30a7277bfaac0f45c0b87fb85e9cb914a"),
    ], ids=["encoder", "encoder-ehr", "tmss"])
    def test_drawn_weights_pinned(self, build, digest):
        h = hashlib.sha256()
        for name, param in build().params.items():
            h.update(name.encode())
            h.update(param.data.tobytes())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("ehr_dim", [None, 3])
    def test_stats_params_match_drawn_encoder(self, ehr_dim):
        cfg = EncoderConfig((16, 16, 8), 2, 4, 16, 2, 2, 2, ehr_dim=ehr_dim)
        drawn = sum(p.data.size for p in ViTEncoder(cfg).params.values())
        assert model_stats(encoder_layer_specs(cfg), cfg.input_shape)["params"] == drawn


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
            net.params = adamw_step(net.params, gmap, state, lr=state.base_lr)
            if step % 10 == 0 or step == 199:
                score = dsc(predict_mask(net.forward(xt)), truth)
                if score >= 0.99:
                    break
        assert score >= 0.99
