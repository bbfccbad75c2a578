"""Patch embedding, attention and encoder block invariants."""

import math

import numpy as np
import pytest

from gradcheck import check_op

from oncokit.autodiff import Tape, Tensor, backward, zeros
from oncokit.errors import ContractError, ShapeError
from oncokit.vit import (
    EncoderConfig,
    ViTEncoder,
    encoder_preset,
    extract_patches,
    tokens_to_grid,
)

RNG = np.random.default_rng(2024)


def _toy(input_shape=(16, 16, 8), patch=8, embed=16, layers=2, heads=2,
         channels=1, ehr_dim=None, seed=0):
    cfg = EncoderConfig(input_shape, channels, patch, embed, layers, heads, 2, ehr_dim)
    return ViTEncoder(cfg, seed=seed)


def _zero_block_outputs(enc):
    """Zero every block's output projections, making each block an identity."""
    for i in range(enc.cfg.layers):
        for name in (f"blocks.{i}.w_msa", f"blocks.{i}.b_msa",
                     f"blocks.{i}.mlp.w2", f"blocks.{i}.mlp.b2"):
            enc.params[name] = zeros(enc.params[name].shape, requires_grad=True)


class TestPatchEmbed:
    def test_token_count_full_size(self):
        cfg = encoder_preset("paper", (144, 144, 144), channels=2)
        assert cfg.tokens == 729
        assert cfg.patch_elems == 16 ** 3 * 2

    def test_zero_input_zero_pos_gives_zero_tokens(self):
        enc = _toy()
        enc.params["embed.pos"] = zeros(enc.params["embed.pos"].shape, requires_grad=True)
        z0 = enc.patch_embed(Tensor(np.zeros((16, 16, 8, 1))))
        assert np.allclose(z0.data, 0.0)
        assert z0.shape == (enc.cfg.tokens, 16)

    def test_indivisible_extent_names_axis(self):
        with pytest.raises(ShapeError) as e:
            EncoderConfig((15, 16, 8), 1, 8, 16, 2, 2)
        assert "axis 0" in str(e.value)

    def test_projection_linearity_under_permutation(self):
        # permuting patches then subtracting matching positional rows must
        # reproduce the permuted projections
        enc = _toy()
        x = Tensor(RNG.normal(size=(16, 16, 8, 1)))
        patches = extract_patches(x, 8, 3)
        n = patches.shape[0]
        perm = RNG.permutation(n)
        z0 = enc.patch_embed(x).data - enc.params["embed.pos"].data
        proj = patches.data @ enc.params["embed.proj"].data
        assert np.allclose(z0[perm], proj[perm], atol=1e-12)

    def test_patch_order_is_raster(self):
        # mark one voxel; its patch index follows h-major raster order
        x = np.zeros((16, 16, 8, 1))
        x[9, 2, 5, 0] = 1.0   # grid cell (1, 0, 0) for P=8
        patches = extract_patches(Tensor(x), 8, 3).data
        nonzero_rows = np.nonzero(patches.sum(axis=1))[0]
        assert list(nonzero_rows) == [1 * (2 * 1) + 0 * 1 + 0]


def self_attention(z: Tensor, wq: Tensor, wk: Tensor, wv: Tensor) -> Tensor:
    """The encoder's attention with one head, zero biases and an identity
    output projection: plain scaled dot-product attention of width K."""
    k = wq.shape[0]
    enc = ViTEncoder(EncoderConfig((2, 2), 1, 2, k, 1, 1, 1))
    enc.params.update({"blocks.0.wq": wq, "blocks.0.wk": wk, "blocks.0.wv": wv,
                       "blocks.0.w_msa": Tensor(np.eye(k))})
    return enc._msa(z, "blocks.0.")


class TestSelfAttention:
    def test_single_token_passthrough(self):
        wq = Tensor(RNG.normal(size=(4, 4)))
        wk = Tensor(RNG.normal(size=(4, 4)))
        wv = Tensor(RNG.normal(size=(4, 4)))
        z = Tensor(RNG.normal(size=(1, 4)))
        out = self_attention(z, wq, wk, wv)
        assert np.allclose(out.data, z.data @ wv.data)

    def test_identical_tokens_uniform_attention(self):
        z = Tensor(np.tile(RNG.normal(size=(1, 4)), (5, 1)))
        wq, wk, wv = (Tensor(RNG.normal(size=(4, 4))) for _ in range(3))
        out = self_attention(z, wq, wk, wv)
        # uniform weights over identical values reproduce the value row
        assert np.allclose(out.data, z.data @ wv.data, atol=1e-12)

    def test_two_token_closed_form(self):
        # K = K_h = 1: attention weights are an explicit scalar softmax
        z = Tensor(np.array([[1.0], [2.0]]))
        wq = Tensor(np.array([[0.5]]))
        wk = Tensor(np.array([[1.5]]))
        wv = Tensor(np.array([[2.0]]))
        out = self_attention(z, wq, wk, wv).data
        q = np.array([0.5, 1.0])
        k = np.array([1.5, 3.0])
        v = np.array([2.0, 4.0])
        expected = []
        for i in range(2):
            logits = q[i] * k / 1.0   # sqrt(K_h) = 1
            w = np.exp(logits - logits.max())
            w /= w.sum()
            expected.append((w * v).sum())
        assert np.allclose(out[:, 0], expected, atol=1e-12)


class TestTransformerBlock:
    def test_zeroed_outputs_identity(self):
        enc = _toy()
        _zero_block_outputs(enc)
        z = Tensor(RNG.normal(size=(enc.cfg.tokens, 16)))
        out = enc.block(z, 0)
        assert np.array_equal(out.data, z.data)

    def test_shape_preserved_many_sizes(self):
        enc = _toy()
        for n in (1, 2, 7, 33, 64):
            z = Tensor(RNG.normal(size=(n, 16)))
            assert enc.block(z, 1).shape == (n, 16)

    def test_gradient_through_block(self):
        enc = _toy(input_shape=(8, 8), patch=4, embed=8, layers=1, heads=2)
        z = RNG.normal(size=(4, 8))
        names = ["blocks.0.wq", "blocks.0.wv", "blocks.0.w_msa",
                 "blocks.0.mlp.w1", "blocks.0.ln1.gain"]

        def run(*arrays):
            for name, arr in zip(names, arrays):
                enc.params[name] = arr if isinstance(arr, Tensor) else Tensor(arr)
            return (enc.block(Tensor(z), 0) ** 2).sum()

        err = check_op(run, [enc.params[n].data.copy() for n in names], tol=1e-4)
        assert err <= 1e-4


class TestEncode:
    def test_twelve_layer_taps(self):
        cfg = encoder_preset("paper", (32, 32, 32), channels=1)
        assert cfg.tap_layers == (3, 6, 9, 12)

    def test_four_taps_returned(self):
        enc = _toy(layers=4)
        out = enc.encode(Tensor(RNG.normal(size=(enc.cfg.tokens, 16))))
        assert len(out.taps) == 4

    def test_identity_blocks_taps_equal_input(self):
        enc = _toy(layers=4)
        _zero_block_outputs(enc)
        z0 = Tensor(RNG.normal(size=(enc.cfg.tokens, 16)))
        out = enc.encode(z0)
        for tap in out.taps:
            assert np.array_equal(tap.data, z0.data)

    def test_permutation_equivariance_without_positions(self):
        enc = _toy(layers=2)
        n = enc.cfg.tokens
        z0 = RNG.normal(size=(n, 16))
        perm = RNG.permutation(n)
        out_plain = enc.encode(Tensor(z0)).final.data
        out_perm = enc.encode(Tensor(z0[perm])).final.data
        assert np.abs(out_perm - out_plain[perm]).max() <= 1e-9

    def test_attention_rows_are_probability_vectors(self):
        enc = _toy(layers=1)
        # probe via the standalone head machinery
        z = Tensor(RNG.normal(size=(9, 16)))
        wq = Tensor(RNG.normal(size=(16, 8)))
        wk = Tensor(RNG.normal(size=(16, 8)))
        from oncokit.autodiff import matmul, softmax, transpose
        att = softmax(matmul(matmul(z, wq), transpose(matmul(z, wk), (1, 0)))
                      * (1.0 / math.sqrt(8)), axis=-1)
        sums = att.data.sum(axis=-1)
        assert np.abs(sums - 1.0).max() <= 1e-12


class TestEhrToken:
    def test_zero_covariates_zero_bias_zero_token(self):
        enc = _toy(ehr_dim=3)
        enc.params["embed.pos"] = zeros(enc.params["embed.pos"].shape, requires_grad=True)
        tok = enc.ehr_token(Tensor(np.zeros(3)))
        assert np.allclose(tok.data, 0.0)

    def test_prepend_increases_count(self):
        enc = _toy(ehr_dim=3)
        out = enc.forward(Tensor(RNG.normal(size=(16, 16, 8, 1))),
                          Tensor(RNG.normal(size=3)))
        assert out.final.shape == (enc.cfg.tokens + 1, 16)
        assert out.has_ehr_token

    def test_width_mismatch(self):
        enc = _toy(ehr_dim=3)
        with pytest.raises(ContractError):
            enc.ehr_token(Tensor(np.zeros(5)))

    def test_gradient_reaches_both_projections(self):
        enc = _toy(ehr_dim=3, layers=1)
        with Tape() as tape:
            out = enc.forward(Tensor(RNG.normal(size=(16, 16, 8, 1))),
                              Tensor(RNG.normal(size=3)))
            loss = (out.final ** 2).sum()
        grads = backward(tape, loss)
        assert np.abs(grads[enc.params["ehr.proj"]].data).max() > 0
        assert np.abs(grads[enc.params["embed.proj"]].data).max() > 0


class TestEndToEndGradient:
    def test_two_block_encoder_matches_differences(self):
        # 2 blocks, embed width 8, 8 tokens
        cfg = EncoderConfig((8, 16), 1, 4, 8, 2, 2, 2)
        enc = ViTEncoder(cfg, seed=3)
        assert cfg.tokens == 8
        x = RNG.normal(size=(8, 16, 1))
        names = sorted(enc.params)

        def run(*arrays):
            for name, arr in zip(names, arrays):
                enc.params[name] = arr if isinstance(arr, Tensor) else Tensor(arr)
            out = enc.forward(Tensor(x))
            return (out.final ** 2).sum()

        err = check_op(run, [enc.params[n].data.copy() for n in names])
        assert err <= 1e-4


class TestTokensToGrid:
    def test_roundtrip_layout(self):
        cfg = EncoderConfig((8, 8, 8), 1, 4, 8, 1, 2, 2)
        tokens = Tensor(RNG.normal(size=(cfg.tokens, 8)))
        grid = tokens_to_grid(tokens, cfg)
        assert grid.shape == (8, 2, 2, 2)
        # token order is raster over the grid
        assert np.allclose(grid.data[:, 1, 0, 1],
                           tokens.data[1 * 4 + 0 * 2 + 1])

    def test_bad_tap_shape(self):
        cfg = EncoderConfig((8, 8, 8), 1, 4, 8, 1, 2, 2)
        with pytest.raises(ShapeError):
            tokens_to_grid(Tensor(np.zeros((5, 8))), cfg)
