"""Named-blob weight checkpoints."""

import numpy as np
import pytest

from oncokit.autodiff import Tensor
from oncokit.checkpoint import load_checkpoint, load_manifest, save_checkpoint
from oncokit.errors import FormatError


def test_roundtrip_to_f32_precision(tmp_path):
    rng = np.random.default_rng(0)
    params = {
        "embed.proj": Tensor(rng.normal(size=(12, 4)), requires_grad=True),
        "blocks.0.wq": Tensor(rng.normal(size=(4, 4)), requires_grad=True),
        "head.b": Tensor(rng.normal(size=(1,)), requires_grad=True),
    }
    path = tmp_path / "weights.ckpt"
    save_checkpoint(params, path, config={"embed_dim": 4})
    back = load_checkpoint(path)
    assert set(back) == set(params)
    for name in params:
        assert back[name].shape == params[name].shape
        assert np.allclose(back[name].data, params[name].data, atol=1e-6)
        # payload is f32 on disk: exact at that precision
        assert np.array_equal(back[name].data,
                              params[name].data.astype(np.float32).astype(np.float64))
    manifest = load_manifest(path)
    assert manifest["config"]["embed_dim"] == 4
    assert manifest["parameters"] == 3


def test_bad_magic(tmp_path):
    p = tmp_path / "x.ckpt"
    p.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(FormatError):
        load_checkpoint(p)


def test_truncated_blob(tmp_path):
    params = {"w": Tensor(np.ones((3, 3)), requires_grad=True)}
    p = tmp_path / "w.ckpt"
    save_checkpoint(params, p, config={})
    raw = p.read_bytes()
    p.write_bytes(raw[:-5])
    with pytest.raises(FormatError):
        load_checkpoint(p)


def test_loaded_params_train(tmp_path):
    # loaded tensors must be usable as trainable parameters directly
    params = {"w": Tensor(np.ones(2), requires_grad=True)}
    p = tmp_path / "w.ckpt"
    save_checkpoint(params, p, config={})
    back = load_checkpoint(p)
    assert back["w"].requires_grad
