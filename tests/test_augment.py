"""Joint augmentation: shared geometry, determinism, mask binarity."""

import numpy as np
import pytest

import oncokit.augment as augment_module
from oncokit.augment import augment, mirror
from oncokit.errors import ContractError
from oncokit.volume import Volume


def _triplet(rng, shape=(16, 16, 8)):
    ct = Volume(rng.normal(size=shape).astype(np.float32), (1, 1, 1), "CT")
    pet = Volume(np.abs(rng.normal(size=shape)).astype(np.float32), (1, 1, 1), "PET")
    mask = Volume((rng.random(shape) > 0.7).astype(np.float32), (1, 1, 1), "MASK")
    return ct, pet, mask


@pytest.fixture
def no_geometry(monkeypatch):
    """The recipe without mirroring, rotation or elastic displacement."""
    monkeypatch.setattr(augment_module, "MIRROR_AXES", ())
    monkeypatch.setattr(augment_module, "ROTATION_DEG", (0.0, 0.0))
    monkeypatch.setattr(augment_module, "ELASTIC", (16, 0.0))


def test_null_recipe_is_identity(no_geometry, monkeypatch):
    monkeypatch.setattr(augment_module, "GAMMA_RANGE", (1.0, 1.0))
    ct, pet, mask = _triplet(np.random.default_rng(0))
    out = augment(ct, pet, mask, np.random.default_rng(0))
    assert np.array_equal(out[0].data, ct.data)
    assert np.allclose(out[1].data, pet.data, rtol=0, atol=1e-6)
    assert np.array_equal(out[2].data, mask.data)


def test_double_mirror_is_identity():
    rng = np.random.default_rng(1)
    ct, _, _ = _triplet(rng)
    once = mirror(ct, ("W",))
    twice = mirror(once, ("W",))
    assert np.array_equal(twice.data, ct.data)
    assert not np.array_equal(once.data, ct.data)


def test_same_seed_bit_identical():
    ct, pet, mask = _triplet(np.random.default_rng(2))
    a = augment(ct, pet, mask, np.random.default_rng(99))
    b = augment(ct, pet, mask, np.random.default_rng(99))
    for va, vb in zip(a, b):
        assert va.data.tobytes() == vb.data.tobytes()


def test_different_seeds_differ():
    ct, pet, mask = _triplet(np.random.default_rng(3))
    a = augment(ct, pet, mask, np.random.default_rng(1))
    b = augment(ct, pet, mask, np.random.default_rng(2))
    assert not np.array_equal(a[0].data, b[0].data)


def test_mask_stays_binary_under_warp():
    ct, pet, mask = _triplet(np.random.default_rng(4))
    _, _, m = augment(ct, pet, mask, np.random.default_rng(5))
    assert set(np.unique(m.data)) <= {0.0, 1.0}
    assert not np.array_equal(m.data, mask.data)


def test_same_geometry_applied_to_all(monkeypatch):
    # identical payloads under the same warp give identical outputs
    monkeypatch.setattr(augment_module, "GAMMA_RANGE", (1.0, 1.0))
    rng = np.random.default_rng(5)
    payload = rng.normal(size=(12, 12, 6)).astype(np.float32)
    ct = Volume(payload, (1, 1, 1), "CT")
    pet = Volume(payload.copy(), (1, 1, 1), "PET")
    mask = Volume(np.zeros_like(payload), (1, 1, 1), "MASK")
    act, apet, _ = augment(ct, pet, mask, np.random.default_rng(6))
    assert not np.allclose(act.data, payload)
    assert np.allclose(act.data, apet.data)


def test_gamma_touches_pet_only(no_geometry):
    ct, pet, mask = _triplet(np.random.default_rng(6))
    act, apet, amask = augment(ct, pet, mask, np.random.default_rng(7))
    assert np.array_equal(act.data, ct.data)
    assert np.array_equal(amask.data, mask.data)
    assert not np.array_equal(apet.data, pet.data)


def test_gamma_preserves_range(no_geometry, monkeypatch):
    monkeypatch.setattr(augment_module, "GAMMA_RANGE", (2.0, 2.0))
    _, pet, _ = _triplet(np.random.default_rng(7))
    ct = Volume(np.zeros_like(pet.data), (1, 1, 1), "CT")
    mask = Volume(np.zeros_like(pet.data), (1, 1, 1), "MASK")
    _, apet, _ = augment(ct, pet, mask, np.random.default_rng(8))
    assert apet.data.min() >= pet.data.min() - 1e-5
    assert apet.data.max() <= pet.data.max() + 1e-5


def test_shape_mismatch_rejected():
    ct, pet, _ = _triplet(np.random.default_rng(8))
    bad_mask = Volume(np.zeros((4, 4, 4), dtype=np.float32), (1, 1, 1), "MASK")
    with pytest.raises(ContractError):
        augment(ct, pet, bad_mask, np.random.default_rng(0))


def test_worker_rng_advances_draws():
    ct, pet, mask = _triplet(np.random.default_rng(9))
    worker = np.random.default_rng(123)
    a = augment(ct, pet, mask, worker)
    b = augment(ct, pet, mask, worker)
    assert not np.array_equal(a[0].data, b[0].data)
