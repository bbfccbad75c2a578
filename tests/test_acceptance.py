"""Acceptance suite: one test per shipped guarantee, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion. The heavier training criteria print their elapsed time and
assert their wall-clock budgets.
"""

import time

import numpy as np
import pytest

from gradcheck import check_op

from oncokit.autodiff import (
    Tensor,
    conv,
    layer_norm,
    matmul,
    relu,
    sigmoid,
    softmax,
    transpose,
    transposed_conv,
    zeros,
)
from oncokit.cox import cox_cohort_risks, cox_fit
from oncokit.ehr import Cohort
from oncokit.experiment import (
    ExperimentConfig,
    _seg_samples,
    cv_split,
    load_dataset,
    run_experiment,
    train_segmentation,
    write_synthetic_dataset,
)
from oncokit.losses import combined_loss, dice_loss, focal_loss
from oncokit.metrics import c_index_naive, concordance_detail
from oncokit.mtlr import MtlrModel, mtlr_nll_from_scores, mtlr_objective, mtlr_survival
from oncokit.segnets import LayerSpec, UNet, model_stats, predict_mask
from oncokit.superimage import SuperImageLayout, choose_grid, from_super_image, to_super_image
from oncokit.vit import EncoderConfig, ViTEncoder
from oncokit.metrics import dsc

RNG = np.random.default_rng(20250801)


def _cohort(x, times, events):
    x = np.asarray(x, dtype=np.float64)
    return Cohort([f"s{i}" for i in range(len(times))], times, events, x,
                  [f"x{j}" for j in range(x.shape[1])])


def _objective(model, cohort):
    """The fit's objective, regularizer included, at the model's head."""
    return float(mtlr_objective(Tensor(model.theta), Tensor(model.bias),
                                Tensor(model.features(cohort.covariate_matrix())),
                                model.boundaries, cohort.times(), cohort.events(),
                                model.smoothing).data)


# ---------------------------------------------------------------- criterion 1

def test_criterion_01_gradient_suite():
    """Every differentiable op matches central differences (rel err <= 1e-4)."""
    started = time.monotonic()
    tol = 1e-4

    # same-size convolution, 3- and 1-sided kernels, both ranks; the 3-sided
    # 3D kernel has a generator of its own, so RNG's later draws are unchanged
    x2 = RNG.normal(size=(2, 5, 5))
    w2 = RNG.normal(size=(3, 2, 3, 3))
    x3 = RNG.normal(size=(1, 4, 4, 4))
    w3 = RNG.normal(size=(2, 1, 2, 2, 2))
    w3_3 = np.random.default_rng(101).normal(size=(2, 1, 3, 3, 3))
    for x, w in ((x2, w2), (x2, w2[:, :, :1, :1]), (x3, w3_3), (x3, w3[..., :1, :1, :1])):
        assert check_op(lambda a, b: (conv(a, b) ** 2).sum(), [x, w]) <= tol

    # transposed convolution
    y3 = RNG.normal(size=(2, 3, 3, 3))
    wt = RNG.normal(size=(2, 1, 2, 2, 2))
    assert check_op(lambda a, b: (transposed_conv(a, b) ** 2).sum(), [y3, wt]) <= tol

    # layer norm (weighted loss so the check has signal in x)
    xn = RNG.normal(size=(3, 6))
    gn = RNG.normal(size=(6,))
    bn = RNG.normal(size=(6,))
    r = Tensor(RNG.normal(size=(3, 6)))
    assert check_op(lambda a, g, b: ((layer_norm(a, g, b) * r) ** 2).sum(),
                    [xn, gn, bn]) <= tol

    # single-head attention
    zq = RNG.normal(size=(4, 6))
    wq = RNG.normal(size=(6, 3))
    wk = RNG.normal(size=(6, 3))
    wv = RNG.normal(size=(6, 3))

    def attn(z, q, k, v):
        att = softmax(matmul(matmul(z, q), transpose(matmul(z, k), (1, 0)))
                      * (1.0 / np.sqrt(3.0)))
        return (matmul(att, matmul(z, v)) ** 2).sum()

    assert check_op(attn, [zq, wq, wk, wv]) <= tol

    # full transformer block (every parameter of one block)
    cfg = EncoderConfig((8, 8), 1, 4, 8, 1, 2, 2)
    enc = ViTEncoder(cfg, seed=1)
    zin = RNG.normal(size=(4, 8))
    names = sorted(enc.params)

    def block_loss(*arrays):
        for name, arr in zip(names, arrays):
            enc.params[name] = arr if isinstance(arr, Tensor) else Tensor(arr)
        return (enc.block(Tensor(zin), 0) ** 2).sum()

    assert check_op(block_loss, [enc.params[n].data.copy() for n in names]) <= tol

    # dice and focal over probabilities
    p = RNG.uniform(0.1, 0.9, size=(12,))
    ymask = (RNG.random(12) > 0.5).astype(float)
    assert check_op(lambda a: dice_loss(a, Tensor(ymask)), [p]) <= tol
    assert check_op(lambda a: focal_loss(a, Tensor(ymask)), [p]) <= tol
    logits = RNG.normal(size=(2, 4, 4))
    ym = (RNG.random((2, 4, 4)) > 0.6).astype(float)
    assert check_op(lambda a: combined_loss(sigmoid(a), Tensor(ym)), [logits]) <= tol

    # discretized survival likelihood with censored subjects
    grid = np.array([1.0, 2.0, 3.0])
    n, pdim = 8, 2
    xs = RNG.normal(size=(n, pdim))
    times = RNG.uniform(0.2, 2.9, size=n)
    events = np.array([1, 0, 1, 1, 0, 1, 0, 1])
    theta0 = RNG.normal(size=(3, pdim)) * 0.4
    bias0 = RNG.normal(size=3) * 0.4
    assert check_op(lambda th, b: mtlr_objective(th, b, Tensor(xs), grid, times, events, 0.5),
                    [theta0, bias0]) <= tol

    # neural front end feeding the same likelihood
    w1 = RNG.normal(size=(pdim, 4)) * 0.5
    th = RNG.normal(size=(3, 4)) * 0.5

    def neural_loss(w1_t, th_t):
        h = relu(matmul(Tensor(xs), w1_t))
        scores = matmul(h, transpose(th_t, (1, 0)))
        return mtlr_nll_from_scores(scores, grid, times, events)

    assert check_op(neural_loss, [w1, th]) <= tol

    elapsed = time.monotonic() - started
    print(f"\ngradient suite: {elapsed:.1f}s")
    assert elapsed < 60.0


# ---------------------------------------------------------------- criterion 2

def test_criterion_02_super_image_bijectivity():
    """Exhaustive round-trip sweep is bit-exact; the 80x80x48 -> 480x640
    worked layout is reproduced."""
    started = time.monotonic()
    for h in range(1, 17):
        for w in range(1, 17):
            for d in range(1, 33):
                for c in (1, 2):
                    v = (np.arange(h * w * d * c, dtype=np.float32)
                         .reshape(h, w, d, c) * 0.5 - 3.0)
                    layout = SuperImageLayout.for_volume(v.shape)
                    back = from_super_image(to_super_image(v, layout), layout)
                    assert back.tobytes() == v.tobytes()

    assert choose_grid(48) == (6, 8)
    layout = SuperImageLayout.for_volume((80, 80, 48, 2))
    assert layout.image_shape == (480, 640, 2)
    si = to_super_image(np.ones((80, 80, 48, 2), dtype=np.float32), layout)
    assert si.shape == (480, 640, 2)

    elapsed = time.monotonic() - started
    print(f"\nbijectivity sweep: {elapsed:.1f}s")
    assert elapsed < 30.0


# ---------------------------------------------------------------- criterion 3

def test_criterion_03_c_index_oracle():
    """Fast concordance equals the quadratic definition; anchor values hold."""
    rng = np.random.default_rng(3)
    for _ in range(1000):
        n = int(rng.integers(3, 201))
        t = np.round(rng.uniform(1, 50, size=n), 1)
        r = np.round(rng.normal(size=n), 2)
        e = (rng.random(n) > 0.35).astype(int)
        try:
            naive = c_index_naive(t, -r, e)      # the printed form scores -risk
        except Exception:
            continue
        assert concordance_detail(t, r, e).value == naive

    n = 500
    t = np.sort(rng.uniform(1, 100, size=n))
    perfect = -np.arange(n, dtype=float)     # larger risk with shorter life
    ones = np.ones(n, dtype=int)
    assert concordance_detail(t, perfect, ones).value == 1.0
    assert concordance_detail(t, -perfect, ones).value == 0.0

    n = 10_000
    t = rng.uniform(1, 100, size=n)
    r = rng.normal(size=n)
    e = (rng.random(n) > 0.3).astype(int)
    assert abs(concordance_detail(t, r, e).value - 0.50) <= 0.02


# ---------------------------------------------------------------- criterion 4

def test_criterion_04_cox_recovery():
    """n=500 planted-hazard cohort: coefficients within +-0.15, <= 20
    Newton iterations, monotone log-likelihood, under 5 seconds."""
    from oncokit.synthetic import gen_synthetic_cohort

    started = time.monotonic()
    cohort = gen_synthetic_cohort(500, seed=0, beta=[1.0, -0.5], censor_frac=0.2)
    model = cox_fit(cohort)
    elapsed = time.monotonic() - started
    assert model.coefficients[0] == pytest.approx(1.0, abs=0.15)
    assert model.coefficients[1] == pytest.approx(-0.5, abs=0.15)
    assert model.iterations <= 20
    assert (np.diff(model.ll_trajectory) >= -1e-9).all()
    print(f"\ncox fit: {elapsed:.2f}s")
    assert elapsed < 5.0


# ---------------------------------------------------------------- criterion 5

def test_criterion_05_mtlr_correctness():
    """Zero-parameter loss, logistic reduction, curve monotonicity."""
    # zero parameters: log(m + 1) per uncensored subject, exactly
    for m in (1, 2, 5):
        grid = np.arange(1.0, m + 1)
        model = MtlrModel(grid, np.zeros((m, 3)), np.zeros(m), 0.0)
        n = 6
        x = RNG.normal(size=(n, 3))
        times = RNG.uniform(0.1, float(m), size=n)
        cohort = _cohort(x, times, np.ones(n, dtype=int))
        assert _objective(model, cohort) == pytest.approx(n * np.log(m + 1.0),
                                                          rel=1e-14)

    # m=1, all uncensored: the likelihood is the logistic NLL of "dead by
    # the boundary" labels (all one here, since the grid covers the data)
    x = RNG.normal(size=(9, 2))
    theta = RNG.normal(size=(1, 2))
    bias = RNG.normal(size=1)
    times = RNG.uniform(0.1, 4.9, size=9)
    model = MtlrModel(np.array([5.0]), theta, bias, 0.0)
    g = x @ theta[0] + bias[0]
    expected = float(np.log1p(np.exp(-g)).sum())
    assert abs(_objective(model, _cohort(x, times, np.ones(9, dtype=int)))
               - expected) <= 1e-10

    # survival curves nonincreasing over 1000 random models
    rng = np.random.default_rng(5)
    for _ in range(1000):
        m = int(rng.integers(1, 9))
        p = int(rng.integers(1, 4))
        bounds = np.unique(rng.uniform(0.5, 20, size=m))
        model = MtlrModel(bounds, rng.normal(size=(bounds.size, p)) * 2,
                          rng.normal(size=bounds.size), 0.0)
        curve = mtlr_survival(model, rng.normal(size=p))
        assert (np.diff(curve.survival) <= 1e-12).all()
        assert curve.survival[0] == 1.0


# ---------------------------------------------------------------- criterion 6

def test_criterion_06_toy_segmentation_comparability(tmp_path):
    """2D U-Net on super images and 3D U-Net both reach DSC >= 0.85 within
    20 epochs on 200 synthetic volumes and land within 0.05 of each other."""
    started = time.monotonic()
    write_synthetic_dataset(tmp_path / "d", n=200, seed=606, beta=[1.0, 0.5],
                            censor_frac=0.2, with_volumes=True,
                            volume_shape=(32, 32, 16))
    cohort = load_dataset(tmp_path / "d")
    train_idx = np.arange(100)
    val_idx = np.arange(100, 200)

    final = {}
    epochs_used = {}
    for task in ("seg2d-si", "seg3d"):
        as_si = task == "seg2d-si"
        train_samples, _ = _seg_samples(cohort, train_idx, as_si)
        val_samples, _ = _seg_samples(cohort, val_idx, as_si)
        rank = 2 if as_si else 3
        net = UNet(rank, in_channels=2, depth=2, base_width=8, seed=1)
        probe = val_samples[:24]
        for epoch in range(20):
            train_segmentation(net, train_samples, 1, 8, 3e-3, 1e-5, 25,
                               seed=1000 + epoch)
            probe_dsc = np.mean([
                dsc(predict_mask(net.forward(Tensor(x)))[0], y[0])
                for x, y in probe])
            if probe_dsc >= 0.88:
                epochs_used[task] = epoch + 1
                break
        else:
            epochs_used[task] = 20
        final[task] = float(np.mean([
            dsc(predict_mask(net.forward(Tensor(x)))[0], y[0])
            for x, y in val_samples]))

    elapsed = time.monotonic() - started
    print(f"\nseg comparability: 2d-si={final['seg2d-si']:.3f} "
          f"({epochs_used['seg2d-si']} epochs), 3d={final['seg3d']:.3f} "
          f"({epochs_used['seg3d']} epochs), {elapsed:.0f}s")
    assert final["seg2d-si"] >= 0.85
    assert final["seg3d"] >= 0.85
    assert epochs_used["seg2d-si"] <= 20 and epochs_used["seg3d"] <= 20
    assert abs(final["seg2d-si"] - final["seg3d"]) <= 0.05
    assert elapsed < 15 * 60


# ---------------------------------------------------------------- criterion 7

def test_criterion_07_model_stats():
    """Closed-form parameter counts, the ~3x rank ratio, and brute-force
    MAC verification on probe inputs."""
    stats = model_stats([LayerSpec("conv", 3, 1, 8, 3)], (6, 6, 6))
    assert stats["params"] == 27 * 8 + 8
    assert model_stats([], (4, 4)) == {"params": 0, "macs": 0}

    for net in (UNet(2, 2, depth=2, base_width=4), UNet(3, 2, depth=2, base_width=4)):
        counted = model_stats(net, (16,) * net.rank)["params"]
        actual = sum(int(np.prod(t.shape)) for t in net.params.values())
        assert counted == actual

    s3 = model_stats(UNet(3), (64, 64, 64))
    s2 = model_stats(UNet(2), (64, 64))
    assert 2.5 <= s3["params"] / s2["params"] <= 3.5

    # brute-force MAC counting on probes: one multiply per kernel element,
    # input channel, output channel and output position; a conv pads by
    # (k - 1) // 2, so it keeps its input's extents
    for rank, probe in ((2, (6, 6)), (3, (6, 6, 6))):
        c_in, c_out, k, pad = 2, 3, 3, 1
        spec = LayerSpec("conv", rank, c_in, c_out, k)
        out_sp = tuple(s + 2 * pad - k + 1 for s in probe)
        brute = 0
        for _ in np.ndindex(*out_sp):
            brute += c_out * c_in * k ** rank
        assert model_stats([spec], probe)["macs"] == brute


# ---------------------------------------------------------------- criterion 8

def test_criterion_08_transformer_invariants():
    """Attention rows are exact probability vectors; the encoder without
    positions is permutation-equivariant; zeroed blocks are identities."""
    z = Tensor(RNG.normal(size=(9, 16)))
    wq = Tensor(RNG.normal(size=(16, 8)))
    wk = Tensor(RNG.normal(size=(16, 8)))
    att = softmax(matmul(matmul(z, wq), transpose(matmul(z, wk), (1, 0)))
                  * (1.0 / np.sqrt(8)))
    assert np.abs(att.data.sum(axis=-1) - 1.0).max() <= 1e-12

    cfg = EncoderConfig((16, 16, 8), 1, 8, 16, 2, 2, 2)
    enc = ViTEncoder(cfg, seed=2)
    n = cfg.tokens
    tokens = RNG.normal(size=(n, 16))
    perm = RNG.permutation(n)
    plain = enc.encode(Tensor(tokens)).final.data
    permuted = enc.encode(Tensor(tokens[perm])).final.data
    assert np.abs(permuted - plain[perm]).max() <= 1e-9

    for i in range(cfg.layers):
        for name in (f"blocks.{i}.msa.w", f"blocks.{i}.msa.b",
                     f"blocks.{i}.mlp2.w", f"blocks.{i}.mlp2.b"):
            enc.params[name] = zeros(enc.params[name].shape, requires_grad=True)
    zin = Tensor(RNG.normal(size=(n, 16)))
    assert np.array_equal(enc.block(zin, 0).data, zin.data)


# ---------------------------------------------------------------- criterion 9

def test_criterion_09_tmss_beats_ehr_only_baseline(tmp_path):
    """Joint multimodal training reaches at least the EHR-only Cox
    concordance when the hazard also depends on (image-visible) tumor size."""
    from oncokit.experiment import _run_tmss_fold

    started = time.monotonic()
    write_synthetic_dataset(tmp_path / "d", n=140, seed=42, beta=[1.4, 0.8],
                            censor_frac=0.2, with_volumes=True,
                            volume_shape=(16, 16, 8))
    cohort = load_dataset(tmp_path / "d")
    train_idx, val_idx = cv_split(cohort, "kfold", 3, 4)[0]

    # the baseline sees only the tabular covariate; tumor size (covariate 0)
    # reaches the joint model exclusively through the images
    ehr = cohort.select_features([1])
    baseline = cox_fit(ehr.subset(train_idx))
    val = ehr.subset(val_idx)
    c_baseline = concordance_detail(val.times(), cox_cohort_risks(baseline, val),
                                    val.events()).value

    cfg = ExperimentConfig(task="tmss", data_dir=str(tmp_path / "d"),
                           output_dir=str(tmp_path / "out"), seed=3, epochs=24,
                           batch_size=10, learning_rate=2e-3, cv_folds=4,
                           survival_weight=2.0, ehr_features=(1,), patch=4,
                           m_intervals=5, decoder_width=8)
    (tmp_path / "out").mkdir(exist_ok=True)
    metrics = _run_tmss_fold(cfg, cohort, train_idx, val_idx, 999,
                             tmp_path / "out", 0)
    elapsed = time.monotonic() - started
    print(f"\ntmss={metrics['c_index']:.3f} vs ehr-only cox={c_baseline:.3f} "
          f"(dsc={metrics['dsc']:.3f}), {elapsed:.0f}s")
    assert metrics["c_index"] >= c_baseline
    assert elapsed < 20 * 60


# --------------------------------------------------------------- criterion 10

def test_criterion_10_deterministic_reports(tmp_path):
    """Identical config + seed reruns produce byte-identical reports."""
    write_synthetic_dataset(tmp_path / "surv", n=50, seed=77, beta=[1.0, -0.5],
                            censor_frac=0.2)
    write_synthetic_dataset(tmp_path / "seg", n=12, seed=78, beta=[1.0],
                            with_volumes=True, volume_shape=(16, 16, 8))

    for name, kwargs in (
        ("surv-mtlr", dict(task="surv-mtlr", data_dir=str(tmp_path / "surv"),
                           output_dir=str(tmp_path / "o1"), seed=5, cv_folds=2,
                           fit_iterations=120)),
        ("seg2d-si", dict(task="seg2d-si", data_dir=str(tmp_path / "seg"),
                          output_dir=str(tmp_path / "o2"), seed=6, cv_folds=2,
                          epochs=2, batch_size=4)),
    ):
        blobs = []
        for _ in range(2):
            run_experiment(ExperimentConfig(**kwargs))
            blobs.append((tmp_path / kwargs["output_dir"].rsplit("/", 1)[-1]
                          / "report.json").read_bytes())
        assert blobs[0] == blobs[1], f"{name} report not reproducible"
