"""End-to-end CLI verbs and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oncokit
from oncokit.cli import main
from oncokit.segnets import UnetrDecoder
from oncokit.vit import EncoderConfig, ViTEncoder
from oncokit.volume import Volume, read_volume, write_volume


def test_synth_then_train_cox(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--n", "60", "--seed", "3",
                 "--beta", "1.2,-0.4"]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "task": "surv-cox", "data_dir": str(data),
        "output_dir": str(tmp_path / "out"), "seed": 11, "cv_folds": 3}))
    assert main(["train", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["task"] == "surv-cox"
    assert "c_index_mean" in report["aggregate"]


def test_train_set_override(tmp_path):
    data = tmp_path / "data"
    main(["synth", "--out", str(data), "--n", "30", "--seed", "3"])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "task": "surv-cox", "data_dir": str(data),
        "output_dir": str(tmp_path / "out"), "seed": 1, "cv_folds": 5}))
    assert main(["train", "--config", str(cfg), "--set", "cv_folds=2"]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["config"]["cv_folds"] == 2
    assert len(report["folds"]) == 2


def test_bad_config_exit_code(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"task": "nope", "data_dir": str(tmp_path),
                               "output_dir": str(tmp_path / "o"), "seed": 1}))
    assert main(["train", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("content, message", [
    (None, "No such file"),
    ("{\"task\": \"surv-cox\",", "Expecting"),
    ("[1, 2]", "expected a JSON object, got list"),
])
def test_unreadable_config_is_config_error(tmp_path, capsys, content, message):
    cfg = tmp_path / "cfg.json"
    if content is not None:
        cfg.write_text(content)
    assert main(["train", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(cfg) in err and message in err
    assert "Traceback" not in err
    assert not list(tmp_path.rglob("report.json"))


@pytest.mark.parametrize("setting", [
    "batch_size=0", "schedule_period=0", "fit_iterations=0", "fit_lr=-1", "epochs=true",
    "decoder_width=1.5", "learning_rate=NaN", "weight_decay=-1e-5", "smoothing=Infinity",
    "survival_weight=heavy", "m_intervals=0", "patch=true",
    "seed=1.5", "seed=true", "seed=-1", "cv_folds=2.5", "cv_folds=1", "resume=no",
    "hidden_widths=5", "hidden_widths=[0]", "hidden_widths=[1.5]",
    "ehr_features=[99]", "ehr_features=[-1]", "ehr_features=[0,0]", "ehr_features=[]"])
def test_train_refuses_bad_numeric_setting(tmp_path, capsys, setting):
    data, out = tmp_path / "data", tmp_path / "out"
    main(["synth", "--out", str(data), "--n", "12", "--seed", "3"])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"task": "surv-mtlr", "data_dir": str(data),
                               "output_dir": str(out), "seed": 1, "cv_folds": 2}))
    assert main(["train", "--config", str(cfg), "--set", setting]) == 2
    assert f"{setting.split('=')[0]} must be" in capsys.readouterr().err
    assert not list(out.glob("fold_*.json")) and not (out / "report.json").exists()


def test_prep_and_convert_roundtrip(tmp_path):
    raw = tmp_path / "raw"
    raw.mkdir()
    rng = np.random.default_rng(0)
    write_volume(Volume(rng.uniform(-2000, 2000, (6, 6, 12)).astype(np.float32),
                        (1, 1, 1), "CT"), raw / "a_ct.mvol")
    write_volume(Volume(np.abs(rng.normal(1, 1, (6, 6, 12))).astype(np.float32),
                        (1, 1, 1), "PET"), raw / "a_pet.mvol")
    prepped = tmp_path / "prepped"
    assert main(["prep", "--input", str(raw), "--out", str(prepped)]) == 0
    ct = read_volume(prepped / "a_ct.mvol")
    assert float(ct.data.min()) >= -1.0 and float(ct.data.max()) <= 1.0

    si = tmp_path / "si"
    back = tmp_path / "back"
    assert main(["convert", "si", "--input", str(prepped), "--out", str(si)]) == 0
    assert (si / "a_ct.si.json").exists()
    assert main(["convert", "si", "--input", str(si), "--out", str(back),
                 "--invert"]) == 0
    assert (back / "a_ct.mvol").read_bytes() == (prepped / "a_ct.mvol").read_bytes()


@pytest.mark.parametrize("edit, message", [
    (lambda meta: '{"sh": 2}', "missing field 'sw'"),
    (lambda meta: "not json", "Expecting value"),
    (lambda meta: json.dumps(dict(meta, spacing=1.0)), "not iterable"),
    (lambda meta: json.dumps(dict(meta, sh="two")), "invalid literal"),
], ids=["missing-field", "not-json", "spacing-type", "grid-type"])
def test_invert_malformed_sidecar_is_listed(tmp_path, capsys, edit, message):
    # the bad sidecar is named and the command exits 3; the good one inverts
    raw, si, back = tmp_path / "raw", tmp_path / "si", tmp_path / "back"
    raw.mkdir()
    for name in ("a", "b"):
        write_volume(Volume(np.ones((4, 4, 6), dtype=np.float32), (1, 1, 2), "CT"),
                     raw / f"{name}.mvol")
    assert main(["convert", "si", "--input", str(raw), "--out", str(si)]) == 0
    sidecar = si / "b.si.json"
    sidecar.write_text(edit(json.loads(sidecar.read_text())))
    assert main(["convert", "si", "--input", str(si), "--out", str(back), "--invert"]) == 3
    err = capsys.readouterr().err
    assert "error: b.mvol: b.si.json: " in err and message in err
    assert "Traceback" not in err
    assert (back / "a.mvol").read_bytes() == (raw / "a.mvol").read_bytes()
    assert not (back / "b.mvol").exists()


def test_prep_refuses_its_own_output(tmp_path, capsys):
    raw, prepped = tmp_path / "raw", tmp_path / "prepped"
    raw.mkdir()
    rng = np.random.default_rng(1)
    write_volume(Volume(rng.uniform(-1000, 123, (4, 4, 6)).astype(np.float32),
                        (1, 1, 1), "CT"), raw / "a_ct.mvol")
    write_volume(Volume(np.abs(rng.normal(1, 1, (4, 4, 6))).astype(np.float32),
                        (1, 1, 1), "PET"), raw / "a_pet.mvol")
    assert main(["prep", "--input", str(raw), "--out", str(prepped)]) == 0
    first = {p.name: p.read_bytes() for p in prepped.iterdir()}
    assert main(["prep", "--input", str(prepped), "--out", str(prepped)]) == 3
    assert f"{prepped / 'a_ct.mvol'}: every CT value lies in [-1, 1]" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in prepped.iterdir()} == first


def test_convert_bad_grid_exit_code(tmp_path):
    raw = tmp_path / "raw"
    raw.mkdir()
    write_volume(Volume(np.zeros((4, 4, 10), dtype=np.float32), (1, 1, 1), "CT"),
                 raw / "v.mvol")
    assert main(["convert", "si", "--input", str(raw), "--out",
                 str(tmp_path / "si"), "--grid", "2x2"]) == 3


def test_predict_and_eval_survival(tmp_path):
    data = tmp_path / "data"
    main(["synth", "--out", str(data), "--n", "80", "--seed", "5",
          "--beta", "1.5"])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "task": "surv-cox", "data_dir": str(data),
        "output_dir": str(tmp_path / "out"), "seed": 2, "cv_folds": 2}))
    main(["train", "--config", str(cfg)])
    model_path = tmp_path / "out" / "fold_0_cox.json"
    pred_csv = tmp_path / "risks.csv"
    assert main(["predict", "--model", str(model_path), "--ehr",
                 str(data / "ehr.csv"), "--out", str(pred_csv)]) == 0
    assert main(["eval", "--task", "surv", "--pred", str(pred_csv),
                 "--truth", str(data / "ehr.csv")]) == 0


@pytest.mark.parametrize("task, kind", [("surv-cox", "cox"), ("surv-mtlr", "mtlr"),
                                        ("surv-nmtlr", "nmtlr")])
def test_predict_reads_compact_and_indented_models_alike(tmp_path, task, kind):
    # model files are compact JSON; files written before that carry indent=2
    data = tmp_path / "data"
    main(["synth", "--out", str(data), "--n", "60", "--seed", "5"])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "task": task, "data_dir": str(data), "output_dir": str(tmp_path / "out"),
        "seed": 2, "cv_folds": 2, "fit_iterations": 20}))
    assert main(["train", "--config", str(cfg)]) == 0
    compact = tmp_path / "out" / f"fold_0_{kind}.json"
    text = compact.read_text()
    assert "\n" not in text
    indented = tmp_path / "indented.json"
    indented.write_text(json.dumps(json.loads(text), indent=2))
    outs = []
    for model in (compact, indented):
        out = tmp_path / f"{model.stem}.csv"
        assert main(["predict", "--model", str(model), "--ehr", str(data / "ehr.csv"),
                     "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_predict_unreadable_inputs_exit_code(tmp_path, capsys):
    data = tmp_path / "data"
    main(["synth", "--out", str(data), "--n", "20", "--seed", "5"])
    ehr = str(data / "ehr.csv")
    not_json = tmp_path / "model.json"
    not_json.write_text("not json")
    not_object = tmp_path / "list.json"
    not_object.write_text("[1, 2]")
    bare = []
    for kind in ("cox", "mtlr", "nmtlr"):                # right type, no fields
        bare.append(tmp_path / f"bare_{kind}.json")
        bare[-1].write_text(json.dumps({"type": kind}))
    bad_shape = tmp_path / "bad_shape.json"              # theta rows != boundaries
    bad_shape.write_text(json.dumps({
        "type": "mtlr", "boundaries": [1.0, 2.0], "theta": [[0.0, 0.0]],
        "bias": [0.0, 0.0], "smoothing": 1.0, "feature_names": ["x0", "x1"]}))
    cases = [(tmp_path / "nope.json", ehr),           # missing model
             (not_json, str(tmp_path / "nope.csv")),  # missing ehr
             (tmp_path, ehr),                         # model is a directory
             (not_json, ehr),                         # model is not JSON
             (not_object, ehr),                       # model is not an object
             *((path, ehr) for path in bare),
             (bad_shape, ehr)]
    for model, ehr_path in cases:
        capsys.readouterr()
        assert main(["predict", "--model", str(model), "--ehr", ehr_path,
                     "--out", str(tmp_path / "r.csv")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1


def test_predict_from_saved_nmtlr_reproduces_fold_risks(tmp_path, monkeypatch):
    import oncokit.experiment as experiment

    data = tmp_path / "data"
    main(["synth", "--out", str(data), "--n", "40", "--seed", "8", "--beta", "1.0,-0.5"])
    in_fold = []

    def recording(model, cohort):
        risks = real(model, cohort)
        in_fold.append(dict(zip((s.id for s in cohort.subjects), risks)))
        return risks

    real = experiment.mtlr_cohort_risks
    monkeypatch.setattr(experiment, "mtlr_cohort_risks", recording)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "task": "surv-nmtlr", "data_dir": str(data), "output_dir": str(tmp_path / "out"),
        "seed": 4, "cv_folds": 2, "fit_iterations": 60, "hidden_widths": [5]}))
    assert main(["train", "--config", str(cfg)]) == 0
    assert len(in_fold) == 2
    for fold, expected in enumerate(in_fold):
        out = tmp_path / f"risks_{fold}.csv"
        assert main(["predict", "--model", str(tmp_path / "out" / f"fold_{fold}_nmtlr.json"),
                     "--ehr", str(data / "ehr.csv"), "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        predicted = {sid: float(risk) for sid, risk in rows}
        for sid, risk in expected.items():
            assert abs(predicted[sid] - risk) <= 1e-12 * max(1.0, abs(risk))


def test_predict_rejects_ehr_with_other_features(tmp_path, capsys):
    from oncokit.cox import cox_fit, save_cox
    from oncokit.ehr import load_ehr
    from oncokit.mtlr import mtlr_fit, save_mtlr

    data = tmp_path / "data"
    main(["synth", "--out", str(data), "--n", "40", "--seed", "6", "--beta", "1.0,-0.5"])
    cohort = load_ehr(data / "ehr.csv")
    models = {"cox": tmp_path / "cox.json", "mtlr": tmp_path / "mtlr.json",
              "nmtlr": tmp_path / "nmtlr.json"}
    save_cox(cox_fit(cohort), models["cox"])
    save_mtlr(mtlr_fit(cohort, m=3, iterations=20), models["mtlr"])
    save_mtlr(mtlr_fit(cohort, m=3, hidden_widths=(4,), iterations=20), models["nmtlr"])
    assert json.loads(models["nmtlr"].read_text())["type"] == "nmtlr"

    wider = tmp_path / "wider"                        # three features, not two
    main(["synth", "--out", str(wider), "--n", "10", "--seed", "7", "--beta", "1,1,1"])
    renamed = tmp_path / "renamed.csv"                # same width, other names
    text = (data / "ehr.csv").read_text()
    renamed.write_text(text.replace("x0,x1", "age,stage", 1))
    for kind, model in models.items():
        for ehr, names in ((wider / "ehr.csv", "['x0', 'x1', 'x2']"),
                           (renamed, "['age', 'stage']")):
            capsys.readouterr()
            assert main(["predict", "--model", str(model), "--ehr", str(ehr),
                         "--out", str(tmp_path / "r.csv")]) == 3, (kind, ehr)
            err = capsys.readouterr().err
            assert err.startswith("data error:") and err.count("\n") == 1
            assert names in err and "['x0', 'x1']" in err
        assert main(["predict", "--model", str(model), "--ehr", str(data / "ehr.csv"),
                     "--out", str(tmp_path / "r.csv")]) == 0


def test_package_runs_without_scipy():
    code = (
        "import sys\n"
        "class NoScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.partition('.')[0] == 'scipy':\n"
        "            raise ImportError('scipy import refused: ' + name)\n"
        "sys.meta_path.insert(0, NoScipy())\n"
        "import numpy as np, oncokit.cli, oncokit.experiment\n"
        "from oncokit.autodiff import Tensor, gelu\n"
        "assert np.isfinite(gelu(Tensor([-1.0, 0.5, 3.0])).data).all()\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(oncokit.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["[]"]


def test_thread_cap_applies_on_package_import():
    code = ("import oncokit.experiment, os; "
            "print(os.environ.get('OPENBLAS_NUM_THREADS'), os.environ.get('OMP_NUM_THREADS'))")
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env.update(PYTHONPATH=str(Path(oncokit.__file__).resolve().parents[1]),
               ONCOKIT_THREADS="1", OMP_NUM_THREADS="2")
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    # the cap fills unset variables; an explicitly set one keeps its value
    assert done.stdout.split() == ["1", "2"]


def test_eval_segmentation_missing_flagged(tmp_path):
    pred = tmp_path / "pred"
    truth = tmp_path / "truth"
    pred.mkdir()
    truth.mkdir()
    m = Volume(np.ones((2, 2, 2), dtype=np.float32), (1, 1, 1), "MASK")
    write_volume(m, truth / "a.mvol")
    write_volume(m, pred / "a.mvol")
    write_volume(m, truth / "b.mvol")
    assert main(["eval", "--task", "seg", "--pred", str(pred),
                 "--truth", str(truth)]) == 3


@pytest.mark.parametrize("bad, named, message", [
    ("shape", "pred", "shape (4, 4, 2) differs from the truth mask's (4, 4, 3)"),
    ("values", "pred", "mask must be binary, found values [0.  0.5]"),
    ("payload", "truth", "MASK volumes must contain only 0 and 1"),
], ids=["shape", "values", "payload"])
def test_eval_segmentation_bad_mask_names_file(tmp_path, capsys, bad, named, message):
    dirs = {"pred": tmp_path / "pred", "truth": tmp_path / "truth"}
    for d in dirs.values():
        d.mkdir()
    mask = np.zeros((4, 4, 3), dtype=np.float32)
    mask[0, 0, 0] = 1.0
    write_volume(Volume(mask, (1, 1, 1), "MASK"), dirs["truth"] / "a.mvol")
    if bad == "shape":
        write_volume(Volume(mask[:, :, :2], (1, 1, 1), "MASK"), dirs["pred"] / "a.mvol")
    elif bad == "values":        # a probability map stored as a PET volume
        write_volume(Volume(mask * 0.5, (1, 1, 1), "PET"), dirs["pred"] / "a.mvol")
    else:                        # a MASK file whose payload holds a 2
        write_volume(Volume(mask, (1, 1, 1), "MASK"), dirs["pred"] / "a.mvol")
        path = dirs["truth"] / "a.mvol"
        path.write_bytes(path.read_bytes()[:-4] + np.float32(2).tobytes())
    assert main(["eval", "--task", "seg", "--pred", str(dirs["pred"]),
                 "--truth", str(dirs["truth"])]) == 3
    assert f"data error: {dirs[named] / 'a.mvol'}: {message}" in capsys.readouterr().err


class TestStatsModel:
    def test_unet_ratio(self, capsys):
        assert main(["stats", "model", "--arch", "unet3d", "--input",
                     "64x64x64"]) == 0
        s3 = json.loads(capsys.readouterr().out)
        assert main(["stats", "model", "--arch", "unet2d", "--input",
                     "64x64"]) == 0
        s2 = json.loads(capsys.readouterr().out)
        assert 2.5 <= s3["params"] / s2["params"] <= 3.5
        assert s3["macs"] > s2["macs"] > 0

    def test_unetr_stats(self, capsys):
        assert main(["stats", "model", "--arch", "unetr", "--input", "32x32x16",
                     "--patch", "8", "--embed", "64", "--layers", "4",
                     "--heads", "4", "--width", "8"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats == {"macs": 197263360, "params": 465049}

    @pytest.mark.parametrize("args, expected", [
        (["--input", "32x32x16"], {"macs": 948174848, "params": 97496369}),
        (["--input", "144x144x144"], {"macs": 156270133248, "params": 98053169}),
        (["--input", "64x64x32", "--patch", "8", "--embed", "32", "--layers", "4",
          "--heads", "4"], {"macs": 6151028736, "params": 732593}),
        (["--input", "32x32x32", "--patch", "2", "--embed", "16", "--layers", "3",
          "--heads", "2"], {"macs": 943203584, "params": 106401}),
    ])
    def test_unetr_stats_pinned(self, capsys, args, expected):
        assert main(["stats", "model", "--arch", "unetr", *args]) == 0
        assert json.loads(capsys.readouterr().out) == expected

    def test_bad_extents_exit_code(self):
        assert main(["stats", "model", "--arch", "unet2d",
                     "--input", "64x64x64"]) == 2

    @pytest.mark.parametrize("args, message", [
        (["unet2d", "16x16", "--width", "0"], "--width must be at least 1"),
        (["unet3d", "16x16x16", "--depth", "-1"], "--depth must be at least 0"),
        (["unetr", "16x16x8", "--patch", "0"], "--patch must be at least 1"),
        (["unetr", "16x16x8", "--embed", "0"], "--embed must be at least 1"),
        (["unetr", "16x16x8", "--layers", "0"], "--layers must be at least 1"),
        (["unetr", "16x16x8", "--heads", "0"], "--heads must be at least 1"),
        (["unetr", "16x16x8", "--patch", "4", "--embed", "8", "--heads", "3"],
         "heads (3) must divide embed_dim (8)"),
        (["unetr", "16x16x8", "--patch", "3"], "not divisible by patch 3"),
        (["unetr", "24x24x24", "--patch", "3"], "must be a power of two"),
        (["unet2d", "20x20"], "odd extents"),
    ], ids=["width", "depth", "patch", "embed", "layers", "heads", "heads-embed",
            "patch-extent", "patch-power", "pool-extent"])
    def test_refused_settings_exit_code(self, capsys, args, message):
        arch, extents, *rest = args
        assert main(["stats", "model", "--arch", arch, "--input", extents, *rest]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("extents, patch, embed, layers, heads, width", [
        ((32, 32, 32), 8, 32, 4, 4, 4),
        ((16, 16, 8), 4, 16, 2, 2, 2),
    ])
    def test_unetr_params_match_built_model(self, capsys, extents, patch, embed,
                                            layers, heads, width):
        assert main(["stats", "model", "--arch", "unetr",
                     "--input", "x".join(str(e) for e in extents), "--patch", str(patch),
                     "--embed", str(embed), "--layers", str(layers),
                     "--heads", str(heads), "--width", str(width)]) == 0
        stats = json.loads(capsys.readouterr().out)
        cfg = EncoderConfig(extents, 2, patch, embed, layers, heads)
        built = {**ViTEncoder(cfg).params, **UnetrDecoder(cfg, width=width).params}
        assert stats["params"] == sum(t.size for t in built.values())


@pytest.mark.parametrize("argv", [
    ["stats", "model", "--arch", "unet3d", "--input", "16x16x"],
    ["stats", "model", "--arch", "unetr", "--input", "0x16x16"],
    ["synth", "--out", "OUT", "--n", "5", "--seed", "1", "--volume-shape", "8x8"],
    ["synth", "--out", "OUT", "--n", "5", "--seed", "1", "--beta", "1,x"],
    ["synth", "--out", "OUT", "--n", "5", "--seed", "1", "--beta", "1,nan"],
    ["convert", "si", "--input", "in", "--out", "OUT", "--grid", "4x"],
    ["convert", "si", "--input", "in", "--out", "OUT", "--grid", "2x2x2"],
])
def test_malformed_values_exit_config(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main([str(out) if a == "OUT" else a for a in argv]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["synth", "--out", "OUT", "--n", "1", "--seed", "1"], "--n"),
    (["synth", "--out", "OUT", "--n", "5", "--seed", "-1"], "--seed"),
    (["synth", "--out", "OUT", "--n", "5", "--seed", "1", "--censor-frac", "1.5"],
     "--censor-frac"),
    (["synth", "--out", "OUT", "--n", "5", "--seed", "1", "--censor-frac", "nan"],
     "--censor-frac"),
    (["synth", "--out", "OUT", "--n", "5", "--seed", "1", "--centers", "0"], "--centers"),
    (["synth", "--out", "OUT", "--n", "5", "--seed", "1", "--centers", "-1"], "--centers"),
    (["prep", "--input", "IN", "--out", "OUT", "--spacing", "0"], "--spacing"),
    (["prep", "--input", "IN", "--out", "OUT", "--spacing", "nan"], "--spacing"),
    (["prep", "--input", "MISSING", "--out", "OUT"], "--input"),
    (["convert", "si", "--input", "MISSING", "--out", "OUT"], "--input"),
    (["convert", "si", "--input", "MISSING", "--out", "OUT", "--invert"], "--input"),
], ids=["n-1", "seed-neg", "censor-1.5", "censor-nan", "centers-0", "centers-neg", "spacing-0",
        "spacing-nan", "prep-missing", "convert-missing", "invert-missing"])
def test_bad_flag_is_config_error(tmp_path, capsys, argv, flag):
    # each is refused before anything is written, and the message names the flag
    src, out = tmp_path / "in", tmp_path / "out"
    src.mkdir()
    write_volume(Volume(np.full((4, 4, 6), 100.0, dtype=np.float32), (1, 1, 1), "CT"),
                 src / "a.mvol")
    paths = {"IN": str(src), "OUT": str(out), "MISSING": str(tmp_path / "missing")}
    assert main([paths.get(a, a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert f"config error: {flag} must be " in err
    assert not out.exists()


@pytest.mark.parametrize("verb", ["convert", "invert", "eval", "prep"])
def test_unreadable_input_file_is_data_error(tmp_path, capsys, verb):
    # a directory where a volume or a sidecar file should be: the path is
    # named and the verb exits 3; convert and prep still write the readable
    # files, sorted before and after the bad one
    src, si, out = tmp_path / "in", tmp_path / "si", tmp_path / "out"
    src.mkdir()
    mask = np.eye(4, dtype=np.float32)[:, :, None].repeat(6, axis=2)
    vol = Volume(mask, (1, 1, 2), "MASK") if verb == "eval" \
        else Volume(100 * mask, (1, 1, 2), "CT")
    for name in ("a", "b", "c"):
        write_volume(vol, src / f"{name}.mvol")
    bad = src / "b.mvol"
    if verb == "invert":
        assert main(["convert", "si", "--input", str(src), "--out", str(si)]) == 0
        bad = si / "b.si.json"
        src = si
    elif verb == "eval":
        out.mkdir()
        write_volume(vol, out / "b.mvol")
    bad.unlink()
    bad.mkdir()
    argv = {"convert": ["convert", "si", "--input", str(src), "--out", str(out)],
            "invert": ["convert", "si", "--input", str(src), "--out", str(out), "--invert"],
            "eval": ["eval", "--task", "seg", "--pred", str(src), "--truth", str(out)],
            "prep": ["prep", "--input", str(src), "--out", str(out)]}[verb]
    assert main(argv) == 3
    assert f"{bad.name}: cannot read: " in capsys.readouterr().err
    if verb in ("convert", "invert", "prep"):
        assert sorted(p.name for p in out.glob("*.mvol")) == ["a.mvol", "c.mvol"]


@pytest.mark.parametrize("case", ["missing-pred", "missing-truth", "predict-out", "eval-out"])
def test_predict_and_eval_file_paths(tmp_path, capsys, case):
    # a missing CSV is a data error that names it; an --out in a missing
    # directory gets that directory, as train, prep, convert and synth do
    data = tmp_path / "data"
    main(["synth", "--out", str(data), "--n", "6", "--seed", "5"])
    ehr = str(data / "ehr.csv")
    model = tmp_path / "cox.json"
    model.write_text(json.dumps({
        "type": "cox", "coefficients": [1.0, -0.5], "feature_names": ["x0", "x1"],
        "baseline_hazard": [[1.0, 0.1]], "iterations": 1, "log_likelihood": 0.0}))
    pred = tmp_path / "risks.csv"
    assert main(["predict", "--model", str(model), "--ehr", ehr, "--out", str(pred)]) == 0
    missing, out = tmp_path / "nope.csv", tmp_path / "a" / "b" / "x"
    argv = {"missing-pred": ["eval", "--task", "surv", "--pred", str(missing), "--truth", ehr],
            "missing-truth": ["eval", "--task", "surv", "--pred", str(pred),
                              "--truth", str(missing)],
            "predict-out": ["predict", "--model", str(model), "--ehr", ehr, "--out", str(out)],
            "eval-out": ["eval", "--task", "surv", "--pred", str(pred), "--truth", ehr,
                         "--out", str(out)]}[case]
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err
    if case.startswith("missing"):
        assert code == 3
        assert err.startswith(f"data error: {missing}: cannot read: ") and err.count("\n") == 1
    else:
        assert code == 0 and err == ""
        if case == "predict-out":
            assert out.read_bytes() == pred.read_bytes()
        else:
            assert "c_index" in json.loads(out.read_text())


@pytest.mark.parametrize("bad, named", [
    ("s00003,high", ":4: risk"),
    ("s00003,nan", ":4: risk"),
    ("s00003,inf", ":4: risk"),
    ("s00003,", ":4: risk"),
    ("s00001,0.5", "duplicate id 's00001'"),
    (" s00001 ,0.5", "duplicate id 's00001'"),
])
def test_eval_survival_bad_prediction_is_data_error(tmp_path, capsys, bad, named):
    data = tmp_path / "data"
    main(["synth", "--out", str(data), "--n", "6", "--seed", "5"])
    pred = tmp_path / "risks.csv"
    pred.write_text("\n".join(["id,risk", "s00000,0.1", "s00001,0.3", bad, "s00004,0.2"]) + "\n")
    assert main(["eval", "--task", "surv", "--pred", str(pred),
                 "--truth", str(data / "ehr.csv")]) == 3
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("last", ["s00003,0.1", 's00003,"0.1"'], ids=["columns", "rows"])
def test_eval_survival_strips_prediction_ids(tmp_path, last):
    # a quoted field sends the file to csv.reader, which reads it row by row
    data = tmp_path / "data"
    main(["synth", "--out", str(data), "--n", "6", "--seed", "1"])
    pred = tmp_path / "risks.csv"
    pred.write_text("id,risk\n s00001,0.3\ns00002 ,0.5\n" + last + "\n")
    out = tmp_path / "eval.json"
    assert main(["eval", "--task", "surv", "--pred", str(pred),
                 "--truth", str(data / "ehr.csv"), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["missing"] == []
    assert report["n"] == 3


@pytest.mark.parametrize("last", ["s00003,0.1", 's00003,"0.1"'], ids=["columns", "rows"])
def test_eval_survival_strips_prediction_header(tmp_path, last):
    data = tmp_path / "data"
    main(["synth", "--out", str(data), "--n", "6", "--seed", "1"])
    pred = tmp_path / "risks.csv"
    pred.write_text("id, risk \ns00001,0.3\ns00002,0.5\n" + last + "\n")
    out = tmp_path / "eval.json"
    assert main(["eval", "--task", "surv", "--pred", str(pred),
                 "--truth", str(data / "ehr.csv"), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["missing"] == []
    assert report["n"] == 3


def test_eval_survival_short_row_is_data_error(tmp_path, capsys):
    data = tmp_path / "data"
    main(["synth", "--out", str(data), "--n", "6", "--seed", "5"])
    pred = tmp_path / "risks.csv"
    pred.write_text("risk,id\n0.1,s00000\n0.3,s00001\n   \n0.5\n0.2,s00004\n")
    assert main(["eval", "--task", "surv", "--pred", str(pred),
                 "--truth", str(data / "ehr.csv")]) == 3
    # the whitespace-only line is skipped but still counted
    assert f"{pred}:5: expected 2 fields, got 1" in capsys.readouterr().err


def test_eval_survival_reads_bom_prediction_and_lists_missing(tmp_path, capsys):
    data = tmp_path / "data"
    main(["synth", "--out", str(data), "--n", "6", "--seed", "5"])
    pred = tmp_path / "risks.csv"
    rows = ["id,risk", "s00000,0.1", "s00001,0.3", "", "zz9,0.7", "   ", "s00003,0.9",
            "s00004,0.2"]
    pred.write_bytes(b"\xef\xbb\xbf" + "\r\n".join(rows).encode() + b"\r\n")
    out = tmp_path / "eval.json"
    assert main(["eval", "--task", "surv", "--pred", str(pred),
                 "--truth", str(data / "ehr.csv"), "--out", str(out)]) == 3
    report = json.loads(out.read_text())
    assert report["missing"] == ["zz9"]
    assert report["n"] == 4


@pytest.mark.parametrize("bad, named", [
    (b"caf\xe9", ": not UTF-8 text, byte "),                       # Latin-1
    (b"c" * 140_000, ":3: field larger than field limit"),
])
def test_undecodable_or_oversized_csv_is_data_error(tmp_path, capsys, bad, named):
    data, broken = tmp_path / "data", tmp_path / "broken"
    main(["synth", "--out", str(data), "--n", "20", "--seed", "5"])
    header, first, second, *rest = (data / "ehr.csv").read_bytes().split(b"\r\n")
    fields = second.split(b",")
    fields[3] = bad                                               # the center
    broken.mkdir()
    ehr = broken / "ehr.csv"
    ehr.write_bytes(b"\r\n".join([header, first, b",".join(fields), *rest]))
    pred = tmp_path / "risks.csv"
    pred.write_bytes(b"id,risk\r\ns00000,0.1\r\n" + bad + b",0.2\r\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"task": "surv-cox", "data_dir": str(broken),
                               "output_dir": str(tmp_path / "out"), "seed": 1,
                               "cv_folds": 2}))
    capsys.readouterr()
    runs = [(["train", "--config", str(cfg)], ehr),
            (["eval", "--task", "surv", "--pred", str(pred), "--truth", str(ehr)], ehr),
            (["eval", "--task", "surv", "--pred", str(pred),
              "--truth", str(data / "ehr.csv")], pred)]
    for argv, named_file in runs:
        assert main(argv) == 3, argv
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {named_file}{named}"), (argv, err[:200])


def test_eval_survival_reads_only_the_truth_labels(tmp_path, capsys):
    # a feature value load_ehr refuses and a categorical column leave the
    # eval report unchanged; train still refuses the file
    data, copy = tmp_path / "data", tmp_path / "copy"
    main(["synth", "--out", str(data), "--n", "30", "--seed", "5"])
    header, *rows = (data / "ehr.csv").read_bytes().split(b"\r\n")[:-1]
    rows = [row + (b",I" if k % 3 else b",II") for k, row in enumerate(rows)]
    fields = rows[2].split(b",")
    fields[4] = b"inf"                                            # x0 of the third row
    rows[2] = b",".join(fields)
    copy.mkdir()
    (copy / "ehr.csv").write_bytes(b"\r\n".join([header + b",stage", *rows]) + b"\r\n")
    pred = tmp_path / "risks.csv"
    pred.write_text("id,risk\n" + "".join(f"s{i:05d},{(7 * i) % 11 / 10}\n" for i in range(30)))
    reports = []
    for truth in (data, copy):
        out = tmp_path / f"{truth.name}.json"
        capsys.readouterr()
        assert main(["eval", "--task", "surv", "--pred", str(pred),
                     "--truth", str(truth / "ehr.csv"), "--out", str(out)]) == 0
        reports.append((out.read_bytes(), capsys.readouterr().out))
    assert reports[0] == reports[1]
    assert json.loads(reports[0][0])["n"] == 30

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"task": "surv-cox", "data_dir": str(copy),
                               "output_dir": str(tmp_path / "out"), "seed": 1,
                               "cv_folds": 2}))
    assert main(["train", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {copy / 'ehr.csv'}:4: feature 'x0' must be finite")


@pytest.mark.parametrize("truth", [
    "a,1,0,c\nb,2,0,c\nc,3,0,c\n",                                  # all censored
    "a,5,1,c\nb,5,1,c\nc,2,0,c\n",                                  # events at one time
], ids=["all-censored", "tied-events"])
def test_eval_survival_without_comparable_pairs_is_data_error(tmp_path, capsys, truth):
    ehr, pred = tmp_path / "ehr.csv", tmp_path / "risks.csv"
    ehr.write_text("id,time,event,center\n" + truth)
    pred.write_text("id,risk\na,0.1\nb,0.2\nc,0.3\n")
    assert main(["eval", "--task", "surv", "--pred", str(pred), "--truth", str(ehr)]) == 3
    assert capsys.readouterr().err.startswith("data error: no comparable pairs")
