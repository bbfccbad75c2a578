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
    from oncokit.mtlr import FitConfig, mtlr_fit, save_mtlr

    data = tmp_path / "data"
    main(["synth", "--out", str(data), "--n", "40", "--seed", "6", "--beta", "1.0,-0.5"])
    cohort = load_ehr(data / "ehr.csv")
    cfg = FitConfig(iterations=20)
    models = {"cox": tmp_path / "cox.json", "mtlr": tmp_path / "mtlr.json",
              "nmtlr": tmp_path / "nmtlr.json"}
    save_cox(cox_fit(cohort), models["cox"])
    save_mtlr(mtlr_fit(cohort, m=3, config=cfg), models["mtlr"])
    save_mtlr(mtlr_fit(cohort, m=3, config=cfg, hidden_widths=(4,)), models["nmtlr"])
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
        assert stats["params"] > 0 and stats["macs"] > 0

    def test_bad_extents_exit_code(self):
        assert main(["stats", "model", "--arch", "unet2d",
                     "--input", "64x64x64"]) == 2

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
        built = {**ViTEncoder(cfg).params, **{"dec." + k: v for k, v in
                                               UnetrDecoder(cfg, width=width).params.items()}}
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


@pytest.mark.parametrize("bad, named", [
    ("s00003,high", ":4: risk"),
    ("s00003,nan", ":4: risk"),
    ("s00003,inf", ":4: risk"),
    ("s00003,", ":4: risk"),
    ("s00001,0.5", "duplicate id 's00001'"),
])
def test_eval_survival_bad_prediction_is_data_error(tmp_path, capsys, bad, named):
    data = tmp_path / "data"
    main(["synth", "--out", str(data), "--n", "6", "--seed", "5"])
    pred = tmp_path / "risks.csv"
    pred.write_text("\n".join(["id,risk", "s00000,0.1", "s00001,0.3", bad, "s00004,0.2"]) + "\n")
    assert main(["eval", "--task", "surv", "--pred", str(pred),
                 "--truth", str(data / "ehr.csv")]) == 3
    assert named in capsys.readouterr().err


def test_eval_survival_short_row_is_data_error(tmp_path, capsys):
    data = tmp_path / "data"
    main(["synth", "--out", str(data), "--n", "6", "--seed", "5"])
    pred = tmp_path / "risks.csv"
    pred.write_text("risk,id\n0.1,s00000\n0.3,s00001\n0.5\n0.2,s00004\n")
    assert main(["eval", "--task", "surv", "--pred", str(pred),
                 "--truth", str(data / "ehr.csv")]) == 3
    assert f"{pred}:4: row too short" in capsys.readouterr().err


def test_eval_survival_reads_bom_prediction_and_lists_missing(tmp_path, capsys):
    data = tmp_path / "data"
    main(["synth", "--out", str(data), "--n", "6", "--seed", "5"])
    pred = tmp_path / "risks.csv"
    rows = ["id,risk", "s00000,0.1", "s00001,0.3", "", "zz9,0.7", "s00003,0.9", "s00004,0.2"]
    pred.write_bytes(b"\xef\xbb\xbf" + "\r\n".join(rows).encode() + b"\r\n")
    out = tmp_path / "eval.json"
    assert main(["eval", "--task", "surv", "--pred", str(pred),
                 "--truth", str(data / "ehr.csv"), "--out", str(out)]) == 3
    report = json.loads(out.read_text())
    assert report["missing"] == ["zz9"]
    assert report["n"] == 4
