"""Folds, dataset round trips, reports, determinism, error capture."""

import json

import numpy as np
import pytest

from oncokit.ehr import Cohort
from oncokit.errors import ConfigError, DataError
from oncokit.experiment import (
    ExperimentConfig,
    convert_si_dir,
    cv_split,
    evaluate_segmentation_dirs,
    evaluate_survival_files,
    invert_si_dir,
    load_dataset,
    run_experiment,
    write_synthetic_dataset,
)
from oncokit.volume import Volume, read_volume, write_volume


def _tab_cohort(n, centers=("a", "b")):
    return Cohort([f"s{i}" for i in range(n)], np.arange(n) + 1.0, np.ones(n),
                  np.arange(n, dtype=np.float64)[:, None], ["x0"],
                  centers=[centers[i % len(centers)] for i in range(n)])


class TestCvSplit:
    def test_kfold_partition(self):
        cohort = _tab_cohort(10)
        folds = cv_split(cohort, "kfold", seed=0, k=5)
        assert len(folds) == 5
        all_val = np.concatenate([v for _, v in folds])
        assert sorted(all_val.tolist()) == list(range(10))
        for train, val in folds:
            assert len(val) == 2
            assert not set(train) & set(val)
            assert len(set(train) | set(val)) == 10

    def test_kfold_deterministic(self):
        cohort = _tab_cohort(11)
        a = cv_split(cohort, "kfold", seed=9, k=3)
        b = cv_split(cohort, "kfold", seed=9, k=3)
        for (ta, va), (tb, vb) in zip(a, b):
            assert np.array_equal(ta, tb) and np.array_equal(va, vb)

    def test_center_grouping(self):
        cohort = Cohort(["1", "2", "3"], [1.0, 2.0, 3.0], [1, 1, 1], np.zeros((3, 1)),
                        ["x0"], centers=["A", "A", "B"])
        folds = cv_split(cohort, "center", seed=0)
        assert len(folds) == 2
        sizes = sorted(len(v) for _, v in folds)
        assert sizes == [1, 2]

    def test_center_never_leaks(self):
        cohort = _tab_cohort(12, centers=("A", "B", "C"))
        for train, val in cv_split(cohort, "center", seed=0):
            val_centers = {cohort.subjects[i].center for i in val}
            train_centers = {cohort.subjects[i].center for i in train}
            assert len(val_centers) == 1
            assert not val_centers & train_centers

    def test_k_too_large(self):
        with pytest.raises(ConfigError):
            cv_split(_tab_cohort(3), "kfold", seed=0, k=5)

    def test_single_center_rejected(self):
        with pytest.raises(ConfigError):
            cv_split(_tab_cohort(4, centers=("only",)), "center", seed=0)


class TestDataset:
    def test_write_and_load(self, tmp_path):
        write_synthetic_dataset(tmp_path / "d", n=8, seed=1, beta=[1.0],
                                with_volumes=True, volume_shape=(8, 8, 4))
        cohort = load_dataset(tmp_path / "d")
        assert len(cohort) == 8
        assert all(s.ct_path and s.pet_path and s.mask_path for s in cohort.subjects)

    def test_tabular_only(self, tmp_path):
        write_synthetic_dataset(tmp_path / "d", n=5, seed=2, beta=[0.5])
        cohort = load_dataset(tmp_path / "d")
        assert all(s.ct_path is None for s in cohort.subjects)


class TestConfig:
    def test_from_json_with_overrides(self, tmp_path):
        write_synthetic_dataset(tmp_path / "d", n=6, seed=3, beta=[0.5])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "task": "surv-cox", "data_dir": str(tmp_path / "d"),
            "output_dir": str(tmp_path / "out"), "seed": 1, "cv_folds": 3}))
        cfg = ExperimentConfig.from_json(cfg_path, {"cv_folds": 2})
        assert cfg.cv_folds == 2

    def test_unknown_key_rejected(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"task": "surv-cox", "data_dir": ".",
                                        "output_dir": "o", "seed": 1,
                                        "bogus": True}))
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json(cfg_path)

    def test_missing_data_dir(self):
        cfg = ExperimentConfig(task="surv-cox", data_dir="/nonexistent",
                               output_dir="o", seed=1)
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_unknown_task(self):
        cfg = ExperimentConfig(task="segmentify", data_dir=".", output_dir="o", seed=1)
        with pytest.raises(ConfigError):
            cfg.validate()

    @pytest.mark.parametrize("augment_seed", [-1, 1.5, True, "3"])
    def test_augment_seed_must_be_a_non_negative_int(self, augment_seed):
        cfg = ExperimentConfig(task="seg3d", data_dir=".", output_dir="o", seed=1,
                               augment_seed=augment_seed)
        with pytest.raises(ConfigError, match="augment_seed"):
            cfg.validate()


class TestRunExperiment:
    def test_surv_cox_recovers_signal(self, tmp_path):
        write_synthetic_dataset(tmp_path / "d", n=200, seed=4, beta=[1.2, -0.4],
                                censor_frac=0.2)
        cfg = ExperimentConfig(task="surv-cox", data_dir=str(tmp_path / "d"),
                               output_dir=str(tmp_path / "out"), seed=5,
                               cv_folds=3)
        report = run_experiment(cfg)
        assert report.aggregate["c_index_mean"] >= 0.6
        assert (tmp_path / "out" / "report.json").exists()
        assert (tmp_path / "out" / "timing.json").exists()

    @pytest.mark.parametrize("task", ["surv-mtlr", "unetr", "fusion", "tmss"])
    def test_report_bytes_reproducible(self, tmp_path, task):
        # identical config (same output dir) rerun from scratch: the report
        # file, and for the transformer tasks the fold-0 checkpoint, must be
        # byte-identical
        if task == "surv-mtlr":
            write_synthetic_dataset(tmp_path / "d", n=60, seed=6, beta=[1.0])
            extra = {}
        else:
            write_synthetic_dataset(tmp_path / "d", n=40, seed=6, beta=[1.0],
                                    with_volumes=True, volume_shape=(16, 16, 8))
            extra = {"epochs": 1, "patch": 4}
        out = tmp_path / "out"
        blobs = []
        for _ in range(2):
            cfg = ExperimentConfig(task=task, data_dir=str(tmp_path / "d"),
                                   output_dir=str(out), seed=7, cv_folds=2,
                                   fit_iterations=150, **extra)
            report = run_experiment(cfg)
            assert report.aggregate["failed_folds"] == 0
            files = ["report.json"] + (["fold_0.ckpt"] if task in ("unetr", "tmss") else [])
            blobs.append([(out / name).read_bytes() for name in files])
        assert blobs[0] == blobs[1]

    def test_fold_error_recorded_run_continues(self, tmp_path):
        # center B's feature is constant, so the fold trained on B alone
        # fails the zero-variance check while the other fold completes
        cohort = Cohort([f"a{i}" for i in range(8)] + [f"b{i}" for i in range(4)],
                        np.arange(12) + 1.0, [1, 1] + [0] * 6 + [1] * 4,
                        np.array([[float(i)] for i in range(8)] + [[5.0]] * 4), ["x0"],
                        centers=["A"] * 8 + ["B"] * 4)
        from oncokit.ehr import save_ehr
        (tmp_path / "d").mkdir()
        save_ehr(cohort, tmp_path / "d" / "ehr.csv")
        cfg = ExperimentConfig(task="surv-cox", data_dir=str(tmp_path / "d"),
                               output_dir=str(tmp_path / "out"), seed=8,
                               cv_scheme="center")
        report = run_experiment(cfg)
        assert report.aggregate["failed_folds"] >= 1
        assert any("error" in f for f in report.folds)
        assert any("metrics" in f for f in report.folds)

    def test_augmented_training_runs_and_reproduces(self, tmp_path):
        write_synthetic_dataset(tmp_path / "d", n=10, seed=12, beta=[1.0],
                                with_volumes=True, volume_shape=(16, 16, 8))
        out = tmp_path / "out"
        blobs, losses = [], []
        for augment_seed in (1, 1, 2):
            cfg = ExperimentConfig(task="seg2d-si", data_dir=str(tmp_path / "d"),
                                   output_dir=str(out), seed=13, cv_folds=2,
                                   epochs=1, batch_size=4, augment_seed=augment_seed)
            report = run_experiment(cfg)
            assert report.aggregate["failed_folds"] == 0
            blobs.append((out / "report.json").read_bytes())
            losses.append([f["metrics"]["final_train_loss"] for f in report.folds])
        assert blobs[0] == blobs[1]
        # the augmentation seed changes every fold's draws
        assert all(a != b for a, b in zip(losses[0], losses[2]))

    def test_resume_skips_completed_folds(self, tmp_path):
        write_synthetic_dataset(tmp_path / "d", n=40, seed=9, beta=[1.0])
        out = tmp_path / "out"
        cfg = ExperimentConfig(task="surv-cox", data_dir=str(tmp_path / "d"),
                               output_dir=str(out), seed=10, cv_folds=2,
                               resume=True)
        report1 = run_experiment(cfg)
        marker = out / "fold_0.json"
        stamped = json.loads(marker.read_text())
        stamped["metrics"]["c_index"] = 0.123456
        marker.write_text(json.dumps(stamped, indent=2, sort_keys=True))
        report2 = run_experiment(cfg)
        assert report2.folds[0]["metrics"]["c_index"] == 0.123456
        assert report2.folds[1] == report1.folds[1]


class TestRunLifecycle:
    def test_resume_retries_failed_folds(self, tmp_path):
        # one subject's CT is missing, so both folds fail; once the file is
        # back, a resumed run trains them instead of replaying the failure
        write_synthetic_dataset(tmp_path / "d", n=6, seed=14, beta=[1.0],
                                with_volumes=True, volume_shape=(16, 16, 8))
        ct = tmp_path / "d" / "volumes" / "s00002_ct.mvol"
        kept = tmp_path / "kept.mvol"
        ct.rename(kept)
        out = tmp_path / "out"
        cfg = ExperimentConfig(task="seg3d", data_dir=str(tmp_path / "d"),
                               output_dir=str(out), seed=15, cv_folds=2, epochs=1,
                               batch_size=4, resume=True)
        report = run_experiment(cfg)
        assert report.aggregate["failed_folds"] == 2
        assert not (out / "fold_0.json").exists() and not (out / "fold_1.json").exists()
        kept.rename(ct)
        report = run_experiment(cfg)
        assert report.aggregate["failed_folds"] == 0
        assert all("metrics" in f for f in report.folds)
        # a failed rerun from scratch leaves no stale marker for a later resume
        ct.rename(kept)
        cfg.resume = False
        assert run_experiment(cfg).aggregate["failed_folds"] == 2
        assert not any(out.glob("fold_?.json"))

    @pytest.mark.parametrize("text", ['{"fold": 0, "met', "[1, 2]"])
    def test_unreadable_marker_is_data_error(self, tmp_path, text):
        from oncokit.cli import main

        write_synthetic_dataset(tmp_path / "d", n=30, seed=16, beta=[1.0])
        out = tmp_path / "out"
        out.mkdir()
        (out / "fold_0.json").write_text(text)
        cfg = ExperimentConfig(task="surv-cox", data_dir=str(tmp_path / "d"),
                               output_dir=str(out), seed=17, cv_folds=2, resume=True)
        with pytest.raises(DataError, match="fold_0.json"):
            run_experiment(cfg)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "task": "surv-cox", "data_dir": str(tmp_path / "d"),
            "output_dir": str(out), "seed": 17, "cv_folds": 2, "resume": True}))
        assert main(["train", "--config", str(cfg_path)]) == 3

    def test_outputs_leave_no_temp_files(self, tmp_path):
        write_synthetic_dataset(tmp_path / "d", n=30, seed=18, beta=[1.0])
        out = tmp_path / "out"
        run_experiment(ExperimentConfig(task="surv-cox", data_dir=str(tmp_path / "d"),
                                        output_dir=str(out), seed=19, cv_folds=2))
        assert sorted(p.name for p in out.iterdir()) == [
            "fold_0.json", "fold_0_cox.json", "fold_1.json", "fold_1_cox.json",
            "report.json", "timing.json"]

    def test_non_toolkit_fold_error_is_isolated(self, tmp_path, monkeypatch):
        import oncokit.experiment as experiment

        write_synthetic_dataset(tmp_path / "d", n=40, seed=20, beta=[1.0])
        clean = run_experiment(ExperimentConfig(
            task="surv-cox", data_dir=str(tmp_path / "d"),
            output_dir=str(tmp_path / "clean"), seed=21, cv_folds=3))
        real = experiment._FOLD_RUNNERS["surv-cox"]

        def singular_first_fold(cfg, cohort, train_idx, val_idx, fold_seed, out_dir,
                                fold_index):
            if fold_index == 0:
                raise np.linalg.LinAlgError("Singular matrix")
            return real(cfg, cohort, train_idx, val_idx, fold_seed, out_dir, fold_index)

        monkeypatch.setitem(experiment._FOLD_RUNNERS, "surv-cox", singular_first_fold)
        report = run_experiment(ExperimentConfig(
            task="surv-cox", data_dir=str(tmp_path / "d"),
            output_dir=str(tmp_path / "out"), seed=21, cv_folds=3))
        assert report.folds[0]["error"]["type"] == "LinAlgError"
        assert "metrics" not in report.folds[0]
        assert report.folds[1:] == clean.folds[1:]
        assert report.aggregate["failed_folds"] == 1


class TestEvaluate:
    def test_segmentation_dirs(self, tmp_path):
        rng = np.random.default_rng(0)
        pred_dir = tmp_path / "pred"
        truth_dir = tmp_path / "truth"
        pred_dir.mkdir()
        truth_dir.mkdir()
        for i in range(3):
            mask = (rng.random((4, 4, 2)) > 0.5).astype(np.float32)
            v = Volume(mask, (1, 1, 1), "MASK")
            write_volume(v, truth_dir / f"case{i}.mvol")
            write_volume(v, pred_dir / f"case{i}.mvol")
        report = evaluate_segmentation_dirs(pred_dir, truth_dir)
        assert report["dsc"] == 1.0
        assert report["missing"] == []

    def test_empty_prediction_scores_zero(self, tmp_path):
        pred_dir = tmp_path / "pred"
        truth_dir = tmp_path / "truth"
        pred_dir.mkdir()
        truth_dir.mkdir()
        write_volume(Volume(np.ones((3, 3, 3), dtype=np.float32), (1, 1, 1),
                            "MASK"), truth_dir / "a.mvol")
        write_volume(Volume(np.zeros((3, 3, 3), dtype=np.float32), (1, 1, 1),
                            "MASK"), pred_dir / "a.mvol")
        report = evaluate_segmentation_dirs(pred_dir, truth_dir)
        assert report["dsc"] == 0.0

    def test_missing_counterpart_listed(self, tmp_path):
        pred_dir = tmp_path / "pred"
        truth_dir = tmp_path / "truth"
        pred_dir.mkdir()
        truth_dir.mkdir()
        m = Volume(np.ones((2, 2, 2), dtype=np.float32), (1, 1, 1), "MASK")
        write_volume(m, truth_dir / "a.mvol")
        write_volume(m, pred_dir / "a.mvol")
        write_volume(m, truth_dir / "b.mvol")
        report = evaluate_segmentation_dirs(pred_dir, truth_dir)
        assert report["missing"] == ["b.mvol"]

    def test_survival_csv(self, tmp_path):
        write_synthetic_dataset(tmp_path / "d", n=30, seed=11, beta=[2.0])
        cohort = load_dataset(tmp_path / "d")
        pred = tmp_path / "risks.csv"
        lines = ["id,risk"]
        for s in cohort.subjects:
            lines.append(f"{s.id},{np.exp(2.0 * s.covariates[0])}")
        pred.write_text("\n".join(lines) + "\n")
        report = evaluate_survival_files(pred, tmp_path / "d" / "ehr.csv")
        # exact planted risks: concordance equals the data ceiling
        from oncokit.metrics import concordance_detail
        expected = concordance_detail(cohort.times(),
                                      np.exp(2.0 * cohort.covariate_matrix()[:, 0]),
                                      cohort.events()).value
        assert report["c_index"] == pytest.approx(expected)

    def test_survival_csv_matches_the_full_cohort_read(self, tmp_path):
        # eval reads the truth's labels only; the report is what the whole
        # cohort, as load_ehr reads it, gives
        from oncokit.ehr import load_ehr, save_ehr, save_predictions
        from oncokit.metrics import concordance_detail
        from oncokit.synthetic import gen_synthetic_cohort

        truth, pred = tmp_path / "ehr.csv", tmp_path / "risks.csv"
        save_ehr(gen_synthetic_cohort(5000, 4, [1.0, -0.5, 0.3], censor_frac=0.3), truth)
        rng = np.random.default_rng(4)
        cohort = load_ehr(truth)
        ids = [*rng.permutation(cohort.ids)[:4000].tolist(), "zz1", "zz2"]
        rng.shuffle(ids)
        risks = rng.standard_normal(len(ids))
        save_predictions(ids, risks, pred)

        row = {sid: i for i, sid in enumerate(cohort.ids)}
        hits = [k for k, sid in enumerate(ids) if sid in row]
        rows = [row[ids[k]] for k in hits]
        res = concordance_detail(cohort.times()[rows], risks[hits], cohort.events()[rows])
        expected = {"c_index": res.value, "n": 4000, "comparable_pairs": res.comparable_pairs,
                    "orientation": "hazard",
                    "missing": [sid for sid in ids if sid not in row]}
        report = evaluate_survival_files(pred, truth)
        assert report == expected and sorted(report["missing"]) == ["zz1", "zz2"]


class TestConvertSi:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        src = tmp_path / "src"
        src.mkdir()
        for i, d in enumerate((6, 7, 12)):
            v = Volume(rng.normal(size=(5, 4, d)).astype(np.float32),
                       (1, 1, 1), "CT")
            write_volume(v, src / f"v{i}.mvol")
        si = tmp_path / "si"
        back = tmp_path / "back"
        assert convert_si_dir(src, si) == []
        assert invert_si_dir(si, back) == []
        for name in ("v0.mvol", "v1.mvol", "v2.mvol"):
            assert (src / name).read_bytes() == (back / name).read_bytes()

    def test_auto_grid_recorded_in_sidecar(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        v = Volume(np.zeros((3, 3, 64), dtype=np.float32), (1, 1, 1), "CT")
        write_volume(v, src / "stack.mvol")
        convert_si_dir(src, tmp_path / "si")
        meta = json.loads((tmp_path / "si" / "stack.si.json").read_text())
        assert (meta["sh"], meta["sw"]) == (8, 8)

    def test_explicit_lopsided_grid_accepted(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        v = Volume(np.zeros((3, 3, 48), dtype=np.float32), (1, 1, 1), "CT")
        write_volume(v, src / "stack.mvol")
        assert convert_si_dir(src, tmp_path / "si", grid=(24, 2)) == []
        meta = json.loads((tmp_path / "si" / "stack.si.json").read_text())
        assert (meta["sh"], meta["sw"]) == (24, 2)
        out = read_volume(tmp_path / "si" / "stack.mvol")
        assert out.shape == (3 * 24, 3 * 2, 1)

    def test_incompatible_grid_is_per_file_error(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        v = Volume(np.zeros((3, 3, 48), dtype=np.float32), (1, 1, 1), "CT")
        write_volume(v, src / "stack.mvol")
        errors = convert_si_dir(src, tmp_path / "si", grid=(4, 4))
        assert len(errors) == 1 and "stack.mvol" in errors[0]
