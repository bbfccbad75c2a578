"""One workload in one fresh process: set-up, timed rounds, output checks.

``run.py`` starts this script with ``PYTHONPATH`` pointing at the checkout's
``src`` and the BLAS pools capped through the environment. It measures its
own set-up time against the launch stamp in ``PERFBENCH_LAUNCH`` (a
``time.monotonic`` reading taken by the parent just before the launch).
With ``--setup-only`` it stops after set-up. Otherwise it runs whole rounds
back to back (a closed loop with one client) until ``--seconds`` have
passed, checks every round's outputs outside the timed regions, and prints
one JSON object as its last line.

A round trains through ``run_experiment`` exactly as ``oncokit train`` does,
then scores subjects from the saved models with inputs read from disk and
outputs written, then runs ``oncokit eval``. The CLI verbs run in this
process through ``oncokit.cli.main``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import inputs as spec
import reference
from tracing import Instrument

perf = time.perf_counter
BENCHMARK_JSON = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def _reset(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def _log_failure(what: str) -> None:
    print(f"perfbench: {what} failed:\n{traceback.format_exc()}", file=sys.stderr)


class Round:
    """Work and wall time of one round, split into train and predict."""

    def __init__(self):
        self.train_samples = 0
        self.train_s = 0.0
        self.predict_subjects = 0
        self.predict_s = 0.0
        self.attempted = 0
        self.failed = 0


class Workload:
    """Shared plumbing: the program's modules, the CLI and the fold plan."""

    def __init__(self, ok, inputs: Path, out: Path, seed: int, cohort):
        self.ok = ok
        self.inputs = inputs
        self.data = inputs / "data"
        self.out = out
        self.seed = seed
        self.cohort = cohort
        self.problems: list[str] = []

    def cli(self, *argv) -> bool:
        with contextlib.redirect_stdout(io.StringIO()):
            return self.ok.cli.main([str(a) for a in argv]) == 0

    def train(self, rnd: Round, task: str, passes: int, **settings) -> Path:
        """One ``run_experiment`` call; counts folds as operations and
        training subjects x passes as samples."""
        out = _reset(self.out / task)
        cfg = self.ok.experiment.ExperimentConfig(
            task=task, data_dir=str(self.data), output_dir=str(out), seed=self.seed,
            **settings)
        rnd.attempted += cfg.cv_folds
        start = perf()
        try:
            report = self.ok.experiment.run_experiment(cfg)
        except Exception:
            rnd.train_s += perf() - start
            rnd.failed += cfg.cv_folds
            _log_failure(f"{task} training")
            return out
        rnd.train_s += perf() - start
        for fold in report.folds:
            if "metrics" in fold:
                rnd.train_samples += fold["train_size"] * passes
            else:
                rnd.failed += 1
                print(f"perfbench: {task} fold {fold['fold']} failed: "
                      f"{fold['error']['message']}", file=sys.stderr)
        return out

    def folds(self, k: int):
        return self.ok.experiment.cv_split(self.cohort, "kfold", self.seed, k)

    def fail(self, message: str) -> None:
        self.problems.append(message)

    def read_inputs(self, subject):
        """Read and preprocess one subject's CT and PET, as training does."""
        ok = self.ok
        pre, vol = ok.preprocess, ok.volume
        ct = pre.resample_isotropic(pre.ct_window_normalize(vol.read_volume(subject.ct_path)))
        pet = pre.resample_isotropic(pre.pet_zscore(vol.read_volume(subject.pet_path)))
        return ct, pet

    def write_mask(self, mask, spacing, path: Path) -> None:
        self.ok.volume.write_volume(self.ok.volume.Volume(mask, spacing, "MASK"), path)

    def score_test_set(self, rnd: Round, label: str, out: Path, folds: int,
                       load, score, finish) -> list[dict]:
        """Score every held-out test subject with each fold's saved model:
        ``load(checkpoint)`` builds the model, ``score(model, subject,
        pred_dir)`` returns a record, ``finish(fold, pred_dir, records)``
        runs the fold's evaluations. Returns the records of each fold."""
        test = self.ok.experiment.load_dataset(self.inputs / "test")
        per_fold = []
        for fold in range(folds):
            pred_dir = out / f"pred_{fold}"
            pred_dir.mkdir()
            records: dict = {}
            per_fold.append(records)
            rnd.attempted += len(test)
            try:
                model = load(out / f"fold_{fold}.ckpt")
            except Exception:
                rnd.failed += len(test)
                _log_failure(f"{label} fold {fold} checkpoint")
                continue
            for subject in test.subjects:
                try:
                    records[subject.id] = score(model, subject, pred_dir)
                    rnd.predict_subjects += 1
                except Exception:
                    rnd.failed += 1
                    _log_failure(f"{label} scoring {subject.id}")
            finish(fold, pred_dir, records)
        return per_fold

    def evaluate(self, rnd: Round, *argv) -> None:
        """One ``oncokit eval`` call, counted as an operation."""
        rnd.attempted += 1
        if not self.cli("eval", *argv):
            rnd.failed += 1

    def check_seg_eval(self, label: str, pred_dir: Path, eval_json: Path,
                       records: dict) -> dict:
        """Written masks are binary with the input's shape, and the DSC that
        ``oncokit eval`` reports equals the reference DSC. Returns id -> DSC."""
        report = json.loads(eval_json.read_text())
        reported = {case["id"]: case["dsc"] for case in report["cases"]}
        own = {}
        for sid, record in records.items():
            name = f"{sid}_mask.mvol"
            pred, code = reference.read_mask(pred_dir / name)
            truth, _ = reference.read_mask(self.inputs / "truth" / name)
            if pred.shape != record["shape"] or code != reference.MASK_CODE:
                self.fail(f"{label}: mask {name} has shape {pred.shape}, "
                          f"input {record['shape']}")
            if not reference.is_binary_mask(pred):
                self.fail(f"{label}: mask {name} is not binary")
            own[sid] = reference.dsc(pred, truth)
            if name not in reported or abs(reported[name] - own[sid]) > 1e-12:
                self.fail(f"{label}: eval DSC {reported.get(name)} for {name}, "
                          f"reference {own[sid]}")
        return own


# ------------------------------------------------------------------ seg-unet

class SegUnet(Workload):
    """seg2d-si and seg3d trained k-fold, then the held-out test cohort
    scored by every fold's checkpoint."""

    TASKS = (("seg2d-si", 2), ("seg3d", 3))
    DEPTH, WIDTH = 3, 8          # the toy preset of both U-Nets

    def __init__(self, *args):
        super().__init__(*args)
        self.scored: dict[str, list] = {}
        self.init_dsc: dict[str, float] = {}

    def net(self, rank: int, seed: int = 0):
        return self.ok.segnets.UNet(rank, in_channels=2, depth=self.DEPTH,
                                    base_width=self.WIDTH, seed=seed)

    def macs_per_sample(self) -> int:
        h, w, d = spec.SEG["shape"]
        sh, sw = self.ok.superimage.choose_grid(d)
        stats = self.ok.segnets.model_stats
        return (stats(self.net(2), (h * sh, w * sw))["macs"]
                + stats(self.net(3), (h, w, d))["macs"])

    def round(self, inst: Instrument) -> Round:
        rnd = Round()
        cfg = spec.SEG
        for task, rank in self.TASKS:
            inst.phase = "train"
            out = self.train(rnd, task, cfg["epochs"], epochs=cfg["epochs"],
                             batch_size=cfg["batch"], learning_rate=cfg["lr"],
                             cv_folds=cfg["folds"],
                             augment_seed=self.seed if task == "seg3d" else None)
            inst.phase = "predict"

            def load(ckpt, rank=rank):
                net = self.net(rank)
                net.params = self.ok.checkpoint.load_checkpoint(ckpt)
                return net

            def finish(fold, pred_dir, records, out=out):
                self.evaluate(rnd, "--task", "seg", "--pred", pred_dir, "--truth",
                              self.inputs / "truth", "--out", out / f"eval_{fold}.json")

            start = perf()
            self.scored[task] = self.score_test_set(
                rnd, task, out, cfg["folds"], load,
                lambda net, subject, pred_dir, rank=rank: self.score(net, rank, subject, pred_dir),
                finish)
            rnd.predict_s += perf() - start
        return rnd

    def score(self, net, rank: int, subject, pred_dir: Path) -> dict:
        ok = self.ok
        si, Tensor = ok.superimage, ok.autodiff.Tensor
        ct, pet = self.read_inputs(subject)
        record = {"shape": ct.shape}
        if rank == 2:
            stack = np.stack([ct.data, pet.data], axis=-1)
            layout = si.SuperImageLayout.for_volume(stack.shape)
            image = si.to_super_image(stack, layout)
            x = image.transpose(2, 0, 1).astype(np.float64)
            flat = ok.segnets.predict_mask(net.forward(Tensor(x)))[0]
            mask_layout = si.SuperImageLayout.for_volume(ct.shape + (1,))
            mask = si.from_super_image(flat[:, :, None], mask_layout)[:, :, :, 0]
            record.update(stack=stack, image=image, layout=layout, flat=flat,
                          mask=mask, mask_layout=mask_layout)
        else:
            x = np.stack([ct.data, pet.data]).astype(np.float64)
            mask = ok.segnets.predict_mask(net.forward(Tensor(x)))[0]
        record["x"] = x
        self.write_mask(mask, ct.spacing, pred_dir / f"{subject.id}_mask.mvol")
        return record

    def check(self, inst: Instrument) -> None:
        si = self.ok.superimage
        for task, rank in self.TASKS:
            out = self.out / task
            trained = []
            for fold, records in enumerate(self.scored.get(task, [])):
                for sid, rec in records.items():
                    if rank == 2:
                        back = si.from_super_image(rec["image"], rec["layout"])
                        again = si.to_super_image(rec["mask"][:, :, :, None],
                                                  rec["mask_layout"])
                        if back.dtype != rec["stack"].dtype \
                                or not np.array_equal(back, rec["stack"]) \
                                or not np.array_equal(again[:, :, 0], rec["flat"]):
                            self.fail(f"{task}: super-image round trip of {sid} is not exact")
                own = self.check_seg_eval(f"{task} fold {fold}", out / f"pred_{fold}",
                                          out / f"eval_{fold}.json", records)
                trained.extend(own.values())
            if not trained:
                continue
            if task not in self.init_dsc:
                self.init_dsc[task] = self.untrained_dsc(rank, self.scored[task][0])
            if not np.mean(trained) > self.init_dsc[task]:
                self.fail(f"{task}: trained DSC {np.mean(trained):.3f} is not above "
                          f"the untrained {self.init_dsc[task]:.3f}")

    def untrained_dsc(self, rank: int, records: dict) -> float:
        """Mean reference DSC of the same architecture at initialisation."""
        ok = self.ok
        init = self.net(rank, seed=self.seed)
        dscs = []
        for sid, rec in records.items():
            pred = ok.segnets.predict_mask(init.forward(ok.autodiff.Tensor(rec["x"])))[0]
            if rank == 2:
                pred = ok.superimage.from_super_image(pred[:, :, None],
                                                      rec["mask_layout"])[:, :, :, 0]
            truth, _ = reference.read_mask(self.inputs / "truth" / f"{sid}_mask.mvol")
            dscs.append(reference.dsc(pred, truth))
        return float(np.mean(dscs))


# ------------------------------------------------------------------ tmss-joint

class TmssJoint(Workload):
    """The joint transformer trained k-fold, then mask + risk scoring of the
    held-out test cohort from every fold's checkpoint."""

    EMBED, LAYERS, HEADS, MLP_RATIO = 64, 4, 4, 2     # the toy preset

    def __init__(self, *args):
        super().__init__(*args)
        cfg = spec.TMSS
        self.spatial = tuple(int(round(e * s)) for e, s in
                             zip(cfg["raw_shape"], cfg["spacing"]))
        self.scored: list = []

    def encoder_config(self):
        cfg = spec.TMSS
        return self.ok.vit.EncoderConfig(self.spatial, 2, cfg["patch"], self.EMBED,
                                         self.LAYERS, self.HEADS, self.MLP_RATIO,
                                         len(self.cohort.feature_names))

    def macs_per_sample(self) -> int:
        seg = self.ok.segnets
        enc_cfg = self.encoder_config()
        width = spec.TMSS["decoder_width"]
        decoder = seg.model_stats(seg.UnetrDecoder(enc_cfg, width=width), self.spatial)
        linear = [s for s in seg.unetr_layer_specs(enc_cfg, width=width)
                  if s.kind in ("linear", "norm")]
        return decoder["macs"] + seg.model_stats(linear, (1,))["macs"]

    def round(self, inst: Instrument) -> Round:
        cfg = spec.TMSS
        rnd = Round()
        inst.phase = "train"
        out = self.train(rnd, "tmss", cfg["epochs"], epochs=cfg["epochs"],
                         batch_size=cfg["batch"], learning_rate=cfg["lr"],
                         cv_folds=cfg["folds"], survival_weight=cfg["survival_weight"],
                         m_intervals=cfg["intervals"], patch=cfg["patch"],
                         decoder_width=cfg["decoder_width"])
        inst.phase = "predict"

        def finish(fold, pred_dir, records):
            risks = out / f"risks_{fold}.csv"
            with open(risks, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(["id", "risk"])
                for sid, rec in records.items():
                    writer.writerow([sid, repr(rec["risk"])])
            self.evaluate(rnd, "--task", "surv", "--pred", risks, "--truth",
                          self.inputs / "test" / "ehr.csv", "--out", out / f"surv_{fold}.json")
            self.evaluate(rnd, "--task", "seg", "--pred", pred_dir, "--truth",
                          self.inputs / "truth", "--out", out / f"seg_{fold}.json")

        start = perf()
        self.scored = self.score_test_set(rnd, "tmss", out, cfg["folds"], self.load,
                                          self.score, finish)
        rnd.predict_s += perf() - start
        return rnd

    def load(self, ckpt: Path):
        ok, cfg = self.ok, spec.TMSS
        boundaries = np.array(ok.checkpoint.load_manifest(ckpt)["config"]["boundaries"])
        model = ok.tmss.TmssModel(self.encoder_config(), boundaries,
                                  decoder_width=cfg["decoder_width"])
        model.set_params(ok.checkpoint.load_checkpoint(ckpt))
        m = boundaries.shape[0]
        head = ok.mtlr.MtlrModel(boundaries, np.eye(m), np.zeros(m), 0.0)
        return model, head

    def score(self, loaded, subject, pred_dir: Path) -> dict:
        ok = self.ok
        model, head = loaded
        Tensor = ok.autodiff.Tensor
        ct, pet = self.read_inputs(subject)
        vol = np.stack([ct.data, pet.data], axis=-1).astype(np.float64)
        out = model.forward(Tensor(vol), Tensor(subject.covariates))
        scores = out.scores.data[0]
        mask = ok.segnets.predict_mask(out.logits)[0]
        self.write_mask(mask, ct.spacing, pred_dir / f"{subject.id}_mask.mvol")
        return {"shape": ct.shape, "risk": ok.mtlr.mtlr_risk(head, scores),
                "survival": ok.mtlr.mtlr_survival(head, scores).survival}

    def check(self, inst: Instrument) -> None:
        out = self.out / "tmss"
        ids, times, events, _ = reference.read_cohort(self.inputs / "test" / "ehr.csv")
        row = {sid: i for i, sid in enumerate(ids)}
        for fold, records in enumerate(self.scored):
            if not records:
                continue
            rows = [row[sid] for sid in records]
            risks = np.array([rec["risk"] for rec in records.values()])
            if not np.isfinite(risks).all():
                self.fail(f"tmss fold {fold}: a risk is not finite")
            for sid, rec in records.items():
                surv = rec["survival"]
                if surv[0] != 1.0 or (np.diff(surv) > 0).any():
                    self.fail(f"tmss fold {fold}: survival curve of {sid} does not "
                              f"start at 1 or increases: {surv.tolist()}")
            report = json.loads((out / f"surv_{fold}.json").read_text())
            concordant, comparable = reference.concordance(times[rows], risks, events[rows])
            if report["comparable_pairs"] != comparable or \
                    abs(report["c_index"] - concordant / max(comparable, 1)) > 1e-12:
                self.fail(f"tmss fold {fold}: eval c-index {report['c_index']} over "
                          f"{report['comparable_pairs']} pairs, reference "
                          f"{concordant}/{comparable}")
            self.check_seg_eval(f"tmss fold {fold}", out / f"pred_{fold}",
                                out / f"seg_{fold}.json", records)


# ------------------------------------------------------------------ surv-cohort

class SurvCohort(Workload):
    """surv-cox and surv-mtlr trained k-fold on a large tabular cohort, then
    ``oncokit predict`` from every fold model over a fresh scoring cohort."""

    MODELS = (("surv-cox", "cox"), ("surv-mtlr", "mtlr"))
    COEF_TOL = 0.1           # |beta_hat - beta| per coefficient
    SCORE_TOL = 1e-6         # max |Breslow score| at the fit
    RISK_RTOL = 1e-9         # predict risks against the reference formulas
    CINDEX_MARGIN = 0.02     # Cox c-index against the planted predictor's
    # ll_trajectory may not drop by more than this share of (1 + |ll|): the
    # flat-step allowance cox_fit applies when the likelihood stops changing
    # at float resolution (its last Newton step at n = 10k lowers the
    # computed ll by about 5e-11 at |ll| = 5.5e4)
    FLAT_LL = 1e-11

    def __init__(self, *args):
        super().__init__(*args)
        self.train_data = None
        self.score_data = None
        self.planted_c = None

    def macs_per_sample(self) -> int:
        return 0

    def round(self, inst: Instrument) -> Round:
        cfg = spec.SURV
        rnd = Round()
        inst.phase = "train"
        outs = {}
        for task, kind in self.MODELS:
            outs[kind] = self.train(rnd, task, 1, cv_folds=cfg["folds"],
                                    m_intervals=cfg["intervals"],
                                    fit_iterations=cfg["iterations"], fit_lr=cfg["fit_lr"])
        inst.phase = "predict"
        score_csv = self.inputs / "score.csv"
        start = perf()
        for kind, out in outs.items():
            for fold in range(cfg["folds"]):
                stem = out / f"fold_{fold}_{kind}"
                rnd.attempted += 2
                try:
                    predicted = self.cli("predict", "--model", f"{stem}.json",
                                         "--ehr", score_csv, "--out", f"{stem}_risks.csv")
                except Exception:
                    predicted = False
                    _log_failure(f"predict from {stem.name}")
                if not predicted:
                    rnd.failed += 2
                    continue
                rnd.predict_subjects += cfg["n_score"]
                if not self.cli("eval", "--task", "surv", "--pred", f"{stem}_risks.csv",
                                "--truth", score_csv, "--out", f"{stem}_eval.json"):
                    rnd.failed += 1
        rnd.predict_s += perf() - start
        return rnd

    def check(self, inst: Instrument) -> None:
        cfg = spec.SURV
        beta = np.array(cfg["beta"])
        if self.train_data is None:
            self.train_data = reference.read_cohort(self.data / "ehr.csv")[1:]
            self.score_data = reference.read_cohort(self.inputs / "score.csv")
            _, s_times, s_events, s_x = self.score_data
            concordant, comparable = reference.concordance(s_times, s_x @ beta, s_events)
            self.planted_c = concordant / comparable
        times, events, x = self.train_data
        ids, s_times, s_events, s_x = self.score_data

        for model in inst.cox_models:
            traj = np.array(model.ll_trajectory)
            drop = traj[:-1] - traj[1:]
            if (drop > self.FLAT_LL * (1.0 + np.abs(traj[:-1]))).any():
                self.fail(f"cox: ll_trajectory decreases by {drop.max():.3g}")
        if len(inst.cox_models) != cfg["folds"]:
            self.fail(f"cox: {len(inst.cox_models)} fits seen, expected {cfg['folds']}")

        for fold, (train_idx, _) in enumerate(self.folds(cfg["folds"])):
            tr = (times[train_idx], events[train_idx], x[train_idx])
            cox = json.loads((self.out / "surv-cox" / f"fold_{fold}_cox.json").read_text())
            coef = np.array(cox["coefficients"])
            if np.abs(coef - beta).max() > self.COEF_TOL:
                self.fail(f"cox fold {fold}: coefficients {coef} vs planted {beta}")
            score = reference.breslow_score(coef, tr[2], tr[0], tr[1])
            if np.abs(score).max() > self.SCORE_TOL:
                self.fail(f"cox fold {fold}: Breslow score {score} at the fit")
            mtlr = json.loads((self.out / "surv-mtlr" / f"fold_{fold}_mtlr.json").read_text())
            theta, bias = np.array(mtlr["theta"]), np.array(mtlr["bias"])
            bounds = np.array(mtlr["boundaries"])
            final = reference.mtlr_objective(theta, bias, mtlr["smoothing"], bounds,
                                             tr[2], tr[0], tr[1])
            start = reference.mtlr_start_objective(bounds, tr[0], tr[1])
            if not final < start:
                self.fail(f"mtlr fold {fold}: objective {final} not below start {start}")

            expected = {"cox": np.exp(s_x @ coef),
                        "mtlr": reference.mtlr_risk(theta, bias, s_x)}
            for kind, want in expected.items():
                stem = self.out / f"surv-{kind}" / f"fold_{fold}_{kind}"
                got = reference.read_risks(f"{stem}_risks.csv")
                risks = np.array([got[sid] for sid in ids])
                if not np.allclose(risks, want, rtol=self.RISK_RTOL, atol=0.0):
                    self.fail(f"{kind} fold {fold}: predict risks differ from the "
                              f"reference by {np.abs(risks - want).max():.3g}")
                report = json.loads(Path(f"{stem}_eval.json").read_text())
                concordant, comparable = reference.concordance(s_times, risks, s_events)
                if report["comparable_pairs"] != comparable or \
                        abs(report["c_index"] - concordant / comparable) > 1e-12:
                    self.fail(f"{kind} fold {fold}: eval c-index {report['c_index']}, "
                              f"reference {concordant}/{comparable}")
                if kind == "cox" and abs(report["c_index"] - self.planted_c) > self.CINDEX_MARGIN:
                    self.fail(f"cox fold {fold}: c-index {report['c_index']:.4f} vs "
                              f"planted predictor {self.planted_c:.4f}")


WORKLOADS = {"seg-unet": SegUnet, "tmss-joint": TmssJoint, "surv-cohort": SurvCohort}


# ------------------------------------------------------------------ main

def _context(ok) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:
        blas = "unknown"
    caps = {k: os.environ.get(k) for k in ("ONCOKIT_THREADS", "OPENBLAS_NUM_THREADS",
                                           "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"nproc": os.cpu_count(), "blas": blas, "numpy": np.__version__,
            "python": sys.version.split()[0], "threads": caps,
            "oncokit": str(Path(ok.__file__).parent)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # numpy is already loaded, so the BLAS variables run.py sets are what cap
    # the pools; oncokit.cli is imported here so set-up is timed through the
    # module the command line loads
    import oncokit.cli
    import oncokit.experiment
    cohort = oncokit.experiment.load_dataset(args.inputs / "data")
    setup_s = time.monotonic() - float(os.environ["PERFBENCH_LAUNCH"])
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import oncokit as ok
    for name in ("autodiff", "checkpoint", "mtlr", "preprocess", "segnets",
                 "superimage", "tmss", "vit", "volume"):
        __import__(f"oncokit.{name}")
    workload = WORKLOADS[args.workload](ok, args.inputs, args.out, args.seed, cohort)
    inst = Instrument()
    inst.macs_per_sample = workload.macs_per_sample()
    rounds = []
    started = perf()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        inst.round = len(rounds)
        if traced:
            inst.install_trace()
        else:
            inst.install_capture()
        t0 = perf()
        try:
            rnd = workload.round(inst)
        finally:
            inst.uninstall()
        wall = perf() - t0
        inst.traced_rounds += traced
        try:
            workload.check(inst)
        except Exception:
            _log_failure("output check")
            workload.fail("an output check raised")
        inst.cox_models.clear()
        rounds.append({"traced": traced, "wall_s": wall, **vars(rnd)})
        if perf() - started >= args.seconds and (not args.trace or len(rounds) >= 2):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"setup_s": setup_s, "rounds": rounds, "peak_rss_mb": peak_rss_mb,
              "problems": workload.problems, "context": _context(ok)}
    if args.trace:
        plain = [r["wall_s"] for r in rounds if not r["traced"]]
        traced_walls = [r["wall_s"] for r in rounds if r["traced"]]
        base = statistics.median(plain)
        overhead = 100.0 * (statistics.median(traced_walls) - base) / base
        spec = json.loads(BENCHMARK_JSON.read_text())
        result["per_layer"] = inst.metrics([m["name"] for m in spec["per_layer"]], overhead)
        if args.spans:
            inst.write_spans(args.spans)
    for message in workload.problems:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
