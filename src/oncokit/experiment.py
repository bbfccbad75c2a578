"""Experiment orchestration: datasets on disk, folds, training, reports.

A dataset directory holds ``ehr.csv`` plus (optionally) one MVOL triplet
per subject under ``volumes/`` as ``<id>_ct.mvol``, ``<id>_pet.mvol`` and
``<id>_mask.mvol``. Every run is reproducible: the configuration plus its
mandatory seed fully determine the report bytes. Wall-clock timing is kept
out of ``report.json`` (it goes to ``timing.json``) precisely so identical
reruns produce identical report files.

Per-fold failures (any ``Exception``) are recorded in the report with their
stack context and do not abort the remaining folds. A completed fold leaves
a ``fold_<k>.json`` marker, written after the fold's checkpoint or model
file; rerunning with ``resume`` set skips those folds and reuses their
recorded metrics, and retries every other fold. Markers and reports are
written through a temp file and a rename, so none is ever half-written; an
unreadable marker is a ``DataError``.
"""

from __future__ import annotations

import json
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .augment import augment
from .autodiff import Tensor, sigmoid
from .checkpoint import save_checkpoint
from .cox import cox_cohort_risks, cox_fit, save_cox
from .ehr import Cohort, load_ehr, load_labels, load_predictions, save_ehr
from .errors import ConfigError, DataError, OncokitError, malformed, write_atomic
from .fusion import deep_fusion_risk
from .losses import combined_loss
from .metrics import concordance_detail, confusion, dsc
from .mtlr import mtlr_cohort_risks, mtlr_fit, risk_from_scores, save_mtlr, time_grid
from .optim import OptimState, share_params, train
from .preprocess import ct_window_normalize, pet_zscore, resample_isotropic
from .segnets import UNet, UnetrDecoder, predict_mask
from .superimage import SuperImageLayout, from_super_image, to_super_image
from .synthetic import gen_synthetic_cohort
from .tmss import TmssModel, tmss_loss
from .vit import ViTEncoder, encoder_preset
from .volume import Volume, read_volume, write_volume


def _int(value, least: int) -> bool:
    """An int of ``least`` or more; a bool is not one."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def _real(value) -> bool:
    """An int, or a float that is finite; a bool is neither."""
    return _int(value, -np.inf) or isinstance(value, float) and bool(np.isfinite(value))


# (config fields, what each must be, the test of a value)
_FIELD_RULES = (
    (("seed",), "an int >= 0", lambda v: _int(v, 0)),
    (("cv_folds",), "an int >= 2", lambda v: _int(v, 2)),
    (("epochs", "batch_size", "schedule_period", "fit_iterations", "decoder_width"),
     "an int >= 1", lambda v: _int(v, 1)),
    (("m_intervals", "patch"), "None or an int >= 1", lambda v: v is None or _int(v, 1)),
    (("augment_seed",), "None or an int >= 0", lambda v: v is None or _int(v, 0)),
    (("learning_rate", "fit_lr"), "a finite number > 0", lambda v: _real(v) and v > 0),
    (("weight_decay", "smoothing", "survival_weight"), "a finite number >= 0",
     lambda v: _real(v) and v >= 0),
    (("resume",), "a bool", lambda v: isinstance(v, bool)),
    (("hidden_widths",), "a list of ints >= 1",
     lambda v: isinstance(v, (list, tuple)) and all(_int(w, 1) for w in v)),
    (("ehr_features",), "None or a non-empty list of distinct ints >= 0",
     lambda v: v is None or isinstance(v, (list, tuple))
     and all(_int(i, 0) for i in v) and 0 < len(v) == len(set(v))),
)


@dataclass
class ExperimentConfig:
    task: str
    data_dir: str
    output_dir: str
    seed: int
    model_preset: str = "toy"            # toy | paper
    epochs: int = 20
    batch_size: int = 8
    learning_rate: float = 1e-3
    weight_decay: float = 1e-5
    schedule_period: int = 25
    cv_scheme: str = "kfold"             # kfold | center
    cv_folds: int = 5
    augment_seed: int | None = None      # None disables augmentation
    survival_weight: float = 0.3         # joint-loss weight for tmss
    smoothing: float = 1.0               # MTLR regularizer C
    m_intervals: int | None = None
    hidden_widths: tuple[int, ...] = (16,)
    fit_iterations: int = 2000
    fit_lr: float = 0.05
    ehr_features: tuple[int, ...] | None = None
    decoder_width: int = 8
    patch: int | None = None             # None uses the preset default
    resume: bool = False

    def validate(self) -> None:
        if self.task not in TASKS:
            raise ConfigError(f"unknown task {self.task!r}; expected one of {TASKS}")
        if self.seed is None:
            raise ConfigError("seed is mandatory")
        if not Path(self.data_dir).exists():
            raise ConfigError(f"data_dir does not exist: {self.data_dir}")
        if self.cv_scheme not in ("kfold", "center"):
            raise ConfigError(f"unknown cv scheme {self.cv_scheme!r}")
        if self.model_preset not in ("toy", "paper"):
            raise ConfigError(f"unknown model preset {self.model_preset!r}")
        for names, what, ok in _FIELD_RULES:
            for name in names:
                value = getattr(self, name)
                if not ok(value):
                    raise ConfigError(f"{name} must be {what}, got {value!r}")

    @classmethod
    def from_json(cls, path, overrides: dict | None = None) -> "ExperimentConfig":
        try:
            obj = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read {path}: {exc}") from exc
        if not isinstance(obj, dict):
            raise ConfigError(f"{path}: expected a JSON object, got {type(obj).__name__}")
        obj.update(overrides or {})
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(obj) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            cfg = cls(**obj)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc
        cfg.validate()
        return cfg


@dataclass
class RunReport:
    task: str
    seed: int
    folds: list[dict]
    aggregate: dict
    config: dict
    versions: dict
    wall_clock_seconds: float = 0.0

    def to_json(self) -> str:
        payload = {
            "task": self.task,
            "seed": self.seed,
            "folds": self.folds,
            "aggregate": self.aggregate,
            "config": self.config,
            "versions": self.versions,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


# --------------------------------------------------------------------- folds

def cv_split(cohort: Cohort, scheme: str, seed: int, k: int = 5):
    """Deterministic fold list [(train_indices, val_indices), ...].

    ``kfold`` shuffles once with the seed and deals near-equal folds;
    ``center`` yields one fold per acquisition center, holding that
    center's subjects out entirely.
    """
    n = len(cohort)
    if scheme == "kfold":
        if k > n:
            raise ConfigError(f"k={k} exceeds cohort size {n}")
        if k < 2:
            raise ConfigError("k must be at least 2")
        order = np.random.default_rng(seed).permutation(n)
        chunks = np.array_split(order, k)
        folds = []
        for i in range(k):
            val = np.sort(chunks[i])
            train = np.sort(np.concatenate([chunks[j] for j in range(k) if j != i]))
            folds.append((train, val))
        return folds
    if scheme == "center":
        centers = np.unique(cohort.centers)
        if len(centers) < 2:
            raise ConfigError("leave-one-center-out needs at least 2 centers")
        return [(np.flatnonzero(cohort.centers != center),
                 np.flatnonzero(cohort.centers == center)) for center in centers]
    raise ConfigError(f"unknown cv scheme {scheme!r}")


# --------------------------------------------------------------------- data

def write_synthetic_dataset(out_dir, n: int, seed: int, beta,
                            censor_frac: float = 0.2, with_volumes: bool = False,
                            volume_shape=(32, 32, 16), n_centers: int = 2) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result = gen_synthetic_cohort(n, seed, beta, censor_frac=censor_frac,
                                  with_volumes=with_volumes,
                                  volume_shape=volume_shape, n_centers=n_centers)
    if with_volumes:
        cohort, vols = result
        vol_dir = out / "volumes"
        vol_dir.mkdir(exist_ok=True)
        for sid in cohort.ids:
            write_volume(vols.ct[sid], vol_dir / f"{sid}_ct.mvol")
            write_volume(vols.pet[sid], vol_dir / f"{sid}_pet.mvol")
            write_volume(vols.mask[sid], vol_dir / f"{sid}_mask.mvol")
    else:
        cohort = result
    save_ehr(cohort, out / "ehr.csv")
    return out


def load_dataset(data_dir) -> Cohort:
    data_dir = Path(data_dir)
    csv_path = data_dir / "ehr.csv"
    if not csv_path.exists():
        raise DataError(f"no ehr.csv under {data_dir}")
    cohort = load_ehr(csv_path)
    vol_dir = data_dir / "volumes"
    if not vol_dir.exists():
        return cohort
    paths = {}
    for kind in ("ct", "pet", "mask"):
        files = [vol_dir / f"{sid}_{kind}.mvol" for sid in cohort.ids]
        paths[f"{kind}_paths"] = [str(f) if f.exists() else None for f in files]
    return cohort.replace(**paths)


def _prepped_triplet(cohort: Cohort, i: int) -> tuple[Volume, Volume, Volume]:
    ct_path, pet_path, mask_path = (cohort.ct_paths[i], cohort.pet_paths[i],
                                    cohort.mask_paths[i])
    if not (ct_path and pet_path and mask_path):
        raise DataError(f"subject {cohort.ids[i]} is missing volume files")
    ct = resample_isotropic(ct_window_normalize(read_volume(ct_path)))
    pet = resample_isotropic(pet_zscore(read_volume(pet_path)))
    mask = resample_isotropic(read_volume(mask_path))
    return ct, pet, mask


# --------------------------------------------------------------------- training

def train_segmentation(net, samples, epochs: int, batch_size: int,
                       lr: float, weight_decay: float, period: int,
                       seed: int, augment_seed: int | None = None,
                       raw_triplets=None) -> list[float]:
    """Trains ``net`` on (input, mask) pairs with ``optim.train``; returns
    the epoch losses.

    With an ``augment_seed`` (None trains on the samples as they are),
    ``raw_triplets`` supplies the (ct, pet, mask) volumes to re-augment:
    every epoch rebuilds each sample, in its own layout (a 2D input means a
    super image), from a generator seeded with (seed, augment_seed, epoch,
    sample index), so runs stay seeded and the two seeds vary the draws
    independently.
    """
    def loss(idx: int, epoch: int) -> Tensor:
        x, y = samples[idx]
        if augment_seed is not None:
            worker = np.random.default_rng((seed, augment_seed, epoch, idx))
            triplet = augment(*raw_triplets[idx], worker)
            x, y = _seg_pair(*triplet, super_image=x.ndim == 3)
        return combined_loss(sigmoid(net.forward(Tensor(x))), Tensor(y))

    state = OptimState(base_lr=lr, weight_decay=weight_decay, period=period)
    return train(net.params, loss, len(samples), epochs, batch_size, state, seed)[0]


def _segmentation_metrics(pairs) -> dict:
    per_case = []
    for case_id, pred, truth in pairs:
        counts = confusion(pred, truth)
        per_case.append({"id": case_id, "dsc": counts.dice,
                         "precision": counts.precision, "recall": counts.recall})
    agg = {}
    for key in ("dsc", "precision", "recall"):
        values = np.array([c[key] for c in per_case])
        agg[key] = float(values.mean())
        agg[key + "_std"] = float(values.std())
    return {"cases": per_case, **agg}


def _survival_metrics(times, risks, events) -> dict:
    res = concordance_detail(times, risks, events)
    return {"c_index": res.value, "n": res.n,
            "comparable_pairs": res.comparable_pairs,
            "orientation": "hazard"}


# --------------------------------------------------------------------- tasks

class _UnetrSeg:
    """ViT encoder + tap decoder bundled to look like a UNet for training;
    both parts share its one ``params`` dict."""

    def __init__(self, enc: ViTEncoder, dec: UnetrDecoder):
        self.enc = enc
        self.dec = dec
        self.params = share_params(enc, dec)

    def forward(self, x: Tensor) -> Tensor:
        return self.dec.forward(self.enc.forward(x), x)


def _seg_pair(ct: Volume, pet: Volume, mask: Volume, super_image: bool):
    """Channels-first (ct, pet) input and one-channel mask target, both
    tiled into one 2D super image when ``super_image`` is set."""
    if super_image:
        stack = np.stack([ct.data, pet.data, mask.data], axis=-1)
        si = to_super_image(stack, SuperImageLayout.for_volume(stack.shape))
        return (si[:, :, :2].transpose(2, 0, 1).astype(np.float64),
                si[:, :, 2][None].astype(np.float64))
    return (np.stack([ct.data, pet.data]).astype(np.float64),
            mask.data[None].astype(np.float64))


def _seg_samples(cohort: Cohort, indices, as_super_image: bool):
    """(input, target) pairs plus the prepped triplets they came from."""
    triplets = [_prepped_triplet(cohort, i) for i in indices]
    return [_seg_pair(*t, as_super_image) for t in triplets], triplets


def _seg_model(task: str, preset: str, sample_shape, seed: int,
               decoder_width: int, patch: int | None = None):
    spatial = sample_shape[1:]
    if task in ("seg2d-si", "seg3d"):        # a 2D sample is a super image
        depth, width = (3, 8) if preset == "toy" else (4, 16)
        return UNet(len(spatial), in_channels=2, depth=depth, base_width=width, seed=seed)
    cfg = encoder_preset(preset, spatial, patch=patch)      # unetr
    enc = ViTEncoder(cfg, seed=seed)
    dec = UnetrDecoder(cfg, width=decoder_width, seed=seed + 1)
    return _UnetrSeg(enc, dec)


def _run_seg_fold(cfg: ExperimentConfig, cohort: Cohort, train_idx, val_idx,
                  fold_seed: int, out_dir: Path, fold_index: int) -> dict:
    as_si = cfg.task == "seg2d-si"
    train_samples, train_triplets = _seg_samples(cohort, train_idx, as_si)
    val_samples, _ = _seg_samples(cohort, val_idx, as_si)
    net = _seg_model(cfg.task, cfg.model_preset, train_samples[0][0].shape,
                     fold_seed, cfg.decoder_width, cfg.patch)
    history = train_segmentation(
        net, train_samples, cfg.epochs, cfg.batch_size, cfg.learning_rate,
        cfg.weight_decay, cfg.schedule_period, fold_seed,
        augment_seed=cfg.augment_seed, raw_triplets=train_triplets)
    pairs = []
    for pos, i in enumerate(val_idx):
        x, y = val_samples[pos]
        pred = predict_mask(net.forward(Tensor(x)))
        pairs.append((cohort.ids[i], pred[0], y[0]))
    metrics = _segmentation_metrics(pairs)
    metrics["final_train_loss"] = history[-1] if history else None
    save_checkpoint(net.params, out_dir / f"fold_{fold_index}.ckpt",
                    config={"task": cfg.task, "preset": cfg.model_preset})
    return metrics


def _maybe_project(cfg: ExperimentConfig, cohort: Cohort) -> Cohort:
    if cfg.ehr_features is None:
        return cohort
    return cohort.select_features(list(cfg.ehr_features))


def _run_surv_fold(cfg: ExperimentConfig, cohort: Cohort, train_idx, val_idx,
                   fold_seed: int, out_dir: Path, fold_index: int) -> dict:
    tabular = _maybe_project(cfg, cohort)
    train, val = tabular.subset(train_idx), tabular.subset(val_idx)
    if cfg.task == "surv-cox":
        model = cox_fit(train)
        risks = cox_cohort_risks(model, val)
        save_cox(model, out_dir / f"fold_{fold_index}_cox.json")
        extra = {"coefficients": [float(v) for v in model.coefficients],
                 "iterations": model.iterations}
    elif cfg.task in ("surv-mtlr", "surv-nmtlr"):
        neural = cfg.task == "surv-nmtlr"
        model = mtlr_fit(train, m=cfg.m_intervals, smoothing=cfg.smoothing,
                         hidden_widths=cfg.hidden_widths if neural else (),
                         iterations=cfg.fit_iterations, lr=cfg.fit_lr, seed=fold_seed)
        risks = mtlr_cohort_risks(model, val)
        save_mtlr(model, out_dir / f"fold_{fold_index}_{cfg.task[5:]}.json")
        extra = {"hidden_widths": list(cfg.hidden_widths)} if neural \
            else {"intervals": int(model.boundaries.shape[0])}
    else:                                   # fusion
        cox_model = cox_fit(train)
        mtlr_model = mtlr_fit(train, m=cfg.m_intervals, smoothing=cfg.smoothing,
                              iterations=cfg.fit_iterations, lr=cfg.fit_lr, seed=fold_seed)
        risks = deep_fusion_risk(cox_cohort_risks(cox_model, val),
                                 mtlr_cohort_risks(mtlr_model, val))
        extra = {"components": ["cox", "mtlr"], "fusion": "normalized"}
    metrics = _survival_metrics(val.times(), risks, val.events())
    metrics.update(extra)
    return metrics


def _run_tmss_fold(cfg: ExperimentConfig, cohort: Cohort, train_idx, val_idx,
                   fold_seed: int, out_dir: Path, fold_index: int) -> dict:
    tabular = _maybe_project(cfg, cohort)
    x, times, events = tabular.covariate_matrix(), tabular.times(), tabular.events()
    boundaries = time_grid(times[train_idx], events[train_idx], cfg.m_intervals)
    samples = {}
    for i in np.concatenate([train_idx, val_idx]):
        ct, pet, mask = _prepped_triplet(cohort, i)
        vol = np.stack([ct.data, pet.data], axis=-1).astype(np.float64)
        samples[i] = (vol, mask.data[None].astype(np.float64))
    spatial = samples[train_idx[0]][0].shape[:-1]
    enc_cfg = encoder_preset(cfg.model_preset, spatial, patch=cfg.patch,
                             ehr_dim=len(tabular.feature_names))
    model = TmssModel(enc_cfg, boundaries, decoder_width=cfg.decoder_width,
                      seed=fold_seed)

    def loss(pos: int, epoch: int) -> Tensor:
        i = train_idx[pos]
        vol, mask = samples[i]
        out = model.forward(Tensor(vol), Tensor(x[i]))
        return tmss_loss(out.logits, Tensor(mask), out.scores, float(times[i]),
                         int(events[i]), boundaries, beta=cfg.survival_weight)

    state = OptimState(base_lr=cfg.learning_rate, weight_decay=cfg.weight_decay,
                       period=cfg.schedule_period)
    train(model.params, loss, len(train_idx), cfg.epochs, cfg.batch_size, state, fold_seed)
    risks = []
    dscs = []
    for i in val_idx:
        vol, mask = samples[i]
        out = model.forward(Tensor(vol), Tensor(x[i]))
        risks.append(risk_from_scores(boundaries, out.scores.data[0]))
        dscs.append(dsc(predict_mask(out.logits)[0], mask[0]))
    metrics = _survival_metrics(times[val_idx], np.array(risks), events[val_idx])
    metrics["dsc"] = float(np.mean(dscs))
    metrics["intervals"] = int(boundaries.shape[0])
    save_checkpoint(model.params, out_dir / f"fold_{fold_index}.ckpt",
                    config={"task": "tmss", "boundaries": [float(b) for b in boundaries]})
    return metrics


# --------------------------------------------------------------------- driver

# the runner of one fold of each task
_FOLD_RUNNERS = {"seg2d-si": _run_seg_fold, "seg3d": _run_seg_fold, "unetr": _run_seg_fold,
                 "surv-cox": _run_surv_fold, "surv-mtlr": _run_surv_fold,
                 "surv-nmtlr": _run_surv_fold, "fusion": _run_surv_fold,
                 "tmss": _run_tmss_fold}
TASKS = tuple(_FOLD_RUNNERS)


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    cfg.validate()
    started = time.time()
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cohort = load_dataset(cfg.data_dir)
    n_features = len(cohort.feature_names)
    if cfg.ehr_features and max(cfg.ehr_features) >= n_features:
        raise ConfigError(f"ehr_features must be below the cohort's {n_features} "
                          f"features, got {list(cfg.ehr_features)}")
    folds = cv_split(cohort, cfg.cv_scheme, cfg.seed, cfg.cv_folds)

    fold_reports: list[dict] = []
    for fold_index, (train_idx, val_idx) in enumerate(folds):
        marker = out_dir / f"fold_{fold_index}.json"
        if cfg.resume and marker.exists():
            entry = _read_marker(marker)
            if "metrics" in entry:
                fold_reports.append(entry)
                continue
        marker.unlink(missing_ok=True)
        fold_seed = cfg.seed + 1000 * (fold_index + 1)
        entry = {"fold": fold_index, "train_size": int(len(train_idx)),
                 "val_size": int(len(val_idx))}
        try:
            entry["metrics"] = _FOLD_RUNNERS[cfg.task](cfg, cohort, train_idx, val_idx,
                                                       fold_seed, out_dir, fold_index)
        except Exception as exc:
            entry["error"] = {"type": type(exc).__name__, "message": str(exc),
                              "trace": traceback.format_exc(limit=6)}
        else:
            write_atomic(marker, json.dumps(entry, indent=2, sort_keys=True).encode())
        fold_reports.append(entry)

    aggregate = _aggregate([f.get("metrics", {}) for f in fold_reports
                            if "metrics" in f])
    aggregate["failed_folds"] = sum(1 for f in fold_reports if "error" in f)
    report = RunReport(
        task=cfg.task,
        seed=cfg.seed,
        folds=fold_reports,
        aggregate=aggregate,
        config={k: (list(v) if isinstance(v, tuple) else v)
                for k, v in asdict(cfg).items()},
        versions={"oncokit": __version__, "numpy": np.__version__},
        wall_clock_seconds=time.time() - started,
    )
    write_atomic(out_dir / "report.json", report.to_json().encode())
    write_atomic(out_dir / "timing.json",
                 json.dumps({"wall_clock_seconds": report.wall_clock_seconds}).encode())
    return report


def _read_marker(path: Path) -> dict:
    try:
        entry = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise DataError(f"{path}: unreadable fold marker ({exc}); "
                        "delete it to rerun the fold") from exc
    if not isinstance(entry, dict):
        raise DataError(f"{path}: fold marker is not a JSON object; "
                        "delete it to rerun the fold")
    return entry


def _aggregate(metric_dicts: list[dict]) -> dict:
    agg: dict = {}
    if not metric_dicts:
        return agg
    keys = set.intersection(*(set(m) for m in metric_dicts))
    for key in sorted(keys):
        values = [m[key] for m in metric_dicts]
        if all(isinstance(v, (int, float)) and not isinstance(v, bool)
               for v in values):
            arr = np.array(values, dtype=np.float64)
            agg[key + "_mean"] = float(arr.mean())
            agg[key + "_std"] = float(arr.std())
    return agg


# --------------------------------------------------------------------- eval & convert

def evaluate_segmentation_dirs(pred_dir, truth_dir) -> dict:
    """Per-case overlap metrics over matching mask files in two directories."""
    pred_dir, truth_dir = Path(pred_dir), Path(truth_dir)
    preds = {p.name: p for p in sorted(pred_dir.glob("*.mvol"))}
    truths = {p.name: p for p in sorted(truth_dir.glob("*.mvol"))}
    missing = sorted(set(truths) - set(preds)) + sorted(set(preds) - set(truths))
    pairs = []
    for name in sorted(set(preds) & set(truths)):
        pred = read_volume(preds[name]).data
        truth = read_volume(truths[name]).data
        if pred.shape != truth.shape:
            raise DataError(f"{preds[name]}: shape {pred.shape} differs from the truth "
                            f"mask's {truth.shape}")
        for path, mask in ((preds[name], pred), (truths[name], truth)):
            if not ((mask == 0) | (mask == 1)).all():
                raise DataError(f"{path}: mask must be binary, found values "
                                f"{np.unique(mask)[:5]}")
        pairs.append((name, pred, truth))
    if not pairs:
        raise DataError("no matching mask files to evaluate")
    report = _segmentation_metrics(pairs)
    report["missing"] = missing
    return report


def evaluate_survival_files(pred_csv, truth_csv) -> dict:
    """C-index of a predictions CSV (id,risk) against the labels of a
    cohort CSV; only the truth file's id, time and event columns are read."""
    truth_ids, times, events = load_labels(truth_csv)
    ids, risks = load_predictions(pred_csv)
    row = dict(zip(truth_ids, range(len(truth_ids))))
    rows = np.fromiter((row.get(sid, -1) for sid in ids), np.intp, len(ids))
    found = rows >= 0
    if found.sum() < 2:
        raise DataError("fewer than two matched predictions")
    report = _survival_metrics(times[rows[found]], risks[found], events[rows[found]])
    report["missing"] = [sid for sid, hit in zip(ids, found.tolist()) if not hit]
    return report


def convert_si_dir(in_dir, out_dir, grid: tuple[int, int] | None = None) -> list[str]:
    """Turn each volume MVOL into a single-slice super-image MVOL + sidecar,
    on the given (sh, sw) grid or, by default, each volume's own."""
    in_dir, out_dir = Path(in_dir), Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    errors = []
    for path in sorted(in_dir.glob("*.mvol")):
        try:
            volume = read_volume(path)
            stack = volume.data[..., None]
            layout = SuperImageLayout.for_volume(stack.shape, grid=grid)
            si = to_super_image(stack, layout)
            flat = Volume(si[:, :, 0][:, :, None], volume.spacing, volume.modality)
            write_volume(flat, out_dir / path.name)
            sidecar = dict(layout.to_json(), modality=volume.modality,
                           spacing=list(volume.spacing))
            write_atomic(out_dir / (path.stem + ".si.json"),
                         json.dumps(sidecar, indent=2, sort_keys=True).encode())
        except OncokitError as exc:
            errors.append(f"{path.name}: {exc}")
    return errors


def invert_si_dir(in_dir, out_dir) -> list[str]:
    """Inverse of ``convert_si_dir`` using the layout sidecars."""
    in_dir, out_dir = Path(in_dir), Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    errors = []
    for path in sorted(in_dir.glob("*.mvol")):
        sidecar = in_dir / (path.stem + ".si.json")
        try:
            if not sidecar.exists():
                raise DataError(f"missing sidecar {sidecar.name}")
            try:
                raw = sidecar.read_bytes()
            except OSError as exc:
                raise DataError(f"{sidecar.name}: cannot read: {exc.strerror or exc}") from None
            with malformed(sidecar.name):
                meta = json.loads(raw)
                layout = SuperImageLayout.from_json(meta)
                spacing = tuple(float(s) for s in meta["spacing"])
                modality = str(meta["modality"])
            flat = read_volume(path)
            volume = from_super_image(flat.data[:, :, 0][:, :, None], layout)
            restored = Volume(volume[:, :, :, 0], spacing, modality)
            write_volume(restored, out_dir / path.name)
        except OncokitError as exc:
            errors.append(f"{path.name}: {exc}")
    return errors
