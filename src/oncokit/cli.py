"""Command-line surface.

Verbs:
    synth         generate a synthetic cohort (EHR CSV + optional volumes)
    prep          preprocess a volume directory (window/z-score/resample)
    convert si    volumes <-> super images (with layout sidecars)
    train         run an experiment from a JSON config (--set overrides)
    predict       per-subject risk CSV from a saved survival model
    eval          compare predictions against ground truth
    stats model   parameter / MAC accounting for an architecture

Exit codes: 0 success, 2 configuration error, 3 data/format error (a
metric the data leave undefined included), 4 numeric divergence.
``ONCOKIT_THREADS`` caps the numeric worker pools; importing the package
applies it (see ``oncokit/__init__.py``).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .errors import (
    ConfigError,
    ContractError,
    DataError,
    DivergenceError,
    EvaluationError,
    FormatError,
    NumericError,
    OncokitError,
    ShapeError,
    write_atomic,
)

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _parse_overrides(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            out[key] = json.loads(raw)
        except json.JSONDecodeError:
            out[key] = raw
    return out


def _extents(text: str, flag: str, rank: int) -> tuple[int, ...]:
    """Parse ``rank`` positive integers joined by "x" (e.g. 32x32x16)."""
    try:
        extents = tuple(int(v) for v in text.lower().split("x"))
    except ValueError:
        extents = ()
    if len(extents) != rank or min(extents) < 1:
        raise ConfigError(f"{flag} expects {rank} positive integers joined by 'x', got {text!r}")
    return extents


def _check(ok: bool, flag: str, wanted: str, value) -> None:
    if not ok:
        raise ConfigError(f"{flag} must be {wanted}, got {value!r}")


def _input_dir(text: str) -> Path:
    _check(Path(text).is_dir(), "--input", "an existing directory", text)
    return Path(text)


def _out_file(text: str) -> Path:
    """``--out`` as a file path whose directory exists, made if missing."""
    path = Path(text)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def cmd_synth(args) -> int:
    from .experiment import write_synthetic_dataset

    _check(args.n >= 2, "--n", "at least 2", args.n)
    _check(args.seed >= 0, "--seed", "at least 0", args.seed)
    _check(0.0 <= args.censor_frac < 1.0, "--censor-frac", "in [0, 1)", args.censor_frac)
    _check(args.centers >= 1, "--centers", "at least 1", args.centers)
    shape = _extents(args.volume_shape, "--volume-shape", 3)
    try:
        beta = [float(b) for b in args.beta.split(",")]
    except ValueError:
        beta = [float("nan")]
    if not all(math.isfinite(b) for b in beta):
        raise ConfigError(f"--beta expects comma-separated numbers, got {args.beta!r}")
    write_synthetic_dataset(args.out, n=args.n, seed=args.seed, beta=beta,
                            censor_frac=args.censor_frac,
                            with_volumes=args.volumes, volume_shape=shape,
                            n_centers=args.centers)
    print(f"wrote synthetic cohort of {args.n} subjects to {args.out}")
    return 0


def cmd_prep(args) -> int:
    from .preprocess import ct_window_normalize, pet_zscore, resample_isotropic
    from .volume import read_volume, write_volume

    _check(0.0 < args.spacing < math.inf, "--spacing", "a positive number", args.spacing)
    in_dir, out_dir = _input_dir(args.input), Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    count, errors = 0, []
    for path in sorted(in_dir.glob("*.mvol")):
        try:
            volume = read_volume(path)
        except FormatError as exc:       # listed; the other files are still prepped
            errors.append(f"{path.name}: {exc}")
            continue
        if volume.modality == "CT":
            if volume.data.min() >= -1.0 and volume.data.max() <= 1.0:
                # prep's own output: going on would normalize its other
                # volumes twice, so the whole run stops here
                raise DataError(f"{path}: every CT value lies in [-1, 1], as windowing "
                                f"leaves them; prep reads raw volumes, not its own output")
            volume = ct_window_normalize(volume)
        elif volume.modality == "PET":
            volume = pet_zscore(volume)
        volume = resample_isotropic(volume, args.spacing)
        write_volume(volume, out_dir / path.name)
        count += 1
    print(f"prepped {count} volumes into {out_dir}")
    for line in errors:
        print(f"error: {line}", file=sys.stderr)
    return EXIT_DATA if errors else 0


def cmd_convert_si(args) -> int:
    from .experiment import convert_si_dir, invert_si_dir

    grid = None if args.invert or args.grid == "auto" else _extents(args.grid, "--grid", 2)
    in_dir = _input_dir(args.input)
    if args.invert:
        errors = invert_si_dir(in_dir, args.out)
    else:
        errors = convert_si_dir(in_dir, args.out, grid=grid)
    for line in errors:
        print(f"error: {line}", file=sys.stderr)
    return EXIT_DATA if errors else 0


def cmd_train(args) -> int:
    from .experiment import ExperimentConfig, run_experiment

    overrides = _parse_overrides(args.set or [])
    cfg = ExperimentConfig.from_json(args.config, overrides)
    report = run_experiment(cfg)
    print(report.to_json())
    return 0


def cmd_predict(args) -> int:
    from .cox import cox_cohort_risks, cox_from_json
    from .ehr import load_ehr, save_predictions
    from .mtlr import mtlr_cohort_risks, mtlr_from_json

    try:
        cohort = load_ehr(args.ehr)
        model_obj = json.loads(Path(args.model).read_text())
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read predict input: {exc}") from exc
    if not isinstance(model_obj, dict):
        raise DataError(f"{args.model}: not a model object")
    kind = model_obj.get("type")
    if kind == "cox":
        model, cohort_risks = cox_from_json(model_obj, args.model), cox_cohort_risks
    elif kind in ("mtlr", "nmtlr"):
        model, cohort_risks = mtlr_from_json(model_obj, args.model), mtlr_cohort_risks
    else:
        raise ConfigError(f"{args.model}: unknown model type {kind!r}")
    if cohort.feature_names != model.feature_names:
        raise DataError(f"{args.ehr} has features {cohort.feature_names}, but "
                        f"{args.model} was fit on {model.feature_names}")
    save_predictions(cohort.ids, cohort_risks(model, cohort), _out_file(args.out))
    print(f"wrote {len(cohort)} risk predictions to {args.out}")
    return 0


def cmd_eval(args) -> int:
    from .experiment import evaluate_segmentation_dirs, evaluate_survival_files

    if args.task == "seg":
        report = evaluate_segmentation_dirs(args.pred, args.truth)
    else:
        report = evaluate_survival_files(args.pred, args.truth)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        write_atomic(_out_file(args.out), text.encode("utf-8"))
    print(text)
    return EXIT_DATA if report.get("missing") else 0


def cmd_stats_model(args) -> int:
    from .segnets import model_stats, unet_layer_specs, unetr_layer_specs
    from .vit import EncoderConfig

    for flag, least in (("width", 1), ("patch", 1), ("embed", 1), ("layers", 1),
                        ("heads", 1), ("depth", 0)):
        _check(getattr(args, flag) >= least, f"--{flag}", f"at least {least}",
               getattr(args, flag))
    rank = 2 if args.arch == "unet2d" else 3
    extents = _extents(args.input, "--input", rank)
    try:
        if args.arch in ("unet2d", "unet3d"):
            stats = model_stats(unet_layer_specs(rank, 2, args.depth, args.width), extents)
        else:
            cfg = EncoderConfig(extents, 2, args.patch, args.embed, args.layers,
                                args.heads)
            stats = model_stats(unetr_layer_specs(cfg, width=args.width), extents)
    except (ShapeError, ContractError) as exc:    # the model does not fit these settings
        raise ConfigError(str(exc)) from exc
    print(json.dumps(stats, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="oncokit",
                                     description="tumor segmentation and survival toolkit")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("synth", help="generate a synthetic cohort")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--beta", default="1.0,-0.5", help="comma-separated effect sizes")
    p.add_argument("--censor-frac", type=float, default=0.2)
    p.add_argument("--volumes", action="store_true")
    p.add_argument("--volume-shape", default="32x32x16")
    p.add_argument("--centers", type=int, default=2)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("prep", help="normalize and resample volumes")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--spacing", type=float, default=1.0)
    p.set_defaults(func=cmd_prep)

    p = sub.add_parser("convert", help="format conversions")
    convert_sub = p.add_subparsers(dest="what", required=True)
    psi = convert_sub.add_parser("si", help="volumes <-> super images")
    psi.add_argument("--input", required=True)
    psi.add_argument("--out", required=True)
    psi.add_argument("--grid", default="auto", help="'auto' or SHxSW")
    psi.add_argument("--invert", action="store_true")
    psi.set_defaults(func=cmd_convert_si)

    p = sub.add_parser("train", help="run an experiment from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="risk CSV from a saved survival model")
    p.add_argument("--model", required=True)
    p.add_argument("--ehr", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="compare predictions with ground truth")
    p.add_argument("--task", choices=("seg", "surv"), required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("stats", help="model accounting")
    stats_sub = p.add_subparsers(dest="what", required=True)
    pm = stats_sub.add_parser("model", help="parameters and MACs")
    pm.add_argument("--arch", choices=("unet2d", "unet3d", "unetr"), required=True)
    pm.add_argument("--input", required=True, help="HxW or HxWxD")
    pm.add_argument("--depth", type=int, default=4)
    pm.add_argument("--width", type=int, default=16)
    pm.add_argument("--patch", type=int, default=16)
    pm.add_argument("--embed", type=int, default=768)
    pm.add_argument("--layers", type=int, default=12)
    pm.add_argument("--heads", type=int, default=12)
    pm.set_defaults(func=cmd_stats_model)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, FormatError, EvaluationError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (DivergenceError, NumericError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OncokitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
