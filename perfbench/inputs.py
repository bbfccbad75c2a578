"""Seeded inputs for each workload, made with ``oncokit.synthetic``.

Each workload trains on a cohort drawn from the seed and scores a held-out
cohort drawn from seed + 1 (``test/`` for the imaging workloads, with their
truth masks in ``truth/``; ``score.csv`` for surv-cohort).

Inputs are cached under ``<work>/inputs/<workload>-s<seed>-v<INPUTS_VERSION>``;
a ``complete`` file written last marks a finished set, so an interrupted
generation is redone. Making inputs is never timed.
"""

from __future__ import annotations

import shutil
from pathlib import Path

INPUTS_VERSION = 5

# seg-unet: 1 mm isotropic volumes, so preprocessing resamples nothing.
# Batch 8 is the minibatch of the program's segmentation acceptance test
# (tests/test_acceptance.py, criterion 6); 8 training subjects per fold make
# it one step per epoch. Six epochs are six steps: with two, the seg3d fold
# models of some seeds scored a lower test DSC than an untrained U-Net. That
# test's 32 x 32 x 16 volumes are 8x the voxels of these; a round at that
# size outlasts a whole run (see README.md).
SEG = {"n": 16, "n_test": 36, "shape": (16, 16, 8), "beta": (1.0, 0.5),
       "censor": 0.2, "folds": 2, "epochs": 6, "batch": 8, "lr": 1e-2}
# tmss-joint: raw volumes at 0.5 x 0.5 x 1.0 mm; resampling to 1 mm halves
# the in-plane extents to the 16 x 16 x 8 grid the model sees, the grid of
# the program's TMSS acceptance test (criterion 9), as are batch 10, lr,
# survival weight, patch, intervals and decoder width. Light censoring
# keeps every 6-subject validation fold with comparable pairs.
TMSS = {"n": 18, "n_test": 24, "raw_shape": (32, 32, 8), "spacing": (0.5, 0.5, 1.0),
        "beta": (1.4, 0.8), "censor": 0.1, "folds": 3, "epochs": 2, "batch": 10,
        "lr": 2e-3, "survival_weight": 2.0, "patch": 4, "intervals": 5,
        "decoder_width": 8}
# surv-cohort: tabular only
SURV = {"n": 20000, "n_score": 5000, "beta": (0.8, -0.5, 0.3, 0.0, 0.6),
        "censor": 0.3, "folds": 2, "intervals": 16, "iterations": 10,
        "fit_lr": 0.05}


def make_inputs(workload: str, seed: int, work: Path) -> Path:
    """Return the input directory for (workload, seed), generating it once."""
    out = work / "inputs" / f"{workload}-s{seed}-v{INPUTS_VERSION}"
    if (out / "complete").exists():
        return out
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    if workload == "seg-unet":
        _seg_inputs(out, seed)
    elif workload == "tmss-joint":
        _tmss_inputs(out, seed)
    elif workload == "surv-cohort":
        _surv_inputs(out, seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    (out / "complete").write_text("ok\n")
    return out


def _seg_inputs(out: Path, seed: int) -> None:
    from oncokit.experiment import write_synthetic_dataset

    for name, n, cohort_seed in (("data", SEG["n"], seed), ("test", SEG["n_test"], seed + 1)):
        write_synthetic_dataset(out / name, n=n, seed=cohort_seed, beta=list(SEG["beta"]),
                                censor_frac=SEG["censor"], with_volumes=True,
                                volume_shape=SEG["shape"])
    truth = out / "truth"
    truth.mkdir()
    for path in sorted((out / "test" / "volumes").glob("*_mask.mvol")):
        shutil.copyfile(path, truth / path.name)


def _tmss_inputs(out: Path, seed: int) -> None:
    from oncokit.ehr import save_ehr
    from oncokit.preprocess import resample_isotropic
    from oncokit.synthetic import gen_synthetic_cohort
    from oncokit.volume import Volume, write_volume

    truth = out / "truth"
    truth.mkdir()
    for name, n, cohort_seed in (("data", TMSS["n"], seed), ("test", TMSS["n_test"], seed + 1)):
        cohort, vols = gen_synthetic_cohort(n, cohort_seed, list(TMSS["beta"]),
                                            censor_frac=TMSS["censor"], with_volumes=True,
                                            volume_shape=TMSS["raw_shape"])
        (out / name / "volumes").mkdir(parents=True)
        for s in cohort.subjects:
            for kind, table in (("ct", vols.ct), ("pet", vols.pet), ("mask", vols.mask)):
                raw = Volume(table[s.id].data, TMSS["spacing"], table[s.id].modality)
                write_volume(raw, out / name / "volumes" / f"{s.id}_{kind}.mvol")
                # the evaluation truth is the test mask on the 1 mm model grid
                if name == "test" and kind == "mask":
                    write_volume(resample_isotropic(raw), truth / f"{s.id}_mask.mvol")
        save_ehr(cohort, out / name / "ehr.csv")


def _surv_inputs(out: Path, seed: int) -> None:
    from oncokit.ehr import save_ehr
    from oncokit.experiment import write_synthetic_dataset
    from oncokit.synthetic import gen_synthetic_cohort

    write_synthetic_dataset(out / "data", n=SURV["n"], seed=seed,
                            beta=list(SURV["beta"]), censor_frac=SURV["censor"])
    score = gen_synthetic_cohort(SURV["n_score"], seed + 1, list(SURV["beta"]),
                                 censor_frac=SURV["censor"])
    save_ehr(score, out / "score.csv")
