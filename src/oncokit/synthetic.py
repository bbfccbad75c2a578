"""Synthetic cohorts with known ground truth.

Covariates are standard normal and event times follow a Weibull
proportional-hazards model sampled by exact inverse-CDF:

    T = (-ln U / (lam * exp(beta . x))) ** (1 / rho)

so a fitted proportional-hazards model should recover ``beta``. Censoring
is an independent Uniform(0, c_max) time with c_max calibrated on the
realized event times so the expected censored fraction matches the request.

With ``with_volumes`` each subject also gets a CT/PET/mask triplet: an
ellipsoidal tumor whose size grows monotonically with covariate 0, a PET
hotspot inside the tumor, and a CT-like background (air plus a soft-tissue
body ellipse in raw HU-like units).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ehr import Cohort
from .errors import ContractError
from .volume import Volume

_WEIBULL = (0.05, 1.5)      # (lam, rho) of the planted event times


def sample_weibull_times(eta: np.ndarray, lam: float, rho: float,
                         rng: np.random.Generator) -> np.ndarray:
    """Event times with hazard lam * rho * t**(rho-1) * eta per subject."""
    u = rng.uniform(1e-12, 1.0, size=eta.shape)
    return (-np.log(u) / (lam * eta)) ** (1.0 / rho)


def calibrate_uniform_censoring(times: np.ndarray, censor_frac: float,
                                rng: np.random.Generator):
    """Draw C ~ Uniform(0, c_max) with c_max solved so that the expected
    fraction of subjects with C < T equals censor_frac on this sample.

    Returns (observed_times, events).
    """
    if not 0.0 <= censor_frac < 1.0:
        raise ContractError("censor_frac must be in [0, 1)")
    n = times.shape[0]
    if censor_frac == 0.0:
        return times.copy(), np.ones(n, dtype=np.int64)

    def expected_censored(c_max):
        # P(C < t) for C ~ U(0, c_max) is min(t / c_max, 1)
        return float(np.minimum(times / c_max, 1.0).mean())

    lo, hi = float(times.min()) * 1e-6, float(times.max()) * 1e6
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if expected_censored(mid) > censor_frac:
            lo = mid
        else:
            hi = mid
    c_max = 0.5 * (lo + hi)
    censor_times = rng.uniform(0.0, c_max, size=n)
    events = (times <= censor_times).astype(np.int64)
    observed = np.minimum(times, censor_times)
    observed = np.maximum(observed, 1e-9)
    return observed, events


@dataclass
class SyntheticVolumes:
    """CT/PET/mask triplets aligned with a generated cohort, by subject id."""
    ct: dict[str, Volume]
    pet: dict[str, Volume]
    mask: dict[str, Volume]


def make_tumor_volumes(rng: np.random.Generator, shape: tuple[int, int, int],
                       tumor_scale: float) -> tuple[Volume, Volume, Volume]:
    """One CT/PET/mask triplet; tumor voxel count grows with tumor_scale."""
    h, w, d = shape
    ih = np.arange(h)[:, None, None]
    iw = np.arange(w)[None, :, None]
    idd = np.arange(d)[None, None, :]

    base = 0.14 * min(h, w)
    radius = base * (1.0 + 0.45 * np.tanh(tumor_scale))
    jitter = rng.uniform(-0.08, 0.08, size=3)
    ch = h / 2.0 + jitter[0] * h
    cw = w / 2.0 + jitter[1] * w
    cd = d / 2.0 + jitter[2] * d
    rz = max(radius * d / max(h, w), 1.5)
    dist = (((ih - ch) / radius) ** 2 + ((iw - cw) / radius) ** 2
            + ((idd - cd) / rz) ** 2)
    mask = (dist <= 1.0).astype(np.float32)
    if mask.sum() == 0:
        mask[int(ch) % h, int(cw) % w, int(cd) % d] = 1.0

    body = (((ih - h / 2) / (0.46 * h)) ** 2 + ((iw - w / 2) / (0.46 * w)) ** 2) <= 1.0
    ct = np.where(body, 40.0, -1000.0) + rng.normal(0.0, 30.0, size=shape)
    ct = ct + mask * 25.0

    pet = np.abs(rng.normal(0.3, 0.15, size=shape))
    pet = pet + mask * (3.5 + 0.8 * rng.random())

    return (
        Volume(ct.astype(np.float32), (1.0, 1.0, 1.0), "CT"),
        Volume(pet.astype(np.float32), (1.0, 1.0, 1.0), "PET"),
        Volume(mask, (1.0, 1.0, 1.0), "MASK"),
    )


def gen_synthetic_cohort(n: int, seed: int, beta, censor_frac: float = 0.0,
                         with_volumes: bool = False,
                         volume_shape: tuple[int, int, int] = (32, 32, 16),
                         n_centers: int = 2):
    """Generate a cohort of ``n`` subjects under a planted linear hazard,
    with Weibull event times (lam, rho) = ``_WEIBULL``.

    Returns the cohort, or (cohort, SyntheticVolumes) when ``with_volumes``.
    Covariate 0 doubles as the tumor-size driver for generated volumes.
    """
    if n < 2:
        raise ContractError("need at least 2 subjects")
    beta = np.asarray(beta, dtype=np.float64)
    lam, rho = _WEIBULL
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(size=(n, beta.shape[0]))
    eta = np.exp(x @ beta)
    true_times = sample_weibull_times(eta, lam, rho, rng)
    observed, events = calibrate_uniform_censoring(true_times, censor_frac, rng)

    ids = [f"s{i:05d}" for i in range(n)]
    cohort = Cohort(ids, observed, events, x, [f"x{j}" for j in range(beta.shape[0])],
                    centers=[f"c{i % n_centers}" for i in range(n)])
    if not with_volumes:
        return cohort

    vols = SyntheticVolumes({}, {}, {})
    for i, sid in enumerate(ids):
        ct, pet, mask = make_tumor_volumes(rng, volume_shape, x[i, 0])
        vols.ct[sid] = ct
        vols.pet[sid] = pet
        vols.mask[sid] = mask
    return cohort, vols
