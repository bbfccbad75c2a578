"""Desk-scale toolkit: volumetric tumor segmentation and survival modeling.

``ONCOKIT_THREADS`` caps the numeric worker pools. Importing the package
copies it into the OpenMP, OpenBLAS, MKL and numexpr thread variables that
are not already set, so it takes effect when oncokit is imported before
numpy; a thread variable set explicitly keeps its value.
"""

import os

__version__ = "0.1.0"

if os.environ.get("ONCOKIT_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(_var, os.environ["ONCOKIT_THREADS"])
