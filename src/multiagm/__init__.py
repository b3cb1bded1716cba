"""Multivalued arithmetic-geometric mean clouds of elliptic integrals.

Repeated square roots give the AGM-style iterations a free sign at every
step; sweeping those signs turns K, F, E, E/K and the Jacobi Zeta function
into point clouds in the complex plane.  This package computes the clouds,
predicts the lattices and circles they are expected to populate, and
measures the fit.

The names below are the public entry points; everything else stays
importable from its own module (`multiagm.roots`, `multiagm.engine`,
`multiagm.oracle`, `multiagm.clouds`, `multiagm.lattice`, `multiagm.magm`).
"""

from .engine import SignSchedule, QuartetParams, run_quartet, complete_K, incomplete_F, complete_E, jacobi_Z
from .oracle import reference_set, complete_from_complement, quad_F, quad_E_inc, landen_check
from .clouds import CloudRequest, enumerate_cloud
from .lattice import CircleSpec, predict_locus, fit_cloud
from .magm import MagmTriplet, magm_step, magm_equivalence, magm_negative_experiment

__version__ = "0.1.0"

__all__ = [
    "SignSchedule",
    "QuartetParams",
    "run_quartet",
    "complete_K",
    "incomplete_F",
    "complete_E",
    "jacobi_Z",
    "reference_set",
    "complete_from_complement",
    "quad_F",
    "quad_E_inc",
    "landen_check",
    "CloudRequest",
    "enumerate_cloud",
    "CircleSpec",
    "predict_locus",
    "fit_cloud",
    "MagmTriplet",
    "magm_step",
    "magm_equivalence",
    "magm_negative_experiment",
]
