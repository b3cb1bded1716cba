"""Multivalued arithmetic-geometric mean clouds of elliptic integrals.

Repeated square roots give the AGM-style iterations a free sign at every
step; sweeping those signs turns K, F, E, E/K and the Jacobi Zeta function
into point clouds in the complex plane.  This package computes the clouds,
predicts the lattices and circles they are expected to populate, and
measures the fit.
"""

from .roots import principal_sqrt, signed_root, near_root, forward_s_root, zeta_root
from .engine import (
    SignSchedule,
    QuartetParams,
    QuartetTrace,
    quartet_step,
    run_quartet,
    complete_K,
    incomplete_F,
    complete_E,
    jacobi_Z,
)
from .oracle import (
    ReferenceSet,
    reference_set,
    ref_complete,
    complete_from_complement,
    adaptive_simpson,
    quad_F,
    quad_E_inc,
    landen_check,
    q_zeta,
)
from .clouds import (
    CLOUD_KINDS,
    MultivaluePoint,
    CloudRequest,
    restricted_zeta_schedule,
    enumerate_cloud,
)
from .lattice import LatticeSpec, CircleSpec, PointFit, FitReport, predict_locus, fit_cloud
from .magm import (
    MagmTriplet,
    magm_step,
    run_magm,
    magm_rows_plus,
    gauss_series_rows,
    MagmEquivalence,
    magm_equivalence,
    MagmOutcome,
    magm_negative_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "principal_sqrt",
    "signed_root",
    "near_root",
    "forward_s_root",
    "zeta_root",
    "SignSchedule",
    "QuartetParams",
    "QuartetTrace",
    "quartet_step",
    "run_quartet",
    "complete_K",
    "incomplete_F",
    "complete_E",
    "jacobi_Z",
    "ReferenceSet",
    "reference_set",
    "ref_complete",
    "complete_from_complement",
    "adaptive_simpson",
    "quad_F",
    "quad_E_inc",
    "landen_check",
    "q_zeta",
    "CLOUD_KINDS",
    "MultivaluePoint",
    "CloudRequest",
    "restricted_zeta_schedule",
    "enumerate_cloud",
    "LatticeSpec",
    "CircleSpec",
    "PointFit",
    "FitReport",
    "predict_locus",
    "fit_cloud",
    "MagmTriplet",
    "magm_step",
    "run_magm",
    "magm_rows_plus",
    "gauss_series_rows",
    "MagmEquivalence",
    "magm_equivalence",
    "MagmOutcome",
    "magm_negative_experiment",
]
