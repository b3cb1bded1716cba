"""Modified AGM on triplets and its equivalence with the Gauss series.

The all-positive triplet iteration reproduces, row by row, the partial
sums of the weighted square-difference series of the classical AGM, and
its limit is the ratio E/K.  Negative root choices destroy that
correspondence; `magm_negative_experiment` records what happens instead.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from itertools import islice

from .lattice import fit_cloud, predict_locus
from .oracle import agm_series, complete_from_complement, reference_set
from .roots import principal_sqrt, signed_root

__all__ = [
    "MagmTriplet",
    "magm_step",
    "run_magm",
    "magm_rows_plus",
    "gauss_series_rows",
    "MagmEquivalence",
    "magm_equivalence",
    "MagmOutcome",
    "magm_negative_experiment",
    "DEFAULT_ROWS",
]

# The row count of an equivalence check or a sign experiment when none is given.
DEFAULT_ROWS = 20

# The shifted pair of `magm_rows_plus` grows as 2**rows; its
# (sqrt(p) + sqrt(r))**2 < 2**(rows + 1) stays below the float range
# (2**1024) for every b in (0, 1) up to this many rows.
MAX_EQUIVALENCE_ROWS = 1023

# The direct triplet update carries rounding noise amplified by 2**rows
# (about 2e-10 at 20 rows), so convergence of an experiment run is judged
# against a floor above that, not against machine precision.
_EXPERIMENT_CONV_TOL = 1e-9


class MagmTriplet(namedtuple("MagmTriplet", "x y z")):
    """One row of the triplet iteration."""

    __slots__ = ()
    x: complex
    y: complex
    z: complex


def magm_step(t: MagmTriplet, sign: int = 1) -> MagmTriplet:
    """One triplet update with an explicit root sign.

    The root of ``(x-z)(y-z)`` is taken nearer to the mean of the two
    factors, matching the geometric-mean convention used everywhere else.
    """
    p, r = t.x - t.z, t.y - t.z
    y_next = t.z + sign * signed_root(p * r, p + r)
    x_next = (t.x + t.y) / 2
    return MagmTriplet(x=x_next, y=y_next, z=2 * t.z - y_next)


def run_magm(b: float, rows: int, sign_mask: int = 0) -> list[MagmTriplet]:
    """Iterate from (1, b**2, 0); bit n of ``sign_mask`` negates the root at step n."""
    t = MagmTriplet(complex(1.0), complex(b) * complex(b), complex(0.0))
    out = [t]
    for n in range(rows):
        t = magm_step(t, -1 if (sign_mask >> n) & 1 else 1)
        out.append(t)
    return out


def magm_rows_plus(b: float, rows: int) -> list[MagmTriplet]:
    """All-positive triplet rows in a cancellation-free form.

    ``z`` drifts to minus infinity roughly doubling per step, so the
    direct update loses the x, y values to rounding amplified by 2**n.
    Iterating the shifted pair ``p = x-z, r = y-z`` together with the gap
    ``d = x-y`` (updated as ``d' = d**2 / (2 (sqrt(p)+sqrt(r))**2)``)
    performs the same map with only benign same-sign additions.
    """
    x = complex(1.0)
    bsq = complex(b) * complex(b)
    d = 1 - bsq
    p, r = complex(1.0), bsq
    out = [MagmTriplet(x, x - d, x - p)]
    for _ in range(rows):
        sp, sr = principal_sqrt(p), principal_sqrt(r)
        root = sp * sr
        x = x - d / 2
        d = d * d / (2 * (sp + sr) ** 2)
        p, r = (p + r) / 2 + root, 2 * root
        out.append(MagmTriplet(x, x - d, x - p))
    return out


def gauss_series_rows(b: float, rows: int) -> list[complex]:
    """Partial values 1 - S_n of the weighted square-difference AGM series.

    S_n sums ``2**(j-1) (a_j**2 - g_j**2)`` over j < n for the plain
    AGM(1, b), read off `oracle.agm_series`, whose exact pair update keeps
    the late terms exact instead of 2**n-amplified subtraction noise.
    """
    out = []
    before = complex(0.0)
    for _, _, total in islice(agm_series(b), rows + 1):
        out.append(1 - before)
        before = total
    return out


class MagmEquivalence(namedtuple("MagmEquivalence", "max_row_deviation limit limit_deviation")):
    """Worst row deviation from the Gauss series, the triplet limit, and its deviation from E/K."""

    __slots__ = ()
    max_row_deviation: float
    limit: complex
    limit_deviation: float


def magm_equivalence(b: float, rows: int = DEFAULT_ROWS) -> MagmEquivalence:
    """Row-by-row deviation |x_n - (1 - S_n)| plus the limit error against E/K."""
    if not 0.0 < b < 1.0:
        raise ValueError("b must lie in (0, 1)")
    if not 0 <= rows <= MAX_EQUIVALENCE_ROWS:
        raise ValueError(f"rows must lie in [0, {MAX_EQUIVALENCE_ROWS}]")
    triplets = magm_rows_plus(b, rows)
    partials = gauss_series_rows(b, rows)
    max_dev = max(abs(triplets[n].x - partials[n]) for n in range(rows + 1))
    K_k, E_k = complete_from_complement(b)
    limit = triplets[-1].x
    return MagmEquivalence(max_row_deviation=max_dev, limit=limit, limit_deviation=abs(limit - E_k / K_k))


class MagmOutcome(namedtuple("MagmOutcome", "converged limit lattice_distance")):
    """Recorded result of one signed run: no claims, just what happened."""

    __slots__ = ()
    converged: bool
    limit: complex | None
    lattice_distance: float | None


def magm_negative_experiment(b: float, sign_mask: int, rows: int = DEFAULT_ROWS) -> MagmOutcome:
    """Run the signed triplet iteration and record convergence behaviour.

    If the iteration converges, the limit is scaled by K(k) and its
    distance to the nearest point of the E lattice is recorded; divergent
    or non-finite runs are recorded as such rather than raised.
    """
    if not 0.0 < b < 1.0:
        raise ValueError("b must lie in (0, 1)")
    if rows < 0:
        raise ValueError("rows must be nonnegative")
    triplets = run_magm(b, rows, sign_mask)
    last = triplets[-1]
    finite = all(cmath.isfinite(w) for w in (last.x, last.y, last.z))
    gap = abs(last.x - last.y)
    converged = bool(finite and gap <= _EXPERIMENT_CONV_TOL * max(1.0, abs(last.x)))
    if not converged:
        return MagmOutcome(False, None, None)
    refs = reference_set(b=b)
    spec = predict_locus("E", refs)
    report = fit_cloud([last.x * refs.K_k], spec, tol=math.inf)
    return MagmOutcome(True, last.x, report.points.residual[0])
