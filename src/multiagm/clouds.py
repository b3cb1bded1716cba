"""Sign-schedule sweeps producing multivalue point clouds.

One cloud fixes the recursion parameters and sweeps the free sign bits its
function reads in descending mask order, evaluating the function for every
schedule.  Near-coincident values are cross-referenced instead of
dropped, and each point is built once, with its link.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import repeat

from .engine import (
    QuartetParams,
    QuartetTrace,
    SignSchedule,
    complete_E,
    complete_K,
    incomplete_F,
    sweep_quartet,
    sweep_sigma,
    zeta_sum,
)

__all__ = [
    "KIND_BITS",
    "CLOUD_KINDS",
    "MultivaluePoint",
    "CloudRequest",
    "enumerate_cloud",
    "DUPLICATE_RTOL",
]

# The sign bits each kind's value reads; a kind reads the amplitude pair if it reads delta bits.
# Z_restricted's zeta sign at iteration n repeats its forward sign of iteration n-1.
KIND_BITS = {
    "K": ("sigma_bits",),
    "F": ("sigma_bits", "delta_bits"),
    "E": ("sigma_bits",),
    "N": ("sigma_bits",),
    "Z": ("sigma_bits", "delta_bits", "gamma_bits"),
    "Z_restricted": ("delta_bits",),
}

CLOUD_KINDS = tuple(KIND_BITS)

# Two points closer than this times the cloud scale count as one value.
DUPLICATE_RTOL = 1e-9


@dataclass(frozen=True, slots=True)
class MultivaluePoint:
    """One computed multivalue with its provenance.

    ``duplicate_of`` points at the earliest unflagged point of the same
    cloud carrying the same value, if any.  ``ill_conditioned`` is set
    when the trace was flagged or failed to converge.
    """

    value: complex
    schedule: SignSchedule
    signb: int
    ill_conditioned: bool
    duplicate_of: int | None = None

    @property
    def generation(self) -> int:
        """The schedule's generation: the schedule fixes it, so no field stores it."""
        return self.schedule.generation()


@dataclass(frozen=True)
class CloudRequest:
    """A sweep request: which function, which parameters, how many free bits of each sort its kind reads."""

    kind: str
    params: QuartetParams
    sigma_bits: int = 0
    delta_bits: int = 0
    gamma_bits: int = 0

    def __post_init__(self) -> None:
        reads = KIND_BITS.get(self.kind)
        if reads is None:
            raise ValueError(f"unknown cloud kind {self.kind!r}")
        for name in ("sigma_bits", "delta_bits", "gamma_bits"):
            bits = getattr(self, name)
            if bits < 0:
                raise ValueError(f"{name} must be nonnegative")
            if bits > self.params.max_iter:
                raise ValueError(f"{name} exceeds max_iter")
            if bits and name not in reads:
                raise ValueError(f"{self.kind} reads {' and '.join(reads)} only; {name} must be 0")


def _extract(kind: str, trace: QuartetTrace) -> complex:
    if kind == "K":
        return complete_K(trace)
    if kind == "E":
        return complete_E(trace)
    if kind == "N":
        k_val = complete_K(trace)
        if k_val == 0 or not cmath.isfinite(k_val):
            return complex(math.nan, math.nan)
        return complete_E(trace) / k_val
    # F; Zeta values are signed per schedule by `zeta_sum`
    return complex(math.nan, math.nan) if trace.u_inf == 0 else incomplete_F(trace, 0)


def _mark_duplicates(values: list[complex], flags: list[bool]) -> list[int | None]:
    """Each position's ``duplicate_of``: the earliest unflagged finite match, or None."""
    scale = max((abs(v) for v, flag in zip(values, flags) if not flag and cmath.isfinite(v)), default=0.0)
    if scale == 0.0:
        scale = 1.0
    threshold = DUPLICATE_RTOL * scale
    # Points closer than the threshold lie in the same or adjacent grid
    # cells; the factor 2 leaves room for rounding in the division.  A
    # threshold that underflows to zero matches nothing, so any cell works.
    cell = 2.0 * threshold or 1.0
    grid: dict[tuple[int, int], list[int]] = {}
    links: list[int | None] = []
    for i, (value, flag) in enumerate(zip(values, flags)):
        dup = None
        if not flag and cmath.isfinite(value):
            cx = math.floor(value.real / cell)
            cy = math.floor(value.imag / cell)
            # the earliest match over the 3x3 block, as a scan in index order finds it
            first = i
            for x in (cx - 1, cx, cx + 1):
                for y in (cy - 1, cy, cy + 1):
                    for j in grid.get((x, y), ()):
                        if j >= first:
                            break
                        if abs(value - values[j]) < threshold:
                            first = j
                            break
            if first < i:
                dup = first if links[first] is None else links[first]
            grid.setdefault((cx, cy), []).append(i)
        links.append(dup)
    return links


def enumerate_cloud(req: CloudRequest) -> list[MultivaluePoint]:
    """Evaluate the requested function over every schedule of the bits its kind reads.

    Position ``i`` holds the schedule whose masks, read as one number with
    sigma highest and gamma lowest, equal ``last - i``: masks run in
    descending order, and the all-plus schedule is the last point.
    Z_restricted's gamma mask is its delta mask shifted up one.  K, E and
    N read the mean pair alone, so their traces come from `sweep_sigma`,
    one per sigma mask.  F, Z and Z_restricted take theirs from
    `sweep_quartet`, one per sigma and delta mask.  Each trace gives one
    point, except on Z, whose gamma bits only sign the Zeta terms:
    `zeta_sum` adds them once per gamma mask.  Ill-conditioned or
    unconverged traces yield flagged points, never omissions.
    """
    kind, delta_bits, gamma_bits = req.kind, req.delta_bits, req.gamma_bits
    zeta = kind in ("Z", "Z_restricted")
    if "delta_bits" in KIND_BITS[kind]:
        traces = sweep_quartet(req.params, req.sigma_bits, delta_bits, zeta)
    else:
        traces = ((sigma, 0, trace, None) for sigma, trace in sweep_sigma(req.params, req.sigma_bits))
    last = 2 ** (req.sigma_bits + delta_bits + gamma_bits) - 1
    values: list = [None] * (last + 1)
    flags: list = [None] * (last + 1)
    schedules: list = [None] * (last + 1)
    for sigma, delta, trace, terms in traces:
        value = None if zeta else _extract(kind, trace)
        flag = trace.ill_conditioned or not trace.converged
        head = last - ((sigma << delta_bits | delta) << gamma_bits)
        for gamma in range(2**gamma_bits):
            schedule = SignSchedule(sigma, delta, delta << 1 if kind == "Z_restricted" else gamma)
            values[head - gamma] = zeta_sum(terms, schedule.gamma_mask) if zeta else value
            flags[head - gamma] = flag
            schedules[head - gamma] = schedule
    links = _mark_duplicates(values, flags)
    return list(map(MultivaluePoint, values, schedules, repeat(req.params.signb), flags, links))
