"""Sign-schedule sweeps producing multivalue point clouds.

One cloud fixes the recursion parameters and sweeps the free bits of the
sign masks in descending mask order, evaluating the requested function for
every schedule.  Points are labelled with the generation of their schedule
and near-coincident values are cross-referenced instead of dropped.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

from .engine import (
    QuartetParams,
    QuartetTrace,
    SignSchedule,
    complete_E,
    complete_K,
    incomplete_F,
    walk_schedules,
)

__all__ = [
    "CLOUD_KINDS",
    "MultivaluePoint",
    "CloudRequest",
    "enumerate_cloud",
    "DUPLICATE_RTOL",
]

CLOUD_KINDS = ("K", "F", "E", "N", "Z", "Z_restricted")

# The kinds whose value reads the amplitude pair; K, E and N walk the mean pair alone.
AMPLITUDE_KINDS = ("F", "Z", "Z_restricted")

# Two points closer than this times the cloud scale count as one value.
DUPLICATE_RTOL = 1e-9


@dataclass(frozen=True)
class MultivaluePoint:
    """One computed multivalue with its provenance.

    ``duplicate_of`` points at the earliest unflagged point of the same
    cloud carrying the same value, if any.  ``ill_conditioned`` is set
    when the trace was flagged or failed to converge.
    """

    value: complex
    schedule: SignSchedule
    signb: int
    generation: int
    ill_conditioned: bool
    duplicate_of: int | None = None


@dataclass(frozen=True)
class CloudRequest:
    """A sweep request: which function, which parameters, how many free bits."""

    kind: str
    params: QuartetParams
    sigma_bits: int = 0
    delta_bits: int = 0
    gamma_bits: int = 0

    def __post_init__(self) -> None:
        if self.kind not in CLOUD_KINDS:
            raise ValueError(f"unknown cloud kind {self.kind!r}")
        for name in ("sigma_bits", "delta_bits", "gamma_bits"):
            bits = getattr(self, name)
            if bits < 0:
                raise ValueError(f"{name} must be nonnegative")
            if bits > self.params.max_iter:
                raise ValueError(f"{name} exceeds max_iter")
        if self.kind == "Z_restricted" and (self.sigma_bits or self.gamma_bits):
            raise ValueError("Z_restricted sweeps delta bits only; sigma_bits and gamma_bits must be 0")


def _schedules(req: CloudRequest) -> list[SignSchedule]:
    if req.kind == "Z_restricted":
        # the zeta sign at iteration n repeats the forward sign of iteration n-1
        return [SignSchedule(delta_mask=d, gamma_mask=d << 1) for d in range(2**req.delta_bits - 1, -1, -1)]
    out = []
    for s in range(2**req.sigma_bits - 1, -1, -1):
        for d in range(2**req.delta_bits - 1, -1, -1):
            for g in range(2**req.gamma_bits - 1, -1, -1):
                out.append(SignSchedule(sigma_mask=s, delta_mask=d, gamma_mask=g))
    return out


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
    if kind == "F":
        if trace.u_inf == 0:
            return complex(math.nan, math.nan)
        return incomplete_F(trace, 0)
    # Z and Z_restricted: the walk leaves NaN here once Zeta is undefined
    return trace.z_sum


def _mark_duplicates(points: list[MultivaluePoint]) -> list[MultivaluePoint]:
    scale = max((abs(p.value) for p in points if not p.ill_conditioned and cmath.isfinite(p.value)), default=0.0)
    if scale == 0.0:
        scale = 1.0
    threshold = DUPLICATE_RTOL * scale
    # Points closer than the threshold lie in the same or adjacent grid
    # cells; the factor 2 leaves room for rounding in the division.  A
    # threshold that underflows to zero matches nothing, so any cell works.
    cell = 2.0 * threshold or 1.0
    grid: dict[tuple[int, int], list[int]] = {}
    out: list[MultivaluePoint] = []
    for i, point in enumerate(points):
        dup = None
        value = point.value
        if not point.ill_conditioned and cmath.isfinite(value):
            cx = math.floor(value.real / cell)
            cy = math.floor(value.imag / cell)
            # the earliest match over the 3x3 block, as a scan in index order finds it
            first = i
            for x in (cx - 1, cx, cx + 1):
                for y in (cy - 1, cy, cy + 1):
                    for j in grid.get((x, y), ()):
                        if j >= first:
                            break
                        if abs(value - out[j].value) < threshold:
                            first = j
                            break
            if first < i:
                dup = first if out[first].duplicate_of is None else out[first].duplicate_of
            grid.setdefault((cx, cy), []).append(i)
        out.append(point if point.duplicate_of == dup else replace(point, duplicate_of=dup))
    return out


def enumerate_cloud(req: CloudRequest) -> list[MultivaluePoint]:
    """Evaluate the requested function over the full mask sweep.

    Masks run in descending order (sigma outermost); the all-plus schedule
    is therefore the last point.  The traces come from one
    `walk_schedules` over the whole sweep, which steps each shared sign
    prefix once and records no rows; each point lands at its schedule's
    position.  K, E and N walk the mean pair alone, so ``sinphi`` and the
    delta and gamma bits leave their values and flags unchanged.
    Ill-conditioned or unconverged traces yield flagged points, never
    omissions.
    """
    schedules = _schedules(req)
    points: list = [None] * len(schedules)
    for i, trace in walk_schedules(req.params, schedules, amplitude=req.kind in AMPLITUDE_KINDS):
        schedule = schedules[i]
        points[i] = MultivaluePoint(
            value=_extract(req.kind, trace),
            schedule=schedule,
            signb=req.params.signb,
            generation=schedule.generation(),
            ill_conditioned=trace.ill_conditioned or not trace.converged,
        )
    return _mark_duplicates(points)
