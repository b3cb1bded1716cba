"""Sign-schedule sweeps producing multivalue point clouds.

One cloud fixes the recursion parameters and sweeps the free bits of the
sign masks in descending mask order, evaluating the requested function for
every schedule.  Near-coincident values are cross-referenced instead of
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
    "CLOUD_KINDS",
    "MultivaluePoint",
    "CloudRequest",
    "enumerate_cloud",
    "DUPLICATE_RTOL",
]

CLOUD_KINDS = ("K", "F", "E", "N", "Z", "Z_restricted")

# The kinds whose value reads the amplitude pair; K, E and N sweep the mean pair alone.
AMPLITUDE_KINDS = ("F", "Z", "Z_restricted")

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
    # Sigma runs outermost, then delta, then gamma, each descending.  So
    # sigma mask s owns the block of 2**(D + G) schedules starting at
    # (2**S - 1 - s) * 2**(D + G), and the pair (s, d) the block of 2**G
    # starting at ((2**S - 1 - s) * 2**D + 2**D - 1 - d) * 2**G, where
    # S, D and G count the sigma, delta and gamma bits.
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
        return complex(math.nan, math.nan) if trace.u_inf == 0 else incomplete_F(trace, 0)
    # Z and Z_restricted: a trace of `run_quartet` carries its sum; a cloud signs it per schedule
    return trace.z_sum


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
    """Evaluate the requested function over the full mask sweep.

    Masks run in descending order (sigma outermost); the all-plus schedule
    is therefore the last point.  K, E and N read the mean pair alone, so
    their traces come from `sweep_sigma`, one per sigma mask.  F, Z and
    Z_restricted take theirs from `sweep_quartet`, one per sigma and delta
    mask, and the gamma bits only sign the Zeta terms, which `zeta_sum`
    adds per schedule.  A value and its flag fill every schedule their
    trace stands for; then each schedule gets one point, with its link.
    Ill-conditioned or unconverged traces yield flagged points, never
    omissions.
    """
    schedules = _schedules(req)
    top = 2**req.sigma_bits - 1
    zeta = req.kind in ("Z", "Z_restricted")
    if req.kind in AMPLITUDE_KINDS:
        traces = sweep_quartet(req.params, req.sigma_bits, req.delta_bits, zeta)
        deltas, block = 2**req.delta_bits, 2**req.gamma_bits
    else:
        traces = ((mask, 0, trace, None) for mask, trace in sweep_sigma(req.params, req.sigma_bits))
        deltas, block = 1, 2 ** (req.delta_bits + req.gamma_bits)
    values: list = [None] * len(schedules)
    flags: list = [None] * len(schedules)
    for sigma, delta, trace, terms in traces:
        start = ((top - sigma) * deltas + deltas - 1 - delta) * block
        end = start + block
        if zeta:
            values[start:end] = [zeta_sum(terms, s.gamma_mask) for s in schedules[start:end]]
        else:
            values[start:end] = [_extract(req.kind, trace)] * block
        flags[start:end] = [trace.ill_conditioned or not trace.converged] * block
    links = _mark_duplicates(values, flags)
    return list(map(MultivaluePoint, values, schedules, repeat(req.params.signb), flags, links))
