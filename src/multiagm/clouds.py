"""Sign-schedule sweeps producing multivalue point clouds.

One cloud fixes the recursion parameters and sweeps the free sign bits its
function reads in descending mask order, evaluating the function for every
schedule.  Near-coincident values are cross-referenced instead of
dropped.  A cloud keeps its values, flags and links as columns by
position, and builds a point only when one is read.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Sequence
from dataclasses import dataclass

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
    "MultivaluePoint",
    "CloudRequest",
    "Cloud",
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


@dataclass(frozen=True, slots=True, repr=False, eq=False)
class Cloud(Sequence):
    """The points of one cloud, kept as columns by position beside the request that made them.

    ``values``, ``flags`` and ``links`` hold each position's value,
    ``ill_conditioned`` and ``duplicate_of``.  Position ``i`` carries the
    schedule that `enumerate_cloud` gives it, decoded from ``last - i``
    and the request's bit counts.  Indexing, slicing and iteration build
    `MultivaluePoint` objects on access; ``repr`` is that of the list of
    points, and ``+`` joins the points into a list.
    """

    request: CloudRequest
    values: tuple[complex, ...]
    flags: tuple[bool, ...]
    links: tuple[int | None, ...]

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index):
        positions = range(len(self.values))[index]
        if isinstance(index, slice):
            return list(map(self._point, positions))
        return self._point(positions)

    def __iter__(self):
        return map(self._point, range(len(self.values)))

    def __repr__(self) -> str:
        return repr(list(self))

    def __add__(self, other) -> list[MultivaluePoint]:
        return list(self) + list(other)

    def _point(self, i: int) -> MultivaluePoint:
        req = self.request
        number = len(self.values) - 1 - i
        gamma = number & ((1 << req.gamma_bits) - 1)
        number >>= req.gamma_bits
        delta = number & ((1 << req.delta_bits) - 1)
        if req.kind == "Z_restricted":
            gamma = delta << 1
        schedule = SignSchedule(number >> req.delta_bits, delta, gamma)
        return MultivaluePoint(self.values[i], schedule, req.params.signb, self.flags[i], self.links[i])


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


def enumerate_cloud(req: CloudRequest) -> Cloud:
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
    unconverged traces yield flagged points, never omissions.  The sweep
    writes only the value and flag columns; no schedule or point is built.
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
    for sigma, delta, trace, terms in traces:
        value = None if zeta else _extract(kind, trace)
        flag = trace.ill_conditioned or not trace.converged
        head = last - ((sigma << delta_bits | delta) << gamma_bits)
        for gamma in range(2**gamma_bits):
            values[head - gamma] = zeta_sum(terms, delta << 1 if kind == "Z_restricted" else gamma) if zeta else value
            flags[head - gamma] = flag
    links = _mark_duplicates(values, flags)
    return Cloud(req, tuple(values), tuple(flags), tuple(links))
