"""Sign-schedule sweeps producing multivalue point clouds.

One cloud fixes the recursion parameters and sweeps the free sign bits its
function reads in descending mask order, evaluating the function for every
schedule.  Near-coincident values are cross-referenced instead of
dropped.  A cloud keeps its values and flags as columns by position and
finds its duplicate links the first time they are read.  Nothing in the
package reads a cloud by point; a point is built only when one is read by
position or iteration.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from collections.abc import Sequence

from .engine import (
    QuartetParams,
    SignSchedule,
    complete_E_of,
    complete_K_of,
    incomplete_F_of,
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


def _gamma_mask(kind: str, delta: int, gamma: int) -> int:
    """The gamma mask of a schedule: Z_restricted's zeta sign at iteration n repeats its forward sign of n-1."""
    return delta << 1 if kind == "Z_restricted" else gamma


class MultivaluePoint(
    namedtuple("MultivaluePoint", "value schedule signb ill_conditioned duplicate_of", defaults=(None,))
):
    """One computed multivalue with its provenance.

    ``duplicate_of`` points at the earliest unflagged point of the same
    cloud carrying the same value, if any.  ``ill_conditioned`` is set
    when the trace was flagged or failed to converge.
    """

    __slots__ = ()
    value: complex
    schedule: SignSchedule
    signb: int
    ill_conditioned: bool
    duplicate_of: int | None


class CloudRequest(namedtuple("CloudRequest", "kind params sigma_bits delta_bits gamma_bits", defaults=(0, 0, 0))):
    """A sweep request: which function, which parameters, how many free bits of each sort its kind reads."""

    __slots__ = ()
    kind: str
    params: QuartetParams
    sigma_bits: int
    delta_bits: int
    gamma_bits: int

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
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
        return self

    # `_replace` builds through `_make`, so a replaced request is checked too
    _make = classmethod(lambda cls, fields: cls(*fields))


class Cloud(Sequence):
    """The points of one cloud, kept as columns by position beside the request that made them.

    ``values`` and ``flags`` hold each position's value and
    ``ill_conditioned``.  ``links`` holds each position's
    ``duplicate_of``: the duplicate scan runs the first time it or a point
    is read, and its result is kept.  Position ``i`` carries the schedule
    `schedule` decodes from ``last - i`` and the request's bit counts.
    Indexing, slicing and iteration build `MultivaluePoint` objects on
    access, and ``repr`` is that of the list of points.  A cloud is read
    only, and equal only to itself.
    """

    __slots__ = ("request", "values", "flags", "_links")

    def __init__(self, request: CloudRequest, values: tuple[complex, ...], flags: tuple[bool, ...]) -> None:
        object.__setattr__(self, "request", request)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "flags", flags)
        object.__setattr__(self, "_links", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: a cloud is read only")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: a cloud is read only")

    def __reduce__(self):
        return Cloud, (self.request, self.values, self.flags)

    @property
    def links(self) -> tuple[int | None, ...]:
        if self._links is None:
            object.__setattr__(self, "_links", tuple(_mark_duplicates(self.values, self.flags)))
        return self._links

    def __len__(self) -> int:
        return len(self.values)

    def schedule(self, i: int) -> SignSchedule:
        """The schedule of position ``i``, which may count from the end, decoded from ``last - i``."""
        req = self.request
        number = len(self.values) - 1 - range(len(self.values))[i]
        gamma = number & ((1 << req.gamma_bits) - 1)
        number >>= req.gamma_bits
        delta = number & ((1 << req.delta_bits) - 1)
        return SignSchedule(number >> req.delta_bits, delta, _gamma_mask(req.kind, delta, gamma))

    def _item(self, i: int) -> MultivaluePoint:
        signb = self.request.params.signb
        return MultivaluePoint(self.values[i], self.schedule(i), signb, self.flags[i], self.links[i])

    def __getitem__(self, index):
        positions = range(len(self))[index]
        if isinstance(index, slice):
            return list(map(self._item, positions))
        return self._item(positions)

    def __iter__(self):
        return map(self._item, range(len(self)))

    def __repr__(self) -> str:
        return repr(list(self))


def _extract(kind: str, a_inf: complex, s_sum: complex, u_inf: complex) -> complex:
    """The value of a K, E, N or F leaf, by the formulas that `complete_K`, `complete_E` and `incomplete_F` apply."""
    if kind == "K":
        return complete_K_of(a_inf)
    if kind == "E":
        return complete_E_of(a_inf, s_sum)
    if kind == "N":
        k_val = complete_K_of(a_inf)
        if k_val == 0 or not cmath.isfinite(k_val):
            return complex(math.nan, math.nan)
        return complete_E_of(a_inf, s_sum) / k_val
    # F; Zeta values are signed per schedule by `zeta_sum`
    return complex(math.nan, math.nan) if u_inf == 0 else incomplete_F_of(a_inf, u_inf, 0)


# The 3x3 block of grid cells around a cell, as steps of its key.  A cell is keyed by one complex
# number rather than a pair of ints, to save memory; its coordinates stay exact, since no value lies
# more than about 1e9 cells from the origin (the scale is the largest value, the cell about 2e-9 of
# it), far below 2**53.
_NEIGHBOURS = tuple(complex(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1))


def _mark_duplicates(values: Sequence[complex], flags: Sequence[bool]) -> list[int | None]:
    """Each position's ``duplicate_of``: the earliest unflagged finite match, or None."""
    scale = max((abs(v) for v, flag in zip(values, flags) if not flag and cmath.isfinite(v)), default=0.0)
    if scale == 0.0:
        scale = 1.0
    threshold = DUPLICATE_RTOL * scale
    # Points closer than the threshold lie in the same or adjacent grid
    # cells; the factor 2 leaves room for rounding in the division.  A
    # threshold that underflows to zero matches nothing, so any cell works.
    cell = 2.0 * threshold or 1.0
    # a cell holds its one index as an int, and a list only once a second one arrives
    grid: dict[complex, int | list[int]] = {}
    links: list[int | None] = []
    for i, (value, flag) in enumerate(zip(values, flags)):
        dup = None
        if not flag and cmath.isfinite(value):
            cell_at = complex(math.floor(value.real / cell), math.floor(value.imag / cell))
            # the earliest match over the 3x3 block, as a scan in index order finds it
            first = i
            for step in _NEIGHBOURS:
                held = grid.get(cell_at + step)
                if held is None:
                    continue
                for j in (held,) if isinstance(held, int) else held:
                    if j >= first:
                        break
                    if abs(value - values[j]) < threshold:
                        first = j
                        break
            if first < i:
                dup = first if links[first] is None else links[first]
            held = grid.get(cell_at)
            if held is None:
                grid[cell_at] = i
            elif isinstance(held, int):
                grid[cell_at] = [held, i]
            else:
                held.append(i)
        links.append(dup)
    return links


def enumerate_cloud(req: CloudRequest) -> Cloud:
    """Evaluate the requested function over every schedule of the bits its kind reads.

    Position ``i`` holds the schedule whose masks, read as one number with
    sigma highest and gamma lowest, equal ``last - i``: masks run in
    descending order, and the all-plus schedule is the last point;
    `_gamma_mask` gives Z_restricted's gamma mask.  K, E and N read the
    mean pair alone, so their leaves come from `sweep_sigma`, one per sigma
    mask; K reads no series, so it passes ``series=False`` and its leaves
    carry ``s_sum`` None, while E and N keep the series.  F, Z and
    Z_restricted take theirs from `sweep_quartet`, one per sigma and delta
    mask, in the same layout.  Each leaf gives one point, except on Z,
    whose gamma bits only sign the Zeta terms: `zeta_sum` adds them once
    per gamma mask.  Ill-conditioned or unconverged leaves yield flagged
    points, never omissions.  The sweep writes only the value and flag
    columns; no trace, schedule or point is built, and no duplicate is
    looked for until ``links`` is read.
    """
    kind, delta_bits, gamma_bits = req.kind, req.delta_bits, req.gamma_bits
    zeta = kind in ("Z", "Z_restricted")
    if "delta_bits" in KIND_BITS[kind]:
        leaves = sweep_quartet(req.params, req.sigma_bits, delta_bits, zeta)
    else:
        leaves = sweep_sigma(req.params, req.sigma_bits, series=kind != "K")
    last = 2 ** (req.sigma_bits + delta_bits + gamma_bits) - 1
    values: list = [None] * (last + 1)
    flags: list = [None] * (last + 1)
    for sigma, delta, a_inf, s_sum, u_inf, converged, ill, terms in leaves:
        value = None if zeta else _extract(kind, a_inf, s_sum, u_inf)
        flag = ill or not converged
        head = last - ((sigma << delta_bits | delta) << gamma_bits)
        for gamma in range(2**gamma_bits):
            values[head - gamma] = zeta_sum(terms, _gamma_mask(kind, delta, gamma)) if zeta else value
            flags[head - gamma] = flag
    return Cloud(req, tuple(values), tuple(flags))
