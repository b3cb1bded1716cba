"""Sign-schedule sweeps producing multivalue point clouds.

One cloud fixes the recursion parameters and sweeps the free sign bits its
function reads in descending mask order, evaluating the function for every
schedule.  Near-coincident values are cross-referenced instead of
dropped.  A cloud keeps its values and flags as columns by position and
finds its duplicate links the first time they are read.  The values are
taken from the sweep's leaves in one loop per kind, with no call per
point except Zeta's sum.  Nothing in the package reads a cloud by point; a
point, a position's value, flag and link, is built only when one is read by
position or iteration.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections import namedtuple
from collections.abc import Sequence

from .engine import QuartetParams, sweep_quartet, sweep_sigma, zeta_sum

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


class MultivaluePoint(namedtuple("MultivaluePoint", "value ill_conditioned duplicate_of", defaults=(None,))):
    """One computed multivalue, its flag and its duplicate link.

    ``duplicate_of`` points at the earliest unflagged point of the same
    cloud carrying the same value, if any.  ``ill_conditioned`` is set
    when the trace was flagged or failed to converge, or the value is not
    finite.  The schedule of a position is `Cloud.schedule_rows`'s, and
    the start sign the request's.
    """

    __slots__ = ()
    value: complex
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
        total = self.sigma_bits + self.delta_bits + self.gamma_bits
        if 2**total > sys.maxsize:
            # the value and flag columns are lists of one slot per point
            raise ValueError(f"a cloud of 2**{total} points cannot be indexed (at most {sys.maxsize})")
        return self

    # `_replace` builds through `_make`, so a replaced request is checked too
    _make = classmethod(lambda cls, fields: cls(*fields))


class Cloud(Sequence):
    """The points of one cloud, kept as columns by position beside the request that made them.

    ``values`` and ``flags`` hold each position's value and
    ``ill_conditioned``.  ``links`` holds each position's
    ``duplicate_of``: the duplicate scan runs the first time it or a point
    is read, and its result is kept.  Position ``i`` carries the masks
    that `schedule_rows`, the one decoder of a position, shifts out of
    ``last - i`` by the request's bit counts.  Indexing, slicing and
    iteration build `MultivaluePoint` objects from the three columns on
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

    def schedule_rows(self):
        """Each position's ``(sigma_mask, delta_mask, gamma_mask, generation)``, in order.

        The masks are shifted out of ``last - i``, sigma highest and gamma
        lowest, so no schedule is built.  The generation, 1 + the last
        iteration any mask sets (0 if none), is their largest bit length.
        """
        req = self.request
        delta_bits, gamma_bits = req.delta_bits, req.gamma_bits
        delta_low, gamma_low = (1 << delta_bits) - 1, (1 << gamma_bits) - 1
        sigma_shift = delta_bits + gamma_bits
        restricted = req.kind == "Z_restricted"
        for number in range(len(self.values) - 1, -1, -1):
            sigma = number >> sigma_shift
            delta = number >> gamma_bits & delta_low
            # Z_restricted's zeta sign at iteration n repeats its forward sign of n-1
            gamma = delta << 1 if restricted else number & gamma_low
            yield sigma, delta, gamma, max(sigma.bit_length(), delta.bit_length(), gamma.bit_length())

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(map(MultivaluePoint, self.values[index], self.flags[index], self.links[index]))
        return MultivaluePoint(self.values[index], self.flags[index], self.links[index])

    def __iter__(self):
        return map(MultivaluePoint, self.values, self.flags, self.links)

    def __repr__(self) -> str:
        return repr(list(self))


# The 3x3 block of grid cells around a cell, as steps of its key.  A cell is keyed by one complex
# number rather than a pair of ints, to save memory; its coordinates stay exact, since no value lies
# more than about 1e9 cells from the origin (the scale is the largest value, the cell about 2e-9 of
# it), far below 2**53.
_NEIGHBOURS = tuple(complex(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1))


def _mark_duplicates(values: Sequence[complex], flags: Sequence[bool]) -> list[int | None]:
    """Each position's ``duplicate_of``: the earliest unflagged finite match, or None."""
    try:
        scale = max((abs(v) for v, flag in zip(values, flags) if not flag and cmath.isfinite(v)), default=0.0) or 1.0
    except OverflowError:
        scale = sys.float_info.max  # a finite value whose modulus is too large for a float
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
    `Cloud.schedule_rows` gives Z_restricted's gamma mask.  K, E and N read
    the mean pair alone, so their leaves come from `sweep_sigma`, one per
    sigma mask at position ``last - sigma``; K reads no series, so it passes
    ``series=False`` and its leaves carry ``s_sum`` None, while E and N keep
    the series.  F, Z and Z_restricted take theirs from `sweep_quartet`, one
    per sigma and delta mask, in the same layout.  Each leaf gives one
    point, except on Z, whose gamma bits only sign the Zeta terms:
    `zeta_sum` adds them once per gamma mask.  Ill-conditioned or unconverged leaves, and values that
    are not finite, yield flagged points, never omissions.  The value
    formula is chosen once per cloud: one loop per kind writes each leaf's
    value and flag, by the operations of `complete_K_of`, `complete_E_of`
    or `incomplete_F_of` in their order, so a value is bit for bit the
    function's.  No trace, schedule or point is built, and no duplicate is
    looked for until ``links`` is read.  Columns too large to allocate
    raise ValueError before any sweep.
    """
    kind, delta_bits, gamma_bits = req.kind, req.delta_bits, req.gamma_bits
    zeta = kind in ("Z", "Z_restricted")
    bits = req.sigma_bits + delta_bits + gamma_bits
    last = 2**bits - 1
    try:
        values: list = [None] * (last + 1)
        flags: list = [None] * (last + 1)
    except MemoryError:
        raise ValueError(f"a cloud of 2**{bits} points cannot be allocated") from None
    if "delta_bits" in KIND_BITS[kind]:
        leaves = sweep_quartet(req.params, req.sigma_bits, delta_bits, zeta)
    else:
        leaves = sweep_sigma(req.params, req.sigma_bits, series=kind != "K")
    isfinite, asin = cmath.isfinite, cmath.asin
    nan = complex(math.nan, math.nan)
    # `complete_K_of`'s numerator; each kind's loop repeats the operations of its value's function in `engine`
    half_pi = math.pi / 2
    if kind == "Z":
        # the gamma bits only sign the Zeta terms: one sum per gamma mask
        for sigma, delta, _, _, _, converged, ill, terms in leaves:
            head = last - ((sigma << delta_bits | delta) << gamma_bits)
            for gamma in range(2**gamma_bits):
                value = values[head - gamma] = zeta_sum(terms, gamma)
                flags[head - gamma] = ill or not converged or not isfinite(value)
    elif kind == "Z_restricted":
        for sigma, delta, _, _, _, converged, ill, terms in leaves:
            i = last - (sigma << delta_bits | delta)
            # the zeta signs repeat the forward signs one iteration later, as `Cloud.schedule_rows` gives them
            value = values[i] = zeta_sum(terms, delta << 1)
            flags[i] = ill or not converged or not isfinite(value)
    elif kind == "F":
        for sigma, delta, a_inf, _, u_inf, converged, ill, _ in leaves:
            i = last - (sigma << delta_bits | delta)
            # `incomplete_F_of` on branch 0, NaN at a zero amplitude limit; the 0.0 added is its `0 * math.pi`,
            # which turns a -0.0 into +0.0
            value = values[i] = (asin(a_inf / u_inf) + 0.0) / a_inf if u_inf and a_inf else nan
            flags[i] = ill or not converged or not isfinite(value)
    elif kind == "K":
        for sigma, _, a_inf, _, _, converged, ill, _ in leaves:
            i = last - sigma
            value = values[i] = half_pi / a_inf if a_inf else nan
            flags[i] = ill or not converged or not isfinite(value)
    elif kind == "E":
        for sigma, _, a_inf, s_sum, _, converged, ill, _ in leaves:
            i = last - sigma
            # `complete_E_of`: `complete_K_of` times one less the series
            value = values[i] = (half_pi / a_inf if a_inf else nan) * (1 - s_sum)
            flags[i] = ill or not converged or not isfinite(value)
    else:
        for sigma, _, a_inf, s_sum, _, converged, ill, _ in leaves:
            i = last - sigma
            # N: E/K, NaN where K is zero or not finite
            k_val = half_pi / a_inf if a_inf else nan
            value = values[i] = k_val * (1 - s_sum) / k_val if k_val and isfinite(k_val) else nan
            flags[i] = ill or not converged or not isfinite(value)
    return Cloud(req, tuple(values), tuple(flags))
