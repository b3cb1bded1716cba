"""Predicted loci for the multivalue clouds and residual measurement.

The cloud of a complete first-kind sweep sits on a rectangular lattice
spanned by quarter-period combinations; the incomplete first-kind cloud
adds a second coset per cell; the second-kind cloud is the same lattice
under anisotropic scaling; the ratio cloud collapses onto a circle; the
restricted Zeta cloud is one-dimensional.  `fit_cloud` measures how far a
computed cloud strays from the predicted locus, and reports each
position's fit as columns by position, as a cloud keeps its values.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from collections.abc import Sequence

from .clouds import Cloud
from .oracle import ReferenceSet, quad_E_inc, quad_F

__all__ = [
    "LatticeSpec",
    "CircleSpec",
    "PointFits",
    "FitReport",
    "predict_locus",
    "fit_cloud",
    "DEFAULT_FIT_TOL",
]

# Clouds from 20-iteration traces cannot be sharper than this in general.
DEFAULT_FIT_TOL = 1e-6


class LatticeSpec(namedtuple("LatticeSpec", "origin gen1 gen2 cosets", defaults=(0j, (0j,)))):
    """Origin plus one or two generating vectors and optional coset offsets."""

    __slots__ = ()
    origin: complex
    gen1: complex
    gen2: complex
    cosets: tuple[complex, ...]

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.gen1 == 0:
            raise ValueError("gen1 must be nonzero")
        if self.gen2 != 0 and (self.gen2 / self.gen1).imag == 0:
            raise ValueError("gen2 must not be parallel to gen1")
        if not self.cosets:
            raise ValueError("cosets must be nonempty")
        return self

    # `_replace` builds through `_make`, so a replaced spec is checked too
    _make = classmethod(lambda cls, fields: cls(*fields))


class CircleSpec(namedtuple("CircleSpec", "x1 x2")):
    """Circle centred on the real axis through the crossings ``x1`` and ``x2``."""

    __slots__ = ()
    x1: float
    x2: float

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.x1 == self.x2:
            raise ValueError("crossings must be distinct")
        return self

    # `_replace` builds through `_make`, so a replaced spec is checked too
    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def center(self) -> complex:
        return complex((self.x1 + self.x2) / 2.0, 0.0)

    @property
    def radius(self) -> float:
        return abs(self.x2 - self.x1) / 2.0


class PointFits:
    """Each fitted position's ``m``, ``n``, ``coset``, ``residual`` and ``excluded``, as columns by position.

    Read only; ``len`` counts positions, and there is no item access.
    """

    __slots__ = ("m", "n", "coset", "residual", "excluded")

    def __init__(
        self,
        m: tuple[int, ...],
        n: tuple[int, ...],
        coset: tuple[int, ...],
        residual: tuple[float, ...],
        excluded: tuple[bool, ...],
    ) -> None:
        for name, column in zip(self.__slots__, (m, n, coset, residual, excluded)):
            object.__setattr__(self, name, column)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: a fit is read only")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: a fit is read only")

    def _columns(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __reduce__(self):
        return PointFits, self._columns()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._columns() == other._columns()

    def __hash__(self) -> int:
        return hash(self._columns())

    def __repr__(self) -> str:
        columns = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"PointFits({columns})"

    def __len__(self) -> int:
        return len(self.m)


class FitReport(namedtuple("FitReport", "tol passed max_residual worst_point flagged_excluded points")):
    """Fit of a whole cloud; ``points`` holds each position's fit as columns."""

    __slots__ = ()
    tol: float
    passed: bool
    max_residual: float
    worst_point: int | None
    flagged_excluded: int
    points: PointFits


def _real(name: str, value: complex) -> float:
    """The real value the quadrature and circle formulas need, never a truncation."""
    if value.imag != 0:
        raise ValueError(f"{name} must be real for this locus, got {value:.6g}")
    return value.real


def predict_locus(kind: str, refs: ReferenceSet, phi: float | None = None) -> LatticeSpec | CircleSpec:
    """Predicted locus for a cloud of the given kind from reference values.

    ``kind`` is one of ``K`` (fixed initial sign), ``K_both`` (both initial
    signs combined), ``F``, ``E``, ``N`` or ``Z_restricted``.  ``F`` and
    ``Z_restricted`` need the real amplitude ``phi``.  ``F``, ``N`` and
    ``Z_restricted`` need a real k and E/K; a complex one raises.
    """
    if kind == "K":
        return LatticeSpec(origin=refs.K_k, gen1=4 * refs.K_k, gen2=4j * refs.K_b)
    if kind == "K_both":
        return LatticeSpec(origin=refs.K_k, gen1=4 * refs.K_k, gen2=2j * refs.K_b)
    if kind == "E":
        return LatticeSpec(origin=refs.E_k, gen1=4 * refs.E_k, gen2=4j * (refs.K_b - refs.E_b))
    if kind == "N":
        return CircleSpec(x1=1 - _real("E(b)/K(b)", refs.N_k2), x2=_real("E(k)/K(k)", refs.N_b2))
    if kind == "F":
        if phi is None:
            raise ValueError("F locus needs the amplitude phi")
        origin = complex(quad_F(phi, _real("k", refs.k)))
        return LatticeSpec(
            origin=origin,
            gen1=4 * refs.K_k,
            gen2=4j * refs.K_b,
            cosets=(0j, 2 * refs.K_k - 2 * origin),
        )
    if kind == "Z_restricted":
        if phi is None:
            raise ValueError("Z locus needs the amplitude phi")
        k = _real("k", refs.k)
        origin = complex(quad_E_inc(phi, k) - quad_F(phi, k) * _real("E(k)/K(k)", refs.N_b2))
        return LatticeSpec(origin=origin, gen1=refs.qZ, gen2=0j)
    raise ValueError(f"no predicted locus for kind {kind!r}")


def _fit_columns(spec: LatticeSpec | CircleSpec, values: Sequence[complex]) -> tuple[list, list, list, list]:
    """Each value's fit to ``spec`` as four columns, ``m``, ``n``, ``coset`` and ``residual``.

    A value takes the lattice point, over every coset, with the least
    residual; a circle gives zeros for the integer columns.  A residual
    that is not finite counts as infinite.
    """
    inf = math.inf
    if isinstance(spec, CircleSpec):
        center, radius = spec.center, spec.radius
        zeros = [0] * len(values)
        residual = [abs(abs(value - center) - radius) for value in values]
        return zeros, zeros, zeros, [r if r < inf else inf for r in residual]
    origin, gen1, gen2 = spec.origin, spec.gen1, spec.gen2
    cosets = tuple(enumerate(spec.cosets))
    g1_re, g1_im, g2_re, g2_im = gen1.real, gen1.imag, gen2.real, gen2.imag
    det = g1_re * g2_im - g2_re * g1_im
    line = gen2 == 0
    isfinite = cmath.isfinite
    m_col, n_col, coset_col, residual_col = [], [], [], []
    for value in values:
        best_m = best_n = best_coset = 0
        best = None
        # a non-finite value, or a finite one whose coordinates overflow, has no lattice cell to round to
        if isfinite(value):
            for ci, coset in cosets:
                d = value - origin - coset
                try:
                    if line:
                        m = round((d / gen1).real)
                        n = 0
                    else:
                        d_re, d_im = d.real, d.imag
                        m = round((d_re * g2_im - g2_re * d_im) / det)
                        n = round((g1_re * d_im - d_re * g1_im) / det)
                except (OverflowError, ValueError):
                    # round() of an infinite or NaN coordinate
                    continue
                residual = abs(d - m * gen1 - n * gen2)
                if best is None or residual < best:
                    best_m, best_n, best_coset, best = m, n, ci, residual
        m_col.append(best_m)
        n_col.append(best_n)
        coset_col.append(best_coset)
        residual_col.append(best if best is not None and best < inf else inf)
    return m_col, n_col, coset_col, residual_col


def fit_cloud(
    cloud: Sequence, spec: LatticeSpec | CircleSpec, tol: float = DEFAULT_FIT_TOL, *, flags: Sequence | None = None
) -> FitReport:
    """Assign every cloud point to the locus and report residuals.

    Accepts a `Cloud`, whose columns are read as they are, or bare complex
    values.  ``flags``, one per value, replaces a cloud's own flags; bare
    values have none flagged when it is omitted.
    Flagged (ill-conditioned) points are listed but excluded from the
    maximum and from the pass verdict; non-finite residuals count as
    infinite.  A cloud with no unexcluded point does not pass.  The report
    keeps each position's fit as the columns of ``points``.
    """
    if isinstance(cloud, Cloud):
        values = cloud.values
        flags = cloud.flags if flags is None else tuple(flags)
    else:
        values = cloud
        flags = (False,) * len(values) if flags is None else tuple(flags)
    if len(flags) != len(values):
        raise ValueError(f"{len(values)} values but {len(flags)} flags")
    m, n, coset, residual = _fit_columns(spec, values)
    kept = [i for i, excluded in enumerate(flags) if not excluded]
    worst = max(kept, key=residual.__getitem__, default=None)
    max_residual = 0.0 if worst is None else residual[worst]
    return FitReport(
        points=PointFits(tuple(m), tuple(n), tuple(coset), tuple(residual), flags),
        max_residual=max_residual,
        worst_point=worst,
        flagged_excluded=len(flags) - len(kept),
        tol=tol,
        passed=worst is not None and max_residual < tol,
    )
