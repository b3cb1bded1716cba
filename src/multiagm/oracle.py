"""Independent ground-truth values for tests and locus prediction.

Complete integrals come from the plain convergent AGM iterated to machine
precision, incomplete ones from adaptive Simpson quadrature, plus the exact
identities (Legendre relation, Landen products, the Zeta lattice unit) used
to cross-check everything else.

K(x) is always evaluated through ``AGM(1, complement(x))``.  Callers that
know the complementary modulus exactly should pass it, which keeps values
near the logarithmic singularity accurate; from a modulus k the complement
is ``sqrt((1-k)(1+k))``, which does not cancel as ``1 - k**2`` does near 1.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from collections.abc import Callable, Iterator
from itertools import count, islice

from .roots import complement, pair_step, signed_root

__all__ = [
    "ReferenceSet",
    "reference_set",
    "agm_series",
    "complete_from_complement",
    "adaptive_simpson",
    "quad_F",
    "quad_E_inc",
    "landen_check",
    "QUAD_TOL",
]

QUAD_TOL = 1e-11
_AGM_MAX_ITER = 64
_AGM_TOL = 1e-17


def agm_series(b: complex) -> Iterator[tuple[complex, complex, complex]]:
    """Rows ``(a_n, d_n, S)`` of the plain AGM(1, b), without end.

    ``d_n = a_n - g_n`` and ``S`` sums ``2**(j-1) (a_j**2 - g_j**2)`` over
    ``j <= n``.  The pair is advanced by `pair_step`, so the late, tiny
    differences are exact instead of subtraction noise, and the row after
    ``n`` is computed only when it is asked for.
    """
    a, g = complex(1.0), complex(b)
    s, d = a + g, a - g
    total = complex(0.0)
    for n in count():
        total += 2.0 ** (n - 1) * (s * d)
        yield a, d, total
        near = signed_root(a * g, s, tie_positive_imag=True)
        a, g, s, d = pair_step(s, d * d / 4, near)


def complete_from_complement(b: complex) -> tuple[complex, complex]:
    """(K, E) at the modulus whose complement is ``b``, i.e. k = sqrt(1-b**2).

    ``b == 0`` sits on the logarithmic singularity and raises.
    """
    b = complex(b)
    if b == 0:
        raise ValueError("logarithmic singularity")
    rows = agm_series(b)
    for a, d, total in islice(rows, _AGM_MAX_ITER):
        if abs(d) <= _AGM_TOL * abs(a):
            break
    else:
        # unconverged: K from the row after the last one summed
        a = next(rows)[0]
    big_k = math.pi / 2 / a
    return big_k, big_k * (1 - total)


class ReferenceSet(namedtuple("ReferenceSet", "b k K_k K_b E_k E_b N_b2 N_k2 qZ")):
    """Complete-integral values at a modulus and its complement.

    ``N_b2`` is the ratio E(k)/K(k) and ``N_k2`` the ratio E(b)/K(b);
    ``qZ`` is the one-dimensional Zeta lattice generator ``2*pi*i/K(k)``.
    """

    __slots__ = ()
    b: complex
    k: complex
    K_k: complex
    K_b: complex
    E_k: complex
    E_b: complex
    N_b2: complex
    N_k2: complex
    qZ: complex

    def legendre_residual(self) -> float:
        """|E(k)K(b) + E(b)K(k) - K(k)K(b) - pi/2|, zero in exact arithmetic."""
        return abs(self.E_k * self.K_b + self.E_b * self.K_k - self.K_k * self.K_b - math.pi / 2)


def reference_set(b: complex | None = None, k: complex | None = None) -> ReferenceSet:
    """Build a `ReferenceSet` from either the complement ``b`` or the modulus ``k``."""
    if (b is None) == (k is None):
        raise ValueError("give exactly one of b or k")
    if b is None:
        k = complex(k)
        b = complement(k)
    else:
        b = complex(b)
        k = complement(b)
    if b == 0 or k == 0:
        integral = "K(k)" if b == 0 else "K(b)"
        raise ValueError(f"logarithmic singularity: {integral} is infinite at b = {b:.17g}, k = {k:.17g}")
    K_k, E_k = complete_from_complement(b)
    K_b, E_b = complete_from_complement(k)
    if not all(map(cmath.isfinite, (k, K_k, K_b, E_k, E_b))):
        raise ValueError(f"overflow: the complete integrals are not finite at b = {b:.17g}, k = {k:.17g}")
    return ReferenceSet(
        b=b,
        k=k,
        K_k=K_k,
        K_b=K_b,
        E_k=E_k,
        E_b=E_b,
        N_b2=E_k / K_k,
        N_k2=E_b / K_b,
        qZ=2j * math.pi / K_k,
    )


def adaptive_simpson(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Adaptive Simpson quadrature of ``f`` on [lo, hi] to absolute tolerance `QUAD_TOL`."""
    if lo == hi:
        return 0.0

    def recurse(x0: float, x2: float, f0: float, f1: float, f2: float, whole: float, eps: float) -> float:
        x1 = 0.5 * (x0 + x2)
        lm = 0.5 * (x0 + x1)
        rm = 0.5 * (x1 + x2)
        flm = f(lm)
        frm = f(rm)
        left = (x1 - x0) / 6.0 * (f0 + 4.0 * flm + f1)
        right = (x2 - x1) / 6.0 * (f1 + 4.0 * frm + f2)
        delta = left + right - whole
        if abs(delta) <= 15.0 * eps:
            return left + right + delta / 15.0
        return recurse(x0, x1, f0, flm, f1, left, eps / 2.0) + recurse(x1, x2, f1, frm, f2, right, eps / 2.0)

    mid = 0.5 * (lo + hi)
    f0, f1, f2 = f(lo), f(mid), f(hi)
    whole = (hi - lo) / 6.0 * (f0 + 4.0 * f1 + f2)
    return recurse(lo, hi, f0, f1, f2, whole, QUAD_TOL)


def _check_incomplete_args(phi: float, k: float) -> None:
    if not 0.0 <= phi <= math.pi / 2:
        raise ValueError("phi must lie in [0, pi/2]")
    if not 0.0 <= k < 1.0:
        raise ValueError("k must lie in [0, 1)")


def quad_F(phi: float, k: float) -> float:
    """Incomplete first-kind integral by quadrature of (1 - k**2 sin**2 t)**-1/2."""
    _check_incomplete_args(phi, k)
    m = k * k
    return adaptive_simpson(lambda t: 1.0 / math.sqrt(1.0 - m * math.sin(t) ** 2), 0.0, phi)


def quad_E_inc(phi: float, k: float) -> float:
    """Incomplete second-kind integral by quadrature of (1 - k**2 sin**2 t)**1/2."""
    _check_incomplete_args(phi, k)
    m = k * k
    return adaptive_simpson(lambda t: math.sqrt(1.0 - m * math.sin(t) ** 2), 0.0, phi)


def landen_check(b: float) -> tuple[float, float]:
    """Residuals of the two descending-transformation product identities.

    For ``q = (1-b)/(1+b)``, ``v = sqrt(1-q**2)`` and the second-level pair
    ``c, w`` (with ``q = 2 sqrt(c)/(1+c)`` and ``w = 2 sqrt(v)/(1+v)``) the
    products satisfy ``K(k)K(v) = 2 K(b)K(q)`` and ``K(k)K(w) = 4 K(b)K(c)``
    exactly.  Every K is evaluated through its complementary modulus, so
    the residuals stay at rounding level for b close to 1.  For small b
    they do not: ``v = sqrt((1-q)(1+q))`` carries the rounding of q at full
    relative size in ``1-q``, and the residuals grow to about 1.3e-07 at
    ``b = 1e-10``, 1.3e-03 at 1e-14 and 0.92 at 1e-16 (ROADMAP item 11,
    the exact complement ``2 sqrt(b)/(1+b)``).  For b at or below about
    ``2**-54`` q rounds to 1, where K(q) is infinite, and the check raises.
    """
    if not 0.0 < b < 1.0:
        raise ValueError("b must lie in (0, 1)")
    k = math.sqrt((1.0 - b) * (1.0 + b))
    q = (1.0 - b) / (1.0 + b)
    v = math.sqrt((1.0 - q) * (1.0 + q))
    if v == 0:
        raise ValueError(f"logarithmic singularity: K(q) is infinite at b = {b:.17g}, q = (1-b)/(1+b) = {q:.17g}")
    c = q * q / (1.0 + v) ** 2
    K_k, _ = complete_from_complement(b)
    K_b, _ = complete_from_complement(k)
    K_v, _ = complete_from_complement(q)
    K_q, _ = complete_from_complement(v)
    K_w, _ = complete_from_complement(c)
    K_c, _ = complete_from_complement(math.sqrt((1.0 - c) * (1.0 + c)))
    residual2 = abs(K_k * K_v - 2.0 * K_b * K_q)
    residual4 = abs(K_k * K_w - 4.0 * K_b * K_c)
    return residual2, residual4
