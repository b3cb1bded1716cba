"""Signed quartet recursion for complete and incomplete elliptic integrals.

A classical AGM pair ``(a, g)`` runs alongside a second pair ``(u, v)``
seeded from the amplitude, with a free ``+-1`` branch choice for every
square root.  One converged trace yields K, F (any arcsine branch),
E and the Jacobi Zeta value for the chosen sign schedule.

Internally both pairs are carried as sums and differences and advanced by
`roots.pair_step`, which gets the member that a subtraction would cancel
from the exact identity ``sum' * diff' = diff**2 / 4``.  Sign flips applied
after the pair has nearly converged are therefore evaluated to full
relative precision, where the textbook recurrences would lose the value
entirely.

The three kinds of sign bit reach different state.  The mean pair reads
the sigma bits alone, the amplitude pair the sigma and delta bits, and a
gamma bit only negates one Zeta term.  So `sweep_sigma`, the one mean
loop, walks the binary tree of sigma prefixes, one mean root per node and
step.  For F and Zeta it records each mask's path, and `sweep_quartet`
walks the tree of delta prefixes along it, one forward root per node and
step and a Zeta root only for Zeta, which finishes that step's term;
`zeta_sum` signs and adds the terms per gamma mask.  `run_quartet` is the
one-schedule case.  Past its last flip a node stops once a step repeats
its state bit for bit with a zero difference: the AGM converges
quadratically, and every later step would repeat it.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace
from marshal import dumps

from .roots import complement, pair_step, principal_sqrt, signed_root

__all__ = [
    "SignSchedule",
    "QuartetParams",
    "QuartetTrace",
    "sweep_sigma",
    "sweep_quartet",
    "zeta_sum",
    "run_quartet",
    "complete_K",
    "incomplete_F",
    "complete_E",
    "jacobi_Z",
    "DEFAULT_MAX_ITER",
    "CONV_TOL",
    "MAX_ITER_LIMIT",
    "ILL_CONDITION_RATIO",
]

DEFAULT_MAX_ITER = 20

# Both pair differences below this times |a_inf| count as converged.
CONV_TOL = 1e-12

# The series weights reach 2**(max_iter-1), the largest finite power of two.
MAX_ITER_LIMIT = 1024

# |a_inf| below this fraction of |a_0| marks a trace as untrustworthy.
ILL_CONDITION_RATIO = 1e-6

Quartet = tuple[complex, complex, complex, complex]


@dataclass(frozen=True, slots=True)
class SignSchedule:
    """Per-iteration branch choices; bit ``n`` set means ``-1`` at iteration ``n``.

    ``sigma_mask`` drives the geometric-mean root, ``delta_mask`` the
    forward root of the amplitude pair, ``gamma_mask`` the root inside the
    Zeta accumulation.
    Bits beyond an iteration count simply never apply; all-zero masks
    reproduce the plain convergent iteration.
    """

    sigma_mask: int = 0
    delta_mask: int = 0
    gamma_mask: int = 0

    def generation(self) -> int:
        """1 + index of the last iteration carrying a nontrivial sign (0 if none)."""
        return max(
            self.sigma_mask.bit_length(),
            self.delta_mask.bit_length(),
            self.gamma_mask.bit_length(),
        )


@dataclass(frozen=True)
class QuartetParams:
    """Inputs of the recursion.

    ``k`` is the modulus and ``sinphi`` the sine of the amplitude, both
    complex-capable.  ``signb`` multiplies the two initial square roots.
    ``complement`` optionally supplies an exact value of ``sqrt(1-k**2)``
    so that callers parameterising by the complementary modulus do not
    round-trip it through ``k``.  Once it is given ``k`` is never read and
    may be None; one of the two must be given.
    """

    k: complex | None
    sinphi: complex
    signb: int = 1
    max_iter: int = DEFAULT_MAX_ITER
    complement: complex | None = None

    def __post_init__(self) -> None:
        if self.k is None and self.complement is None:
            raise ValueError("give the modulus k or its complement")
        if self.sinphi == 0:
            raise ValueError("sinphi must be nonzero")
        if self.signb not in (1, -1):
            raise ValueError("signb must be +1 or -1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.max_iter > MAX_ITER_LIMIT:
            raise ValueError(f"max_iter must be at most {MAX_ITER_LIMIT}")

    def complement_value(self) -> complex:
        if self.complement is not None:
            return complex(self.complement)
        return complement(complex(self.k))

    def k_squared(self) -> complex:
        if self.complement is not None:
            c = complex(self.complement)
            return (1 - c) * (1 + c)
        return complex(self.k) * complex(self.k)


@dataclass(frozen=True, slots=True)
class QuartetTrace:
    """One full run of the recursion.

    ``rows`` holds the quartets ``(a_n, g_n, u_n, v_n)`` including the
    initial row, the fixed row repeated after a stop; only `run_quartet`
    records them, and cloud traces carry ``rows=()``.  ``s_sum`` is the
    weighted sum of ``a**2 - g**2`` terms, ``z_sum`` the Zeta series.
    ``ill_conditioned`` is set on root collapse, a degenerate forward root,
    a non-finite intermediate, a Zeta term at ``u == 0``, or a limit tiny
    compared to the start.

    A trace of `sweep_sigma` carries only the mean pair: ``u_inf`` and
    ``z_sum`` are ``complex(nan, nan)`` and ``zeta_defined`` is False,
    so `incomplete_F` gives NaN and `jacobi_Z` raises.  Its flags come from
    ``(a, g)`` alone.  A trace of `sweep_quartet` leaves ``z_sum`` NaN,
    since the sum depends on the gamma mask that `zeta_sum` applies.
    """

    rows: tuple[Quartet, ...]
    s_sum: complex
    z_sum: complex
    a_inf: complex
    u_inf: complex
    converged: bool
    ill_conditioned: bool
    zeta_defined: bool = True


def sweep_sigma(
    params: QuartetParams, sigma_bits: int, sigma_mask: int = 0, path: list | None = None
) -> Iterator[tuple[int, QuartetTrace]]:
    """Run the mean pair ``(a, g)`` for every sigma mask below ``2**sigma_bits``.

    Yields ``(mask, trace)`` once per mask, in no particular order.  The
    sweep is depth first over the binary tree of sigma prefixes: at every
    node and iteration it takes the one mean root, and below ``sigma_bits``
    it steps the pair once from that root, keeps the flipped child for
    later and goes on with the other.  Higher bits come from ``sigma_mask``,
    which must leave the free bits clear.
    Past its last flip a node stops once a step leaves a finite ``(a, g,
    s_ag, d_ag)`` bit for bit as it was, with ``d_ag == 0``: every later
    step would repeat it and add a signed zero to ``s_sum``.  Each trace is
    the mean-pair trace of ``SignSchedule(mask)``, as `QuartetTrace` says.

    Given ``path``, ``max_iter + 1`` slots, the sweep fills it before each
    yield: ``(a, g, s_ag, d_ag, near, q)`` before each iteration, with the
    mean root and ``q = d_ag**2 / 4``, then ``(a, g)``.  From a stop on,
    each iteration's slot holds the stopped state, as one object.
    """
    max_iter = params.max_iter
    if not 0 <= sigma_bits <= max_iter:
        raise ValueError(f"sigma_bits must lie in [0, {max_iter}]")
    if sigma_mask >> sigma_bits << sigma_bits != sigma_mask:
        # a fixed bit among the free ones would give two masks twice and two never
        raise ValueError(f"sigma_mask {sigma_mask:#b} sets bits below sigma_bits={sigma_bits}")
    isfinite = cmath.isfinite
    nan = complex(math.nan, math.nan)
    stop_from = max(sigma_bits - 1, sigma_mask.bit_length())
    a = complex(1.0)
    g = params.signb * params.complement_value()
    # Pending nodes: the iteration a node resumes at, its mask, and the state.
    stack = [(0, sigma_mask, a, g, a + g, a - g, complex(0.0), False, isfinite(a) and isfinite(g))]
    while stack:
        n, mask, a, g, s_ag, d_ag, s_sum, collapsed, finite = stack.pop()
        # series weight 2**(n-1); doubling a power of two is exact
        weight = math.ldexp(0.5, n)
        for n in range(n, max_iter):
            s_sum += weight * (s_ag * d_ag)
            weight *= 2.0
            p_ag = a * g
            if not p_ag:
                collapsed = True
            near = signed_root(p_ag, s_ag, tie_positive_imag=True)
            q = d_ag * d_ag / 4
            if path:
                path[n] = (a, g, s_ag, d_ag, near, q)
            # marshal writes the bytes of each double, so unlike == it tells signed zeros apart
            before = None if d_ag or n < stop_from or not finite else dumps((a, g, s_ag, d_ag), 2)
            a, g, s_ag, d_ag = pair_step(s_ag, q, near, mask >> n & 1)
            if finite:
                finite = isfinite(a) and isfinite(g)
            if n < sigma_bits:
                # bit n is clear here, and the flipped step swaps sum and difference and negates g
                stack.append((n + 1, mask | 1 << n, a, -g, d_ag, s_ag, s_sum, collapsed, finite))
            if before and before == dumps((a, g, s_ag, d_ag), 2):
                if path:
                    path[n + 1 : max_iter] = [path[n]] * (max_iter - 1 - n)
                break
        if path:
            path[max_iter] = (a, g)

        scale = abs(a)
        converged = bool(finite and scale > 0.0 and abs(d_ag) <= CONV_TOL * scale)
        ill = not finite or collapsed or scale < ILL_CONDITION_RATIO  # relative to |a_0| = 1
        yield mask, QuartetTrace((), s_sum, nan, a, nan, converged, ill, False)


def _sweep_delta(params: QuartetParams, path: list, mean: QuartetTrace, delta_bits: int, delta_mask: int = 0,
                 zeta: bool = True, uv_rows: list | None = None):
    """Step the amplitude pair ``(u, v)`` along one sigma mask's ``path`` for every free delta prefix.

    ``mean`` is that mask's trace.  Depth first over the tree of delta
    prefixes as `sweep_sigma` walks sigma, higher bits from ``delta_mask``,
    whose free bits are clear: one forward root per node and iteration, and
    with ``zeta`` a Zeta root, from which the iteration's term
    ``2**n * d_uv * zr / u`` is finished at once.  A node stops as a mean
    node does, on ``(u, s_uv)``, once the path is fixed.  Yields
    ``(delta_mask, trace, terms)`` per leaf, ``terms`` ``()`` without
    ``zeta``; ``uv_rows``, with no free bits only, collects ``(u, v)`` per
    row.
    """
    isfinite = cmath.isfinite
    nan = complex(math.nan, math.nan)
    max_iter = params.max_iter
    fixed = path[max_iter - 1]
    stop_from = max(delta_bits - 1, delta_mask.bit_length())
    sp = complex(params.sinphi)
    u = 1 / sp
    # full amplitude: the second pair is an exact copy of the first
    v = path[0][1] if sp == 1 else params.signb * principal_sqrt(1 - params.k_squared() * sp * sp) / sp
    if uv_rows is not None:
        uv_rows.append((u, v))
    # Pending nodes: the iteration a node resumes at, its mask, and the state;
    # ``terms`` turns None once Zeta is undefined.
    stack = [(0, delta_mask, u, u + v, u - v, False, isfinite(u) and isfinite(v), [] if zeta else ())]
    while stack:
        n, mask, u, s_uv, d_uv, degenerate, finite, terms = stack.pop()
        for n in range(n, max_iter):
            a, _, s_ag, d_ag, near, q = path[n]
            if terms is not None:
                if not u:
                    terms = None
                elif zeta:
                    terms.append(2.0**n * d_uv * signed_root(u * u - a * a, u) / u)
            if not s_uv:
                degenerate = True
            if s_uv == s_ag and d_uv == d_ag:
                # coinciding pairs: (u+v)**2 - (a-g)**2 == 4ag, so reuse the
                # mean-pair root and keep the copy exact bit for bit
                w = near
            else:
                w = signed_root((s_uv - d_ag) * (s_uv + d_ag), s_uv) / 2
            if finite:
                # both children step to (s_uv / 2, +-w)
                finite = isfinite(s_uv) and isfinite(w)
            # a fixed path has q == 0, so d_uv stays 0 and every later Zeta term is a signed
            # zero, or NaN as this step's term already is if the Zeta root is not finite
            before = None if d_uv or n < stop_from or not finite or path[n] is not fixed else dumps((u, s_uv), 2)
            u, v, s_uv, d_uv = pair_step(s_uv, q, w, mask >> n & 1)
            if n < delta_bits:
                # as in `sweep_sigma`: bit n is clear, and the flipped child swaps sum and difference
                stack.append(
                    (n + 1, mask | 1 << n, u, d_uv, s_uv, degenerate, finite, None if terms is None else terms[:])
                )
            if uv_rows is not None:
                uv_rows.append((u, v))
            if before and before == dumps((u, s_uv), 2):
                if uv_rows is not None:
                    uv_rows.extend([uv_rows[-1]] * (max_iter - 1 - n))
                break

        converged = bool(mean.converged and finite and abs(d_uv) <= CONV_TOL * abs(mean.a_inf))
        ill = mean.ill_conditioned or not finite or degenerate or terms is None
        yield mask, QuartetTrace((), mean.s_sum, nan, mean.a_inf, u, converged, ill, terms is not None), terms


def sweep_quartet(
    params: QuartetParams, sigma_bits: int, delta_bits: int, zeta: bool = True
) -> Iterator[tuple[int, int, QuartetTrace, list[complex] | None]]:
    """Run the recursion for every sigma and delta mask below ``2**sigma_bits`` and ``2**delta_bits``.

    Yields ``(sigma_mask, delta_mask, trace, terms)`` once per pair, in no
    particular order; higher bits are plus.  The amplitude pair walks the
    tree of delta prefixes along each mean path that `sweep_sigma` records.
    ``terms`` holds the Zeta terms for ``zeta_sum(terms, gamma_mask)``, or
    none without ``zeta``.  Each trace is bit for bit `run_quartet` over
    ``SignSchedule(sigma_mask, delta_mask)`` with ``rows=()``, ``z_sum`` NaN.
    """
    max_iter = params.max_iter
    if not 0 <= delta_bits <= max_iter:
        raise ValueError(f"delta_bits must lie in [0, {max_iter}]")
    path: list = [None] * (max_iter + 1)
    for sigma_mask, mean in sweep_sigma(params, sigma_bits, path=path):
        for delta_mask, trace, terms in _sweep_delta(params, path, mean, delta_bits, zeta=zeta):
            yield sigma_mask, delta_mask, trace, terms


def zeta_sum(terms: Sequence[complex] | None, gamma_mask: int) -> complex:
    """The Zeta series of one gamma mask: the finished terms in iteration order, bit ``n`` negating term ``n``.

    ``None``, a trace whose Zeta went undefined at ``u == 0``, gives NaN.
    Terms after a stop would each be the last term again, a signed zero or
    NaN, and are left out.  Negation is exact, so a term signed here differs
    from one signed before its product only in the sign of a zero or a NaN,
    which a sum from +0 never shows.
    """
    if terms is None:
        return complex(math.nan, math.nan)
    z_sum = complex(0.0)
    for term in terms:
        z_sum += -term if gamma_mask & 1 else term
        gamma_mask >>= 1
    return z_sum


def run_quartet(params: QuartetParams, schedule: SignSchedule | None = None) -> QuartetTrace:
    """Run the signed recursion for ``params.max_iter`` iterations on one schedule.

    This is the one-schedule case of `sweep_quartet`, with its rows
    recorded and its Zeta terms signed by the gamma mask (all plus when
    ``schedule`` is omitted).  Rows after a stop repeat the fixed row.
    """
    schedule = schedule or SignSchedule()
    path: list = [None] * (params.max_iter + 1)
    ((_, mean),) = sweep_sigma(params, 0, schedule.sigma_mask, path)
    uv_rows: list = []
    ((_, trace, terms),) = _sweep_delta(params, path, mean, 0, schedule.delta_mask, uv_rows=uv_rows)
    rows = tuple((a, g, u, v) for (a, g, *_), (u, v) in zip(path, uv_rows))
    return replace(trace, rows=rows, z_sum=zeta_sum(terms, schedule.gamma_mask))


def complete_K(trace: QuartetTrace) -> complex:
    """Quarter period ``pi / (2 a_inf)`` of the trace."""
    if trace.a_inf == 0:
        return complex(math.nan, math.nan)
    return math.pi / 2 / trace.a_inf


def incomplete_F(trace: QuartetTrace, branch: int = 0) -> complex:
    """First-kind incomplete integral from the trace, on a chosen arcsine branch.

    Branch 0 uses the principal arcsine.  An even branch ``n`` adds ``n*pi``
    to the principal value; an odd branch ``m`` negates it and adds ``m*pi``.
    """
    if trace.u_inf == 0:
        raise ValueError("amplitude limit degenerate")
    if trace.a_inf == 0:
        return complex(math.nan, math.nan)
    base = cmath.asin(trace.a_inf / trace.u_inf)
    if branch % 2:
        base = -base
    return (base + branch * math.pi) / trace.a_inf


def complete_E(trace: QuartetTrace) -> complex:
    """Second-kind complete integral ``K * (1 - s_sum)``."""
    return complete_K(trace) * (1 - trace.s_sum)


def jacobi_Z(trace: QuartetTrace) -> complex:
    """Accumulated Jacobi Zeta value of the trace."""
    if not trace.zeta_defined:
        raise ValueError("zeta accumulation undefined: hit u=0 along the trace")
    return trace.z_sum
