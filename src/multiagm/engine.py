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

There is one loop, `walk_schedules`, a depth-first walk over many sign
schedules at once: schedules that share their first ``n`` sign bits share
their first ``n`` steps, so a cloud of ``2**N`` schedules takes each shared
prefix once instead of restarting every schedule from row 0.  A node
holding more than one schedule splits by their bits at iteration ``n``.
K, E and E/K read only the mean pair, so their walk (``amplitude=False``)
steps ``(a, g)`` alone: one root per step instead of three, keyed by the
sigma bits only.  `run_quartet` is the full walk over a single schedule.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from .roots import pair_step, principal_sqrt, signed_root

__all__ = [
    "SignSchedule",
    "QuartetParams",
    "QuartetTrace",
    "walk_schedules",
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


@dataclass(frozen=True)
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
    round-trip it through ``k``.
    """

    k: complex
    sinphi: complex
    signb: int = 1
    max_iter: int = DEFAULT_MAX_ITER
    complement: complex | None = None

    def __post_init__(self) -> None:
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
        return principal_sqrt(1 - complex(self.k) * complex(self.k))

    def k_squared(self) -> complex:
        if self.complement is not None:
            c = complex(self.complement)
            return (1 - c) * (1 + c)
        return complex(self.k) * complex(self.k)


@dataclass(frozen=True)
class QuartetTrace:
    """One full run of the recursion.

    ``rows`` holds the quartets ``(a_n, g_n, u_n, v_n)`` including the
    initial row; only `run_quartet` records them, and the traces of a
    cloud sweep carry ``rows=()``.  ``s_sum`` is the weighted sum of
    ``a**2 - g**2`` terms, ``z_sum`` the accumulated Zeta series.
    ``ill_conditioned`` is set on root collapse, a degenerate forward root,
    a non-finite intermediate, a Zeta term at ``u == 0``, or a limit tiny
    compared to the start.

    A trace of a walk without the amplitude pair (``amplitude=False``)
    carries only the mean pair: ``u_inf``, ``z_sum`` and the ``u``, ``v``
    of its rows are ``complex(nan, nan)`` and ``zeta_defined`` is False,
    so `incomplete_F` gives NaN and `jacobi_Z` raises.  Its flags come from
    ``(a, g)`` alone: collapse, a non-finite mean, a tiny limit, or
    ``a - g`` not converged.
    """

    rows: tuple[Quartet, ...]
    s_sum: complex
    z_sum: complex
    a_inf: complex
    u_inf: complex
    converged: bool
    ill_conditioned: bool
    zeta_defined: bool = True


def walk_schedules(
    params: QuartetParams,
    schedules: Sequence[SignSchedule],
    *,
    keep_rows: bool = False,
    amplitude: bool = True,
) -> Iterator[tuple[int, QuartetTrace]]:
    """Run the signed recursion for every schedule, stepping each shared sign prefix once.

    Yields ``(index, trace)`` for every position of ``schedules``, in no
    particular order.  The walk is depth first over iterations: schedules
    that agree on their first ``n`` sign bits share the first ``n`` steps.
    At iteration ``n`` the series term and the three roots (Zeta, the mean
    root ``near`` and the forward root ``w``) depend only on the shared
    state, so a node takes them once.  A node holding more than one
    schedule then splits by their bits at iteration ``n``; the children
    differ in the `pair_step` flips and the gamma sign.  A node left with
    one schedule runs to the end in the same loop.  Each trace is bit for
    bit the trace of a walk over its schedule alone.

    Without ``amplitude`` the walk steps the mean pair ``(a, g)`` alone:
    no ``u`` or ``v``, no Zeta term, no forward root, one root per step.
    Schedules then differ only in their sigma bits, so those that share
    them share one trace.  ``a_inf`` and ``s_sum`` are bit for bit those
    of the full walk; the other fields are as `QuartetTrace` describes.

    ``rows`` are recorded only with ``keep_rows``; otherwise every trace
    carries ``rows=()``.  Series terms for row ``n`` are accumulated before
    the row advances: weight ``2**(n-1)`` for the square-difference sum and
    ``2**n`` for the Zeta term.  Non-finite intermediates flag the trace
    instead of raising.
    """
    if not schedules:
        return
    max_iter = params.max_iter
    isfinite = cmath.isfinite
    a = complex(1.0)
    g = params.signb * params.complement_value()
    finite = isfinite(a) and isfinite(g)
    if amplitude:
        sp = complex(params.sinphi)
        u = 1 / sp
        if sp == 1:
            # full amplitude: the second pair is an exact copy of the first
            v = g
        else:
            v = params.signb * principal_sqrt(1 - params.k_squared() * sp * sp) / sp
        finite = finite and isfinite(u) and isfinite(v)
        z_sum = complex(0.0)
    else:
        u = v = z_sum = complex(math.nan, math.nan)

    # Each schedule becomes one int key: its sigma, delta and gamma masks,
    # cut to the W = max_iter bits that apply, in bits [0, W), [W, 2W) and
    # [2W, 3W), and its position above them.  The mean pair reads sigma
    # alone, so without the amplitude pair a key keeps bits [0, W) only.
    # Schedules equal on the kept bits travel together and share one trace.
    full = (1 << max_iter) - 1
    position_shift = 3 * max_iter if amplitude else max_iter
    kept = (1 << position_shift) - 1
    per_bit = (1 | 1 << max_iter | 1 << 2 * max_iter) & kept
    keys = [
        ((s.sigma_mask & full) | (s.delta_mask & full) << max_iter | (s.gamma_mask & full) << 2 * max_iter) & kept
        | i << position_shift
        for i, s in enumerate(schedules)
    ]

    # Pending nodes: the iteration a node resumes at, its keys, whether the
    # shared terms of that iteration are already taken, and the state.
    # A split pushes all parts but one, which goes on in the loop, so the
    # walk holds nothing but the pending siblings.
    rows = [(a, g, u, v)] if keep_rows else None
    stack = [
        (0, keys, False, a, u, a + g, a - g, a * g, u + v, u - v, complex(0.0), z_sum,
         False, False, amplitude, finite, rows, None, None, None, None)
    ]
    while stack:
        (n, group, shared, a, u, s_ag, d_ag, p_ag, s_uv, d_uv, s_sum, z_sum,
         collapsed, degenerate, zeta_defined, finite, rows, zr, near, w, q) = stack.pop()
        # series weights 2**(n-1) and 2**n; doubling a power of two is exact
        s_weight = math.ldexp(0.5, n)
        z_weight = math.ldexp(1.0, n)

        for n in range(n, max_iter):
            if shared:
                shared = False
            else:
                s_sum += s_weight * (s_ag * d_ag)
                if zeta_defined:
                    if u == 0:
                        zeta_defined = False
                        z_sum = complex(math.nan, math.nan)
                    else:
                        zr = signed_root(u * u - a * a, u)
                if p_ag == 0:
                    collapsed = True
                near = signed_root(p_ag, s_ag, tie_positive_imag=True)
                if amplitude:
                    if s_uv == 0:
                        degenerate = True
                    if s_uv == s_ag and d_uv == d_ag:
                        # coinciding pairs: (u+v)**2 - (a-g)**2 == 4ag, so reuse the
                        # mean-pair root and keep the copy exact bit for bit
                        w = near
                    else:
                        w = signed_root((s_uv - d_ag) * (s_uv + d_ag), s_uv) / 2
                q = d_ag * d_ag / 4
                if len(group) > 1:
                    selector = per_bit << n
                    parts: dict[int, list[int]] = {}
                    for key in group:
                        parts.setdefault(key & selector, []).append(key)
                    *others, group = parts.values()
                    for part in others:
                        stack.append(
                            (n, part, True, a, u, s_ag, d_ag, p_ag, s_uv, d_uv, s_sum, z_sum,
                             collapsed, degenerate, zeta_defined, finite, None if rows is None else rows[:],
                             zr, near, w, q)
                        )

            # every key of the group now agrees at bit n
            bits = group[0] >> n
            if zeta_defined:
                z_sum += (-z_weight if bits >> 2 * max_iter & 1 else z_weight) * d_uv * zr / u
            s_weight *= 2.0
            z_weight *= 2.0
            a, g, s_ag, d_ag = pair_step(s_ag, q, near, bits & 1)
            p_ag = a * g
            if amplitude:
                u, v, s_uv, d_uv = pair_step(s_uv, q, w, bits >> max_iter & 1)
            if rows is not None:
                rows.append((a, g, u, v))
            if finite:
                finite = isfinite(a) and isfinite(g) and (not amplitude or isfinite(u) and isfinite(v))

        scale = abs(a)
        converged = bool(
            finite
            and scale > 0.0
            and abs(d_ag) <= CONV_TOL * scale
            and (not amplitude or abs(d_uv) <= CONV_TOL * scale)
        )
        ill = (
            not finite
            or collapsed
            or degenerate
            or (amplitude and not zeta_defined)
            or scale < ILL_CONDITION_RATIO  # relative to |a_0| = 1
        )
        trace = QuartetTrace(
            rows=() if rows is None else tuple(rows),
            s_sum=s_sum,
            z_sum=z_sum,
            a_inf=a,
            u_inf=u,
            converged=converged,
            ill_conditioned=ill,
            zeta_defined=zeta_defined,
        )
        for key in group:
            yield key >> position_shift, trace


def run_quartet(params: QuartetParams, schedule: SignSchedule | None = None) -> QuartetTrace:
    """Run the signed recursion for ``params.max_iter`` iterations on one schedule.

    This is `walk_schedules` over the single schedule (all plus when
    omitted), with its rows recorded.
    """
    ((_, trace),) = walk_schedules(params, (schedule or SignSchedule(),), keep_rows=True)
    return trace


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
