"""Signed quartet recursion for complete and incomplete elliptic integrals.

A classical AGM pair ``(a, g)`` runs alongside a second pair ``(u, v)``
seeded from the amplitude, with a free ``+-1`` branch choice for every
square root.  One converged trace yields K, F (any arcsine branch),
E and the Jacobi Zeta value for the chosen sign schedule.

Internally both pairs are carried as sums and differences and advanced by
the operations of `roots.pair_step`, inline in the sweep loops, which get
the member that a subtraction would cancel from the exact identity
``sum' * diff' = diff**2 / 4``.  Sign flips applied
after the pair has nearly converged are therefore evaluated to full
relative precision, where the textbook recurrences would lose the value
entirely.

The three kinds of sign bit reach different state.  The mean pair reads
the sigma bits alone, the amplitude pair the sigma and delta bits, and a
gamma bit only negates one Zeta term.  So `sweep_sigma`, the one mean
loop, walks the binary tree of sigma prefixes, one mean root per node and
step.  For F and Zeta it records each mask's path, and `sweep_quartet`
walks the tree of delta prefixes along it, one forward root per node and
step and a Zeta root only for Zeta; `zeta_sum` signs and adds the finished
terms per gamma mask.  Both sweeps yield bare leaves of one layout,
``(sigma_mask, delta_mask, a_inf, s_sum, u_inf, converged, ill, terms)``.
`run_quartet` is the one-schedule case, and the only builder of a
`QuartetTrace`.  A node may stop or settle before ``max_iter`` (see
`_sweep_delta`), but every leaf is bit for bit its own `run_quartet`.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from collections.abc import Iterator, Sequence
from marshal import dumps

from .roots import complement, principal_sqrt, signed_root

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
    "complete_K_of",
    "incomplete_F_of",
    "complete_E_of",
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


class SignSchedule(namedtuple("SignSchedule", "sigma_mask delta_mask gamma_mask", defaults=(0, 0, 0))):
    """Per-iteration branch choices; bit ``n`` set means ``-1`` at iteration ``n``.

    ``sigma_mask`` drives the geometric-mean root, ``delta_mask`` the
    forward root of the amplitude pair, ``gamma_mask`` the root inside the
    Zeta accumulation.
    Bits beyond an iteration count simply never apply; all-zero masks
    reproduce the plain convergent iteration.
    """

    __slots__ = ()
    sigma_mask: int
    delta_mask: int
    gamma_mask: int

    def generation(self) -> int:
        """1 + index of the last iteration carrying a nontrivial sign (0 if none)."""
        return max(
            self.sigma_mask.bit_length(),
            self.delta_mask.bit_length(),
            self.gamma_mask.bit_length(),
        )


class QuartetParams(
    namedtuple("QuartetParams", "k sinphi signb max_iter complement", defaults=(1, DEFAULT_MAX_ITER, None))
):
    """Inputs of the recursion.

    ``k`` is the modulus and ``sinphi`` the sine of the amplitude, both
    complex-capable.  ``signb`` multiplies the two initial square roots.
    ``complement`` optionally supplies an exact value of ``sqrt(1-k**2)``
    so that callers parameterising by the complementary modulus do not
    round-trip it through ``k``.  Once it is given ``k`` is never read and
    may be None; one of the two must be given.
    """

    __slots__ = ()
    k: complex | None
    sinphi: complex
    signb: int
    max_iter: int
    complement: complex | None

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
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
        return self

    # `_replace` builds through `_make`, so a replaced record is checked too
    _make = classmethod(lambda cls, fields: cls(*fields))

    def complement_value(self) -> complex:
        if self.complement is not None:
            return complex(self.complement)
        return complement(complex(self.k))

    def k_squared(self) -> complex:
        if self.complement is not None:
            c = complex(self.complement)
            return (1 - c) * (1 + c)
        return complex(self.k) * complex(self.k)


class QuartetTrace(
    namedtuple("QuartetTrace", "rows s_sum z_sum a_inf u_inf converged ill_conditioned zeta_defined", defaults=(True,))
):
    """One full run of the recursion on one schedule, as `run_quartet` gives it.

    ``rows`` holds the quartets ``(a_n, g_n, u_n, v_n)`` including the
    initial row, the fixed row repeated after a stop.  ``s_sum`` is the
    weighted sum of ``a**2 - g**2`` terms, ``z_sum`` the Zeta series.
    ``ill_conditioned`` is set on root collapse, a degenerate forward root,
    a non-finite intermediate, a Zeta term at ``u == 0``, or a limit tiny
    compared to the start.

    Only `run_quartet` builds one; a trace and a sweep leaf give their
    values through `complete_K_of`, `complete_E_of` and `incomplete_F_of`.
    """

    __slots__ = ()
    rows: tuple[Quartet, ...]
    s_sum: complex
    z_sum: complex
    a_inf: complex
    u_inf: complex
    converged: bool
    ill_conditioned: bool
    zeta_defined: bool


def sweep_sigma(
    params: QuartetParams, sigma_bits: int, sigma_mask: int = 0, path: list | None = None, series: bool = True
) -> Iterator[tuple[int, int, complex, complex | None, None, bool, bool, tuple]]:
    """Run the mean pair ``(a, g)`` for every sigma mask below ``2**sigma_bits``.

    Yields one leaf per mask, in no particular order, in the layout of
    `sweep_quartet`: ``(mask, 0, a_inf, s_sum, None, converged, ill, ())``,
    ``a_inf`` and ``s_sum`` bit for bit as `run_quartet` over
    ``SignSchedule(mask)`` gives them, and flags from ``(a, g)`` alone.
    The sweep is depth first over the binary tree of sigma prefixes: at every
    node and iteration it takes the one mean root, and below ``sigma_bits``
    it steps the pair once from that root, keeps the flipped child for
    later and goes on with the other.  Higher bits come from ``sigma_mask``,
    which must leave the free bits clear.
    Past its last flip a node stops at its exact fixed point, as
    `_sweep_delta` proves.

    ``series`` accumulates the E series ``s_sum``, which only E and N read.
    Without it a step skips the series term and each leaf carries ``s_sum``
    None; `clouds.enumerate_cloud` passes ``series=False`` for K, the one
    kind that reads the mean limit alone, and `sweep_quartet` and
    `run_quartet` keep the series.

    A step calls no Python function but on a tie.  It takes the mean root as
    `roots.signed_root` does, ``w = sqrt(a * g)`` kept or negated by the sign
    of ``Re(w / s_ag)``, and hands the tie, where that is 0 or NaN, to
    `signed_root` itself.  Then it updates the pair with the operations of
    `roots.pair_step`, in its order, so every leaf is bit for bit the same.
    The step always takes the unflipped branch; below the highest free or
    fixed bit a set fixed bit swaps its new sum and difference and negates
    ``g``, which gives the flipped branch's bits, and a free bit pushes that
    swap as the flipped child.

    Finite.  A node carries no finite flag: the current ``a`` and ``g`` give
    it.  Once ``a`` or ``g`` is not finite, neither is ``a * g`` (each part
    of a naive complex product holds a product of the infinite or NaN part
    with a factor, which is infinite, or NaN when that factor is 0) nor its
    root (``cmath.sqrt`` maps every non-finite value to a non-finite one),
    so ``g`` is not finite on any later row, flipped or not.  Hence every
    row so far was finite exactly when the current ``a`` and ``g`` are, and
    that is what the leaf's flags read.  The amplitude pair keeps its flag:
    a delta flip divides by the infinite sum and can bring it back to
    finite values.

    Only a finite state stops.  A step that repeats ``(a, g, s_ag, d_ag)``
    with ``d_ag == 0`` has ``g = near``, ``s_ag = a + g``, ``a = s_ag / 2``
    and ``d_ag = q / s_ag`` with ``q == 0``.  If ``a`` or ``g`` holds a NaN,
    ``a * g`` is NaN in both parts, and so are its root and ``s_ag``; a
    quotient by a complex with a NaN part is NaN, not 0.  If neither does,
    but one is not finite, then ``g`` is not finite, for the root of the
    non-finite ``a * g`` never equals a finite ``g``.  So ``s_ag = a + g``
    has a part that is infinite or NaN, and ``s_ag / 2``, which divides by
    the complex ``2 + 0j``, multiplies that part by 0 into the other part of
    ``a``: ``a`` holds a NaN, which the first case excludes.  So the stop
    test needs no finite check.  The last step reads how CPython divides a
    complex by an int, as by a complex; `tests/test_engine.py` asserts
    that arithmetic, so a Python that divides part by part fails that test.

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
    sqrt = cmath.sqrt
    stop_from = max(sigma_bits - 1, sigma_mask.bit_length())
    # from iteration top on no bit is free or fixed, and each step takes the unflipped branch alone
    top = max(sigma_bits, sigma_mask.bit_length())
    a = complex(1.0)
    g = params.signb * params.complement_value()
    # Pending nodes: the iteration a node resumes at, its mask, and the state.
    stack = [(0, sigma_mask, a, g, a + g, a - g, complex(0.0) if series else None, False)]
    while stack:
        n, mask, a, g, s_ag, d_ag, s_sum, collapsed = stack.pop()
        if series:
            # series weight 2**(n-1); doubling a power of two is exact
            weight = math.ldexp(0.5, n)
        for n in range(n, max_iter):
            if series:
                s_sum += weight * (s_ag * d_ag)
                weight *= 2.0
            p_ag = a * g
            if not p_ag:
                collapsed = True
            # roots.signed_root inline; a tie goes to it
            near = sqrt(p_ag)
            t = (near / s_ag).real if s_ag else 0.0
            if not t > 0.0:
                near = -near if t < 0.0 else signed_root(p_ag, s_ag, tie_positive_imag=True)
            q = d_ag * d_ag / 4
            if path:
                path[n] = (a, g, s_ag, d_ag, near, q)
            # marshal writes the bytes of each double, so unlike == it tells signed zeros apart
            before = None if d_ag or n < stop_from else dumps((a, g, s_ag, d_ag), 2)
            # roots.pair_step inline, operation for operation
            a = s_ag / 2
            added = a + near
            if added:
                divided = q / added
            else:
                divided = complex(0.0) if q == 0 else complex(math.nan, math.nan)
            g, s_ag, d_ag = near, added, divided
            if n < top:
                # the flipped step swaps sum and difference and negates g
                if n < sigma_bits:
                    # bit n is free, and clear here: the flipped child waits on the stack
                    stack.append((n + 1, mask | 1 << n, a, -g, d_ag, s_ag, s_sum, collapsed))
                elif mask >> n & 1:
                    g, s_ag, d_ag = -g, d_ag, s_ag
            if before and before == dumps((a, g, s_ag, d_ag), 2):
                if path:
                    path[n + 1 : max_iter] = [path[n]] * (max_iter - 1 - n)
                break
        if path:
            path[max_iter] = (a, g)

        finite = isfinite(a) and isfinite(g)
        scale = abs(a)
        converged = bool(finite and scale > 0.0 and abs(d_ag) <= CONV_TOL * scale)
        ill = not finite or collapsed or scale < ILL_CONDITION_RATIO  # relative to |a_0| = 1
        yield mask, 0, a, s_sum, None, converged, ill, ()


def _sweep_delta(params: QuartetParams, path: list, mean: tuple, delta_bits: int, delta_mask: int = 0,
                 zeta: bool = True, uv_rows: list | None = None):
    """Step the amplitude pair ``(u, v)`` along one sigma mask's ``path`` for every free delta prefix.

    ``mean`` is that mask's `sweep_sigma` leaf.  Depth first over the tree
    of delta prefixes as `sweep_sigma` walks sigma, higher bits from
    ``delta_mask``, whose free bits are clear: one forward root per node and
    iteration, and with ``zeta`` a Zeta root, from which the iteration's
    term ``2**n * d_uv * zr / u`` is finished at once.  Yields one leaf per
    delta mask in the layout of `sweep_quartet`, with ``terms`` ``()``
    without ``zeta``; ``uv_rows``, with ``zeta`` and no free bits only,
    collects ``(u, v)`` per row.  The forward root and the pair update are
    inline, as in `sweep_sigma`; the Zeta root is a `signed_root` call.

    Stop.  Past its last flip a node of either sweep stops after a step
    that leaves its finite state bit for bit as it was, with a zero
    difference: ``(a, g, s_ag, d_ag)`` on the mean pair, which
    `sweep_sigma` shows to be finite, and ``(u, s_uv)`` on the amplitude
    pair once its path is fixed.  Every later step would
    repeat the state and add a signed zero to each series, or, for a Zeta
    root that is not finite, the NaN that the series already holds; a sum
    from +0 never changes by adding a signed zero.

    Settle.  Without ``zeta`` a node past its last flip may finish sooner.
    Say a step on row ``n`` leaves ``s_uv`` unchanged, and on this row and
    every later one each component of ``d_ag`` lies below a quarter ulp of
    the matching component of ``s_uv`` (a quarter, since the spacing below a
    power of two is half an ulp) and ``s_ag`` differs from ``s_uv``.  Then
    no row from ``n`` on takes the coinciding branch, which needs
    ``s_ag == s_uv``, and each ``s_uv -+ d_ag`` rounds to ``s_uv`` exactly.
    So every later square, root ``w``, ``u`` and ``s_uv`` repeat this row's
    bit for bit.  ``ulp(x) / 4`` is 0 for every ``|x| < 2**-1020``, zero
    included, so both components of ``s_uv`` are nonzero, and so is
    ``u = s_uv / 2``: neither ``degenerate`` nor an undefined Zeta can
    arise.  Nor can ``finite`` change, as every later row would recompute it
    from the ``s_uv`` and ``w`` that this row's step read.  Only
    ``d_uv = q / s_uv`` still moves, and only ``converged`` reads it, once,
    after the last row.  That row's ``q`` is ``fixed[5]``: a stepped finish
    either runs to the last row or stops on a row of the mean's fixed path,
    all of which are the last.  So one division finishes the leaf.  The
    check reads the rows only up to the mean's stop, since every row from
    there on is the one fixed object.  Zeta keeps stepping: its root reads
    ``a`` on every row.
    """
    isfinite = cmath.isfinite
    sqrt = cmath.sqrt
    ulp = math.ulp
    max_iter = params.max_iter
    fixed = path[max_iter - 1]
    stop_from = max(delta_bits - 1, delta_mask.bit_length())
    top = max(delta_bits, delta_mask.bit_length())
    sigma_mask, _, a_inf, s_sum, _, mean_converged, mean_ill, _ = mean
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
                # roots.signed_root inline, as in `sweep_sigma`
                square = (s_uv - d_ag) * (s_uv + d_ag)
                w = sqrt(square)
                t = (w / s_uv).real if s_uv else 0.0
                if not t > 0.0:
                    w = -w if t < 0.0 else signed_root(square, s_uv)
                w /= 2
            if finite:
                # both children step to (s_uv / 2, +-w)
                finite = isfinite(s_uv) and isfinite(w)
            # a fixed path has q == 0, so d_uv stays 0 and every later Zeta term is a signed
            # zero, or NaN as this step's term already is if the Zeta root is not finite
            before = None if d_uv or n < stop_from or not finite or path[n] is not fixed else dumps((u, s_uv), 2)
            s_in = s_uv
            # roots.pair_step inline, operation for operation
            u = s_uv / 2
            added = u + w
            if added:
                divided = q / added
            else:
                divided = complex(0.0) if q == 0 else complex(math.nan, math.nan)
            v, s_uv, d_uv = w, added, divided
            if n < top:
                # as in `sweep_sigma`: the flipped step swaps sum and difference and negates v
                if n < delta_bits:
                    stack.append(
                        (n + 1, mask | 1 << n, u, d_uv, s_uv, degenerate, finite, None if terms is None else terms[:])
                    )
                elif mask >> n & 1:
                    v, s_uv, d_uv = -v, d_uv, s_uv
            if uv_rows is not None:
                uv_rows.append((u, v))
            if before and before == dumps((u, s_uv), 2):
                if uv_rows is not None:
                    uv_rows.extend([uv_rows[-1]] * (max_iter - 1 - n))
                break
            if not zeta and n >= stop_from and s_uv == s_in:
                # this row and every later one up to the mean's stop, after which each row is the fixed one
                bound_re, bound_im = ulp(s_uv.real) / 4, ulp(s_uv.imag) / 4
                row, later = path[n], n
                while row[2] != s_uv and abs(row[3].real) < bound_re and abs(row[3].imag) < bound_im:
                    if row is fixed:
                        break
                    later += 1
                    row = path[later]
                else:
                    # a row fails: keep stepping
                    continue
                # settled: the last row's q over the sum that every later row repeats
                d_uv = fixed[5] / s_uv
                break

        converged = bool(mean_converged and finite and abs(d_uv) <= CONV_TOL * abs(a_inf))
        ill = mean_ill or not finite or degenerate or terms is None
        yield sigma_mask, mask, a_inf, s_sum, u, converged, ill, terms


def sweep_quartet(
    params: QuartetParams, sigma_bits: int, delta_bits: int, zeta: bool = True
) -> Iterator[tuple[int, int, complex, complex, complex, bool, bool, list[complex] | tuple | None]]:
    """Run the recursion for every sigma and delta mask below ``2**sigma_bits`` and ``2**delta_bits``.

    Yields one leaf ``(sigma_mask, delta_mask, a_inf, s_sum, u_inf,
    converged, ill, terms)`` per pair, in no particular order; higher bits
    are plus.  The amplitude pair walks the tree of delta prefixes along
    each mean path that `sweep_sigma` records.  ``terms`` holds the Zeta
    terms for ``zeta_sum(terms, gamma_mask)``, is empty without ``zeta``,
    and is None where Zeta is undefined.  Each leaf is bit for bit the
    trace of `run_quartet` over ``SignSchedule(sigma_mask, delta_mask)``
    without its rows and Zeta sum, ``ill`` its ``ill_conditioned``.
    """
    max_iter = params.max_iter
    if not 0 <= delta_bits <= max_iter:
        raise ValueError(f"delta_bits must lie in [0, {max_iter}]")
    path: list = [None] * (max_iter + 1)
    for mean in sweep_sigma(params, sigma_bits, path=path):
        yield from _sweep_delta(params, path, mean, delta_bits, zeta=zeta)


def zeta_sum(terms: Sequence[complex] | None, gamma_mask: int) -> complex:
    """The Zeta series of one gamma mask: the finished terms in iteration order, bit ``n`` negating term ``n``.

    ``None``, a trace whose Zeta went undefined at ``u == 0``, gives NaN.
    Terms after a stop would each be the last term again, a signed zero or
    NaN, and are left out.  Negation is exact, so a term signed here differs
    from one signed before its product only in the sign of a zero, which a
    sum from +0 never shows, or of a NaN, which the sum keeps but no printed
    value shows.
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
    (mean,) = sweep_sigma(params, 0, schedule.sigma_mask, path)
    uv_rows: list = []
    (leaf,) = _sweep_delta(params, path, mean, 0, schedule.delta_mask, uv_rows=uv_rows)
    _, _, a_inf, s_sum, u_inf, converged, ill, terms = leaf
    rows = tuple((a, g, u, v) for (a, g, *_), (u, v) in zip(path, uv_rows))
    z_sum = zeta_sum(terms, schedule.gamma_mask)
    return QuartetTrace(rows, s_sum, z_sum, a_inf, u_inf, converged, ill, terms is not None)


def complete_K_of(a_inf: complex) -> complex:
    """Quarter period ``pi / (2 a_inf)`` of a mean limit, NaN at 0."""
    if a_inf == 0:
        return complex(math.nan, math.nan)
    return math.pi / 2 / a_inf


def incomplete_F_of(a_inf: complex, u_inf: complex, branch: int = 0) -> complex:
    """First-kind incomplete integral from the two limits, on a chosen arcsine branch.

    Branch 0 uses the principal arcsine.  An even branch ``n`` adds ``n*pi``
    to the principal value; an odd branch ``m`` negates it and adds ``m*pi``.
    """
    if u_inf == 0:
        raise ValueError("amplitude limit degenerate")
    if a_inf == 0:
        return complex(math.nan, math.nan)
    base = cmath.asin(a_inf / u_inf)
    if branch % 2:
        base = -base
    return (base + branch * math.pi) / a_inf


def complete_E_of(a_inf: complex, s_sum: complex) -> complex:
    """Second-kind complete integral ``K * (1 - s_sum)`` from the mean limit and series."""
    return complete_K_of(a_inf) * (1 - s_sum)


def complete_K(trace: QuartetTrace) -> complex:
    """Quarter period ``pi / (2 a_inf)`` of the trace."""
    return complete_K_of(trace.a_inf)


def incomplete_F(trace: QuartetTrace, branch: int = 0) -> complex:
    """First-kind incomplete integral from the trace, on a chosen arcsine branch (see `incomplete_F_of`)."""
    return incomplete_F_of(trace.a_inf, trace.u_inf, branch)


def complete_E(trace: QuartetTrace) -> complex:
    """Second-kind complete integral ``K * (1 - s_sum)``."""
    return complete_E_of(trace.a_inf, trace.s_sum)


def jacobi_Z(trace: QuartetTrace) -> complex:
    """Accumulated Jacobi Zeta value of the trace."""
    if not trace.zeta_defined:
        raise ValueError("zeta accumulation undefined: hit u=0 along the trace")
    return trace.z_sum
