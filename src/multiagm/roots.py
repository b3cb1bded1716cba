"""Complex square roots with explicit branch selection, and the pair update.

The sign conventions live in the selectors below.  Every square root
outside the two sweep loops of `engine` goes through one of them.  Those
loops take every root, mean, forward and Zeta, with `signed_root`'s
sign test inline, so that a step makes no Python call.  They hand a mean
tie to `signed_root`, which takes the root with positive imaginary part,
and a forward or Zeta tie to `principal_sqrt`.
`pair_step` carries a pair as sum and difference and gets the difference,
which would cancel, from the exact identity ``sum' * diff' = diff**2 / 4``.
The oracle's AGM loop calls it, and the sweeps repeat its operations inline
in the same order, so both give the same bits; a sweep's sign flip swaps
the new sum and difference and negates the root in place.
All functions are pure and operate on IEEE double complex scalars.
"""

from __future__ import annotations

import cmath
import math

__all__ = [
    "principal_sqrt",
    "signed_root",
    "pair_step",
    "complement",
]


def principal_sqrt(z: complex) -> complex:
    """Square root with Re >= 0; if Re == 0 the imaginary part is >= 0.

    Differs from ``cmath.sqrt`` only in ignoring the sign of a negative
    zero, so that e.g. ``-4-0j`` and ``-4+0j`` both map to ``2j``.
    """
    w = cmath.sqrt(z)
    if w.real < 0.0 or (w.real == 0.0 and w.imag < 0.0):
        w = -w
    return w


def complement(x: complex) -> complex:
    """The complement of modulus ``x``, principal ``sqrt((1 - x) * (1 + x))``: ``1 - x*x`` would cancel near 1."""
    return principal_sqrt((1 - x) * (1 + x))


def signed_root(square: complex, reference: complex) -> complex:
    """Root ``w`` of ``square`` lying within 90 degrees of ``reference``.

    Of the two roots ``+-w`` the one with ``Re(w/reference) >= 0`` is
    returned.  Exact ties (including ``reference == 0``) resolve to the
    root with positive imaginary part, and to the principal root when its
    imaginary part is zero.
    """
    # either root decides: negating w negates w/reference exactly, so the principal one is needed only on a tie
    w = cmath.sqrt(square)
    t = (w / reference).real if reference else 0.0
    if t > 0.0:
        return w
    if t < 0.0:
        return -w
    w = principal_sqrt(square)
    return -w if w.imag < 0.0 else w


def pair_step(s: complex, q: complex, root: complex) -> tuple[complex, complex, complex, complex]:
    """Advance a pair carried as its sum ``s`` to ``(s/2, root)``.

    ``root`` is the chosen root of the new pair, and ``q`` must equal
    ``diff**2 / 4`` for the pair's current difference.  The new sum adds
    ``s/2`` and ``root``; the new difference, which a subtraction would
    cancel, is ``q`` divided by that sum.  A zero divisor gives 0 when
    ``q == 0`` and NaN otherwise.  Returns ``(mean, root, sum', diff')``.
    """
    mean = s / 2
    added = mean + root
    if added:
        divided = q / added
    else:
        divided = complex(0.0) if q == 0 else complex(math.nan, math.nan)
    return mean, root, added, divided
