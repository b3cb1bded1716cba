"""Complex square roots with explicit branch selection, and the pair update.

Every square root taken anywhere in this package goes through one of the
selectors below, so the sign conventions live in a single audited place.
Every AGM-style loop advances its pairs through `pair_step`, which carries
a pair as sum and difference and gets the member that would cancel from
the exact identity ``sum' * diff' = diff**2 / 4``.
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


def signed_root(square: complex, reference: complex, *, tie_positive_imag: bool = False) -> complex:
    """Root ``w`` of ``square`` lying within 90 degrees of ``reference``.

    Of the two roots ``+-w`` the one with ``Re(w/reference) >= 0`` is
    returned.  Exact ties (including ``reference == 0``) resolve to the
    root with positive imaginary part when ``tie_positive_imag`` is set
    and to the principal root otherwise.
    """
    w = principal_sqrt(square)
    t = (w / reference).real if reference else 0.0
    if t > 0.0:
        return w
    if t < 0.0:
        return -w
    if tie_positive_imag:
        if w.imag > 0.0:
            return w
        if w.imag < 0.0:
            return -w
    return w


def pair_step(s: complex, q: complex, root: complex, flip: int) -> tuple[complex, complex, complex, complex]:
    """Advance a pair carried as its sum ``s`` to ``(s/2, +-root)``.

    ``root`` is the chosen root of the new pair; a nonzero ``flip`` negates it.
    ``q`` must equal ``diff**2 / 4`` for the pair's current difference.
    Of the new sum and difference, the one that adds ``s/2`` and ``root``
    is computed directly; the other, which a subtraction would cancel, is
    ``q`` divided by it.  A zero divisor gives 0 when ``q == 0`` and NaN
    otherwise.  Returns ``(mean, other, sum', diff')``.
    """
    mean = s / 2
    added = mean + root
    if added:
        divided = q / added
    else:
        divided = complex(0.0) if q == 0 else complex(math.nan, math.nan)
    if flip:
        return mean, -root, divided, added
    return mean, root, added, divided
