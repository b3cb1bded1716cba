import cmath
import marshal
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiagm.engine import QuartetParams, SignSchedule, jacobi_Z, run_quartet
from multiagm.roots import pair_step, principal_sqrt, signed_root

EPS = 2.220446049250313e-16

finite_complex = st.complex_numbers(
    min_magnitude=1e-8, max_magnitude=1e8, allow_nan=False, allow_infinity=False
)


class TestPrincipalSqrt:
    def test_positive_real(self):
        assert principal_sqrt(4) == 2

    def test_negative_real_breaks_tie_upward(self):
        assert principal_sqrt(-1) == 1j
        # sign of a zero imaginary part must not flip the branch
        assert principal_sqrt(complex(-1.0, -0.0)) == 1j

    def test_negative_imaginary_input(self):
        w = principal_sqrt(-2j)
        assert w == pytest.approx(1 - 1j)
        assert w.real > 0
        assert abs(w * w - (-2j)) < 8 * EPS

    def test_zero(self):
        assert principal_sqrt(0) == 0

    @given(z=finite_complex)
    def test_square_recovers_input(self, z):
        w = principal_sqrt(z)
        assert abs(w * w - z) <= 4 * EPS * abs(z)

    @given(z=finite_complex)
    def test_branch_half_plane(self, z):
        w = principal_sqrt(z)
        assert w.real >= 0
        if w.real == 0:
            assert w.imag >= 0



def principal_then_select(square, reference):
    """`signed_root` as it read when it took the principal root before choosing a sign."""
    w = principal_sqrt(square)
    t = (w / reference).real if reference else 0.0
    if t > 0.0:
        return w
    if t < 0.0:
        return -w
    if w.imag > 0.0:
        return w
    if w.imag < 0.0:
        return -w
    return w


# signed zeros, infinities, the smallest subnormal, tiny and huge magnitudes, and any float at all
EDGE_FLOATS = (0.0, 5e-324, 1e-300, 1e-160, 1.0, 1e160, 1e300, 1.7976931348623157e308, math.inf)
edge_component = st.one_of(st.sampled_from(EDGE_FLOATS + tuple(-x for x in EDGE_FLOATS)), st.floats())
edge_complex = st.builds(complex, edge_component, edge_component)


def same_bits(square, reference):
    # marshal format 2 writes both doubles as they are and, unlike format 3 on, no reference flag
    expected = principal_then_select(square, reference)
    actual = signed_root(square, reference)
    return marshal.dumps(actual, 2) == marshal.dumps(expected, 2)


@given(square=edge_complex, reference=edge_complex)
@settings(max_examples=500)
def test_signed_root_matches_principal_then_select_bit_for_bit(square, reference):
    # negating a root negates its ratio to the reference exactly, so either root chooses the same sign
    assert same_bits(square, reference)


def test_signed_root_matches_principal_then_select_on_every_edge_pair():
    grid = [complex(x, y) for x in EDGE_FLOATS for y in EDGE_FLOATS for x, y in ((x, y), (-x, y), (x, -y), (-x, -y))]
    assert all(same_bits(square, reference) for square in grid for reference in grid)


def near_root(a, g):
    """The root of ``a*g`` nearer to the mean ``(a+g)/2``, spelled as the mean loops and `magm_step` take it."""
    return signed_root(a * g, a + g)


class TestNearRoot:
    def test_positive_reals(self):
        assert near_root(1, 0.25) == 0.5

    def test_opposite_signs_tie(self):
        assert near_root(1, -1) == 1j

    def test_conjugate_pair(self):
        r = near_root(1 + 1j, 1 - 1j)
        assert r == pytest.approx(math.sqrt(2))

    def test_zero_product_collapses(self):
        assert near_root(0, 3 + 1j) == 0

    @given(a=finite_complex, g=finite_complex)
    @settings(max_examples=300)
    def test_square_and_nearness(self, a, g):
        r = near_root(a, g)
        assert abs(r * r - a * g) <= 8 * EPS * abs(a * g)
        mean = (a + g) / 2
        # near root is no farther from the mean than its negation, up to rounding
        slack = 4 * EPS * (abs(r) + abs(mean))
        assert abs(r - mean) <= abs(-r - mean) + slack

    @given(a=finite_complex, g=finite_complex)
    @settings(max_examples=100)
    def test_negation_is_other_root(self, a, g):
        r = near_root(a, g)
        assert (-r) * (-r) == r * r

    def test_deterministic(self):
        args = (0.3 + 0.7j, -1.2 + 0.1j)
        assert repr(near_root(*args)) == repr(near_root(*args))


class TestForwardSRoot:
    """The forward root of the amplitude pair, as `run_quartet` takes it.

    Row 1's ``v`` is half the root of ``(u+v)**2 - (a-g)**2`` of row 0,
    pointing along ``u+v``.
    """

    def test_equal_pair(self):
        # k = 0: a == g, so the forward root is the mean of u and v
        trace = run_quartet(QuartetParams(k=0, sinphi=0.5, max_iter=1))
        assert trace.rows[1] == (1, 1, 2, 2)

    def test_generic_real(self):
        trace = run_quartet(QuartetParams(k=math.sqrt(0.9375), sinphi=0.5, complement=0.25, max_iter=1))
        assert trace.rows[0] == (1, 0.25, 2, 1.75)
        v = trace.rows[1][3]
        assert v == pytest.approx(math.sqrt(13.5) / 2, rel=1e-15)
        assert (v / (2 + 1.75)).real > 0

    def test_degenerate_sum_keeps_principal(self):
        # k = 0 and signb = -1 start with u + v == 0: the tie keeps the
        # principal root and flags the trace
        trace = run_quartet(QuartetParams(k=0, sinphi=0.5, signb=-1, max_iter=1))
        (_, _, u, v), (_, _, _, w) = trace.rows
        assert u + v == 0
        assert w == principal_sqrt(complex(-4)) / 2
        assert trace.ill_conditioned

    @given(k=finite_complex, sinphi=finite_complex)
    @settings(max_examples=200)
    def test_square(self, k, sinphi):
        trace = run_quartet(QuartetParams(k=k, sinphi=sinphi, max_iter=1))
        (a, g, u, v), (_, _, _, w) = trace.rows
        target = ((u + v) ** 2 - (a - g) ** 2) / 4
        assert abs(w * w - target) <= 16 * EPS * (abs((u + v) ** 2) + abs((a - g) ** 2))


class TestZetaRoot:
    """The root of ``u**2 - a**2`` nearer to ``u`` inside the Zeta sum.

    With one iteration the sum is the single term ``(u-v) * root / u`` of
    row 0, where ``a == 1``.
    """

    def test_zero_a(self):
        # k = 0 with the first mean root flipped reaches a == 0 at row 2,
        # where the root is u itself; the terms of rows 0 and 1 vanish
        trace = run_quartet(QuartetParams(k=0, sinphi=0.5, max_iter=3), SignSchedule(sigma_mask=1, delta_mask=2))
        a, _, u, v = trace.rows[2]
        assert a == 0 and u == 2
        assert trace.z_sum == 4 * (u - v)

    def test_real_triangle(self):
        trace = run_quartet(QuartetParams(k=math.sqrt(0.9375), sinphi=0.8, complement=0.25, max_iter=1))
        u, v = trace.rows[0][2:]
        assert u == 1.25
        # root of 1.25**2 - 1 is 0.75
        assert trace.z_sum == pytest.approx((u - v) * 0.75 / 1.25, rel=1e-15)

    def test_imaginary_u(self):
        trace = run_quartet(QuartetParams(k=0.5, sinphi=-1j, max_iter=1))
        u, v = trace.rows[0][2:]
        assert u == 1j
        # root of -2 nearer to u = 1j is 1j * sqrt(2)
        assert trace.z_sum == pytest.approx((u - v) * math.sqrt(2), rel=1e-15)

    def test_u_zero_raises(self):
        # u + v == 0 at row 0 makes u == 0 at row 1
        trace = run_quartet(QuartetParams(k=0, sinphi=0.5, signb=-1, max_iter=2))
        assert trace.rows[1][2] == 0
        assert not trace.zeta_defined
        assert trace.ill_conditioned
        with pytest.raises(ValueError, match="u=0"):
            jacobi_Z(trace)


class TestPairStep:
    def test_no_flip_adds_into_the_sum(self):
        mean, other, s, d = pair_step(1.25, 0.140625, 0.5)
        assert (mean, other, s) == (0.625, 0.5, 1.125)
        assert d == 0.140625 / 1.125

    @given(s=finite_complex, d=finite_complex)
    @settings(max_examples=200)
    def test_product_identity(self, s, d):
        # the root of the new pair's product, as every loop takes it
        a, g = (s + d) / 2, (s - d) / 2
        root = near_root(a, g)
        q = d * d / 4
        mean, other, s_new, d_new = pair_step(s, q, root)
        assert mean == s / 2
        assert other == root
        assert s_new * d_new == pytest.approx(q, rel=8 * EPS, abs=0)
        # the sum adds mean and root; the difference is mean - root,
        # obtained without subtracting
        assert s_new == mean + root
        assert abs(d_new - (mean - root)) <= 16 * EPS * (abs(s) + abs(d))

    def test_zero_divisor(self):
        # the new sum is 0: the difference is 0 when q == 0, NaN otherwise
        _, _, s, d = pair_step(2, 0, -1)
        assert (s, d) == (0, 0)
        _, _, s, d = pair_step(2, 1, -1)
        assert s == 0
        assert cmath.isnan(d.real) and cmath.isnan(d.imag)


class TestSignedRoot:
    def test_tie_principal_vs_positive_imag(self):
        # square -4 has roots +-2j; reference 0 forces the tie path
        assert signed_root(-4, 0) == 2j
        # a real-root tie keeps the principal (positive real) value
        assert signed_root(4, 1j) == 2
        # where the principal root has a negative imaginary part, a tie takes the other root
        assert principal_sqrt(-2j) == pytest.approx(1 - 1j)
        assert signed_root(-2j, 0) == -principal_sqrt(-2j)

    @given(z=finite_complex, ref=finite_complex)
    @settings(max_examples=200)
    def test_half_plane(self, z, ref):
        w = signed_root(z, ref)
        assert (w / ref).real >= -4 * EPS * max(1.0, abs(w / ref))
