import cmath
import math
from decimal import Decimal, localcontext

import pytest

from multiagm import QuartetParams, complete_from_complement, landen_check, quad_E_inc, quad_F, reference_set
from multiagm.oracle import QUAD_TOL, adaptive_simpson
from multiagm.roots import signed_root

K_SQRT09375 = math.sqrt(0.9375)
K_SET = (0.1, 0.25, 0.5, K_SQRT09375, 0.99)

# (0, 1), near 0, near 1, negative, complex, and inputs that never converge
B_GRID = (
    0.25, 0.5, 0.75, 0.1, 1e-300, 5e-324, 1e-8, 1 - 1e-16, 1 - 1e-9, 1.0, 0.9999999,
    -0.5, -1e-300, -1.0, -2.0, -1 + 1e-300j,
    1j, 0.3 + 0.4j, -0.2 + 1j, 2 - 1j, 1e-300j, 1e3 + 1e3j,
    1e300, math.inf, math.nan,
)


def reference_complete_from_complement(b):
    """The oracle's own plain loop: the sum and difference updated in line."""
    b = complex(b)
    if b == 0:
        raise ValueError("logarithmic singularity")
    a, g = complex(1.0), b
    s, d = a + g, a - g
    total = complex(0.0)
    for n in range(64):
        total += 2.0 ** (n - 1) * (s * d)
        if abs(d) <= 1e-17 * abs(a):
            break
        near = signed_root(a * g, s)
        a, g = s / 2, near
        q = d * d / 4
        s = a + near
        d = q / s if s != 0 else complex(0.0)
    big_k = math.pi / 2 / a
    return big_k, big_k * (1 - total)


@pytest.mark.parametrize("b", B_GRID)
def test_complete_from_complement_is_bit_identical_to_reference_loop(b):
    # repr tells signed zeros and NaN positions apart, unlike ==
    assert repr(complete_from_complement(b)) == repr(reference_complete_from_complement(b))


class TestRefComplete:
    """Complete integrals K(k), E(k) of `reference_set` given the modulus."""

    def test_zero_modulus(self):
        K, E = complete_from_complement(1.0)
        assert K == math.pi / 2
        assert E == math.pi / 2

    def test_default_modulus(self):
        K = reference_set(k=K_SQRT09375).K_k
        assert K == pytest.approx(2.80121, abs=1e-5)
        assert K == pytest.approx(2.801206084665204, rel=1e-14)

    def test_quarter_complement(self):
        refs = reference_set(k=0.25)
        K, E = refs.K_k, refs.E_k
        assert K == pytest.approx(1.5962, abs=1e-4)
        assert E == pytest.approx(1.5460, abs=1e-4)
        assert K == pytest.approx(1.5962422221317835, rel=1e-14)
        assert E == pytest.approx(1.5459572561054650, rel=1e-14)

    def test_singularity_raises(self):
        with pytest.raises(ValueError, match="logarithmic singularity"):
            reference_set(k=1.0)
        with pytest.raises(ValueError, match="logarithmic singularity"):
            complete_from_complement(0.0)

    def test_monotone_on_unit_interval(self):
        ks = [0.05, 0.2, 0.4, 0.6, 0.8, 0.95]
        refs = [reference_set(k=k) for k in ks]
        Ks = [r.K_k.real for r in refs]
        Es = [r.E_k.real for r in refs]
        assert all(a < b for a, b in zip(Ks, Ks[1:]))
        assert all(a > b for a, b in zip(Es, Es[1:]))


class TestQuadrature:
    def test_simpson_sine(self):
        assert adaptive_simpson(math.sin, 0.0, math.pi) == pytest.approx(2.0, abs=QUAD_TOL)

    def test_zero_amplitude(self):
        assert quad_F(0.0, 0.5) == 0.0
        assert quad_E_inc(0.0, 0.5) == 0.0

    @pytest.mark.parametrize("k", [0.1, 0.25, 0.5, K_SQRT09375, 0.99])
    def test_full_amplitude_meets_agm(self, k):
        K = reference_set(k=k).K_k
        assert quad_F(math.pi / 2, k) == pytest.approx(K.real, abs=1e-10)

    def test_full_second_kind_meets_agm(self):
        E = reference_set(k=K_SQRT09375).E_k
        assert quad_E_inc(math.pi / 2, K_SQRT09375) == pytest.approx(E.real, abs=1e-10)

    def test_zeta_convention_value(self):
        # the first argument of the printed Zeta example reads as sin(phi)
        k = K_SQRT09375
        refs = reference_set(k=k)
        K, E = refs.K_k, refs.E_k
        z = quad_E_inc(math.asin(0.5), k) - quad_F(math.asin(0.5), k) * (E / K).real
        assert z == pytest.approx(0.2920, abs=5e-4)

    def test_range_checks(self):
        with pytest.raises(ValueError):
            quad_F(-0.1, 0.5)
        with pytest.raises(ValueError):
            quad_F(2.0, 0.5)
        with pytest.raises(ValueError):
            quad_F(0.5, 1.0)
        with pytest.raises(ValueError):
            quad_E_inc(0.5, -0.2)


class TestIdentities:
    @pytest.mark.parametrize("k", K_SET)
    def test_legendre(self, k):
        assert reference_set(k=k).legendre_residual() < 1e-12

    @pytest.mark.parametrize("b", [0.25, 0.5])
    def test_landen_products(self, b):
        res2, res4 = landen_check(b)
        assert res2 < 1e-12
        assert res4 < 1e-12

    def test_landen_near_degenerate_corner(self):
        res2, res4 = landen_check(0.999)
        assert res2 < 1e-10
        assert res4 < 1e-10

    def test_landen_domain(self):
        with pytest.raises(ValueError):
            landen_check(0.0)
        with pytest.raises(ValueError):
            landen_check(1.0)


class TestZetaLatticeUnit:
    def test_default_modulus(self):
        q = reference_set(k=K_SQRT09375).qZ
        assert q.real == 0
        assert q.imag == pytest.approx(2.2430, abs=1e-4)
        assert q.imag == pytest.approx(2.2430285802876, rel=1e-12)

    def test_small_modulus_limit(self):
        assert abs(reference_set(k=1e-6).qZ - 4j) < 1e-11

    def test_half(self):
        refs = reference_set(k=0.5)
        K = refs.K_k
        assert refs.qZ == pytest.approx(2j * math.pi / K.real)
        assert K.real == pytest.approx(1.685750354812596, rel=1e-14)

    def test_domain(self):
        # both ends of (0, 1) put one of K(k), K(b) on its singularity
        with pytest.raises(ValueError):
            reference_set(k=0.0)
        with pytest.raises(ValueError):
            reference_set(k=1.0)


class TestReferenceSet:
    def test_requires_exactly_one_parameter(self):
        with pytest.raises(ValueError):
            reference_set()
        with pytest.raises(ValueError):
            reference_set(b=0.25, k=0.5)

    def test_b_and_k_paths_agree(self):
        by_b = reference_set(b=0.25)
        by_k = reference_set(k=by_b.k)
        assert by_k.K_k == pytest.approx(by_b.K_k, rel=1e-14)
        assert by_k.K_b == pytest.approx(by_b.K_b, rel=1e-14)

    @pytest.mark.parametrize("k", [1 - 2**-30, 0.9999999, 0.5, 1e-9])
    def test_complement_of_k_is_exact_and_shared_with_the_engine(self, k):
        b = reference_set(k=k).b
        assert repr(b) == repr(QuartetParams(k=k, sinphi=0.5).complement_value())
        with localcontext() as ctx:
            ctx.prec = 50
            exact = (1 - Decimal(k) * Decimal(k)).sqrt()
        assert b.imag == 0
        assert abs(Decimal(b.real) - exact) <= Decimal(math.ulp(b.real))

    @pytest.mark.parametrize("moduli", [{"b": 1e300}, {"b": 1.4e154}, {"k": 1e300}])
    def test_overflowing_modulus_raises_naming_b_and_k(self, moduli):
        with pytest.raises(ValueError, match=r"^overflow: .* at b = .*, k = "):
            reference_set(**moduli)

    def test_largest_finite_modulus(self):
        refs = reference_set(b=1.3e154)
        assert all(map(cmath.isfinite, (refs.k, refs.K_k, refs.K_b, refs.E_k, refs.E_b)))

    def test_ratios(self):
        refs = reference_set(b=0.25)
        assert refs.N_b2 == refs.E_k / refs.K_k
        assert refs.N_k2 == refs.E_b / refs.K_b
        assert refs.qZ == 2j * math.pi / refs.K_k
