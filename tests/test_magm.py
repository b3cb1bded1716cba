import cmath
import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from multiagm import MagmTriplet, magm_equivalence, magm_negative_experiment, magm_step
from multiagm.magm import (
    MAX_EQUIVALENCE_ROWS,
    MagmEquivalence,
    MagmOutcome,
    gauss_series_rows,
    magm_rows_plus,
    run_magm,
)
from multiagm.roots import principal_sqrt, signed_root

EPS = 2.220446049250313e-16

small_complex = st.complex_numbers(min_magnitude=0.01, max_magnitude=100, allow_nan=False, allow_infinity=False)


def _away_from_branch_boundary(x, y, z):
    # the near/far choice is discontinuous where Re(root/sum) crosses zero;
    # invariance only makes sense away from that boundary
    p = (x - z) * (y - z)
    s = (x - z) + (y - z)
    if s == 0 or p == 0:
        return False
    w = principal_sqrt(p)
    ratio = w / s
    return abs(ratio.real) > 1e-6 * abs(ratio)


class TestStep:
    def test_first_row_quarter(self):
        t1 = magm_step(MagmTriplet(1, 0.0625, 0))
        assert t1 == MagmTriplet(0.53125, 0.25, -0.25)

    def test_second_row_quarter(self):
        b = 0.25
        t2 = magm_step(magm_step(MagmTriplet(1, b * b, 0)))
        assert t2.x == pytest.approx((1 + b) ** 2 / 4, rel=1e-15)
        assert t2.x == 0.390625
        assert t2.y == pytest.approx(math.sqrt(b) * (1 + b) - b, rel=1e-15)
        assert t2.z == pytest.approx(-math.sqrt(b) * (1 + b) - b, rel=1e-15)

    def test_converged_state_is_stationary(self):
        t = magm_step(MagmTriplet(2.0, 2.0, 0.5))
        assert t.x == 2.0
        assert t.y == pytest.approx(2.0, rel=1e-15)

    @given(x=small_complex, y=small_complex, z=small_complex)
    @settings(max_examples=200)
    def test_conservation(self, x, y, z):
        t = magm_step(MagmTriplet(x, y, z))
        scale = max(abs(t.y), abs(t.z), abs(2 * z), 1.0)
        assert abs((t.y + t.z) - 2 * z) <= 4e-16 * scale

    @given(x=small_complex, y=small_complex, z=small_complex, c=small_complex)
    @example(x=1, y=0.5, z=1 - 6.17e-17j, c=1j)
    @settings(max_examples=200)
    def test_translation_invariance(self, x, y, z, c):
        assume(_away_from_branch_boundary(x, y, z))
        assume(_away_from_branch_boundary(x + c, y + c, z + c))
        plain = magm_step(MagmTriplet(x, y, z))
        moved = magm_step(MagmTriplet(x + c, y + c, z + c))
        scale = max(abs(plain.x), abs(plain.y), abs(plain.z), abs(c), 1.0)
        # adding c rounds x-z and y-z by ~eps*scale; the root of their
        # product amplifies that by (|x-z| + |y-z|) / |root|, which is
        # large when z nearly equals x or y
        conditioning = (abs(x - z) + abs(y - z)) / abs(principal_sqrt((x - z) * (y - z)))
        root_tol = 1e-12 * scale + 8 * EPS * scale * conditioning
        assert abs(moved.x - (plain.x + c)) <= 1e-12 * scale
        assert abs(moved.y - (plain.y + c)) <= root_tol
        assert abs(moved.z - (plain.z + c)) <= root_tol

    @given(x=small_complex, y=small_complex, z=small_complex, j=st.integers(min_value=-7, max_value=7))
    @settings(max_examples=200)
    def test_scaling_invariance(self, x, y, z, j):
        # a power of two scales every input exactly, so x - z is scaled and not
        # rounded, and the bound measures magm_step rather than the input
        s = math.ldexp(1.0, j)
        assume(_away_from_branch_boundary(x, y, z))
        plain = magm_step(MagmTriplet(x, y, z))
        scaled = magm_step(MagmTriplet(s * x, s * y, s * z))
        scale = s * max(abs(plain.x), abs(plain.y), abs(plain.z), 1.0)
        assert abs(scaled.x - s * plain.x) <= 1e-12 * scale
        assert abs(scaled.y - s * plain.y) <= 1e-12 * scale
        assert abs(scaled.z - s * plain.z) <= 1e-12 * scale


def reference_gauss_series_rows(b, rows):
    """The series' own plain loop: the sum and difference updated in line."""
    a, g = complex(1.0), complex(b)
    s, d = a + g, a - g
    total = complex(0.0)
    out = [1 - total]
    for n in range(rows):
        total += 2.0 ** (n - 1) * (s * d)
        out.append(1 - total)
        near = signed_root(a * g, s)
        a, g = s / 2, near
        q = d * d / 4
        s = a + near
        d = q / s if s != 0 else complex(0.0)
    return out


@pytest.mark.parametrize(
    "b",
    [0.25, 0.9, 1e-300, 5e-324, 1 - 1e-16, 1.0, -0.5, -1.0, -1e-300, 1j, 0.3 + 0.4j, 2 - 1j, math.inf, math.nan],
)
@pytest.mark.parametrize("rows", [0, 1, 20, 70])
def test_gauss_series_rows_is_bit_identical_to_reference_loop(b, rows):
    # repr tells signed zeros and NaN positions apart, unlike ==
    assert repr(gauss_series_rows(b, rows)) == repr(reference_gauss_series_rows(b, rows))


class TestSeriesCorrespondence:
    @pytest.mark.parametrize("b", [0.25, 0.9])
    def test_rows_track_partial_sums(self, b):
        eq = magm_equivalence(b, rows=20)
        assert eq.max_row_deviation < 1e-12

    @pytest.mark.parametrize("b", [0.25, 0.9])
    def test_limit_is_second_over_first_kind(self, b):
        eq = magm_equivalence(b, rows=20)
        assert eq.limit_deviation < 1e-10

    def test_limit_value_quarter(self):
        eq = magm_equivalence(0.25, rows=20)
        assert eq.limit == pytest.approx(0.38280036865719, rel=1e-12)

    def test_partials_start_at_one(self):
        parts = gauss_series_rows(0.25, 5)
        assert parts[0] == 1
        assert parts[1] == pytest.approx((1 + 0.25**2) / 2, rel=1e-15)

    @pytest.mark.parametrize("b", [0.25, 0.7])
    def test_all_plus_run_is_monotone(self, b):
        # monotone up to the 2**n-amplified rounding floor of the direct update
        floor = 1e-10
        rows = run_magm(b, 20)
        xs = [t.x.real for t in rows]
        ys = [t.y.real for t in rows]
        gaps = [abs(t.x - t.y) for t in rows]
        assert all(x1 >= x2 - floor for x1, x2 in zip(xs, xs[1:]))
        assert all(y1 <= y2 + floor for y1, y2 in zip(ys, ys[1:]))
        assert gaps[-1] < 1e-9

    def test_stable_rows_match_direct_iteration_early(self):
        direct = run_magm(0.25, 6)
        stable = magm_rows_plus(0.25, 6)
        for td, ts in zip(direct, stable):
            assert td.x == pytest.approx(ts.x, rel=1e-12)
            assert td.y == pytest.approx(ts.y, rel=1e-12, abs=1e-12)
            assert td.z == pytest.approx(ts.z, rel=1e-12, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            magm_equivalence(0.0)
        with pytest.raises(ValueError):
            magm_equivalence(1.0)

    @pytest.mark.parametrize("rows", [-2, -1, MAX_EQUIVALENCE_ROWS + 1])
    def test_row_count_outside_range(self, rows):
        with pytest.raises(ValueError, match=r"rows must lie in \[0, 1023\]"):
            magm_equivalence(0.5, rows)

    @pytest.mark.parametrize("b", [1e-9, 0.25, 0.5, 0.75, 0.9, 0.999999, 1 - 2**-53])
    def test_longest_run_stays_finite(self, b):
        eq = magm_equivalence(b, MAX_EQUIVALENCE_ROWS)
        assert cmath.isfinite(eq.limit)
        assert eq.max_row_deviation < 1e-12
        assert eq.limit_deviation < 1e-10

    def test_one_row_past_the_bound_overflows(self):
        # the shifted pair doubles per row; this is why the row count is capped
        with pytest.raises(OverflowError):
            magm_rows_plus(0.5, MAX_EQUIVALENCE_ROWS + 1)


class TestSignExperiments:
    def test_mask_zero_matches_equivalence(self):
        eq = magm_equivalence(0.25)
        outcome = magm_negative_experiment(0.25, sign_mask=0)
        assert outcome.converged
        assert abs(outcome.limit - eq.limit) < 1e-9
        assert outcome.lattice_distance < 1e-9

    def test_single_flip_recorded(self):
        outcome = magm_negative_experiment(0.25, sign_mask=1)
        # observation only: the run either diverges or misses the lattice
        if outcome.converged:
            assert outcome.lattice_distance > 1e-3
        else:
            assert outcome.limit is None

    def test_all_negative_diverges(self):
        rows = 20
        outcome = magm_negative_experiment(0.25, sign_mask=(1 << rows) - 1, rows=rows)
        assert not outcome.converged
        assert outcome.limit is None
        assert outcome.lattice_distance is None

    def test_domain(self):
        with pytest.raises(ValueError):
            magm_negative_experiment(0.0, 1)
        with pytest.raises(ValueError, match="rows must be nonnegative"):
            magm_negative_experiment(0.25, 0, rows=-1)


def test_records_keep_only_what_their_inputs_do_not_say():
    # b, the sign mask and the row count are the caller's arguments; no record echoes them
    assert MagmOutcome._fields == ("converged", "limit", "lattice_distance")
    assert MagmEquivalence._fields == ("max_row_deviation", "limit", "limit_deviation")
