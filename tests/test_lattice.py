import cmath
import math
import random
import re

import pytest

from multiagm import (
    CircleSpec,
    CloudRequest,
    QuartetParams,
    enumerate_cloud,
    fit_cloud,
    predict_locus,
    quad_F,
    reference_set,
)
from multiagm.lattice import LatticeSpec, PointFits

K_SQRT09375 = math.sqrt(0.9375)


def params(sinphi=0.5, signb=1):
    return QuartetParams(k=K_SQRT09375, sinphi=sinphi, signb=signb, complement=0.25)


@pytest.fixture(scope="module")
def refs():
    return reference_set(b=0.25)


class TestSpecs:
    def test_lattice_validation(self):
        with pytest.raises(ValueError):
            LatticeSpec(origin=0, gen1=0)
        with pytest.raises(ValueError):
            LatticeSpec(origin=0, gen1=1 + 1j, gen2=2 + 2j)
        with pytest.raises(ValueError):
            LatticeSpec(origin=0, gen1=1, cosets=())

    def test_circle_geometry(self):
        spec = CircleSpec(x1=0.1, x2=0.5)
        assert spec.center == 0.3
        assert spec.radius == pytest.approx(0.2)
        with pytest.raises(ValueError):
            CircleSpec(x1=0.2, x2=0.2)


class TestPredictLocus:
    def test_k_lattice(self, refs):
        spec = predict_locus("K", refs)
        assert spec.origin == refs.K_k
        assert spec.gen1 == 4 * refs.K_k
        assert spec.gen2 == 4j * refs.K_b

    def test_k_both_halves_imaginary_step(self, refs):
        spec = predict_locus("K_both", refs)
        assert spec.gen2 == 2j * refs.K_b

    def test_e_lattice(self, refs):
        spec = predict_locus("E", refs)
        assert spec.gen1 == 4 * refs.E_k
        assert spec.gen2 == 4j * (refs.K_b - refs.E_b)

    def test_n_circle_crossings(self, refs):
        spec = predict_locus("N", refs)
        assert spec.x1 == pytest.approx(0.0315020899266546, rel=1e-10)
        assert spec.x2 == pytest.approx(0.3828003686571901, rel=1e-10)

    def test_f_needs_phi(self, refs):
        with pytest.raises(ValueError, match="phi"):
            predict_locus("F", refs)
        spec = predict_locus("F", refs, phi=math.asin(0.8))
        assert len(spec.cosets) == 2
        assert spec.cosets[1] == 2 * refs.K_k - 2 * spec.origin

    def test_z_restricted_needs_phi(self, refs):
        with pytest.raises(ValueError, match="^Z locus needs the amplitude phi$"):
            predict_locus("Z_restricted", refs)

    def test_z_restricted_unit(self, refs):
        spec = predict_locus("Z_restricted", refs, phi=math.asin(0.8))
        assert spec.gen2 == 0
        assert spec.gen1 == refs.qZ
        assert abs(spec.gen1) == pytest.approx(2.2430, abs=1e-4)

    def test_unknown_kind(self, refs):
        with pytest.raises(ValueError):
            predict_locus("Z", refs)

    @pytest.mark.parametrize(
        "kind,b,name",
        [
            ("N", 1.5, "E(b)/K(b)"),  # imaginary k
            ("F", 1.5, "k"),
            ("Z_restricted", 1.5, "k"),
            ("N", -0.25, "E(k)/K(k)"),  # real k, complex K(k) and E(k)
            ("Z_restricted", -0.25, "E(k)/K(k)"),
        ],
    )
    def test_complex_moduli_are_rejected_not_truncated(self, kind, b, name):
        with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be real for this locus, got "):
            predict_locus(kind, reference_set(b=b), phi=math.asin(0.8))

    def test_real_k_from_negative_b_is_kept(self):
        refs = reference_set(b=-0.25)
        assert refs.k.imag == 0 and refs.N_b2.imag != 0
        spec = predict_locus("F", refs, phi=math.asin(0.8))
        assert spec.origin == quad_F(math.asin(0.8), refs.k.real)


class TestFitCloud:
    def test_synthetic_lattice_recovery(self):
        rng = random.Random(99)
        origin = 0.37 - 1.2j
        gen1, gen2 = 3.1 + 0.4j, -0.2 + 2.7j
        cosets = (0j, 0.9 + 0.15j)
        spec = LatticeSpec(origin=origin, gen1=gen1, gen2=gen2, cosets=cosets)
        values = []
        expect = []
        for _ in range(200):
            m = rng.randint(-16, 16)
            n = rng.randint(-16, 16)
            ci = rng.randint(0, 1)
            values.append(origin + cosets[ci] + m * gen1 + n * gen2)
            expect.append((m, n, ci))
        report = fit_cloud(values, spec, tol=1e-9)
        assert report.passed
        assert report.max_residual < 1e-12
        points = report.points
        for fit_m, fit_n, fit_coset, residual, (m, n, ci) in zip(points.m, points.n, points.coset, points.residual,
                                                                  expect):
            assert (fit_m, fit_n) == (m, n)
            # coset ambiguity is allowed only when both assignments are exact
            if fit_coset != ci:
                assert residual < 1e-12

    def test_one_dimensional_lattice(self):
        spec = LatticeSpec(origin=1.5, gen1=2j)
        report = fit_cloud([1.5 + 6j, 1.5 - 4j, 1.5], spec, tol=1e-9)
        assert report.points.m == (3, -2, 0)
        assert report.max_residual < 1e-15

    def test_flagged_points_excluded_from_verdict(self):
        spec = LatticeSpec(origin=0j, gen1=1.0, gen2=1j)
        # a flagged garbage value and a good one
        report = fit_cloud([0.5 + 0.5j, 1 + 2j], spec, tol=1e-6, flags=[True, False])
        assert report.passed
        assert report.flagged_excluded == 1
        assert report.points.excluded == (True, False)
        assert report.points.residual[0] > 0.5  # still listed with its residual
        assert report.worst_point == 1

    def test_non_finite_values_fit_nowhere(self):
        # a deep restricted Zeta cloud whose flagged points are NaN
        b, sinphi = 0.5, 0.6
        p = QuartetParams(k=math.sqrt((1 - b) * (1 + b)), sinphi=sinphi, complement=b)
        cloud = enumerate_cloud(CloudRequest(kind="Z_restricted", params=p, delta_bits=10))
        nonfinite = [i for i, value in enumerate(cloud.values) if not cmath.isfinite(value)]
        assert len(nonfinite) == 768
        assert all(cloud.flags[i] for i in nonfinite)
        report = fit_cloud(cloud, predict_locus("Z_restricted", reference_set(b=b), phi=math.asin(sinphi)))
        assert report.flagged_excluded == 768
        assert math.isfinite(report.max_residual)
        points = report.points
        for i in nonfinite:
            assert (points.m[i], points.n[i], points.coset[i], points.residual[i], points.excluded[i]) == (
                0, 0, 0, math.inf, True)

    def test_unflagged_non_finite_value_fails(self):
        spec = LatticeSpec(origin=0j, gen1=1.0, gen2=1j)
        for bad in (complex(math.nan, math.nan), complex(math.inf, 0.0)):
            report = fit_cloud([1 + 2j, bad], spec)
            assert not report.passed
            assert report.max_residual == math.inf
            assert report.worst_point == 1

    @pytest.mark.parametrize(
        "gen2",
        [1e-3j, 1e300 + 1e300j],  # an infinite coordinate, and one that is inf - inf
    )
    def test_finite_value_whose_coordinate_overflows_fits_nowhere(self, gen2):
        spec = LatticeSpec(origin=0j, gen1=1e-3, gen2=gen2)
        report = fit_cloud([1 + 2j, 1e308 + 1e308j], spec)
        points = report.points
        assert (points.m[1], points.n[1], points.coset[1], points.residual[1], points.excluded[1]) == (
            0, 0, 0, math.inf, False)
        assert (report.passed, report.max_residual, report.worst_point) == (False, math.inf, 1)

    def test_finite_value_whose_coordinate_overflows_fits_nowhere_on_a_line(self):
        # one generator: the coordinate is (d / gen1).real alone
        spec = LatticeSpec(origin=0j, gen1=1e-3, gen2=0j, cosets=(0j, 1.0))
        report = fit_cloud([2.0, 1e308 + 0j], spec)
        assert report.points == PointFits(m=(2000, 0), n=(0, 0), coset=(0, 0), residual=(0.0, math.inf),
                                          excluded=(False, False))
        assert (report.passed, report.max_residual, report.worst_point) == (False, math.inf, 1)

    def test_finite_value_whose_residual_overflows_fits_nowhere_on_a_line(self):
        # the coordinate rounds, but the residual's finite parts have a modulus too large for a float
        report = fit_cloud([1.5e308 - 1.5e308j], LatticeSpec(origin=0j, gen1=1 + 1j, gen2=0j))
        assert report.points == PointFits(m=(0,), n=(0,), coset=(0,), residual=(math.inf,), excluded=(False,))
        assert (report.passed, report.max_residual, report.worst_point) == (False, math.inf, 0)

    def test_finite_value_whose_distance_overflows_fits_no_circle(self):
        report = fit_cloud([0.2 + 0j, 1.5e308 + 1.5e308j], CircleSpec(0.2, 1.0))
        assert report.points.residual[0] < 1e-15 and report.points.residual[1] == math.inf
        assert (report.passed, report.max_residual, report.worst_point) == (False, math.inf, 1)

    def test_no_fitted_point_does_not_pass(self):
        spec = LatticeSpec(origin=0j, gen1=1.0, gen2=1j)
        for values, flags in (([], None), ([0j, 0j], [True, True])):
            report = fit_cloud(values, spec, flags=flags)
            assert (report.passed, report.worst_point, report.max_residual) == (False, None, 0.0)
        assert fit_cloud([0j, 1j], spec, flags=[True, False]).passed

    def test_points_read_as_point_fits(self):
        # the report's points are five columns by position, and nothing more
        spec = LatticeSpec(origin=0j, gen1=1.0, gen2=1j)
        values = [2 + 3j, 0.25 - 1j, complex(math.nan, math.nan)]
        flags = [False, False, True]
        report = fit_cloud(values, spec, flags=flags)
        points = report.points
        assert PointFits.__slots__ == ("m", "n", "coset", "residual", "excluded")
        assert points == PointFits(m=(2, 0, 0), n=(3, -1, 0), coset=(0, 0, 0), residual=(0.0, 0.25, math.inf),
                                   excluded=(False, False, True))
        assert len(points) == 3
        # a fit equals a fit of the same columns, never the tuple of them, and equal fits hash alike
        columns = tuple(getattr(points, name) for name in PointFits.__slots__)
        assert points != columns and columns != points
        assert hash(points) == hash(PointFits(*columns))
        with pytest.raises(TypeError):
            points[0]
        with pytest.raises(AttributeError):
            points.m = ()
        assert (report.worst_point, report.max_residual, report.flagged_excluded) == (1, 0.25, 1)
        # omitted flags flag nothing
        assert fit_cloud(values[:2], spec) == fit_cloud(values[:2], spec, flags=flags[:2])
        with pytest.raises(ValueError, match="3 values but 2 flags"):
            fit_cloud(values, spec, flags=flags[:2])

    def test_integer_columns_beyond_int64_stay_exact(self):
        # a lattice coordinate past 2**63 is an exact Python int, which a typed 'q' column could not hold
        report = fit_cloud([3e19 + 0j, 1e300 + 0j], LatticeSpec(origin=0j, gen1=1.0, gen2=1j))
        assert report.points.m == (30000000000000000000, int(1e300))
        assert report.points.n == (0, 0)
        assert (report.passed, report.max_residual) == (True, 0.0)

    def test_report_serializes(self):
        spec = LatticeSpec(origin=0j, gen1=1.0, gen2=1j)
        payload = fit_cloud([0j, 1j], spec)._asdict()
        assert list(payload) == ["tol", "passed", "max_residual", "worst_point", "flagged_excluded", "points"]
        assert payload["passed"] is True
        # `_asdict` is shallow: the columns are read from the points by their slot names
        assert {name: getattr(payload["points"], name) for name in PointFits.__slots__} == {
            "m": (0, 0), "n": (0, 1), "coset": (0, 0), "residual": (0.0, 0.0), "excluded": (False, False)
        }

    def test_cloud_with_explicit_flags(self):
        # given flags replace a cloud's own, with the length check of bare values
        cloud = enumerate_cloud(CloudRequest(kind="K", params=params(), sigma_bits=2))
        spec = LatticeSpec(origin=0j, gen1=1.0, gen2=1j)
        assert fit_cloud(cloud, spec, flags=cloud.flags) == fit_cloud(cloud, spec)
        flags = (True, False, True, False)
        assert fit_cloud(cloud, spec, flags=list(flags)) == fit_cloud(cloud.values, spec, flags=flags)
        assert fit_cloud(cloud, spec, flags=flags).points.excluded == flags
        with pytest.raises(ValueError, match="4 values but 3 flags"):
            fit_cloud(cloud, spec, flags=cloud.flags[:3])

    def test_circle_fit(self):
        spec = CircleSpec(x1=0.2, x2=1.0)
        on = [0.2 + 0j, 1.0 + 0j, spec.center + spec.radius * 1j]
        report = fit_cloud(on, spec, tol=1e-12)
        assert report.passed

    def test_anisotropic_scaling_makes_circles(self):
        # ratio clouds (alpha*Re p + i*beta*Im p)/p land on the circle through alpha, beta
        rng = random.Random(7)
        for _ in range(20):
            alpha = rng.uniform(0.2, 3.0)
            beta = rng.uniform(-3.0, -0.2)
            points = []
            for _ in range(50):
                mag = rng.uniform(0.1, 10.0)
                ang = rng.uniform(0, 2 * math.pi)
                points.append(complex(mag * math.cos(ang), mag * math.sin(ang)))
            ratios = [complex(alpha * p.real, beta * p.imag) / p for p in points]
            report = fit_cloud(ratios, CircleSpec(x1=alpha, x2=beta), tol=1e-10)
            assert report.passed


class TestCloudFits:
    def test_k_cloud_membership(self, refs):
        cloud = enumerate_cloud(CloudRequest(kind="K", params=params(), sigma_bits=5))
        report = fit_cloud(cloud, predict_locus("K", refs))
        assert report.passed
        assert report.flagged_excluded <= 1

    def test_sigma0_flip_index(self, refs):
        cloud = enumerate_cloud(CloudRequest(kind="K", params=params(), sigma_bits=1))
        report = fit_cloud(cloud, predict_locus("K", refs))
        points = report.points
        # position 0 flips the first root; position 1 is the all-plus schedule
        assert (points.m[0], abs(points.n[0])) == (0, 1)
        assert (points.m[1], points.n[1]) == (0, 0)
        assert points.residual[1] < 1e-12

    def test_generation_extent_bound(self, refs):
        cloud = enumerate_cloud(CloudRequest(kind="K", params=params(), sigma_bits=5))
        report = fit_cloud(cloud, predict_locus("K", refs))
        for m, n, (*_, generation) in zip(report.points.m, report.points.n, cloud.schedule_rows()):
            bound = 2 ** (generation - 1) if generation else 0
            assert max(abs(m), abs(n)) <= bound

    def test_e_indices_match_k_indices(self, refs):
        k_cloud = enumerate_cloud(CloudRequest(kind="K", params=params(), sigma_bits=5))
        e_cloud = enumerate_cloud(CloudRequest(kind="E", params=params(), sigma_bits=5))
        k_report = fit_cloud(k_cloud, predict_locus("K", refs))
        e_report = fit_cloud(e_cloud, predict_locus("E", refs))
        assert e_report.passed
        k_idx = sorted(zip(k_report.points.m, k_report.points.n))
        e_idx = sorted(zip(e_report.points.m, e_report.points.n))
        assert k_idx == e_idx
