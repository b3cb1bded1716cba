import cmath
import json
import math
import random
from collections.abc import Sequence
from itertools import repeat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiagm import (
    CircleSpec,
    CloudRequest,
    QuartetParams,
    SignSchedule,
    clouds,
    complete_from_complement,
    engine,
    enumerate_cloud,
    fit_cloud,
)
from multiagm.cli import main
from multiagm.clouds import DUPLICATE_RTOL, KIND_BITS, MultivaluePoint, _extract, _mark_duplicates
from multiagm.engine import run_quartet, sweep_quartet, sweep_sigma, zeta_sum
from multiagm.lattice import LatticeSpec
from multiagm.roots import principal_sqrt

K_SQRT09375 = math.sqrt(0.9375)


def params(sinphi=0.5, signb=1, **kw):
    return QuartetParams(k=K_SQRT09375, sinphi=sinphi, signb=signb, complement=0.25, **kw)


def k_cloud(signb=1, sigma_bits=5):
    return enumerate_cloud(CloudRequest(kind="K", params=params(signb=signb), sigma_bits=sigma_bits))


class TestRequestValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            CloudRequest(kind="Q", params=params())

    def test_bits_above_iterations(self):
        with pytest.raises(ValueError, match="max_iter"):
            CloudRequest(kind="K", params=params(), sigma_bits=21)

    def test_negative_bits(self):
        with pytest.raises(ValueError, match="nonnegative"):
            CloudRequest(kind="K", params=params(), delta_bits=-1)

    @pytest.mark.parametrize(
        "kind,name",
        [
            (kind, name)
            for kind, reads in KIND_BITS.items()
            for name in ("sigma_bits", "delta_bits", "gamma_bits")
            if name not in reads
        ],
    )
    def test_rejects_each_bit_its_kind_does_not_read(self, kind, name):
        with pytest.raises(ValueError, match=f"^{kind} reads .* only; {name} must be 0$"):
            CloudRequest(kind=kind, params=params(), **{name: 1})
        # zero of an unread bit is the default, and allowed
        CloudRequest(kind=kind, params=params(), **{name: 0})


@pytest.mark.parametrize("kind", tuple(KIND_BITS))
@pytest.mark.parametrize("b", [0.25, 0.7, -0.25, 1.5, 0.3 + 0.4j])
def test_complement_alone_gives_the_cloud_of_its_modulus(kind, b):
    # a given complement is all the engine reads: k may be None
    bits = dict.fromkeys(KIND_BITS[kind], 2)
    by_pair = QuartetParams(k=principal_sqrt((1 - b) * (1 + b)), sinphi=0.8, complement=b)
    clouds = [
        enumerate_cloud(CloudRequest(kind=kind, params=by_pair._replace(k=k), **bits)) for k in (by_pair.k, None)
    ]
    assert repr(clouds[1]) == repr(clouds[0])


@given(kind=st.sampled_from(tuple(KIND_BITS)), data=st.data())
@settings(max_examples=60, deadline=None)
def test_positions_count_down_through_the_bits_a_kind_reads(kind, data):
    bits = {name: data.draw(st.integers(0, 3), label=name) for name in KIND_BITS[kind]}
    cloud = enumerate_cloud(CloudRequest(kind=kind, params=params(sinphi=0.8), **bits))
    last = 2 ** sum(bits.values()) - 1
    assert len(cloud) == last + 1
    delta_bits, gamma_bits = bits.get("delta_bits", 0), bits.get("gamma_bits", 0)
    for i, point in enumerate(cloud):
        sched = point.schedule
        if kind == "Z_restricted":
            # its gamma mask follows from the delta mask and is no part of the number
            assert sched.gamma_mask == sched.delta_mask << 1
            assert sched.delta_mask == last - i
        else:
            assert (sched.sigma_mask << delta_bits | sched.delta_mask) << gamma_bits | sched.gamma_mask == last - i
    assert cloud[-1].schedule == SignSchedule()
    assert [cloud.schedule(i) for i in range(-len(cloud), len(cloud))] == [p.schedule for p in cloud] * 2
    with pytest.raises(IndexError):
        cloud.schedule(len(cloud))


def points_one_by_one(req):
    """The cloud's points, each built with its schedule as the sweep yields its leaf."""
    kind, delta_bits, gamma_bits = req.kind, req.delta_bits, req.gamma_bits
    zeta = kind in ("Z", "Z_restricted")
    if "delta_bits" in KIND_BITS[kind]:
        leaves = sweep_quartet(req.params, req.sigma_bits, delta_bits, zeta)
    else:
        leaves = sweep_sigma(req.params, req.sigma_bits)
    last = 2 ** (req.sigma_bits + delta_bits + gamma_bits) - 1
    values, flags, schedules = [None] * (last + 1), [None] * (last + 1), [None] * (last + 1)
    for sigma, delta, a_inf, s_sum, u_inf, converged, ill, terms in leaves:
        head = last - ((sigma << delta_bits | delta) << gamma_bits)
        for gamma in range(2**gamma_bits):
            schedule = SignSchedule(sigma, delta, delta << 1 if kind == "Z_restricted" else gamma)
            values[head - gamma] = zeta_sum(terms, schedule.gamma_mask) if zeta else _extract(kind, a_inf, s_sum, u_inf)
            flags[head - gamma] = ill or not converged
            schedules[head - gamma] = schedule
    links = _mark_duplicates(values, flags)
    return list(map(MultivaluePoint, values, schedules, repeat(req.params.signb), flags, links))


@given(kind=st.sampled_from(tuple(KIND_BITS)), signb=st.sampled_from((1, -1)), data=st.data())
@settings(max_examples=60, deadline=None)
def test_cloud_reads_as_its_points(kind, signb, data):
    bits = {name: data.draw(st.integers(0, 3), label=name) for name in KIND_BITS[kind]}
    req = CloudRequest(kind=kind, params=params(sinphi=0.8, signb=signb), **bits)
    cloud = enumerate_cloud(req)
    expected = points_one_by_one(req)
    assert isinstance(cloud, Sequence)
    assert repr(list(cloud)) == repr(expected) == repr(cloud)
    n = len(cloud)
    assert n == len(expected) == len(cloud.values) == len(cloud.flags) == len(cloud.links)
    assert repr(cloud[-1]) == repr(expected[-1]) and cloud[-1].schedule == SignSchedule()
    assert repr(cloud[-n]) == repr(expected[0])
    for piece in (slice(None), slice(1, 3), slice(None, None, -1), slice(-2, None), slice(n, None), slice(0, n, 3)):
        assert repr(cloud[piece]) == repr(expected[piece])
    for index in (n, -n - 1):
        with pytest.raises(IndexError):
            cloud[index]
    with pytest.raises(TypeError):
        cloud + cloud
    # a cloud fits by its columns as the values and flags of its points do
    point_values, point_flags = [p.value for p in expected], [p.ill_conditioned for p in expected]
    for spec in (LatticeSpec(origin=0.5j, gen1=1.0, gen2=0.5 + 1j, cosets=(0j, 0.25)), CircleSpec(x1=-1.0, x2=2.0)):
        assert fit_cloud(cloud, spec) == fit_cloud(point_values, spec, flags=point_flags)


def test_cloud_is_read_only():
    cloud = k_cloud(sigma_bits=2)
    with pytest.raises(TypeError):
        cloud[0] = cloud[1]
    with pytest.raises(AttributeError):
        cloud.values = ()
    assert isinstance(cloud.values, tuple) and isinstance(cloud.flags, tuple) and isinstance(cloud.links, tuple)


def counting_builds(monkeypatch, module, name):
    """Count the calls through a module global, objects built or scans run, by replacing it with a counting wrapper."""
    built = []
    cls = getattr(module, name)

    def build(*args, **kwargs):
        built.append(None)
        return cls(*args, **kwargs)

    monkeypatch.setattr(module, name, build)
    return built


def test_cloud_and_fit_build_no_per_point_objects(monkeypatch):
    # a cloud and a fit are columns: neither builds an object per point, nor looks for duplicates
    points = counting_builds(monkeypatch, clouds, "MultivaluePoint")
    schedules = counting_builds(monkeypatch, clouds, "SignSchedule")
    scans = counting_builds(monkeypatch, clouds, "_mark_duplicates")
    cloud = enumerate_cloud(CloudRequest(kind="K", params=params(), sigma_bits=10))
    report = fit_cloud(cloud, LatticeSpec(origin=1.0, gen1=4.0, gen2=4j))
    assert (len(points), len(schedules), len(scans)) == (0, 0, 0)
    assert len(report.points) == len(cloud) == 1024
    # reading a point builds it and its schedule, and runs the one scan of the cloud
    assert cloud[-1].schedule.sigma_mask == 0
    assert (len(points), len(schedules), len(scans)) == (1, 1, 1)


@pytest.mark.parametrize("kind", tuple(KIND_BITS))
def test_only_run_quartet_builds_a_trace(kind, monkeypatch):
    # a sweep yields bare leaves; the one trace is the one `run_quartet` returns
    traces = counting_builds(monkeypatch, engine, "QuartetTrace")
    bits = dict.fromkeys(KIND_BITS[kind], 3)
    assert len(enumerate_cloud(CloudRequest(kind=kind, params=params(sinphi=0.8), **bits))) == 2 ** sum(bits.values())
    assert not traces
    run_quartet(params(sinphi=0.8), SignSchedule(5, 3, 6))
    assert len(traces) == 1


def test_links_are_found_once_on_first_read(monkeypatch):
    scans = counting_builds(monkeypatch, clouds, "_mark_duplicates")
    cloud = enumerate_cloud(CloudRequest(kind="F", params=params(sinphi=0.8), sigma_bits=2, delta_bits=3))
    assert not scans
    links = cloud.links
    assert cloud.links is links and [p.duplicate_of for p in cloud] == list(links)
    assert len(scans) == 1
    assert links == tuple(_mark_duplicates(cloud.values, cloud.flags))


def test_fill_scans_each_cloud_once(monkeypatch, capsys):
    scans = counting_builds(monkeypatch, clouds, "_mark_duplicates")
    points = counting_builds(monkeypatch, clouds, "MultivaluePoint")
    assert main(["fill-k", "--sigma-bits", "6", "--signb", "both"]) == 0
    assert (len(scans), len(points)) == (2, 0)
    assert len(capsys.readouterr().out.splitlines()) == 1 + 2 * 64


@pytest.mark.parametrize("kind,lines", [("k", 1024), ("k-both", 2048)])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_verify_builds_no_point_and_looks_for_no_duplicate(kind, lines, fmt, monkeypatch, capsys):
    # verify fits the columns of the clouds it built and prints each point's line from them
    points = counting_builds(monkeypatch, clouds, "MultivaluePoint")
    scans = counting_builds(monkeypatch, clouds, "_mark_duplicates")
    assert main(["verify", "--kind", kind, "--sigma-bits", "10", "--format", fmt]) == 0
    assert (len(points), len(scans)) == (0, 0)
    out = capsys.readouterr().out
    assert (out.count("\n  point ") if fmt == "text" else len(json.loads(out)["points"])) == lines


def test_cloud_holds_its_request():
    # kind, start sign and bit counts are read from the request, never copied beside it
    req = CloudRequest(kind="F", params=params(sinphi=0.8, signb=-1), sigma_bits=1, delta_bits=2)
    assert enumerate_cloud(req).request is req
    assert clouds.Cloud.__slots__ == ("request", "values", "flags", "_links")


def restricted_schedules(delta_bits):
    cloud = enumerate_cloud(CloudRequest(kind="Z_restricted", params=params(sinphi=0.8), delta_bits=delta_bits))
    return [p.schedule for p in cloud]


class TestRestrictedSchedule:
    # the zeta sign at iteration n repeats the forward sign of iteration n-1
    def test_zero(self):
        assert restricted_schedules(0) == [SignSchedule(0, 0, 0)]

    def test_single_bit_shifts(self):
        assert restricted_schedules(1) == [SignSchedule(0, 0b1, 0b10), SignSchedule(0, 0, 0)]

    def test_general_shift(self):
        schedules = restricted_schedules(4)
        assert [s.delta_mask for s in schedules] == list(range(15, -1, -1))
        assert schedules[15 - 0b1011] == SignSchedule(0, 0b1011, 0b10110)
        assert all(s == SignSchedule(0, s.delta_mask, s.delta_mask << 1) for s in schedules)

    def test_negative_mask(self):
        with pytest.raises(ValueError, match="delta_bits must be nonnegative"):
            CloudRequest(kind="Z_restricted", params=params(), delta_bits=-1)

    @pytest.mark.parametrize("bits", [{"sigma_bits": 3}, {"gamma_bits": 1}, {"sigma_bits": 1, "gamma_bits": 2}])
    def test_rejects_bits_it_does_not_sweep(self, bits):
        with pytest.raises(ValueError, match="Z_restricted reads delta_bits only; (sigma|gamma)_bits must be 0"):
            CloudRequest(kind="Z_restricted", params=params(), delta_bits=4, **bits)


class TestKCloud:
    def test_size_and_order(self):
        cloud = k_cloud()
        assert len(cloud) == 32
        masks = [p.schedule.sigma_mask for p in cloud]
        assert masks == list(range(31, -1, -1))

    def test_all_plus_reproduces_oracle(self):
        K_k, _ = complete_from_complement(0.25)
        base = k_cloud()[-1]
        assert base.schedule == SignSchedule()
        assert abs(base.value - K_k) <= 1e-9 * abs(K_k)
        assert base.schedule.generation() == 0
        assert not base.ill_conditioned

    def test_first_flip_lands_four_quarter_periods_away(self):
        K_k, _ = complete_from_complement(0.25)
        K_b, _ = complete_from_complement(complex(K_SQRT09375))
        point = next(p for p in k_cloud() if p.schedule.sigma_mask == 1)
        dist = min(abs(point.value - (K_k + 4j * K_b)), abs(point.value - (K_k - 4j * K_b)))
        assert dist < 1e-9

    def test_negative_start_interleaves(self):
        K_k, _ = complete_from_complement(0.25)
        K_b, _ = complete_from_complement(complex(K_SQRT09375))
        point = next(p for p in k_cloud(signb=-1) if p.schedule.sigma_mask == 0)
        dist = min(abs(point.value - (K_k + 2j * K_b)), abs(point.value - (K_k - 2j * K_b)))
        assert dist < 1e-9

    def test_generations(self):
        for p in k_cloud():
            assert p.schedule.generation() == p.schedule.sigma_mask.bit_length()
            assert p.schedule.generation() <= 5

    def test_generation_is_read_from_the_schedule(self):
        # a stored copy could disagree with the schedule that fixes it
        assert MultivaluePoint._fields == ("value", "schedule", "signb", "ill_conditioned", "duplicate_of")
        point = MultivaluePoint(0j, SignSchedule(sigma_mask=1, delta_mask=6, gamma_mask=2), 1, False)
        assert point.schedule.generation() == 3

    def test_duplicate_report_is_produced(self):
        for i, p in enumerate(k_cloud()):
            if p.duplicate_of is not None:
                assert p.duplicate_of < i

    def test_points_carry_slots_not_dicts(self):
        # a deep cloud holds millions of these; slots keep each one small
        point = k_cloud(sigma_bits=2)[0]
        for obj in (point, point.schedule):
            assert not hasattr(obj, "__dict__")
        moved = point._replace(duplicate_of=3)
        assert (moved.value, moved.schedule, moved.duplicate_of) == (point.value, point.schedule, 3)
        assert repr(moved._replace(duplicate_of=None)) == repr(point)

    def test_finite_values(self):
        assert all(cmath.isfinite(p.value) for p in k_cloud())


class TestOtherKinds:
    def test_f_cloud_shape(self):
        cloud = enumerate_cloud(
            CloudRequest(kind="F", params=params(sinphi=0.8), sigma_bits=3, delta_bits=4)
        )
        assert len(cloud) == 128
        assert cloud[0].schedule.sigma_mask == 7
        assert cloud[0].schedule.delta_mask == 15
        assert cloud[-1].schedule == SignSchedule()

    def test_restricted_zeta_cloud(self):
        cloud = enumerate_cloud(
            CloudRequest(kind="Z_restricted", params=params(sinphi=0.8), delta_bits=4)
        )
        assert len(cloud) == 16
        for p in cloud:
            assert p.schedule.sigma_mask == 0
            assert p.schedule.gamma_mask == p.schedule.delta_mask << 1

    @pytest.mark.parametrize(
        "kind,start",
        [
            ("F", {"signb": -1}),  # u + v == 0 at the start, so u_inf == 0
            ("N", {"complement": -1}),  # a + g == 0 at the start, so a_inf == 0
        ],
    )
    def test_degenerate_limit_gives_one_flagged_nan(self, kind, start):
        p = QuartetParams(k=0, sinphi=0.5, max_iter=1, **start)
        (point,) = enumerate_cloud(CloudRequest(kind=kind, params=p))
        assert cmath.isnan(point.value)
        assert point.ill_conditioned

    def test_f_at_zero_mean_limit_gives_flagged_nan(self):
        # k = 0: a sigma flip at iteration 1 alone makes a = 1, g = -1, so a_inf == 0
        # exactly, and F divides by it
        p = QuartetParams(k=0, sinphi=0.3 + 0.4j, max_iter=3)
        cloud = enumerate_cloud(CloudRequest(kind="F", params=p, sigma_bits=3, delta_bits=3))
        zero = [point for point in cloud if point.schedule.sigma_mask & 3 == 2]
        assert len(zero) == 2 * 2**3
        assert all(cmath.isnan(point.value) and point.ill_conditioned for point in zero)

    def test_unrestricted_zeta_cloud_all_finite(self):
        cloud = enumerate_cloud(
            CloudRequest(kind="Z", params=params(sinphi=0.8), sigma_bits=2, delta_bits=2, gamma_bits=2)
        )
        assert len(cloud) == 64
        assert all(cmath.isfinite(p.value) for p in cloud)

    def test_flagged_points_are_kept(self):
        # modulus 1 collapses the iteration; every point must still be listed
        bad = QuartetParams(k=1.0, sinphi=0.5)
        cloud = enumerate_cloud(CloudRequest(kind="K", params=bad, sigma_bits=1))
        assert len(cloud) == 2
        assert all(p.ill_conditioned for p in cloud)


def reference_mark_duplicates(points):
    """The pairwise scan that the grid dedupe must reproduce exactly."""
    scale = max((abs(p.value) for p in points if not p.ill_conditioned and cmath.isfinite(p.value)), default=0.0)
    if scale == 0.0:
        scale = 1.0
    threshold = DUPLICATE_RTOL * scale
    out = []
    for i, point in enumerate(points):
        dup = None
        if not point.ill_conditioned and cmath.isfinite(point.value):
            for j in range(i):
                other = out[j]
                if other.ill_conditioned or not cmath.isfinite(other.value):
                    continue
                if abs(point.value - other.value) < threshold:
                    dup = j if other.duplicate_of is None else other.duplicate_of
                    break
        out.append(point._replace(duplicate_of=dup))
    return out


def synthetic(values, flagged=()):
    return [
        MultivaluePoint(value=complex(v), schedule=SignSchedule(), signb=1, ill_conditioned=i in flagged)
        for i, v in enumerate(values)
    ]


def duplicate_links(points):
    return [p.duplicate_of for p in points]


def grid_and_scan_links(values, flagged=()):
    """The links `_mark_duplicates` gives the values and flags, and those of the pairwise scan."""
    points = synthetic(values, flagged)
    grid = _mark_duplicates([p.value for p in points], [p.ill_conditioned for p in points])
    return grid, duplicate_links(reference_mark_duplicates(points))


class TestDedupeMatchesPairwiseScan:
    @pytest.mark.parametrize(
        "kind,signb,bits",
        [
            ("K", 1, (8, 0, 0)),
            ("K", -1, (8, 0, 0)),
            ("F", 1, (4, 6, 0)),
            ("Z", 1, (3, 3, 3)),
            ("Z_restricted", 1, (0, 9, 0)),
        ],
    )
    def test_real_clouds(self, kind, signb, bits):
        sigma, delta, gamma = bits
        cloud = enumerate_cloud(
            CloudRequest(
                kind=kind,
                params=params(sinphi=0.8, signb=signb),
                sigma_bits=sigma,
                delta_bits=delta,
                gamma_bits=gamma,
            )
        )
        assert duplicate_links(cloud) == duplicate_links(reference_mark_duplicates(cloud))
        if kind == "Z_restricted":
            # the deep restricted cloud carries flagged non-finite points
            assert any(p.ill_conditioned and not cmath.isfinite(p.value) for p in cloud)
        if kind == "F":
            assert any(p.duplicate_of is not None for p in cloud)

    def test_pairs_around_the_threshold(self):
        # scale 1000 sets the threshold to 1e-6
        threshold = DUPLICATE_RTOL * 1000.0
        values = [1000.0]
        for base in (3 + 4j, -7.5 + 2j, 0j, -2.25 - 9j):
            for factor in (0.5, 0.999, 1.001):
                for direction in (1, 1j, -1, -1j, (1 + 1j) / abs(1 + 1j), (1 - 1j) / abs(1 - 1j)):
                    values += [base, base + factor * threshold * direction]
                    base += 10 * threshold
        links, scanned = grid_and_scan_links(values)
        assert links == scanned
        # 0.5x and 0.999x pairs are duplicates, 1.001x pairs are not
        assert sum(link is not None for link in links) == 4 * 2 * 6

    def test_chains_resolve_to_the_first_original(self):
        threshold = DUPLICATE_RTOL * 10.0
        step = 0.9 * threshold
        # the last point is near 1 + step only, a duplicate of point 1
        values = [10.0, 1 + 0j, 1 + step, 1 + 2 * step, 1 + 3 * step, 1 + step + 0.5 * threshold * 1j]
        links, scanned = grid_and_scan_links(values)
        assert links == [None, None, 1, 1, 1, 1]
        assert links == scanned

    def test_non_finite_and_flagged_points_are_skipped(self):
        nan = complex(math.nan, math.nan)
        inf = complex(math.inf, 0.0)
        values = [nan, 2 + 1j, inf, 2 + 1j, nan, 5.0, 5.0, 2 + 1j, complex(0.0, -math.inf), 5.0]
        links, scanned = grid_and_scan_links(values, flagged={1, 5})
        assert links == [None, None, None, None, None, None, None, 3, None, 6]
        assert links == scanned

    def test_tiny_scale_with_zero_threshold(self):
        links, scanned = grid_and_scan_links([5e-324, 5e-324, 0j, -5e-324])
        assert links == scanned

    @pytest.mark.parametrize("seed", range(40))
    def test_random_clusters_near_threshold(self, seed):
        rng = random.Random(seed)
        scale = 10.0 ** rng.uniform(-3, 3)
        threshold = DUPLICATE_RTOL * scale
        centres = [complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale)) / 2 for _ in range(12)]
        # a few centres sit on grid-cell corners, where neighbours straddle cells
        centres += [complex(2 * threshold * rng.randint(-50, 50), 2 * threshold * rng.randint(-50, 50)) for _ in range(4)]
        values = [complex(scale, 0.0)]
        for _ in range(300):
            centre = rng.choice(centres)
            radius = threshold * rng.choice((0.0, 0.5, 0.999, 1.0, 1.001, 1.5, 2.0, rng.uniform(0, 3)))
            values.append(centre + radius * cmath.exp(1j * rng.uniform(0, 2 * math.pi)))
        flagged = {i for i in range(len(values)) if rng.random() < 0.05}
        values = [complex(math.nan, 0.0) if rng.random() < 0.02 else v for v in values]
        links, scanned = grid_and_scan_links(values, flagged)
        assert links == scanned
