import cmath
import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiagm import (
    CloudRequest,
    QuartetParams,
    SignSchedule,
    complete_E,
    complete_K,
    complete_from_complement,
    engine,
    enumerate_cloud,
    incomplete_F,
    jacobi_Z,
    quad_E_inc,
    quad_F,
    reference_set,
    run_quartet,
)
from multiagm.clouds import CLOUD_KINDS, KIND_BITS, _extract
from multiagm.engine import (
    CONV_TOL,
    ILL_CONDITION_RATIO,
    MAX_ITER_LIMIT,
    QuartetTrace,
    sweep_quartet,
    sweep_sigma,
    zeta_sum,
)
from multiagm.roots import principal_sqrt, signed_root

K_SQRT09375 = math.sqrt(0.9375)


def params(b=0.25, sinphi=0.5, signb=1, **kw):
    b = complex(b)
    k = cmath.sqrt((1 - b) * (1 + b))
    return QuartetParams(k=k, sinphi=sinphi, signb=signb, complement=b, **kw)


class TestQuartetStep:
    """Row 1 of a one-iteration trace: one step of the signed recursion."""

    def test_fixed_point(self):
        trace = run_quartet(QuartetParams(k=0, sinphi=1, max_iter=1))
        assert trace.rows == ((1, 1, 1, 1), (1, 1, 1, 1))

    def test_generic_row_and_identity(self):
        trace = run_quartet(params(max_iter=1))
        assert trace.rows[0] == (1, 0.25, 2, 1.75)
        a, g, u, v = trace.rows[1]
        assert a == 0.625
        assert g == 0.5
        assert u == 1.875
        assert v == pytest.approx(math.sqrt(3.75**2 - 0.75**2) / 2, rel=1e-15)
        lhs = a * a - g * g
        rhs = u * u - v * v
        assert abs(lhs - rhs) <= 1e-15

    def test_sigma_flip_negates_g(self):
        _, g, _, _ = run_quartet(params(max_iter=1), SignSchedule(sigma_mask=1)).rows[1]
        assert g == -0.5


class TestRunQuartet:
    def test_classical_limit(self):
        trace = run_quartet(params())
        K = complete_K(trace)
        assert trace.a_inf == pytest.approx(0.5607572, abs=1e-7)
        assert K == pytest.approx(2.80121, abs=1e-5)
        assert K == pytest.approx(2.801206084665204, rel=1e-13)
        assert trace.converged and not trace.ill_conditioned

    @pytest.mark.parametrize("k", [0.1, 0.5, K_SQRT09375])
    def test_all_plus_limit_matches_oracle(self, k):
        K_ref = reference_set(k=k).K_k
        K = complete_K(run_quartet(QuartetParams(k=k, sinphi=0.5)))
        assert abs(K - K_ref) <= 1e-12 * abs(K_ref)

    def test_amplitude_copies_mean_pair_at_sinphi_one(self):
        trace = run_quartet(params(sinphi=1.0))
        for a, g, u, v in trace.rows:
            assert u == pytest.approx(a, rel=1e-13, abs=1e-15)
            assert v == pytest.approx(g, rel=1e-13, abs=1e-15)

    def test_zero_modulus_degenerates(self):
        trace = run_quartet(QuartetParams(k=0, sinphi=0.5))
        for a, g, _, _ in trace.rows:
            assert a == 1 and g == 1
        assert trace.s_sum == 0

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            QuartetParams(k=0.5, sinphi=0)
        with pytest.raises(ValueError):
            QuartetParams(k=0.5, sinphi=1, signb=2)
        with pytest.raises(ValueError):
            QuartetParams(k=0.5, sinphi=1, max_iter=0)
        with pytest.raises(ValueError, match="max_iter"):
            QuartetParams(k=0.5, sinphi=1, max_iter=MAX_ITER_LIMIT + 1)

    def test_longest_run_keeps_finite_series(self):
        trace = run_quartet(params(sinphi=0.8, max_iter=MAX_ITER_LIMIT), SignSchedule(0b101, 0b11, 0b110))
        assert len(trace.rows) == MAX_ITER_LIMIT + 1
        assert trace.converged
        assert cmath.isfinite(trace.s_sum) and cmath.isfinite(trace.z_sum)

    def test_singular_modulus_flags(self):
        trace = run_quartet(QuartetParams(k=1, sinphi=0.5))
        assert trace.ill_conditioned
        assert not trace.converged

    def test_identity_random_draws(self):
        rng = random.Random(1234)
        for _ in range(100):
            rk = 0.99 * math.sqrt(rng.random())
            tk = rng.uniform(0, 2 * math.pi)
            rs = rng.uniform(0.3, 2.0)
            ts = rng.uniform(0, 2 * math.pi)
            p = QuartetParams(
                k=complex(rk * math.cos(tk), rk * math.sin(tk)),
                sinphi=complex(rs * math.cos(ts), rs * math.sin(ts)),
            )
            sched = SignSchedule(rng.getrandbits(8), rng.getrandbits(8), rng.getrandbits(8))
            trace = run_quartet(p, sched)
            for a, g, u, v in trace.rows:
                lhs = a * a - g * g
                rhs = u * u - v * v
                scale = max(abs(a) ** 2, abs(g) ** 2, abs(u) ** 2, abs(v) ** 2)
                if scale == 0:
                    assert lhs == rhs
                else:
                    assert abs(lhs - rhs) <= 1e-10 * scale

    def test_identity_on_default_sweep_rows(self):
        # on the standard sweep the identity holds even relative to the
        # smaller of the two chain scales
        for smask in range(32):
            trace = run_quartet(params(), SignSchedule(sigma_mask=smask))
            for a, g, u, v in trace.rows:
                denom = max(abs(a) ** 2, abs(u) ** 2)
                assert abs((a * a - g * g) - (u * u - v * v)) <= 1e-10 * denom

    def test_quadratic_gap_decay(self):
        trace = run_quartet(params(b=0.1))
        gaps = [abs(a - g) for a, g, _, _ in trace.rows]
        mags = [abs(a) for a, _, _, _ in trace.rows]
        for n in range(len(gaps) - 1):
            if 0 < gaps[n] < 0.1 and gaps[n + 1] > 0:
                assert gaps[n + 1] <= gaps[n] ** 2 / (2 * mags[n] * 0.9)

    def test_gamma_only_touches_zeta(self):
        base = run_quartet(params(sinphi=0.8), SignSchedule(sigma_mask=3, delta_mask=5))
        flipped = run_quartet(params(sinphi=0.8), SignSchedule(sigma_mask=3, delta_mask=5, gamma_mask=0b1101))
        assert flipped.a_inf == base.a_inf
        assert flipped.u_inf == base.u_inf
        assert flipped.s_sum == base.s_sum
        assert flipped.rows == base.rows
        assert flipped.z_sum != base.z_sum

    def test_deterministic(self):
        sched = SignSchedule(11, 6, 9)
        t1 = run_quartet(params(sinphi=0.8), sched)
        t2 = run_quartet(params(sinphi=0.8), sched)
        assert t1 == t2


def reference_run_quartet(params, schedule, *, amplitude=True):
    """The plain form of the signed loop: per-step mask bits, powers and divisions.

    Without ``amplitude`` the same loop runs, but the trace keeps only what
    the mean pair decides: its flags, and NaN for ``u``, ``v`` and Zeta.
    """

    def safe_div(num, den):
        if den == 0:
            return complex(0.0) if num == 0 else complex(math.nan, math.nan)
        return num / den

    sp = complex(params.sinphi)
    ksq = params.k_squared()
    a = complex(1.0)
    g = params.signb * params.complement_value()
    u = 1 / sp
    v = g if sp == 1 else params.signb * principal_sqrt(1 - ksq * sp * sp) / sp
    s_ag, d_ag, p_ag = a + g, a - g, a * g
    s_uv, d_uv = u + v, u - v
    rows = [(a, g, u, v)]
    s_sum = z_sum = complex(0.0)
    collapsed = degenerate = False
    zeta_defined = True
    finite = all(cmath.isfinite(x) for x in (a, g, u, v))
    finite_ag = cmath.isfinite(a) and cmath.isfinite(g)
    for n in range(params.max_iter):
        s_sum += 2.0 ** (n - 1) * (s_ag * d_ag)
        if zeta_defined:
            if u == 0:
                zeta_defined = False
                z_sum = complex(math.nan, math.nan)
            else:
                zr = signed_root(u * u - a * a, u)
                z_sum += 2.0**n * (-1 if (schedule.gamma_mask >> n) & 1 else 1) * d_uv * zr / u
        collapsed = collapsed or p_ag == 0
        near = signed_root(p_ag, s_ag, tie_positive_imag=True)
        degenerate = degenerate or s_uv == 0
        if s_uv == s_ag and d_uv == d_ag:
            w = near
        else:
            w = signed_root((s_uv - d_ag) * (s_uv + d_ag), s_uv) / 2
        q = d_ag * d_ag / 4
        a = s_ag / 2
        sigma_flip = (schedule.sigma_mask >> n) & 1
        g = -near if sigma_flip else near
        p_ag = a * g
        if not sigma_flip:
            s_ag = a + near
            d_ag = safe_div(q, s_ag)
        else:
            d_ag = a + near
            s_ag = safe_div(q, d_ag)
        u = s_uv / 2
        delta_flip = (schedule.delta_mask >> n) & 1
        v = -w if delta_flip else w
        if not delta_flip:
            s_uv = u + w
            d_uv = safe_div(q, s_uv)
        else:
            d_uv = u + w
            s_uv = safe_div(q, d_uv)
        rows.append((a, g, u, v))
        finite = finite and all(cmath.isfinite(x) for x in (a, g, u, v))
        finite_ag = finite_ag and cmath.isfinite(a) and cmath.isfinite(g)
    scale = abs(a)
    if not amplitude:
        nan = complex(math.nan, math.nan)
        converged = bool(finite_ag and scale > 0.0 and abs(d_ag) <= CONV_TOL * scale)
        ill = not finite_ag or collapsed or scale < ILL_CONDITION_RATIO * abs(rows[0][0])
        rows = [(a, g, nan, nan) for a, g, _, _ in rows]
        return QuartetTrace(tuple(rows), s_sum, nan, a, nan, converged, ill, False)
    converged = bool(finite and scale > 0.0 and abs(d_ag) <= CONV_TOL * scale and abs(d_uv) <= CONV_TOL * scale)
    ill = not finite or collapsed or degenerate or not zeta_defined or scale < ILL_CONDITION_RATIO * abs(rows[0][0])
    return QuartetTrace(tuple(rows), s_sum, z_sum, a, u, converged, ill, zeta_defined)


def test_run_quartet_is_bit_identical_to_reference_loop():
    rng = random.Random(2024)
    for _ in range(400):
        if rng.random() < 0.5:
            b = complex(rng.uniform(0.01, 0.99))
        else:
            b = complex(rng.uniform(-1.0, 1.5), rng.uniform(-1.0, 1.0))
        sinphi = rng.choice((1, rng.uniform(0.05, 0.99), complex(rng.uniform(-1, 1), rng.uniform(-1, 1))))
        max_iter = rng.choice((5, 20, 32, 48, 64))
        p = params(b=b, sinphi=sinphi, signb=rng.choice((1, -1)), max_iter=max_iter)
        sched = SignSchedule(rng.getrandbits(max_iter), rng.getrandbits(max_iter), rng.getrandbits(max_iter))
        # repr tells signed zeros and NaN payload positions apart, unlike ==
        assert repr(run_quartet(p, sched)) == repr(reference_run_quartet(p, sched))


@pytest.mark.parametrize("sinphi", [0.5, 0.8, 1, 0.3 + 0.4j])
def test_late_flip_after_the_other_pair_is_fixed(sinphi):
    # one pair flips long after the other has reached its fixed point, which
    # must then leave it again: no pair may stop while the other still moves
    p = params(sinphi=sinphi, max_iter=24)
    for n in range(24):
        for schedule in (SignSchedule(1 << n), SignSchedule(0, 1 << n), SignSchedule(1 << n, 1)):
            assert repr(run_quartet(p, schedule)) == repr(reference_run_quartet(p, schedule))
    # the same in a cloud: sigma bits deeper than the delta tree's fixed points
    walked, alone = walked_and_reference_cloud(CloudRequest("Z", params(sinphi=sinphi, max_iter=10), 8, 1, 1))
    assert walked == alone


def masks_up_to(max_iter):
    # a mask no longer than max_iter, often much shorter, so that its last flip leaves a long tail
    return st.integers(0, max_iter).flatmap(lambda bits: st.integers(0, 2**bits - 1))


@given(
    b=st.one_of(
        st.floats(0.01, 0.99),
        st.builds(complex, st.floats(-1.0, 1.5), st.floats(-1.0, 1.0)),
    ),
    sinphi=st.one_of(st.just(1.0), st.floats(0.05, 0.99), st.builds(complex, st.floats(-1, 1), st.floats(-1, 1))),
    signb=st.sampled_from((1, -1)),
    max_iter=st.integers(1, 64),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_run_quartet_matches_reference_loop_at_any_budget(b, sinphi, signb, max_iter, data):
    if sinphi == 0:
        sinphi = 1.0
    p = params(b=b, sinphi=sinphi, signb=signb, max_iter=max_iter)
    sched = SignSchedule(*(data.draw(masks_up_to(max_iter)) for _ in range(3)))
    assert repr(run_quartet(p, sched)) == repr(reference_run_quartet(p, sched))


def descending_schedules(req):
    """Every schedule of the request, sigma outermost, then delta, then gamma, each descending."""
    return [
        SignSchedule(sigma, delta, delta << 1 if req.kind == "Z_restricted" else gamma)
        for sigma in range(2**req.sigma_bits - 1, -1, -1)
        for delta in range(2**req.delta_bits - 1, -1, -1)
        for gamma in range(2**req.gamma_bits - 1, -1, -1)
    ]


def walked_and_reference_cloud(req):
    """(repr of value, flag, schedule) of each point: from the walk, and from the reference loop per schedule.

    K, E and N take the reference's mean-pair flags: their values never read the amplitude pair.
    """
    walked = [(repr(p.value), p.ill_conditioned, p.schedule) for p in enumerate_cloud(req)]
    alone = []
    for schedule in descending_schedules(req):
        trace = reference_run_quartet(req.params, schedule, amplitude=req.kind not in ("K", "E", "N"))
        value = trace.z_sum if req.kind in ("Z", "Z_restricted") else _extract(req.kind, trace)
        alone.append((repr(value), trace.ill_conditioned or not trace.converged, schedule))
    return walked, alone


def test_cloud_walk_is_bit_identical_to_reference_per_schedule():
    rng = random.Random(6)
    for kind in CLOUD_KINDS * 8:
        if rng.random() < 0.5:
            b = complex(rng.uniform(0.01, 0.99))
        else:
            b = complex(rng.uniform(-1.0, 1.5), rng.uniform(-1.0, 1.0))
        sinphi = rng.choice((1, rng.uniform(0.05, 0.99), complex(rng.uniform(-1, 1), rng.uniform(-1, 1))))
        max_iter = rng.choice((1, 2, 5, 20, 32, 48, 64))
        p = params(b=b, sinphi=sinphi, signb=rng.choice((1, -1)), max_iter=max_iter)
        # draw only the bits the kind reads: a one-bit kind gets deeper masks
        depth = 6 if len(KIND_BITS[kind]) == 1 else 3
        req = CloudRequest(kind, p, **{name: rng.randint(0, min(max_iter, depth)) for name in KIND_BITS[kind]})
        walked, alone = walked_and_reference_cloud(req)
        assert walked == alone, req


@pytest.mark.parametrize("kind", CLOUD_KINDS)
@pytest.mark.parametrize(
    "start,max_iter",
    [
        ({}, 1),
        ({}, 2),
        ({"b": 0.3 + 0.4j, "signb": -1}, 3),
        ({"sinphi": 1}, 3),  # the amplitude pair is an exact copy of the mean pair
        ({"b": 1.0, "signb": -1}, 3),  # k = 0, u + v == 0: u = 0 after one step
        ({"b": 0.0}, 3),  # k = 1: the mean collapses
    ],
)
def test_cloud_walk_branches_at_every_level(kind, start, max_iter):
    # every mask as deep as the iteration count, so every node branches
    bits = dict.fromkeys(KIND_BITS[kind], max_iter)
    walked, alone = walked_and_reference_cloud(CloudRequest(kind, params(**start, max_iter=max_iter), **bits))
    assert walked == alone


@pytest.mark.parametrize("kind", ["K", "E", "N"])
@pytest.mark.parametrize("sinphi", [0.5, 0.3 + 0.4j, 1e200, 1e-200])
def test_mean_pair_cloud_keys_on_sigma_bits_only(kind, sinphi):
    walked, alone = walked_and_reference_cloud(CloudRequest(kind, params(sinphi=sinphi, max_iter=20), 3))
    assert walked == alone
    # the amplitude never reaches K, E or N: the same cloud at any sinphi
    same = enumerate_cloud(CloudRequest(kind, params(sinphi=0.5, max_iter=20), 3))
    assert walked == [(repr(p.value), p.ill_conditioned, p.schedule) for p in same]
    assert not any(flag for _, flag, _ in walked)


def test_mean_pair_walk_is_bit_identical_to_reference():
    rng = random.Random(8)
    for _ in range(100):
        if rng.random() < 0.5:
            b = complex(rng.uniform(0.01, 0.99))
        else:
            b = complex(rng.uniform(-1.0, 1.5), rng.uniform(-1.0, 1.0))
        sinphi = rng.choice((1, 1e200, rng.uniform(0.05, 0.99), complex(rng.uniform(-1, 1), rng.uniform(-1, 1))))
        max_iter = rng.choice((1, 2, 5, 20, 32, 48, 64))
        p = params(b=b, sinphi=sinphi, signb=rng.choice((1, -1)), max_iter=max_iter)
        schedules = [SignSchedule(*(rng.getrandbits(max_iter) for _ in range(3))) for _ in range(6)]
        assert_sweep_matches_reference(p, min(max_iter, 6), schedules)


def assert_sweep_matches_reference(p, top_bits, schedules=(SignSchedule(),)):
    """Every sweep of 0..top_bits sigma bits yields each mask once, as the reference loop runs it.

    The full reference, with the delta and gamma masks of ``schedules``
    added, must agree on ``a_inf`` and ``s_sum``: they read the mean pair alone.
    """
    expected = {}
    for mask in range(2**top_bits):
        alone = reference_run_quartet(p, SignSchedule(mask), amplitude=False)
        expected[mask] = repr(replace(alone, rows=()))
        other = schedules[mask % len(schedules)]
        full = reference_run_quartet(p, SignSchedule(mask, other.delta_mask, other.gamma_mask))
        assert repr((alone.a_inf, alone.s_sum)) == repr((full.a_inf, full.s_sum))
    for sigma_bits in range(top_bits + 1):
        swept = [(mask, repr(trace)) for mask, trace in sweep_sigma(p, sigma_bits)]
        assert sorted(mask for mask, _ in swept) == list(range(2**sigma_bits))
        for mask, trace in swept:
            assert trace == expected[mask]


@pytest.mark.parametrize(
    "start,max_iter",
    [
        ({}, 6),
        ({"b": 0.0}, 4),  # k = 1: the mean collapses
        ({"b": math.inf}, 3),  # a non-finite start
        ({"b": 0.3 + 0.4j, "signb": -1}, 5),
        ({"signb": -1}, 1),
    ],
)
def test_sweep_sigma_edge_cases(start, max_iter):
    # sigma bits up to max_iter: the deepest masks flip at the last iteration
    p = params(**start, max_iter=max_iter)
    assert_sweep_matches_reference(p, max_iter)
    with pytest.raises(ValueError, match="sigma_bits"):
        next(sweep_sigma(p, max_iter + 1))
    with pytest.raises(ValueError, match="sigma_bits"):
        next(sweep_sigma(p, -1))


def test_mean_pair_trace_gives_no_amplitude_value():
    ((_, trace),) = sweep_sigma(params(sinphi=0.8), 0)
    assert trace.converged and not trace.ill_conditioned
    assert complete_K(trace) == complete_K(run_quartet(params(sinphi=0.8)))
    assert cmath.isnan(trace.u_inf) and cmath.isnan(trace.z_sum) and not trace.zeta_defined
    assert cmath.isnan(incomplete_F(trace))
    with pytest.raises(ValueError, match="u=0"):
        jacobi_Z(trace)


def test_walk_yields_every_position_once():
    # every (sigma, delta) pair once; every gamma mask signs its finished terms into the
    # reference Zeta sum bit for bit, so the sign of each term is checked
    for start, max_iter, sigma_bits, delta_bits in (
        ({"sinphi": 0.8}, 5, 2, 3),
        ({"sinphi": 0.3 + 0.4j, "b": 0.3 + 0.4j, "signb": -1}, 4, 4, 4),  # flips at the last iteration
        ({"sinphi": 1}, 3, 2, 3),  # the amplitude pair starts as an exact copy of the mean pair
        ({"b": 1.0, "signb": -1}, 3, 1, 3),  # k = 0, u + v == 0: Zeta undefined after one step
        ({"b": 0.0}, 3, 3, 2),  # k = 1: the mean collapses
        ({}, 1, 0, 0),
    ):
        p = params(**start, max_iter=max_iter)
        swept = {}
        for sigma, delta, trace, terms in sweep_quartet(p, sigma_bits, delta_bits):
            assert (sigma, delta) not in swept
            swept[sigma, delta] = trace, terms
        assert sorted(swept) == [(s, d) for s in range(2**sigma_bits) for d in range(2**delta_bits)]
        for (sigma, delta), (trace, terms) in swept.items():
            assert cmath.isnan(trace.z_sum) and trace.rows == ()
            for gamma in range(2**max_iter):
                alone = reference_run_quartet(p, SignSchedule(sigma, delta, gamma))
                assert repr(replace(trace, z_sum=zeta_sum(terms, gamma))) == repr(replace(alone, rows=()))
        for bits in ((max_iter + 1, 0), (0, max_iter + 1), (-1, 0), (0, -1)):
            with pytest.raises(ValueError, match="_bits must lie"):
                next(sweep_quartet(p, *bits))
    # bit 5 never applies at max_iter=5: the bits above max_iter, through run_quartet
    p = params(max_iter=5)
    for schedule in (SignSchedule(1 << 5), SignSchedule(0b101, 0b11 | 1 << 5, 0b10 | 1 << 7)):
        assert repr(run_quartet(p, schedule)) == repr(reference_run_quartet(p, schedule))
    assert repr(run_quartet(p, SignSchedule(1 << 5, 1 << 6, 1 << 7))) == repr(run_quartet(p))


def counting_roots(monkeypatch):
    """Count the roots the engine takes through its module global, as the benchmark tracer does."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs.get("tie_positive_imag", False))
        return signed_root(*args, **kwargs)

    monkeypatch.setattr(engine, "signed_root", counting)
    return calls


def test_cloud_steps_each_shared_prefix_once(monkeypatch):
    calls = counting_roots(monkeypatch)
    enumerate_cloud(CloudRequest("K", params(), sigma_bits=12))
    # K walks the mean pair, one root per step: 2**12 - 1 shared steps up to
    # bit 12, then 8 steps for each of the 4096 schedules, 36863 in all
    # (110589 with the amplitude pair's two roots, 245760 when each schedule
    # runs alone).  The leaves that reach their fixed point before
    # iteration 20 skip 333 of those steps in all.
    assert len(calls) == 2**12 - 1 + 8 * 2**12 - 333 == 36530
    calls.clear()
    # At 32 iterations the leaves have 20 steps each after bit 12, 86015 in
    # all; 36445 of those steps would repeat a fixed point and are skipped.
    enumerate_cloud(CloudRequest("K", params(max_iter=32), sigma_bits=12))
    assert len(calls) == 2**12 - 1 + 20 * 2**12 - 36445 == 49570
    calls.clear()
    # F and Z walk the sigma tree for the mean roots as K does, then each
    # sigma mask's delta tree along its mean path: 2**D - 1 nodes above bit D
    # and 2**D leaves for 20 - D steps, one forward root per node and step,
    # and for Z a Zeta root too.  F at 3x4 bits: 7 + 8 * 17 = 143 mean roots
    # and 8 * (15 + 16 * 16) = 2168 forward roots without the stop, 94 and
    # 1384 with it (4496 when each sigma mask stepped its own mean pair and
    # F took Zeta roots too).
    enumerate_cloud(CloudRequest("F", params(sinphi=0.8), 3, 4))
    assert (calls.count(True), calls.count(False)) == (143 - 49, 2168 - 784) == (94, 1384)
    calls.clear()
    # Z at 2x2x2: 3 + 4 * 18 = 75 mean roots and 4 * 2 * (3 + 4 * 18) = 600
    # amplitude roots without the stop, 46 and 368 with it (680 before the
    # stop and the shared mean prefixes); the gamma bits only sign the Zeta
    # terms and take no root (3483 when they split the walk)
    enumerate_cloud(CloudRequest("Z", params(), 2, 2, 2))
    assert (calls.count(True), calls.count(False)) == (75 - 29, 600 - 232) == (46, 368)
    calls.clear()
    # one schedule: both pairs reach their fixed point at iteration 9, so 10
    # mean roots and 2 * 10 amplitude roots instead of 3 * 20
    run_quartet(params())
    assert (calls.count(True), calls.count(False)) == (10, 2 * 10)


def test_zeta_cloud_roots_do_not_depend_on_gamma_bits(monkeypatch):
    calls = counting_roots(monkeypatch)
    counts = []
    for gamma_bits in (0, 5):
        calls.clear()
        enumerate_cloud(CloudRequest("Z", params(), 2, 2, gamma_bits))
        counts.append(len(calls))
    # 46 mean and 368 amplitude roots, as test_cloud_steps_each_shared_prefix_once derives
    assert counts == [46 + 368, 46 + 368]


class TestTraceValues:
    def test_complete_K_zero_modulus(self):
        assert complete_K(run_quartet(QuartetParams(k=0, sinphi=0.5))) == math.pi / 2

    def test_sigma0_flip_offsets_by_four_quarter_periods(self):
        K_b, _ = complete_from_complement(complex(K_SQRT09375))
        base = complete_K(run_quartet(params()))
        flipped = complete_K(run_quartet(params(), SignSchedule(sigma_mask=1)))
        dist = min(abs(flipped - (base + 4j * K_b)), abs(flipped - (base - 4j * K_b)))
        assert dist < 1e-9

    def test_signb_flip_offsets_by_two_quarter_periods(self):
        K_b, _ = complete_from_complement(complex(K_SQRT09375))
        base = complete_K(run_quartet(params()))
        black = complete_K(run_quartet(params(signb=-1)))
        dist = min(abs(black - (base + 2j * K_b)), abs(black - (base - 2j * K_b)))
        assert dist < 1e-9

    def test_F_equals_K_at_full_amplitude(self):
        trace = run_quartet(params(sinphi=1.0))
        assert incomplete_F(trace) == pytest.approx(complete_K(trace), rel=1e-12)

    def test_F_branch_arithmetic(self):
        trace = run_quartet(params(sinphi=0.8))
        four_k = 4 * complete_K(trace)
        assert incomplete_F(trace, 2) - incomplete_F(trace, 0) == pytest.approx(four_k, rel=1e-13)
        assert incomplete_F(trace, 1) == pytest.approx(2 * complete_K(trace) - incomplete_F(trace, 0), rel=1e-13)

    def test_F_matches_quadrature(self):
        trace = run_quartet(params(sinphi=0.8))
        oracle = quad_F(math.asin(0.8), K_SQRT09375)
        assert incomplete_F(trace) == pytest.approx(oracle, abs=1e-8)

    def test_E_matches_oracle(self):
        trace = run_quartet(params())
        _, E_k = complete_from_complement(0.25)
        assert complete_E(trace) == pytest.approx(E_k, abs=1e-9)

    def test_E_over_K_ratio(self):
        trace = run_quartet(params())
        ratio = complete_E(trace) / complete_K(trace)
        assert ratio == pytest.approx(0.38280036865719, rel=1e-12)

    def test_zeta_printed_value(self):
        trace = run_quartet(params(sinphi=0.5))
        assert jacobi_Z(trace) == pytest.approx(0.2920, abs=5e-4)
        assert jacobi_Z(trace) == pytest.approx(0.29195724584282772, rel=1e-12)

    def test_zeta_vanishes_at_full_amplitude(self):
        trace = run_quartet(params(sinphi=1.0))
        assert abs(jacobi_Z(trace)) < 1e-10

    def test_zeta_decomposition(self):
        trace = run_quartet(params(sinphi=0.8))
        phi = math.asin(0.8)
        K_k, E_k = complete_from_complement(0.25)
        oracle = quad_E_inc(phi, K_SQRT09375) - quad_F(phi, K_SQRT09375) * (E_k / K_k).real
        assert jacobi_Z(trace) == pytest.approx(oracle, abs=1e-8)

    def test_F_at_zero_mean_limit_is_nan(self):
        # k = 0 and a flip at iteration 0: a_inf is exactly 0, as complete_K sees it
        trace = run_quartet(QuartetParams(k=0, sinphi=0.5, max_iter=2), SignSchedule(1))
        assert trace.a_inf == 0 and trace.u_inf != 0
        assert cmath.isnan(complete_K(trace))
        assert cmath.isnan(incomplete_F(trace)) and cmath.isnan(incomplete_F(trace, 3))

    def test_degenerate_accessors_raise(self):
        trace = run_quartet(params())
        broken = QuartetTrace(
            rows=trace.rows,
            s_sum=trace.s_sum,
            z_sum=complex(math.nan, math.nan),
            a_inf=trace.a_inf,
            u_inf=0j,
            converged=False,
            ill_conditioned=True,
            zeta_defined=False,
        )
        with pytest.raises(ValueError, match="amplitude limit degenerate"):
            incomplete_F(broken)
        with pytest.raises(ValueError, match="u=0"):
            jacobi_Z(broken)


@given(
    sigma=st.integers(min_value=0, max_value=255),
    delta=st.integers(min_value=0, max_value=255),
    gamma=st.integers(min_value=0, max_value=255),
)
@settings(max_examples=50, deadline=None)
def test_schedule_generation_is_last_nontrivial_bit(sigma, delta, gamma):
    sched = SignSchedule(sigma, delta, gamma)
    expected = max(sigma.bit_length(), delta.bit_length(), gamma.bit_length())
    assert sched.generation() == expected
    assert all(not (sched.sigma_mask >> n) & 1 for n in range(sigma.bit_length(), 12))
