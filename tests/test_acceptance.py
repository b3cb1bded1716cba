"""Acceptance gate: every top-level requirement at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

import math
import random

from multiagm import (
    CloudRequest,
    MagmTriplet,
    QuartetParams,
    SignSchedule,
    CircleSpec,
    complete_E,
    complete_K,
    complete_from_complement,
    enumerate_cloud,
    fit_cloud,
    incomplete_F,
    jacobi_Z,
    landen_check,
    magm_equivalence,
    magm_negative_experiment,
    magm_step,
    predict_locus,
    quad_E_inc,
    quad_F,
    reference_set,
    run_quartet,
)
from multiagm.cli import main

K_SQRT09375 = math.sqrt(0.9375)


def _check(num, label, ok, detail=""):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {label}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _params(b=0.25, sinphi=0.5, signb=1):
    b = complex(b)
    k = math.sqrt(((1 - b) * (1 + b)).real)
    return QuartetParams(k=k, sinphi=sinphi, signb=signb, complement=b)


def test_criterion_01_row_identity():
    rng = random.Random(20260810)
    worst = 0.0
    for _ in range(1000):
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
            scale = max(abs(a) ** 2, abs(g) ** 2, abs(u) ** 2, abs(v) ** 2)
            diff = abs((a * a - g * g) - (u * u - v * v))
            if scale == 0:
                ok = diff == 0
            else:
                ok = diff <= 1e-10 * scale
                worst = max(worst, diff / scale)
            if not ok:
                _check(1, "square-difference identity on 1000 random draws", False)
    _check(1, "square-difference identity on 1000 random draws", True, f"worst rel {worst:.2e}")


def test_criterion_02_oracle_agreement():
    worst = 0.0
    for k in (0.25, 0.5, K_SQRT09375):
        b = math.sqrt((1 - k) * (1 + k))
        K_ref, E_ref = complete_from_complement(b)
        ratio = (E_ref / K_ref).real
        for sinphi in (0.5, 0.8, 1.0):
            phi = math.asin(sinphi)
            trace = run_quartet(QuartetParams(k=k, sinphi=sinphi, complement=b))
            F_ref = quad_F(phi, k)
            Z_ref = quad_E_inc(phi, k) - F_ref * ratio
            errs = (
                abs(complete_K(trace) - K_ref),
                abs(complete_E(trace) - E_ref),
                abs(incomplete_F(trace, 0) - F_ref),
                abs(jacobi_Z(trace) - Z_ref),
            )
            worst = max(worst, *errs)
    _check(2, "all-plus K, E, F, Z against oracle at 1e-8", worst < 1e-8, f"worst {worst:.2e}")


def test_criterion_03_printed_zeta_value():
    trace = run_quartet(_params(sinphi=0.5))
    z = jacobi_Z(trace)
    err = abs(z - 0.2920)
    _check(3, "Zeta(sin phi = 0.5, k = sqrt(0.9375)) = 0.2920 +- 5e-4", err <= 5e-4, f"value {z.real:.6f}")


def test_criterion_04_exact_offsets():
    refs = reference_set(b=0.25)
    base = complete_K(run_quartet(_params()))
    flipped = complete_K(run_quartet(_params(), SignSchedule(sigma_mask=1)))
    d_sigma = min(abs(flipped - (base + 4j * refs.K_b)), abs(flipped - (base - 4j * refs.K_b)))
    black = complete_K(run_quartet(_params(signb=-1)))
    d_signb = min(abs(black - (base + 2j * refs.K_b)), abs(black - (base - 2j * refs.K_b)))
    ok = d_sigma < 1e-9 and d_signb < 1e-9
    _check(4, "sigma0 flip = -+4iK(b); negative start = -+2iK(b)", ok, f"{d_sigma:.2e}, {d_signb:.2e}")


def test_criterion_05_k_lattice_membership():
    refs = reference_set(b=0.25)
    cloud = enumerate_cloud(CloudRequest(kind="K", params=_params(), sigma_bits=5))
    report = fit_cloud(cloud, predict_locus("K", refs), tol=1e-6)
    ok = report.passed and report.flagged_excluded <= 1
    detail = f"max {report.max_residual:.2e}, flagged {report.flagged_excluded}"
    # the two start signs fitted as one cloud, by their joined columns, as `verify --kind k-both` does
    black = enumerate_cloud(CloudRequest(kind="K", params=_params(signb=-1), sigma_bits=5))
    report_both = fit_cloud(cloud.values + black.values, predict_locus("K_both", refs), tol=1e-6,
                            flags=cloud.flags + black.flags)
    ok = ok and report_both.passed
    _check(5, "32-point K cloud on (4K, 4iK(b)); combined signs on (4K, 2iK(b))", ok,
           detail + f"; both {report_both.max_residual:.2e}")


def test_criterion_06_f_lattice():
    refs = reference_set(b=0.25)
    cloud = enumerate_cloud(CloudRequest(kind="F", params=_params(sinphi=0.8), sigma_bits=3, delta_bits=4))
    spec = predict_locus("F", refs, phi=math.asin(0.8))
    report = fit_cloud(cloud, spec, tol=1e-6)
    ok = len(cloud) == 128 and report.passed
    _check(6, "128-point F cloud on the two-coset (4K, 4iK(b)) lattice", ok, f"max {report.max_residual:.2e}")


def test_criterion_07_e_lattice_and_shape():
    refs = reference_set(b=0.25)
    k_cloud = enumerate_cloud(CloudRequest(kind="K", params=_params(), sigma_bits=5))
    e_cloud = enumerate_cloud(CloudRequest(kind="E", params=_params(), sigma_bits=5))
    k_report = fit_cloud(k_cloud, predict_locus("K", refs), tol=1e-6)
    e_report = fit_cloud(e_cloud, predict_locus("E", refs), tol=1e-6)
    same_shape = sorted(zip(k_report.points.m, k_report.points.n)) == sorted(zip(e_report.points.m, e_report.points.n))
    ok = e_report.passed and same_shape
    _check(7, "32-point E cloud on (4E, 4i(K(b)-E(b))) with K-cloud shape", ok,
           f"max {e_report.max_residual:.2e}, shapes equal: {same_shape}")


def test_criterion_08_n_circle():
    refs = reference_set(b=0.25)
    cloud = enumerate_cloud(CloudRequest(kind="N", params=_params(), sigma_bits=5))
    report = fit_cloud(cloud, predict_locus("N", refs), tol=1e-6)
    _check(8, "32-point E/K cloud on the circle through 1-N(k^2), N(b^2)", report.passed,
           f"max {report.max_residual:.2e}")


def test_criterion_09_restricted_zeta_lattice():
    refs = reference_set(b=0.25)
    cloud = enumerate_cloud(CloudRequest(kind="Z_restricted", params=_params(sinphi=0.8), delta_bits=4))
    spec = predict_locus("Z_restricted", refs, phi=math.asin(0.8))
    report = fit_cloud(cloud, spec, tol=1e-6)
    unit_ok = abs(abs(spec.gen1) - 2.2430) < 1e-4
    ok = len(cloud) == 16 and report.passed and unit_ok
    _check(9, "16-point restricted Zeta cloud on the 2 pi i / K(k) line", ok,
           f"max {report.max_residual:.2e}, |gen| {abs(spec.gen1):.5f}")


def test_criterion_10_legendre_and_landen():
    worst_leg = 0.0
    worst_lan = 0.0
    for b in (0.1, 0.25, 0.5, 0.9):
        worst_leg = max(worst_leg, reference_set(b=b).legendre_residual())
        worst_lan = max(worst_lan, *landen_check(b))
    ok = worst_leg < 1e-12 and worst_lan < 1e-12
    _check(10, "Legendre and both Landen products at 1e-12", ok, f"{worst_leg:.2e}, {worst_lan:.2e}")


def test_criterion_11_magm():
    ok = True
    details = []
    for b in (0.25, 0.9):
        eq = magm_equivalence(b, rows=20)
        ok = ok and eq.max_row_deviation < 1e-12 and eq.limit_deviation < 1e-10
        details.append(f"b={b}: rows {eq.max_row_deviation:.1e}, limit {eq.limit_deviation:.1e}")
    b = 0.25
    t0 = MagmTriplet(1, b * b, 0)
    t1 = magm_step(t0)
    t2 = magm_step(t1)
    table_ok = (
        (t0.x, t0.y, t0.z) == (1, 0.0625, 0)
        and t1.x == (1 + b * b) / 2
        and abs(t1.y - b) < 1e-15
        and abs(t1.z + b) < 1e-15
        and abs(t2.x - (1 + b) ** 2 / 4) < 1e-15
        and abs(t2.y - (math.sqrt(b) * (1 + b) - b)) < 1e-15
        and abs(t2.z + (math.sqrt(b) * (1 + b) + b)) < 1e-15
    )
    ok = ok and table_ok
    neg = magm_negative_experiment(0.25, sign_mask=(1 << 20) - 1, rows=20)
    ok = ok and not neg.converged
    _check(11, "MAGM series rows, limit, symbolic rows, all-negative divergence", ok,
           "; ".join(details) + f"; all-negative converged: {neg.converged}")


def test_criterion_12_scaling_circle_property():
    rng = random.Random(31415)
    worst = 0.0
    for _ in range(50):
        alpha = rng.uniform(0.1, 4.0)
        beta = rng.uniform(-4.0, -0.1) if rng.random() < 0.5 else rng.uniform(0.1, 4.0)
        if abs(alpha - beta) < 1e-3:
            beta += 0.1
        values = []
        for _ in range(40):
            mag = rng.uniform(0.1, 10.0)
            ang = rng.uniform(0.0, 2 * math.pi)
            p = complex(mag * math.cos(ang), mag * math.sin(ang))
            values.append(complex(alpha * p.real, beta * p.imag) / p)
        report = fit_cloud(values, CircleSpec(x1=alpha, x2=beta), tol=1e-10)
        worst = max(worst, report.max_residual)
    _check(12, "anisotropic scaling ratios land on the predicted circle", worst < 1e-10, f"worst {worst:.2e}")


def test_criterion_13_cli_determinism(tmp_path):
    paths = [tmp_path / name for name in ("a.csv", "b.csv")]
    for p in paths:
        assert main(["fill-k", "--b", "0.25", "--out", str(p)]) == 0
    same_k = paths[0].read_bytes() == paths[1].read_bytes()
    zpaths = [tmp_path / name for name in ("za.csv", "zb.csv")]
    for p in zpaths:
        assert main(["fill-z-restricted", "--out", str(p)]) == 0
    same_z = zpaths[0].read_bytes() == zpaths[1].read_bytes()
    _check(13, "repeated CLI runs emit byte-identical CSV", same_k and same_z)
