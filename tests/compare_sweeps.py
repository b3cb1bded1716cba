"""Compare every sweep leaf and cloud fit of this tree with another checkout's.

Loads ``multiagm`` twice, from ``PARENT_ROOT/src`` and from this tree, under
two module names, draws seeded requests and compares every leaf of
`sweep_sigma` (with and without the series, and with fixed sigma bits
above the free ones), of `sweep_quartet` (Zeta off and on) and the trace
of `run_quartet` on a schedule of fixed sigma, delta and gamma bits, by
``marshal.dumps(leaf, 2)``, which writes each double's bytes: signed zeros
and NaN payloads must match too.  Each request also enumerates one cloud of a
seeded kind at its bits, compares its ``values`` and ``flags`` columns by
``marshal.dumps`` as well, and fits it, at a seeded tolerance, against a
seeded one-generator and a seeded two-generator `LatticeSpec`, each with
one or two cosets, and a seeded `CircleSpec`; the comparison covers the
report's ``passed``, ``max_residual``, ``worst_point`` and
``flagged_excluded`` and the five ``points`` columns, read by name.
Prints the first mismatch and the count compared, and exits 1 on any
mismatch.  Unpack the other commit with
``git archive`` and run from anywhere:

    mkdir -p ../parent && git archive HEAD~1 | tar -x -C ../parent
    python3 tests/compare_sweeps.py ../parent --requests 5000

Its name does not match ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import cmath
import importlib.util
import math
import random
import sys
from marshal import dumps, loads
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load(name: str, src: Path):
    """Import the package in ``src/multiagm`` as ``name``, its submodules under it."""
    package = src / "multiagm"
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py",
                                                  submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def draw(rng: random.Random) -> dict:
    """One request: modulus complement, amplitude, start sign, budget and sign bits."""
    b = rng.choice((
        lambda: rng.uniform(0.01, 0.99),
        lambda: rng.uniform(-2.0, 2.0),
        lambda: complex(rng.uniform(-1.0, 1.5), rng.uniform(-1.0, 1.0)),
        # from |b| near 1e155 on, d_ag**2 overflows on the first row
        lambda: rng.choice((1e300, -1e300, complex(1e308, 1e308), complex(1e200, -1e250), 1e154,
                            1e155, -3e155, complex(1e155, -1e155), complex(2e154, 2e155))),
        lambda: rng.choice((1e-320, -5e-324, complex(1e-320, 1e-310), complex(0.5, 1e-310))),
        lambda: rng.choice((math.nan, complex(math.nan, 0.5), complex(0.25, math.nan), math.inf)),
        lambda: rng.choice((0.0, 1.0, -1.0, 1j, -1j)),
    ))()
    sinphi = rng.choice((1.0, rng.uniform(-1.0, 1.0) or 0.5, complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                         rng.choice((1e-300, 1e200, complex(1.0, 2.0**-51)))))
    roll = rng.random()
    # as many delta bits as iterations: a child pushed on the last row steps no row
    last_row = 0.05 <= roll < 0.25
    max_iter = 1024 if roll < 0.02 else 400 if roll < 0.05 else rng.randint(1, 2) if last_row else rng.randint(1, 64)
    sigma_bits = rng.randint(0, min(max_iter, 6))
    quartet_sigma = rng.randint(0, min(max_iter, 4))
    return {
        "b": complex(b),
        "sinphi": sinphi,
        "signb": rng.choice((1, -1)),
        "max_iter": max_iter,
        "sigma_bits": sigma_bits,
        # fixed bits above the free ones, at most a few past max_iter, which never apply
        "sigma_mask": fixed_bits(rng, sigma_bits, max_iter),
        "quartet_bits": (quartet_sigma, max_iter if last_row else rng.randint(0, min(max_iter, 4))),
        "schedule": tuple(fixed_bits(rng, 0, max_iter) for _ in range(3)),
    }


def fixed_bits(rng: random.Random, low: int, max_iter: int) -> int:
    """A mask of bits from ``low`` up to a little past ``max_iter``: none, one, or a random run of them."""
    top = min(max_iter, 70) + 2
    if low >= top:
        return 0
    roll = rng.random()
    if roll < 0.25:
        return 0
    if roll < 0.5:
        return 1 << rng.randrange(low, top)
    return rng.getrandbits(rng.randint(low, top)) >> low << low


def leaves(package, req: dict) -> list[tuple[str, bytes]]:
    """Every leaf of the request's three sweeps, keyed by sweep and masks."""
    b = req["b"]
    params = package.QuartetParams(k=cmath.sqrt((1 - b) * (1 + b)), sinphi=req["sinphi"], signb=req["signb"],
                                   max_iter=req["max_iter"], complement=b)
    engine = package.engine
    sweep = engine.sweep_sigma
    out = []
    for sigma_mask in dict.fromkeys((0, req["sigma_mask"])):
        for leaf in sweep(params, req["sigma_bits"], sigma_mask):
            out.append((f"sigma {leaf[0]}", dumps(leaf, 2)))
        free = sweep(params, req["sigma_bits"], sigma_mask, series=False)
        out += [(f"sigma series=False {leaf[0]}", dumps(leaf, 2)) for leaf in free]
    for zeta in (False, True):
        for leaf in engine.sweep_quartet(params, *req["quartet_bits"], zeta):
            out.append((f"quartet zeta={zeta} {leaf[:2]}", dumps(leaf, 2)))
    trace = engine.run_quartet(params, engine.SignSchedule(*req["schedule"]))
    fields = (trace.rows, trace.s_sum, trace.z_sum, trace.a_inf, trace.u_inf, trace.converged,
              trace.ill_conditioned, trace.zeta_defined)
    out.append((f"run_quartet {req['schedule']}", dumps(fields, 2)))
    return sorted(out)


KINDS = ("K", "F", "E", "N", "Z", "Z_restricted")


def draw_fit(rng: random.Random, req: dict) -> dict:
    """One cloud to fit, at the request's bits, and its seeded loci: two lattices and a circle."""
    sigma_bits, (quartet_sigma, delta_bits) = req["sigma_bits"], req["quartet_bits"]
    kind = rng.choice(KINDS)
    bits = {
        "K": {"sigma_bits": sigma_bits},
        "E": {"sigma_bits": sigma_bits},
        "N": {"sigma_bits": sigma_bits},
        "F": {"sigma_bits": quartet_sigma, "delta_bits": delta_bits},
        "Z": {"sigma_bits": quartet_sigma, "delta_bits": delta_bits,
              "gamma_bits": rng.randint(0, min(req["max_iter"], 2))},
        "Z_restricted": {"delta_bits": delta_bits},
    }[kind]

    def point(scale: float) -> complex:
        return complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))

    lattices = []
    for generators in (1, 2):
        scale = rng.choice((1e-3, 0.5, 4.0, 1e3))
        gen1 = point(scale) or scale
        # a second generator off gen1's line: gen1 times a factor with a nonzero imaginary part
        turn = complex(rng.uniform(-2.0, 2.0), rng.choice((-1, 1)) * rng.uniform(0.1, 2.0))
        gen2 = 0j if generators == 1 else gen1 * turn
        cosets = (0j,) if rng.random() < 0.5 else (0j, point(scale))
        lattices.append((point(4.0), gen1, gen2, cosets))
    x1 = rng.uniform(-3.0, 3.0)
    circle = (x1, x1 + rng.choice((-1, 1)) * rng.uniform(0.1, 4.0))
    return {"kind": kind, "bits": bits, "lattices": lattices, "circle": circle,
            "tol": rng.choice((1e-6, 0.5, 10.0, math.inf))}


def fits(package, req: dict, fit: dict) -> list[tuple[str, bytes]]:
    """The request's cloud columns and its fit to each of its loci, keyed by locus; an error is kept as its text."""
    b = req["b"]
    params = package.QuartetParams(k=cmath.sqrt((1 - b) * (1 + b)), sinphi=req["sinphi"], signb=req["signb"],
                                   max_iter=req["max_iter"], complement=b)
    lattice = package.lattice
    specs = [lattice.LatticeSpec(*spec) for spec in fit["lattices"]] + [lattice.CircleSpec(*fit["circle"])]
    out = []
    try:
        cloud = package.enumerate_cloud(package.CloudRequest(kind=fit["kind"], params=params, **fit["bits"]))
    except (ValueError, ArithmeticError) as error:
        return [(f"{fit['kind']} cloud", dumps(f"{type(error).__name__}: {error}", 2))]
    # the columns themselves, so that a signed zero or a NaN payload that no fit reads is seen too
    out.append((f"{fit['kind']} cloud columns", dumps((cloud.values, cloud.flags), 2)))
    for spec in specs:
        report = lattice.fit_cloud(cloud, spec, fit["tol"])
        points = report.points
        fields = (report.passed, report.max_residual, report.worst_point, report.flagged_excluded,
                  points.m, points.n, points.coset, points.residual, points.excluded)
        out.append((f"{fit['kind']} fit {spec}", dumps(fields, 2)))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_root", type=Path, help="root of the other checkout, holding src/multiagm")
    parser.add_argument("--requests", type=int, default=5000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    parent = load("multiagm_parent", args.parent_root / "src")
    change = load("multiagm_change", ROOT / "src")
    rng = random.Random(args.seed)
    # the fits draw from their own stream, so the sweeps' requests do not depend on them
    fit_rng = random.Random(f"fits {args.seed}")
    compared = 0
    for i in range(args.requests):
        req = draw(rng)
        fit = draw_fit(fit_rng, req)
        old, new = leaves(parent, req) + fits(parent, req, fit), leaves(change, req) + fits(change, req, fit)
        if [key for key, _ in old] != [key for key, _ in new]:
            print(f"request {i} {req} {fit}: the sweeps or fits yield different keys")
            return 1
        for (key, old_bytes), (_, new_bytes) in zip(old, new):
            if old_bytes != new_bytes:
                print(f"request {i} {req} {fit}: {key} differs")
                print(f"  parent: {loads(old_bytes)!r}\n  change: {loads(new_bytes)!r}")
                print(f"{compared} leaves and fits compared before the first mismatch")
                return 1
            compared += 1
    print(f"{args.requests} requests, {compared} leaves and fits compared, 0 mismatches")
    return 0


if __name__ == "__main__":
    sys.exit(main())
