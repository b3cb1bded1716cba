"""Compare every sweep leaf of this tree's engine with another checkout's.

Loads ``multiagm`` twice, from ``PARENT_ROOT/src`` and from this tree, under
two module names, draws seeded requests and compares every leaf of
`sweep_sigma` (with and without the series, and with fixed sigma bits
above the free ones), of `sweep_quartet` (Zeta off and on) and the trace
of `run_quartet` on a schedule of fixed sigma, delta and gamma bits, by
``marshal.dumps(leaf, 2)``, which writes each double's bytes: signed zeros
and NaN payloads must match too.  Where the other checkout's `sweep_sigma`
takes no ``series`` argument, its leaves stand for the series-free ones
with ``s_sum`` set to None.  Prints the first mismatch and the count
compared, and exits 1 on any mismatch.  Unpack the other commit with
``git archive`` and run from anywhere:

    mkdir -p ../parent && git archive HEAD~1 | tar -x -C ../parent
    python3 tests/compare_sweeps.py ../parent --requests 5000

Its name does not match ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import cmath
import importlib.util
import inspect
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
        lambda: rng.choice((1e300, -1e300, complex(1e308, 1e308), complex(1e200, -1e250), 1e154)),
        lambda: rng.choice((1e-320, -5e-324, complex(1e-320, 1e-310), complex(0.5, 1e-310))),
        lambda: rng.choice((math.nan, complex(math.nan, 0.5), complex(0.25, math.nan), math.inf)),
        lambda: rng.choice((0.0, 1.0, -1.0, 1j, -1j)),
    ))()
    sinphi = rng.choice((1.0, rng.uniform(-1.0, 1.0) or 0.5, complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                         rng.choice((1e-300, 1e200, complex(1.0, 2.0**-51)))))
    roll = rng.random()
    max_iter = 1024 if roll < 0.02 else 400 if roll < 0.05 else rng.randint(1, 64)
    sigma_bits = rng.randint(0, min(max_iter, 6))
    return {
        "b": complex(b),
        "sinphi": sinphi,
        "signb": rng.choice((1, -1)),
        "max_iter": max_iter,
        "sigma_bits": sigma_bits,
        # fixed bits above the free ones, at most a few past max_iter, which never apply
        "sigma_mask": fixed_bits(rng, sigma_bits, max_iter),
        "quartet_bits": (rng.randint(0, min(max_iter, 4)), rng.randint(0, min(max_iter, 4))),
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
        if "series" in inspect.signature(sweep).parameters:
            free = sweep(params, req["sigma_bits"], sigma_mask, series=False)
        else:
            free = ((*leaf[:3], None, *leaf[4:]) for leaf in sweep(params, req["sigma_bits"], sigma_mask))
        out += [(f"sigma series=False {leaf[0]}", dumps(leaf, 2)) for leaf in free]
    for zeta in (False, True):
        for leaf in engine.sweep_quartet(params, *req["quartet_bits"], zeta):
            out.append((f"quartet zeta={zeta} {leaf[:2]}", dumps(leaf, 2)))
    trace = engine.run_quartet(params, engine.SignSchedule(*req["schedule"]))
    fields = (trace.rows, trace.s_sum, trace.z_sum, trace.a_inf, trace.u_inf, trace.converged,
              trace.ill_conditioned, trace.zeta_defined)
    out.append((f"run_quartet {req['schedule']}", dumps(fields, 2)))
    return sorted(out)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_root", type=Path, help="root of the other checkout, holding src/multiagm")
    parser.add_argument("--requests", type=int, default=5000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    parent = load("multiagm_parent", args.parent_root / "src")
    change = load("multiagm_change", ROOT / "src")
    rng = random.Random(args.seed)
    compared = 0
    for i in range(args.requests):
        req = draw(rng)
        old, new = leaves(parent, req), leaves(change, req)
        if [key for key, _ in old] != [key for key, _ in new]:
            print(f"request {i} {req}: the sweeps yield different masks")
            return 1
        for (key, old_bytes), (_, new_bytes) in zip(old, new):
            if old_bytes != new_bytes:
                print(f"request {i} {req}: {key} differs")
                print(f"  parent: {loads(old_bytes)!r}\n  change: {loads(new_bytes)!r}")
                print(f"{compared} leaves compared before the first mismatch")
                return 1
            compared += 1
    print(f"{args.requests} requests, {compared} leaves compared, 0 mismatches")
    return 0


if __name__ == "__main__":
    sys.exit(main())
