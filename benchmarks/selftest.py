"""Check that the benchmark's counters repeat exactly for a seed.

    python3 benchmarks/selftest.py

For one round of every workload, runs the traced pass twice on seed 1 and
once on a held-out seed.  The counters below must be identical for the
repeated seed; on the held-out seed they must stay within their invariants
and at least one input-dependent counter must change.  Takes about a minute.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

SEED, HELD_OUT = 1, 2
MAX_ITER = 20  # engine.DEFAULT_MAX_ITER, the budget every request uses


def counters(workload: str, seed: int) -> dict[str, float]:
    requests = next(workloads.rounds(workload, seed))
    tracer = tracing.Tracer()
    with tracer.installed():
        outcomes = [request.run() for request in requests]
    counts = tracer.counts
    return {
        "requests": len(outcomes),
        "engine.traces": counts["engine.traces"],
        "engine.iterations": counts["engine.iterations"],
        "clouds.points": counts["clouds.points"],
        "clouds.flagged_points": counts["clouds.flagged_points"],
        "clouds.duplicates": counts["clouds.duplicates"],
        "lattice.fit_errors": counts["lattice.fit.errors"],
        "failed_share": sum(o.failure is not None for o in outcomes) / len(outcomes),
        "correct": all(o.expected for o in outcomes),
    }


def check(workload: str) -> None:
    first, again, held_out = (counters(workload, seed) for seed in (SEED, SEED, HELD_OUT))
    assert first == again, f"{workload}: counters differ between two runs of seed {SEED}"
    for c in (first, held_out):
        assert c["correct"], f"{workload}: a failure outside the known defects"
        assert 0 < c["engine.iterations"] <= MAX_ITER * c["engine.traces"], workload
        assert c["clouds.flagged_points"] <= c["clouds.points"], workload
        assert c["clouds.duplicates"] <= c["clouds.points"], workload
        assert 0.0 <= c["failed_share"] <= 1.0, workload
    # Shapes are the same in every round, so the work is too ...
    for key in ("requests", "engine.traces", "clouds.points"):
        assert first[key] == held_out[key], f"{workload}: {key} depends on the seed"
    # ... while what the drawn inputs decide moves with the seed.
    varying = ("clouds.flagged_points", "clouds.duplicates", "lattice.fit_errors", "failed_share")
    assert any(first[k] != held_out[k] for k in varying), f"{workload}: inputs do not vary"
    if workload == "deep_lattice":
        assert first["failed_share"] == held_out["failed_share"] == 0.0
        assert first["clouds.duplicates"] == held_out["clouds.duplicates"] == 0
        assert first["clouds.flagged_points"] < 0.1 * first["clouds.points"]
    if workload == "branch_sweep":
        assert first["lattice.fit_errors"] > 0 and first["failed_share"] > 0
    print(f"{workload}: seed {SEED} {first}")
    print(f"{workload}: seed {HELD_OUT} {held_out}")


def main() -> None:
    for workload in workloads.WORKLOADS:
        check(workload)
    print("ok")


if __name__ == "__main__":
    main()
