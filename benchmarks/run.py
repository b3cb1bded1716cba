"""multiagm benchmark: one seeded workload, end-to-end or traced per layer.

    python3 benchmarks/run.py --workload deep_lattice --seed 1 --seconds 15 --trace 0

Run from a checkout that holds ``src/multiagm``.  Prints a readable report,
then, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` measures the end-to-end metrics
with nothing wrapped, scaled to a nominal machine speed (see
``reference_kernel``).  ``--trace 1`` runs a fixed request list untraced and
with layer spans (request by request, alternating), then once more with call
counters, and reports per-layer metrics.  README.md in this directory says
how to read the output.
"""

from __future__ import annotations

import argparse
import cmath
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parents[1] / "src"

# Seconds of request time one round of each workload takes at nominal machine
# speed (see reference_kernel), measured on the commit that introduced the
# benchmark (2 vCPUs, Python 3.11).  The end-to-end run measures
# ceil(seconds / NOMINAL_ROUND_S) rounds and the traced run
# round(seconds / (2 * NOMINAL_ROUND_S)), so that each takes about
# ``seconds`` at nominal speed.  The number of rounds depends only on the
# arguments, so for one seed every run makes the same requests and every
# count (requests, failures, counters) repeats exactly.
NOMINAL_ROUND_S = {"deep_lattice": 6.6, "verify_mix": 0.094, "branch_sweep": 5.3}

# End-to-end timings are scaled to the speed of a nominal machine, on which
# reference_kernel() takes REFERENCE_NOMINAL_S (its median on the 2-vCPU
# machine that calibrated the benchmark).  A reference sample, the median of
# three kernel runs, is taken between requests at most every
# REFERENCE_EVERY_S of wall time.
REFERENCE_NOMINAL_S = 0.0075
REFERENCE_EVERY_S = 0.5

SETUP_RUNS = 9
# Import plus first call, timed inside a fresh interpreter.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
if sys.argv[2] == "verify_mix":
    import contextlib, io
    from multiagm import cli
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["ref"])
else:
    import math
    from multiagm import clouds, engine, lattice, oracle
    kind, bits = ("K", (1, 0)) if sys.argv[2] == "deep_lattice" else ("F", (1, 1))
    params = engine.QuartetParams(k=math.sqrt(0.9375), sinphi=0.8, complement=0.25)
    cloud = clouds.enumerate_cloud(clouds.CloudRequest(kind, params, *bits))
    spec = lattice.predict_locus(kind, oracle.reference_set(b=0.25), phi=math.asin(0.8))
    lattice.fit_cloud(cloud, spec)
print(time.perf_counter() - t0)
"""

END_TO_END_UNITS = {
    "setup_s": "s",
    "points_per_s": "1/s",
    "req_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "bench.self_s": "s",
    "cli.self_s": "s",
    "cli.requests": "count",
    "cli.output_bytes": "bytes",
    "cli.nonzero_exits": "count",
    "clouds.self_s": "s",
    "clouds.dedupe_s": "s",
    "clouds.points": "count",
    "clouds.duplicates": "count",
    "clouds.flagged_points": "count",
    "engine.run_quartet_s": "s",
    "engine.us_per_trace": "us",
    "engine.traces": "count",
    "engine.iterations": "count",
    "engine.unconverged_traces": "count",
    "engine.ill_conditioned_traces": "count",
    "engine.useful_ratio": "ratio",
    "roots.signed_root_calls": "count",
    "roots.principal_sqrt_calls": "count",
    "roots.signed_root_ns": "ns",
    "lattice.fit_s": "s",
    "lattice.predict_s": "s",
    "lattice.points_fitted": "count",
    "lattice.excluded_points": "count",
    "lattice.fit_errors": "count",
    "lattice.max_residual": "1",
    "oracle.reference_set_s": "s",
    "oracle.quad_s": "s",
    "oracle.landen_s": "s",
    "oracle.quad_calls": "count",
    "oracle.integrand_evals": "count",
    "magm.equivalence_s": "s",
    "magm.experiment_s": "s",
    "magm.experiments": "count",
    "magm.converged_experiments": "count",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def reference_kernel() -> float:
    """Seconds that one fixed, standard-library-only computation takes now.

    The other tenants of a shared machine move its speed by up to ~30% over
    minutes.  This kernel does the kinds of work the package spends its time
    on (signed complex AGM steps, a pairwise distance scan, float formatting)
    without calling the package, so no change to the package can move it;
    timed between requests, it measures the machine's current speed.
    """
    t0 = perf_counter()
    values = []
    for j in range(500):
        a, g = complex(1.0), complex(0.05 + (j % 17) * 0.05, 0.0)
        s, d = a + g, a - g
        for i in range(20):
            r = cmath.sqrt(a * g)
            if s != 0 and (r / s).real < 0.0:
                r = -r
            q = d * d / 4
            a = s / 2
            g = r if (j >> (i % 9)) & 1 else -r
            s = a + g
            d = q / s if s != 0 else 0j
        values.append(a)
    for i in range(200):
        for j in range(i):
            if abs(values[i] - values[j]) < 1e-9:
                break
    ",".join(f"{v.real:.17g}" for v in values)
    return perf_counter() - t0


def reference_sample() -> float:
    return statistics.median(reference_kernel() for _ in range(3))


def measure_setup(workload: str) -> tuple[float, float]:
    """(scaled, unscaled) median of SETUP_RUNS fresh interpreters.

    One interpreter runs first to fill the bytecode caches.  Each timed one
    is scaled by a reference sample taken just before it.
    """
    scaled, unscaled = [], []
    for i in range(SETUP_RUNS + 1):
        reference = reference_sample()
        done = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), workload],
            capture_output=True, text=True, timeout=60, check=True,
        )
        if i:
            unscaled.append(float(done.stdout))
            scaled.append(float(done.stdout) * REFERENCE_NOMINAL_S / reference)
    return statistics.median(scaled), statistics.median(unscaled)


def scaled_latencies(outcomes, samples: list[tuple[int, float]]) -> list[float]:
    """Latencies scaled by the reference samples taken around each request.

    ``samples`` holds (number of requests done, reference seconds); the
    requests between two samples are scaled by the mean of the two.
    """
    out = []
    for (start, before), (end, after) in zip(samples, samples[1:]):
        factor = 2 * REFERENCE_NOMINAL_S / (before + after)
        out += [factor * o.latency_s for o in outcomes[start:end]]
    return out


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples beyond it.

    With fewer than 21 samples no percentile above the median qualifies, and
    the median is reported.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 21:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def summarize(outcomes, latencies: list[float] | None = None) -> dict:
    """Totals and rates of a run, from ``latencies`` (default: as measured)."""
    if latencies is None:
        latencies = [o.latency_s for o in outcomes]
    busy = sum(latencies)
    points = sum(o.points for o in outcomes)
    failures: dict[str, int] = {}
    for o in outcomes:
        if o.failure is not None:
            label = f"{o.failure} [{o.shape}]" + ("" if o.expected else " UNEXPECTED")
            failures[label] = failures.get(label, 0) + 1
    residuals = [o.residual for o in outcomes if o.residual is not None]
    tail_s, tail_pct = tail(latencies)
    return {
        "requests": len(outcomes),
        "busy_s": busy,
        "points": points,
        "points_per_s": points / busy,
        "req_per_s": len(outcomes) / busy,
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_tail_ms": 1e3 * tail_s,
        "tail_percentile": tail_pct,
        "failed": sum(o.failure is not None for o in outcomes),
        "correct": all(o.expected for o in outcomes),
        "failures": failures,
        "flagged_share": sum(o.flagged for o in outcomes) / points if points else 0.0,
        "max_residual": max(residuals, default=0.0),
    }


def warm_up(workloads_module, workload: str) -> None:
    # One short request per path, untimed, so lazy set-up is not measured.
    if workload == "verify_mix":
        workloads_module.run_cli(["ref"])
    else:
        workloads_module.LibraryRequest("F", 0.25, 0.8, sigma_bits=1, delta_bits=1, fit="F").run()
    # Keep the harness's own objects (modules, the outcome table) out of the
    # collector's full scans, which would otherwise lengthen every pause the
    # program's garbage causes.
    gc.collect()
    gc.freeze()


def print_report(workload: str, seed: int, mode: str, summary: dict) -> None:
    print(f"workload={workload} seed={seed} mode={mode} requests={summary['requests']} "
          f"points={summary['points']} busy_s={summary['busy_s']:.3f}")
    print(f"  tail percentile: p{summary['tail_percentile']:.2f} of {summary['requests']} requests")
    attempted = summary["requests"]
    print(f"  failed_share = {summary['failed'] / attempted:.6g} 1 ({summary['failed']} of {attempted})")
    print(f"  flagged_share = {summary['flagged_share']:.6g} 1")
    print(f"  max_residual = {summary['max_residual']:.3e} 1 (worst unflagged residual over passing fits)")
    for label, count in sorted(summary["failures"].items()):
        print(f"  failure x{count}: {label}")


def run_end_to_end(workloads_module, workload: str, seed: int, seconds: int) -> dict:
    setup_s, setup_unscaled = measure_setup(workload)
    stream = workloads_module.rounds(workload, seed)
    warm_up(workloads_module, workload)
    outcomes, samples = [], [(0, reference_sample())]
    # A fixed number of whole rounds: the requests, and so the failures and
    # the tail percentile, follow neither the machine's speed nor the
    # program's.
    rounds = max(1, math.ceil(seconds / NOMINAL_ROUND_S[workload]))
    t0 = last_sample = perf_counter()
    for _ in range(rounds):
        for request in next(stream):
            outcomes.append(request.run())
            if perf_counter() - last_sample >= REFERENCE_EVERY_S:
                samples.append((len(outcomes), reference_sample()))
                last_sample = perf_counter()
    samples.append((len(outcomes), reference_sample()))
    wall = perf_counter() - t0
    raw = summarize(outcomes)
    summary = summarize(outcomes, scaled_latencies(outcomes, samples))
    print_report(workload, seed, f"end-to-end, {rounds} whole rounds in {wall:.2f}s", summary)
    print(f"  machine speed {summary['busy_s'] / raw['busy_s']:.4f} x nominal ({len(samples)} reference"
          f" samples); unscaled: points_per_s {raw['points_per_s']:.6g}, req_per_s {raw['req_per_s']:.6g},"
          f" latency_p50_ms {raw['latency_p50_ms']:.6g}, latency_tail_ms {raw['latency_tail_ms']:.6g},"
          f" setup_s {setup_unscaled:.6g}")
    values = {name: summary[name] for name in END_TO_END_UNITS if name in summary}
    values["setup_s"] = setup_s
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for name in END_TO_END_UNITS:
        print(f"  {name} = {values[name]:.6g} {END_TO_END_UNITS[name]}")
    return {"summary": summary, "metrics": values, "units": END_TO_END_UNITS}


def run_traced(workloads_module, tracing, workload: str, seed: int, seconds: int) -> dict:
    stream = workloads_module.rounds(workload, seed)
    count = max(1, round(seconds / (2 * NOMINAL_ROUND_S[workload])))
    requests = [request for _ in range(count) for request in next(stream)]
    warm_up(workloads_module, workload)

    # Each request runs untraced and then traced, back to back, so a change
    # in machine speed during the run lands on both sides of the overhead.
    tracer = tracing.Tracer()
    outcomes = []
    untraced = traced = 0.0
    for request in requests:
        t0 = perf_counter()
        outcomes.append(request.run())
        untraced += perf_counter() - t0
        with tracer.installed():
            t0 = perf_counter()
            with tracer.span("bench.request"):
                request.run()
            traced += perf_counter() - t0
    calls = tracing.count_calls(lambda: [request.run() for request in requests])

    summary = summarize(outcomes)
    print_report(workload, seed, f"traced, {count} rounds", summary)
    values = layer_metrics(tracer, calls, outcomes, untraced, traced)
    print_layers(values, untraced)
    if tracer.missing:
        print(f"  boundaries absent from the package, not traced: {', '.join(sorted(tracer.missing))}")
    return {"summary": summary, "metrics": values, "units": PER_LAYER_UNITS}


def layer_metrics(tracer, calls: dict, outcomes, untraced: float, traced: float) -> dict:
    values = {name: 0.0 for name in PER_LAYER_UNITS}
    values.update(tracer.layer_self_times())
    for key, count in tracer.counts.items():
        if key in values:
            values[key] = float(count)
    counts = tracer.counts
    traces = counts["engine.traces"]
    values["engine.us_per_trace"] = 1e6 * values["engine.run_quartet_s"] / traces if traces else 0.0
    values["engine.useful_ratio"] = counts["engine.useful_traces"] / traces if traces else 0.0
    values["lattice.fit_errors"] = float(counts["lattice.fit.errors"])
    values["oracle.quad_calls"] = float(sum(1 for span in tracer.spans if span[0] == "oracle.quad"))
    values.update(calls)
    values["cli.requests"] = float(sum(1 for span in tracer.spans if span[0] == "cli.main"))
    values["cli.output_bytes"] = float(sum(o.output_bytes for o in outcomes))
    values["cli.nonzero_exits"] = float(sum(o.exit_code != 0 for o in outcomes))
    values["lattice.max_residual"] = max((o.residual for o in outcomes if o.residual is not None), default=0.0)
    values["trace.untraced_wall_s"] = untraced
    values["trace.traced_wall_s"] = traced
    values["trace.overhead_s"] = traced - untraced
    values["trace.spans"] = float(len(tracer.spans))
    return values


def print_layers(values: dict, untraced: float) -> None:
    self_times = {k: v for k, v in values.items() if k.endswith("_s") and not k.startswith("trace.")}
    layer_sum = sum(self_times.values())
    print(f"  untraced wall {untraced:.3f}s, traced wall {values['trace.traced_wall_s']:.3f}s, "
          f"overhead {values['trace.overhead_s']:.3f}s; sum of self times {layer_sum:.3f}s")
    for name, seconds in sorted(self_times.items(), key=lambda item: -item[1]):
        print(f"  {name:24s} {seconds:9.4f} s  {100 * seconds / untraced:6.2f}% of untraced wall")
    for name, value in values.items():
        if name not in self_times:
            print(f"  {name} = {value:.12g} {PER_LAYER_UNITS[name]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="deep_lattice, verify_mix or branch_sweep")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "multiagm" / "__init__.py").is_file():
        print(f"error: no multiagm package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.trace:
        result = run_traced(workloads, tracing, args.workload, args.seed, args.seconds)
    else:
        result = run_end_to_end(workloads, args.workload, args.seed, args.seconds)
    summary = result["summary"]
    for name, value in result["metrics"].items():
        if not math.isfinite(value):
            print(f"error: {name} is not finite", file=sys.stderr)
            return 1
    print(json.dumps({
        "correct": summary["correct"],
        "attempted": summary["requests"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": result["units"][name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
