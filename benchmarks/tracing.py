"""Per-layer spans and counters, recorded from outside the package.

The tracer replaces module attributes that name layer boundaries (for
example ``multiagm.clouds.run_quartet``, the name through which the clouds
layer calls the engine) by wrappers that record a span: name, start, end
and the span that was open when it started.  Spans stay in memory; self
times are computed after the pass.  Wrappers are removed when the pass ends.

Calls too frequent to time without distorting them (the square-root
selectors and the quadrature integrand) are only counted, in a pass of
their own.
"""

from __future__ import annotations

import statistics
from collections import Counter
from contextlib import contextmanager
from time import perf_counter, perf_counter_ns

from multiagm import cli, clouds, engine, lattice, magm, oracle, roots

# (module, attribute, span name).  The span name's prefix is the layer.
SPAN_POINTS = (
    (cli, "main", "cli.main"),
    (cli, "enumerate_cloud", "clouds.enumerate"),
    (clouds, "enumerate_cloud", "clouds.enumerate"),
    (clouds, "_mark_duplicates", "clouds.dedupe"),
    (clouds, "run_quartet", "engine.run_quartet"),
    (cli, "predict_locus", "lattice.predict"),
    (lattice, "predict_locus", "lattice.predict"),
    (magm, "predict_locus", "lattice.predict"),
    (cli, "fit_cloud", "lattice.fit"),
    (lattice, "fit_cloud", "lattice.fit"),
    (magm, "fit_cloud", "lattice.fit"),
    (cli, "reference_set", "oracle.reference_set"),
    (oracle, "reference_set", "oracle.reference_set"),
    (magm, "reference_set", "oracle.reference_set"),
    (magm, "complete_from_complement", "oracle.reference_set"),
    (cli, "landen_check", "oracle.landen"),
    (lattice, "quad_F", "oracle.quad"),
    (lattice, "quad_E_inc", "oracle.quad"),
    (cli, "magm_equivalence", "magm.equivalence"),
    (cli, "magm_negative_experiment", "magm.experiment"),
)

# Self time of each span name, reported under this metric.
SELF_METRICS = {
    "bench.request": "bench.self_s",
    "cli.main": "cli.self_s",
    "clouds.enumerate": "clouds.self_s",
    "clouds.dedupe": "clouds.dedupe_s",
    "engine.run_quartet": "engine.run_quartet_s",
    "lattice.fit": "lattice.fit_s",
    "lattice.predict": "lattice.predict_s",
    "oracle.reference_set": "oracle.reference_set_s",
    "oracle.quad": "oracle.quad_s",
    "oracle.landen": "oracle.landen_s",
    "magm.equivalence": "magm.equivalence_s",
    "magm.experiment": "magm.experiment_s",
}

ROOT_MODULES = (roots, engine, oracle, magm, cli)
SAMPLED_ROOT_CALLS = 2048


def _count_trace(counts: Counter, trace) -> None:
    counts["engine.traces"] += 1
    counts["engine.iterations"] += len(trace.rows) - 1
    counts["engine.unconverged_traces"] += not trace.converged
    counts["engine.ill_conditioned_traces"] += trace.ill_conditioned
    counts["engine.useful_traces"] += trace.converged and not trace.ill_conditioned


def _count_cloud(counts: Counter, cloud) -> None:
    counts["clouds.points"] += len(cloud)
    counts["clouds.duplicates"] += sum(p.duplicate_of is not None for p in cloud)
    counts["clouds.flagged_points"] += sum(p.ill_conditioned for p in cloud)


def _count_fit(counts: Counter, report) -> None:
    counts["lattice.points_fitted"] += len(report.points)
    counts["lattice.excluded_points"] += report.flagged_excluded


def _count_experiment(counts: Counter, outcome) -> None:
    counts["magm.experiments"] += 1
    counts["magm.converged_experiments"] += outcome.converged


RESULT_HOOKS = {
    "engine.run_quartet": _count_trace,
    "clouds.enumerate": _count_cloud,
    "lattice.fit": _count_fit,
    "magm.experiment": _count_experiment,
}


@contextmanager
def _patched(replacements):
    """Set (module, attribute, value) triples, restoring the originals on exit."""
    saved = [(module, name, getattr(module, name)) for module, name, _ in replacements]
    try:
        for module, name, value in replacements:
            setattr(module, name, value)
        yield
    finally:
        for module, name, value in saved:
            setattr(module, name, value)


class Tracer:
    """Spans ``[name, start, end, parent index]`` and counters of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.missing: set[str] = set()

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name: str, fn):
        hook = RESULT_HOOKS.get(name)
        counts = self.counts

        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[name + ".errors"] += 1
                raise
            finally:
                self._close(index)
            if hook is not None:
                hook(counts, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every span point that exists in the package for the duration."""
        replacements = []
        for module, attr, name in SPAN_POINTS:
            if hasattr(module, attr):
                replacements.append((module, attr, self._wrap(name, getattr(module, attr))))
            else:
                self.missing.add(f"{module.__name__}.{attr}")
        with _patched(replacements):
            yield

    def layer_self_times(self) -> dict[str, float]:
        """Seconds per SELF_METRICS metric, excluding the time covered by child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(SELF_METRICS.values(), 0.0)
        for (name, start, end, _), covered in zip(self.spans, child):
            out[SELF_METRICS[name]] += (end - start) - covered
        return out


def count_calls(run_all) -> dict[str, float]:
    """Run ``run_all()`` with the square-root selectors and integrand counted.

    Also times ``signed_root`` alone on the first arguments the engine gave
    it, so its cost per call is measured without a wrapper around it.
    """
    counts: Counter = Counter()
    sample: list[tuple] = []

    def counter(key, fn, keep=None):
        def counted(*args, **kwargs):
            counts[key] += 1
            if keep is not None and len(keep) < SAMPLED_ROOT_CALLS:
                keep.append((args, kwargs))
            return fn(*args, **kwargs)

        return counted

    simpson = oracle.adaptive_simpson

    def counted_simpson(f, *args, **kwargs):
        return simpson(counter("oracle.integrand_evals", f), *args, **kwargs)

    replacements = [(oracle, "adaptive_simpson", counted_simpson)]
    for module in ROOT_MODULES:
        for attr, key in (("signed_root", "roots.signed_root_calls"),
                          ("principal_sqrt", "roots.principal_sqrt_calls")):
            if hasattr(module, attr):
                keep = sample if (module, attr) == (engine, "signed_root") else None
                replacements.append((module, attr, counter(key, getattr(module, attr), keep)))
    with _patched(replacements):
        run_all()

    out = {key: float(counts[key]) for key in ("roots.signed_root_calls",
                                                 "roots.principal_sqrt_calls",
                                                 "oracle.integrand_evals")}
    out["roots.signed_root_ns"] = _time_per_call(roots.signed_root, sample)
    return out


def _time_per_call(fn, sample: list[tuple]) -> float:
    if not sample:
        return 0.0
    per_call = []
    for _ in range(7):
        t0 = perf_counter_ns()
        for args, kwargs in sample:
            fn(*args, **kwargs)
        per_call.append((perf_counter_ns() - t0) / len(sample))
    return statistics.median(per_call)
