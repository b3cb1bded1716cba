"""Seeded request streams for the three benchmark workloads, and their checks.

A workload is an endless sequence of *rounds*.  Every round of a workload
holds the same request shapes (only their order and the drawn ``b`` and
``sinphi`` change), so a run made of whole rounds always has the same mix
of work, whatever the seed.  The package sees only the generated inputs.

Requests call the package through module attributes looked up at call time
(``clouds.enumerate_cloud``, ``cli.main`` ...), so the tracer in
``tracing.py`` can wrap those attributes without touching the package.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from multiagm import cli, clouds, engine, lattice, oracle

WORKLOADS = ("deep_lattice", "verify_mix", "branch_sweep")

# verify_mix draws its moduli and amplitudes from these grids, so that every
# request it can make has an outcome recorded in OUTCOMES_PATH.  All values
# are exact binary fractions, so their decimal argv spelling is exact too.
B_GRID = tuple(j / 32 for j in range(2, 31))
SINPHI_GRID = tuple(j / 16 for j in range(2, 16))

CLI_COMMANDS = (
    ("fill-k",),
    ("fill-f",),
    ("fill-e",),
    ("fill-n",),
    ("fill-z",),
    ("fill-z-restricted",),
    ("verify", "--kind", "k"),
    ("verify", "--kind", "k-both"),
    ("verify", "--kind", "f"),
    ("verify", "--kind", "e"),
    ("verify", "--kind", "n"),
    ("verify", "--kind", "z-restricted"),
    ("magm-check",),
    ("ref",),
)

OUTCOMES_PATH = Path(__file__).with_name("verify_mix_outcomes.json")

# Failure classes reproduced at the commit that introduced this benchmark.
# They are counted as failures; a failure outside these classes (or, on
# verify_mix, one that differs from the recorded outcome) makes the run
# incorrect.
KNOWN_DEFECTS = {
    "F fit FAIL": "F clouds miss their lattice: ~3e-4 or worse from sigma_bits 4, "
    "and ~1.2e-6 at sigma_bits 3 once b >= ~0.675",
    "Z_restricted fit FAIL": "residual ~4e2 from delta_bits 8, and at delta_bits 7 once b >= ~0.625",
    "Z_restricted fit raises ValueError": "_fit_lattice rounds the NaN values of flagged points "
    "(delta_bits >= 9)",
}

# Relative tolerance of the all-plus (principal) point against the oracle.
PRINCIPAL_RTOL = 1e-10


@dataclass
class Outcome:
    """What one request did.  ``failure`` is None for a request that succeeded."""

    latency_s: float
    points: int = 0
    flagged: int = 0
    failure: str | None = None
    shape: str = ""
    expected: bool = True  # False for a failure outside the known classes
    residual: float | None = None  # max residual of a passing fit
    output_bytes: int = 0
    exit_code: int = 0


@dataclass(frozen=True)
class LibraryRequest:
    """enumerate_cloud -> predict_locus -> fit_cloud on one generated input."""

    kind: str
    b: float
    sinphi: float
    signb: int = 1
    sigma_bits: int = 0
    delta_bits: int = 0
    gamma_bits: int = 0
    fit: str | None = None

    @property
    def shape(self) -> str:
        return (
            f"{self.kind} signb={self.signb:+d} bits=({self.sigma_bits},"
            f"{self.delta_bits},{self.gamma_bits})"
        )

    def run(self) -> Outcome:
        b = self.b
        params = engine.QuartetParams(
            k=math.sqrt((1 - b) * (1 + b)), sinphi=self.sinphi, signb=self.signb, complement=b
        )
        request = clouds.CloudRequest(
            kind=self.kind,
            params=params,
            sigma_bits=self.sigma_bits,
            delta_bits=self.delta_bits,
            gamma_bits=self.gamma_bits,
        )
        report = refs = None
        t0 = perf_counter()
        try:
            cloud = clouds.enumerate_cloud(request)
        except Exception as exc:  # a request boundary: record the reason, keep running
            return _fail(Outcome(perf_counter() - t0, shape=self.shape),
                         f"{self.kind} cloud raises {type(exc).__name__}")
        error = None
        if self.fit is not None:
            try:
                refs = oracle.reference_set(b=b)
                spec = lattice.predict_locus(self.fit, refs, phi=math.asin(self.sinphi))
                report = lattice.fit_cloud(cloud, spec)
            except Exception as exc:  # as above
                error = exc
        latency = perf_counter() - t0

        outcome = Outcome(
            latency_s=latency,
            points=len(cloud),
            flagged=sum(p.ill_conditioned for p in cloud),
            shape=self.shape,
        )
        free_bits = self.sigma_bits + self.delta_bits + self.gamma_bits
        if len(cloud) != 2**free_bits:
            return _fail(outcome, f"{self.kind} cloud has {len(cloud)} points, not {2**free_bits}")
        if error is not None:
            return _fail(outcome, f"{self.fit} fit raises {type(error).__name__}")
        if report is None:
            return outcome
        principal = _principal_value(self.kind, self.signb, refs)
        if principal is not None and not _close(cloud[-1].value, principal):
            return _fail(outcome, f"{self.kind} principal value differs from the oracle")
        if not report.passed:
            return _fail(outcome, f"{self.fit} fit FAIL")
        outcome.residual = report.max_residual
        return outcome


def _principal_value(kind: str, signb: int, refs) -> complex | None:
    # The all-plus schedule is the last point of a cloud and must land on
    # the plain AGM value the oracle computes independently.
    if signb != 1:
        return None
    return {"K": refs.K_k, "E": refs.E_k, "N": refs.N_b2}.get(kind)


def _close(value: complex, reference: complex) -> bool:
    return abs(value - reference) <= PRINCIPAL_RTOL * abs(reference)


def _fail(outcome: Outcome, reason: str) -> Outcome:
    outcome.failure = reason
    outcome.expected = reason in KNOWN_DEFECTS
    return outcome


def load_outcomes() -> dict[str, list]:
    """Recorded ``[exit_code, digest]`` of every verify_mix request, by argv."""
    with open(OUTCOMES_PATH, encoding="ascii") as handle:
        return json.load(handle)


def stdout_digest(text: str) -> str:
    """First 16 hex digits of the SHA-256 of a request's stdout."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_cli(argv: list[str]) -> tuple[int, str, float, str | None]:
    """cli.main in-process with captured output.

    Returns (exit code, stdout, seconds, name of the exception it raised).
    An exception other than SystemExit counts as exit code 1, as it would
    for the console script.
    """
    out = io.StringIO()
    error = None
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except Exception as exc:  # a request boundary: record the reason, keep running
        code, error = 1, type(exc).__name__
    return code, out.getvalue(), perf_counter() - t0, error


@dataclass(frozen=True)
class CliRequest:
    """One ``multiagm`` command, checked against its recorded outcome."""

    argv: tuple[str, ...]
    recorded: tuple | None  # (exit code, digest) at the commit that recorded it

    @property
    def shape(self) -> str:
        return " ".join(self.argv[:3] if self.argv[0] == "verify" else self.argv[:1])

    def run(self) -> Outcome:
        code, text, latency, error = run_cli(list(self.argv))
        points, flagged = _count_points(self.argv[0], text)
        outcome = Outcome(latency_s=latency, points=points, flagged=flagged, shape=self.shape,
                          output_bytes=len(text), exit_code=code)
        digest = stdout_digest(text)
        if error is not None:
            outcome.failure, outcome.expected = f"{self.shape}: raises {error}", False
        elif self.recorded is None:
            outcome.failure, outcome.expected = f"{self.shape}: no recorded outcome", False
        elif code != 0:
            # A failure counts; it is expected when it repeats the recorded one.
            outcome.failure = f"{self.shape}: exit {code}"
            outcome.expected = [code, digest] == list(self.recorded)
        elif self.recorded[0] == 0 and digest != self.recorded[1]:
            outcome.failure, outcome.expected = f"{self.shape}: stdout digest mismatch", False
        elif "max_residual=" in text:
            outcome.residual = float(text.rsplit("max_residual=", 1)[1].split()[0])
        return outcome


def _count_points(command: str, text: str) -> tuple[int, int]:
    lines = text.splitlines()
    if command.startswith("fill-"):
        rows = [line.split(",") for line in lines[1:]]
        return len(rows), sum(row[8] == "1" for row in rows)
    if command == "verify":
        rows = [line for line in lines if line.startswith("  point ")]
        return len(rows), sum(line.endswith(" excluded") for line in rows)
    return 0, 0


def cli_argv(command: tuple[str, ...], b: float, sinphi: float) -> tuple[str, ...]:
    argv = command + ("--b", repr(b))
    if command[0] not in ("magm-check", "ref"):
        argv += ("--sinphi", repr(sinphi))
    return argv


def _deep_round(rng: random.Random) -> list:
    # Twice K+ and K- at 12 bits per E and per N at 11 bits: K latencies fill
    # two thirds of every run, so the median and the tail both sit on K clouds
    # for any number of whole rounds.
    out = []
    for kind, signb, bits, fit in (
        ("K", 1, 12, "K"),
        ("K", -1, 12, "K_both"),
        ("E", 1, 11, "E"),
        ("K", 1, 12, "K"),
        ("K", -1, 12, "K_both"),
        ("N", 1, 11, "N"),
    ):
        b, sinphi = rng.uniform(0.05, 0.95), rng.uniform(0.1, 0.95)
        out.append(LibraryRequest(kind, b, sinphi, signb=signb, sigma_bits=bits, fit=fit))
    return out


BRANCH_SHAPES = (
    [("F", s, d, 0, "F") for s in (3, 4, 5) for d in (5, 6, 7)]
    + [("Z", s, d, g, None) for s in (3, 4) for d in (3, 4) for g in (3, 4)]
    + [("Z_restricted", 0, d, 0, "Z_restricted") for d in range(6, 11)]
)


def _branch_round(rng: random.Random) -> list:
    shapes = list(BRANCH_SHAPES)
    rng.shuffle(shapes)
    out = []
    for kind, s, d, g, fit in shapes:
        b, sinphi = rng.uniform(0.05, 0.95), rng.uniform(0.1, 0.95)
        out.append(LibraryRequest(kind, b, sinphi, sigma_bits=s, delta_bits=d, gamma_bits=g, fit=fit))
    return out


def _verify_round(rng: random.Random, outcomes: dict[str, list]) -> list:
    commands = list(CLI_COMMANDS)
    rng.shuffle(commands)
    out = []
    for command in commands:
        argv = cli_argv(command, rng.choice(B_GRID), rng.choice(SINPHI_GRID))
        recorded = outcomes.get(" ".join(argv))
        out.append(CliRequest(argv, None if recorded is None else tuple(recorded)))
    return out


def rounds(workload: str, seed: int):
    """Endless iterator of the workload's rounds for one seed.

    Everything a round needs is loaded before this returns.
    """
    rng = random.Random(f"{workload}/{seed}")
    if workload == "verify_mix":
        outcomes = load_outcomes()
        return (_verify_round(rng, outcomes) for _ in itertools.count())
    make = {"deep_lattice": _deep_round, "branch_sweep": _branch_round}[workload]
    return (make(rng) for _ in itertools.count())
