"""Command-line front end: cloud fills, locus verification, identity checks.

Every ``fill-*`` subcommand reproduces one of the standard point clouds as
CSV (or JSON) with a fixed 17-significant-digit format, so repeated runs
with the same flags are byte-identical.  ``verify`` fits a cloud against
its predicted locus and exits nonzero when the residual exceeds the
tolerance.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict

from .clouds import KIND_BITS, CloudRequest, MultivaluePoint, enumerate_cloud
from .engine import DEFAULT_MAX_ITER, QuartetParams
from .lattice import DEFAULT_FIT_TOL, CircleSpec, fit_cloud, predict_locus
from .magm import magm_equivalence, magm_negative_experiment
from .oracle import landen_check, reference_set
from .roots import principal_sqrt

__all__ = ["main", "console_main"]

CSV_HEADER = (
    "series",
    "sigma_mask",
    "delta_mask",
    "gamma_mask",
    "signb",
    "generation",
    "re",
    "im",
    "ill_conditioned",
    "duplicate_of",
)

FILL_DEFAULTS = {
    # kind, series label, sinphi, sigma_bits, delta_bits, gamma_bits;
    # fill-k appends the start sign to its label
    "fill-k": ("K", "K", 0.5, 5, 0, 0),
    "fill-f": ("F", "F", 0.8, 3, 4, 0),
    "fill-e": ("E", "E", 0.5, 5, 0, 0),
    "fill-n": ("N", "N", 0.5, 5, 0, 0),
    "fill-z": ("Z", "Z", 0.8, 2, 2, 2),
    "fill-z-restricted": ("Z_restricted", "Zr", 0.8, 0, 4, 0),
}

# Sweep-shape flags with their help, and the shape of each cloud kind, which `verify` shares with its fill.
SHAPE_FLAGS = {
    "sinphi": "sine of the amplitude",
    "sigma_bits": "free geometric-mean sign bits",
    "delta_bits": "free forward-root sign bits",
    "gamma_bits": "free zeta-root sign bits",
}
KIND_SHAPES = {kind: shape for kind, _, *shape in FILL_DEFAULTS.values()}

VERIFY_KINDS = {kind.lower().replace("_", "-"): kind for kind in ("K", "K_both", "F", "E", "N", "Z_restricted")}

# complementary modulus of the standard configuration
DEFAULT_B = 0.25

_SVG_COLORS = ("#d62728", "#000000", "#1f77b4", "#2ca02c", "#9467bd", "#8c564b")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _finite(name: str, value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def _moduli(args: argparse.Namespace) -> tuple[complex, complex | None]:
    """(k, b) from ``--b``, or ``--k`` as given with b None: the engine and the oracle then derive b."""
    if args.k is not None:
        return complex(_finite("k", args.k)), None
    b = complex(_finite("b", args.b))
    return principal_sqrt((1 - b) * (1 + b)), b


def _series_rows(series_list: list[tuple[str, list[MultivaluePoint]]]) -> list[tuple]:
    rows = []
    offset = 0
    for label, points in series_list:
        for point in points:
            sched, value = point.schedule, point.value
            dup = "" if point.duplicate_of is None else str(point.duplicate_of + offset)
            ints = map(str, (sched.sigma_mask, sched.delta_mask, sched.gamma_mask, point.signb, point.generation))
            rows.append((label, *ints, _fmt(value.real), _fmt(value.imag), str(int(point.ill_conditioned)), dup))
        offset += len(points)
    return rows


def _write_csv(stream, series_list: list[tuple[str, list[MultivaluePoint]]]) -> None:
    stream.write(",".join(CSV_HEADER) + "\n")
    for row in _series_rows(series_list):
        stream.write(",".join(row) + "\n")


def _write_json(stream, series_list: list[tuple[str, list[MultivaluePoint]]]) -> None:
    records = [dict(zip(CSV_HEADER, row)) for row in _series_rows(series_list)]
    json.dump(records, stream, indent=2)
    stream.write("\n")


def _strict_json(obj):
    """``obj`` with complex numbers as ``[re, im]`` and non-finite floats as None: JSON has no NaN or Infinity."""
    if isinstance(obj, dict):
        return {key: _strict_json(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict_json(item) for item in obj]
    if isinstance(obj, complex):
        return [_strict_json(obj.real), _strict_json(obj.imag)]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def _write_svg(path: str, series_list: list[tuple[str, list[MultivaluePoint]]], title: str) -> None:
    pts = []
    for si, (_, points) in enumerate(series_list):
        for point in points:
            v = point.value
            if math.isfinite(v.real) and math.isfinite(v.imag):
                pts.append((v.real, v.imag, si, point.generation))
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    # with no finite value the frame stays and no point is drawn
    xlo, xhi = min(xs, default=0.0), max(xs, default=0.0)
    ylo, yhi = min(ys, default=0.0), max(ys, default=0.0)
    span = max(xhi - xlo, yhi - ylo, 1e-9)
    pad = 0.08 * span
    xlo, xhi = xlo - pad, xhi + pad
    ylo, yhi = ylo - pad, yhi + pad
    size = 640.0

    def sx(x: float) -> float:
        return (x - xlo) / (xhi - xlo) * size

    def sy(y: float) -> float:
        return size - (y - ylo) / (yhi - ylo) * size

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" height="{size:.0f}" '
        f'viewBox="0 0 {size:.0f} {size:.0f}">',
        f'<rect width="{size:.0f}" height="{size:.0f}" fill="white"/>',
        f'<title>{title}</title>',
    ]
    for x, y, si, gen in pts:
        color = _SVG_COLORS[si % len(_SVG_COLORS)]
        parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="{color}"/>')
        parts.append(
            f'<text x="{sx(x) + 5:.2f}" y="{sy(y) + 3:.2f}" font-size="9" fill="{color}">{gen}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="ascii") as handle:
        handle.write("\n".join(parts) + "\n")


def _emit(args: argparse.Namespace, series_list: list[tuple[str, list[MultivaluePoint]]], title: str) -> None:
    write = _write_csv if args.format == "csv" else _write_json
    if args.out == "-":
        write(sys.stdout, series_list)
    else:
        with open(args.out, "w", encoding="ascii", newline="") as stream:
            write(stream, series_list)
    if args.svg:
        _write_svg(args.svg, series_list, title)


def _cloud(args: argparse.Namespace, kind: str, signb: int) -> list[MultivaluePoint]:
    k, b = _moduli(args)
    sinphi = _finite("sinphi", args.sinphi)
    return enumerate_cloud(
        CloudRequest(
            kind=kind,
            params=QuartetParams(k=k, sinphi=sinphi, signb=signb, max_iter=args.max_iter, complement=b),
            # a fill has only the bit flags its kind reads; the others are 0
            **{name: getattr(args, name, 0) for name in SHAPE_FLAGS if name != "sinphi"},
        )
    )


def _cmd_fill(args: argparse.Namespace) -> int:
    kind, label = FILL_DEFAULTS[args.command][:2]
    if args.command == "fill-k":
        signbs = (1, -1) if args.signb == "both" else (int(args.signb),)
        series_list = [(label + ("+" if signb > 0 else "-"), _cloud(args, kind, signb)) for signb in signbs]
    else:
        series_list = [(label, _cloud(args, kind, int(args.signb)))]
    _emit(args, series_list, args.command)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if not 0 < args.tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {args.tol}")
    kind = VERIFY_KINDS[args.kind]
    cloud_kind = "K" if kind == "K_both" else kind
    for name, default in zip(SHAPE_FLAGS, KIND_SHAPES[cloud_kind]):
        if getattr(args, name) is None:
            setattr(args, name, default)
    k, b = _moduli(args)
    refs = reference_set(k=k) if b is None else reference_set(b=b)
    phi = None
    if kind in ("F", "Z_restricted"):
        if not 0 < args.sinphi <= 1:
            raise ValueError("sinphi must lie in (0, 1]")
        phi = math.asin(args.sinphi)
    spec = predict_locus(kind, refs, phi=phi)

    points = _cloud(args, cloud_kind, 1)
    if kind == "K_both":
        points = points + _cloud(args, cloud_kind, -1)
    report = fit_cloud(points, spec, tol=args.tol)

    if args.format == "json":
        payload = asdict(report)
        payload["kind"] = args.kind
        payload["circle" if isinstance(spec, CircleSpec) else "lattice"] = asdict(spec)
        print(json.dumps(_strict_json(payload), indent=2, allow_nan=False))
    else:
        if isinstance(spec, CircleSpec):
            print(f"circle locus: crossings {_fmt(spec.x1)}, {_fmt(spec.x2)}")
        else:
            print(f"lattice locus: origin {spec.origin:.12g}")
            print(f"  gen1 {spec.gen1:.12g}")
            print(f"  gen2 {spec.gen2:.12g}")
            if len(spec.cosets) > 1:
                print(f"  cosets {[format(c, '.12g') for c in spec.cosets]}")
        for pf, point in zip(report.points, points):
            sched = point.schedule
            tag = " excluded" if pf.excluded else ""
            print(
                f"  point {pf.index:3d} masks({sched.sigma_mask},{sched.delta_mask},{sched.gamma_mask})"
                f" signb={point.signb:+d} (m,n)=({pf.m},{pf.n}) coset={pf.coset}"
                f" residual={pf.residual:.3e}{tag}"
            )
        verdict = "PASS" if report.passed else "FAIL"
        print(
            f"{verdict} kind={args.kind} max_residual={report.max_residual:.3e}"
            f" tol={report.tol:.1e} excluded={report.flagged_excluded}"
        )
    return 0 if report.passed else 1


def _cmd_magm_check(args: argparse.Namespace) -> int:
    if args.mask_bits < 0:
        raise ValueError("mask_bits must be nonnegative")
    eq = magm_equivalence(args.b, args.rows)
    if args.mask_bits > args.rows:
        # mask bits at or above the row count never apply
        raise ValueError("mask_bits exceeds rows")
    print(f"equivalence b={args.b} rows={args.rows}:")
    print(f"  max row deviation  {eq.max_row_deviation:.3e}")
    print(f"  limit              {eq.limit:.15g}")
    print(f"  limit vs E/K       {eq.limit_deviation:.3e}")
    print(f"sign experiments (masks 0..{2**args.mask_bits - 1}):")
    for mask in range(2**args.mask_bits):
        outcome = magm_negative_experiment(args.b, mask, args.rows)
        if outcome.converged:
            print(
                f"  mask {mask:3d}: converged limit={outcome.limit:.12g}"
                f" E-lattice distance={outcome.lattice_distance:.3e}"
            )
        else:
            print(f"  mask {mask:3d}: divergent")
    return 0


def _cmd_ref(args: argparse.Namespace) -> int:
    k, b = _moduli(args)
    refs = reference_set(k=k) if b is None else reference_set(b=b)
    # the Landen residuals may raise, so take them before printing anything
    landen = landen_check(refs.b.real) if refs.b.imag == 0 and 0 < refs.b.real < 1 else None
    print(f"b   = {refs.b:.17g}")
    print(f"k   = {refs.k:.17g}")
    print(f"K(k) = {refs.K_k:.17g}")
    print(f"K(b) = {refs.K_b:.17g}")
    print(f"E(k) = {refs.E_k:.17g}")
    print(f"E(b) = {refs.E_b:.17g}")
    print(f"E(k)/K(k) = {refs.N_b2:.17g}")
    print(f"E(b)/K(b) = {refs.N_k2:.17g}")
    print(f"qZ  = {refs.qZ:.17g}")
    print(f"legendre residual = {refs.legendre_residual():.3e}")
    if landen:
        print(f"landen residuals  = {landen[0]:.3e}, {landen[1]:.3e}")
    return 0


def _add_moduli(sub: argparse.ArgumentParser) -> None:
    mod = sub.add_mutually_exclusive_group()
    mod.add_argument("--b", type=float, default=DEFAULT_B, help=f"complementary modulus (default {DEFAULT_B})")
    mod.add_argument("--k", type=float, default=None, help="modulus (alternative to --b)")


def _add_common(sub: argparse.ArgumentParser, kind: str | None) -> None:
    """Modulus, sweep-shape and iteration flags; a fill gets only the sign-bit flags its kind reads.

    A fill's kind sets the defaults.  `verify` chooses its kind at run time:
    with ``kind`` None every flag is offered and defaults to None, for the
    command to fill from `KIND_SHAPES`, and `CloudRequest` rejects the bits
    the chosen kind does not read.
    """
    if kind is None:
        defaults, names = dict.fromkeys(SHAPE_FLAGS), tuple(SHAPE_FLAGS)
    else:
        defaults, names = dict(zip(SHAPE_FLAGS, KIND_SHAPES[kind])), ("sinphi", *KIND_BITS[kind])
    _add_moduli(sub)
    for name in names:
        value = defaults[name]
        sub.add_argument(
            "--" + name.replace("_", "-"),
            type=float if name == "sinphi" else int,
            default=value,
            help=f"{SHAPE_FLAGS[name]} (default {'per --kind' if value is None else value})",
        )
    sub.add_argument(
        "--max-iter", type=int, default=DEFAULT_MAX_ITER, help=f"iteration count (default {DEFAULT_MAX_ITER})"
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once and shared: commands fill unset flags on their namespace, never on it."""
    parser = argparse.ArgumentParser(
        prog="multiagm",
        description="Multivalued AGM point clouds of elliptic integrals and their locus checks.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    for name, (kind, *_) in FILL_DEFAULTS.items():
        sub = commands.add_parser(name, help=f"emit the {kind} point cloud")
        _add_common(sub, kind)
        if name == "fill-k":
            sub.add_argument("--signb", choices=("both", "+1", "-1", "1"), default="both")
        else:
            sub.add_argument("--signb", choices=("+1", "-1", "1"), default="+1")
        sub.add_argument("--format", choices=("csv", "json"), default="csv")
        sub.add_argument("--out", default="-", help="output path, '-' for stdout")
        sub.add_argument("--svg", default=None, help="also write an SVG scatter to this path")
        sub.set_defaults(run=_cmd_fill)

    sub = commands.add_parser("verify", help="fit a cloud against its predicted locus")
    sub.add_argument("--kind", choices=sorted(VERIFY_KINDS), required=True)
    _add_common(sub, None)
    sub.add_argument(
        "--tol", type=float, default=DEFAULT_FIT_TOL, help=f"max residual to pass (default {DEFAULT_FIT_TOL:g})"
    )
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.set_defaults(run=_cmd_verify)

    sub = commands.add_parser("magm-check", help="triplet-iteration equivalence and sign experiments")
    sub.add_argument("--b", type=float, default=DEFAULT_B, help=f"complementary modulus (default {DEFAULT_B})")
    sub.add_argument("--rows", type=int, default=20)
    sub.add_argument("--mask-bits", type=int, default=4)
    sub.set_defaults(run=_cmd_magm_check)

    sub = commands.add_parser("ref", help="print the reference values and identity residuals")
    _add_moduli(sub)
    sub.set_defaults(run=_cmd_ref)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:
        # an OSError names the output path it could not write
        parser.exit(2, f"error: {exc}\n")


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
