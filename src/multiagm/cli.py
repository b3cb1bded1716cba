"""Command-line front end: cloud fills, locus verification, identity checks.

Every ``fill-*`` subcommand reproduces one of the standard point clouds as
CSV (or JSON) with a fixed 17-significant-digit format, so repeated runs
with the same flags are byte-identical.  ``verify`` fits a cloud against
its predicted locus and exits nonzero when the residual exceeds the
tolerance.  Each row, and each of ``verify``'s point lines, is formatted in
one step from its cloud's columns and the masks and generation shifted out
of its position, so no schedule or point is built per row; a fill's JSON
record is its row's fields in one more template.

The front end restates nothing the library decides: each kind's defaults
come from one table, the sign bits a kind reads from `KIND_BITS`, and the
modulus or its complement reaches the engine and the oracle as given.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys

from .clouds import KIND_BITS, Cloud, CloudRequest, enumerate_cloud
from .engine import DEFAULT_MAX_ITER, QuartetParams
from .lattice import DEFAULT_FIT_TOL, CircleSpec, PointFits, fit_cloud, predict_locus
from .magm import DEFAULT_ROWS, magm_equivalence, magm_negative_experiment
from .oracle import landen_check, reference_set

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

SHAPE_FLAGS = {
    "sinphi": "sine of the amplitude",
    "sigma_bits": "free geometric-mean sign bits",
    "delta_bits": "free forward-root sign bits",
    "gamma_bits": "free zeta-root sign bits",
}

# Each cloud kind's series label, which fill-k appends its start sign to, and the defaults
# of its fill's shape flags: sinphi and the sign bits the kind reads (`KIND_BITS`), no others.
KIND_DEFAULTS = {
    "K": ("K", {"sinphi": 0.5, "sigma_bits": 5}),
    "F": ("F", {"sinphi": 0.8, "sigma_bits": 3, "delta_bits": 4}),
    "E": ("E", {"sinphi": 0.5, "sigma_bits": 5}),
    "N": ("N", {"sinphi": 0.5, "sigma_bits": 5}),
    "Z": ("Z", {"sinphi": 0.8, "sigma_bits": 2, "delta_bits": 2, "gamma_bits": 2}),
    "Z_restricted": ("Zr", {"sinphi": 0.8, "delta_bits": 4}),
}

# the start signs of fill-k's default and of verify --kind k-both
BOTH_SIGNS = (1, -1)

VERIFY_KINDS = {kind.lower().replace("_", "-"): kind for kind in ("K", "K_both", "F", "E", "N", "Z_restricted")}

# the keys of each point of verify's JSON: its position, then the fit's columns in order
POINT_FIT_KEYS = ("index", *PointFits.__slots__)

# A CSV row and a verify point line, each formatted in one step: the columns of `CSV_HEADER`, and a position's
# index, masks, start sign and fit.  ``%.17g`` and ``%.3e`` print a float as the format specs ``.17g`` and ``.3e`` do.
CSV_ROW = "%s,%d,%d,%d,%d,%d,%.17g,%.17g,%d,%s\n"
POINT_LINE = "  point %3d masks(%d,%d,%d) signb=%+d (m,n)=(%d,%d) coset=%d residual=%.3e%s\n"
# A fill's JSON record: the separator that goes before it, then its CSV line's fields as strings, laid out as
# `json.dump(records, indent=2)` lays out a list of dicts.  No field holds a comma or a character JSON escapes.
JSON_RECORD = "%s  {\n" + ",\n".join(f'    "{name}": "%s"' for name in CSV_HEADER) + "\n  }"

# complementary modulus of the standard configuration
DEFAULT_B = 0.25

_SVG_COLORS = ("#d62728", "#000000", "#1f77b4", "#2ca02c", "#9467bd", "#8c564b")


def _finite(name: str, value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def _moduli(args: argparse.Namespace) -> tuple[complex | None, complex | None]:
    """(k, b): the one given, checked finite, and None for the other, which the engine and the oracle derive."""
    if args.k is not None:
        return complex(_finite("k", args.k)), None
    return None, complex(_finite("b", args.b))


def _csv_lines(series_list: list[tuple[str, Cloud]]) -> list[str]:
    """One CSV line per position, each formatted in one step, with its duplicate's row counted over every series."""
    lines = []
    offset = 0
    for label, cloud in series_list:
        signb = cloud.request.params.signb
        lines += [
            CSV_ROW % (label, sigma, delta, gamma, signb, generation, value.real, value.imag, flag,
                       "" if link is None else link + offset)
            for (sigma, delta, gamma, generation), value, flag, link in zip(
                cloud.schedule_rows(), cloud.values, cloud.flags, cloud.links
            )
        ]
        offset += len(cloud)
    return lines


def _write_csv(stream, series_list: list[tuple[str, Cloud]]) -> None:
    stream.write(",".join(CSV_HEADER) + "\n")
    # line by line: a reader that closes the pipe early must fail a later write
    stream.writelines(_csv_lines(series_list))


def _write_json(stream, series_list: list[tuple[str, Cloud]]) -> None:
    # record by record, as `_write_csv` writes its rows; a cloud is never empty
    stream.writelines([
        JSON_RECORD % (",\n" if index else "[\n", *line[:-1].split(","))
        for index, line in enumerate(_csv_lines(series_list))
    ])
    stream.write("\n]\n")


def _write_svg(path: str, series_list: list[tuple[str, Cloud]], title: str) -> None:
    pts = []
    for si, (_, cloud) in enumerate(series_list):
        for v, (*_, generation) in zip(cloud.values, cloud.schedule_rows()):
            if math.isfinite(v.real) and math.isfinite(v.imag):
                pts.append((v.real, v.imag, si, generation))
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


def _emit(args: argparse.Namespace, series_list: list[tuple[str, Cloud]], title: str) -> None:
    write = _write_csv if args.format == "csv" else _write_json
    # the SVG first: a path that cannot be written must leave no row, and opening the output empties it
    if args.svg:
        _write_svg(args.svg, series_list, title)
    out = contextlib.nullcontext(sys.stdout) if args.out == "-" else open(args.out, "w", encoding="ascii", newline="")
    with out as stream:
        write(stream, series_list)


def _clouds(
    args: argparse.Namespace, kind: str, signbs: tuple[int, ...], k: complex | None, b: complex | None
) -> list[Cloud]:
    """One cloud of ``kind`` per start sign in ``signbs``, at the moduli `_moduli` checked."""
    sinphi = _finite("sinphi", args.sinphi)
    # a fill has only the bit flags its kind reads, and verify leaves the others None: both are 0
    bits = {name: getattr(args, name, None) or 0 for name in SHAPE_FLAGS if name != "sinphi"}
    return [
        enumerate_cloud(CloudRequest(kind, QuartetParams(k, sinphi, signb, args.max_iter, complement=b), **bits))
        for signb in signbs
    ]


def _cmd_fill(kind: str, args: argparse.Namespace) -> int:
    label = KIND_DEFAULTS[kind][0]
    # only fill-k offers "both", and only its labels carry the start sign
    signbs = BOTH_SIGNS if args.signb == "both" else (int(args.signb),)
    labels = [label + ("+" if signb > 0 else "-") for signb in signbs] if kind == "K" else [label]
    _emit(args, list(zip(labels, _clouds(args, kind, signbs, *_moduli(args)))), args.command)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if not 0 < args.tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {args.tol}")
    kind = VERIFY_KINDS[args.kind]
    cloud_kind, signbs = ("K", BOTH_SIGNS) if kind == "K_both" else (kind, (1,))
    for name, default in KIND_DEFAULTS[cloud_kind][1].items():
        if getattr(args, name) is None:
            setattr(args, name, default)
    k, b = _moduli(args)
    refs = reference_set(b=b, k=k)
    phi = None
    # a cloud that reads delta bits reads the amplitude pair, so its locus needs the amplitude
    if "delta_bits" in KIND_BITS[cloud_kind]:
        if not 0 < args.sinphi <= 1:
            raise ValueError("sinphi must lie in (0, 1]")
        phi = math.asin(args.sinphi)
    spec = predict_locus(kind, refs, phi=phi)

    clouds = _clouds(args, cloud_kind, signbs, k, b)
    # k-both's two clouds are fitted as one, by their joined columns
    values = tuple(value for cloud in clouds for value in cloud.values)
    report = fit_cloud(values, spec, tol=args.tol, flags=tuple(flag for cloud in clouds for flag in cloud.flags))
    fits = report.points

    if args.format == "json":
        import json

        # JSON has no Infinity: an infinite residual prints as null, and any other non-finite value fails to print.
        # A complex value of the spec prints as [re, im]
        payload = report._asdict()
        payload["max_residual"] = None if report.max_residual == math.inf else report.max_residual
        residual = [None if r == math.inf else r for r in fits.residual]
        rows = zip(range(len(values)), fits.m, fits.n, fits.coset, residual, fits.excluded)
        payload["points"] = [dict(zip(POINT_FIT_KEYS, row)) for row in rows]
        payload["kind"] = args.kind
        payload["circle" if isinstance(spec, CircleSpec) else "lattice"] = spec._asdict()
        print(json.dumps(payload, indent=2, allow_nan=False, default=lambda z: [z.real, z.imag]))
    else:
        if isinstance(spec, CircleSpec):
            print(f"circle locus: crossings {spec.x1:.17g}, {spec.x2:.17g}")
        else:
            print(f"lattice locus: origin {spec.origin:.12g}")
            print(f"  gen1 {spec.gen1:.12g}")
            print(f"  gen2 {spec.gen2:.12g}")
            if len(spec.cosets) > 1:
                print(f"  cosets {[format(c, '.12g') for c in spec.cosets]}")
        # each position's masks are decoded from its cloud and its line formatted in one step; no point is built.
        # zip reads a cloud's positions first, so it stops at the cloud's end without taking the next cloud's fit
        fits = enumerate(zip(fits.m, fits.n, fits.coset, fits.residual, fits.excluded))
        lines = [
            POINT_LINE % (index, sigma, delta, gamma, cloud.request.params.signb, m, n, coset, residual,
                          " excluded" if excluded else "")
            for cloud in clouds
            for (sigma, delta, gamma, _), (index, (m, n, coset, residual, excluded)) in zip(
                cloud.schedule_rows(), fits
            )
        ]
        # line by line, as the rows of a fill
        sys.stdout.writelines(lines)
        verdict = "PASS" if report.passed else "FAIL"
        print(
            f"{verdict} kind={args.kind} max_residual={report.max_residual:.3e}"
            f" tol={report.tol:.1e} excluded={report.flagged_excluded}"
        )
    return 0 if report.passed else 1


def _cmd_magm_check(args: argparse.Namespace) -> int:
    if args.mask_bits < 0:
        raise ValueError("mask_bits must be nonnegative")
    if args.mask_bits > args.rows >= 0:
        # mask bits at or above the row count never apply; a negative row count is magm's to reject
        raise ValueError("mask_bits exceeds rows")
    eq = magm_equivalence(args.b, args.rows)
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
    refs = reference_set(b=b, k=k)
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


def _add_common(sub: argparse.ArgumentParser, defaults: dict[str, float | int | None]) -> None:
    """Modulus and iteration flags, and one sweep-shape flag per entry of ``defaults``, with its default.

    A fill is handed its kind's row of `KIND_DEFAULTS`, so it offers only
    the sign-bit flags its kind reads.  `verify` chooses its kind at run
    time: it is handed every shape flag with default None, fills the unset
    ones from the chosen kind's row, and `CloudRequest` rejects the bits
    that kind does not read.
    """
    _add_moduli(sub)
    for name, value in defaults.items():
        sub.add_argument(
            "--" + name.replace("_", "-"),
            type=float if name == "sinphi" else int,
            default=value,
            help=f"{SHAPE_FLAGS[name]} (default {'per --kind' if value is None else value})",
        )
    sub.add_argument(
        "--max-iter", type=int, default=DEFAULT_MAX_ITER, help=f"iteration count (default {DEFAULT_MAX_ITER})"
    )


def _add_fill(kind: str, sub: argparse.ArgumentParser) -> None:
    _add_common(sub, KIND_DEFAULTS[kind][1])
    if kind == "K":
        sub.add_argument("--signb", choices=("both", "+1", "-1", "1"), default="both")
    else:
        sub.add_argument("--signb", choices=("+1", "-1", "1"), default="+1")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", default="-", help="output path, '-' for stdout")
    sub.add_argument("--svg", default=None, help="also write an SVG scatter to this path")
    sub.set_defaults(run=functools.partial(_cmd_fill, kind))


def _add_verify(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--kind", choices=sorted(VERIFY_KINDS), required=True)
    _add_common(sub, dict.fromkeys(SHAPE_FLAGS))
    sub.add_argument(
        "--tol", type=float, default=DEFAULT_FIT_TOL, help=f"max residual to pass (default {DEFAULT_FIT_TOL:g})"
    )
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.set_defaults(run=_cmd_verify)


def _add_magm_check(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--b", type=float, default=DEFAULT_B, help=f"complementary modulus (default {DEFAULT_B})")
    sub.add_argument("--rows", type=int, default=DEFAULT_ROWS)
    sub.add_argument("--mask-bits", type=int, default=4)
    sub.set_defaults(run=_cmd_magm_check)


def _add_ref(sub: argparse.ArgumentParser) -> None:
    _add_moduli(sub)
    sub.set_defaults(run=_cmd_ref)


# Each command's help line and the function that adds its arguments and its `run`, in the order help lists them.
COMMANDS = {
    **{
        "fill-" + kind.lower().replace("_", "-"): (f"emit the {kind} point cloud", functools.partial(_add_fill, kind))
        for kind in KIND_DEFAULTS
    },
    "verify": ("fit a cloud against its predicted locus", _add_verify),
    "magm-check": ("triplet-iteration equivalence and sign experiments", _add_magm_check),
    "ref": ("print the reference values and identity residuals", _add_ref),
}

# a flag answers to its full name only, so that no flag's prefix can stand for another
_new_parser = functools.partial(argparse.ArgumentParser, allow_abbrev=False)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once and shared: commands fill unset flags on their namespace, never on it.

    `main` asks it only for help, for no or an unknown command, and to report arguments that its command's own
    parser leaves over.
    """
    parser = _new_parser(
        prog="multiagm",
        description="Multivalued AGM point clouds of elliptic integrals and their locus checks.",
    )
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_new_parser)
    for name, (help_line, add_arguments) in COMMANDS.items():
        add_arguments(commands.add_parser(name, help=help_line))
    return parser


@functools.cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of the one command ``name``, as `build_parser` builds it for that command, built once and shared."""
    parser = _new_parser(prog=f"multiagm {name}")
    COMMANDS[name][1](parser)
    parser.set_defaults(command=name)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # a run builds only its command's parser; what that parser leaves over, the full parser reports under its
    # own usage, as it reports no or an unknown command
    args = rest = None
    if argv and argv[0] in COMMANDS:
        parser = _command_parser(argv[0])
        args, rest = parser.parse_known_args(argv[1:])
    if args is None or rest:
        parser = build_parser()
        args = parser.parse_args(argv)
    try:
        return args.run(args)
    except BrokenPipeError:
        # a reader that stops early is no user error: `console_main` ends quietly
        raise
    except (ValueError, OSError) as exc:
        # an OSError names the output path it could not write
        parser.exit(2, f"error: {exc}\n")


def console_main() -> None:
    """Run `main` on ``sys.argv`` and exit with its status; 1, without a message, once stdout's reader has gone."""
    try:
        code = main()
        sys.stdout.flush()  # a failed write must raise here, not in the flush on exit
    except BrokenPipeError:
        # Python's EPIPE recipe: with stdout on devnull the flush on exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    console_main()
