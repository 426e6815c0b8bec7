"""Command-line front end.

Four subcommands: ``gen`` writes a seeded test matrix with a prescribed
spectrum, ``expand`` prints a first-order triplet expansion, ``verify``
runs a convergence ladder and reports fitted orders, and ``errata`` checks
all five cataloged defects of the defective printed expansion on an
auto-generated instance.

Exit codes: 0 success; 1 I/O or computation failure on the given data;
2 invalid flags or dimensions; 3 spectral gap below tolerance; 4 fit or
measurement unreliable (r2 < R2_GATE, noise floor, tracking failure);
5 errata not demonstrable.

All numeric output uses 17 significant digits.  Output blocks are
``key: value`` lines; vectors are space-separated entries.
"""

import argparse
import sys

from .convergence import convergence_ladder, convergence_ladders
from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    GapTooSmall,
    IndexOutOfRange,
    InsufficientSamples,
    InvalidDims,
    ParseError,
    RankDeficient,
    TripletMatchAmbiguous,
    UnsupportedFormat,
)
from .linalg import frobenius_norm
from .mmio import _fmt, read_matrix, write_matrix, write_report_csv
from .perturbation import (CATALOG, FormulaVariant, expand_matrix,
                           shape_audit_as_printed)
from .randmat import SpectrumSpec, matrix_with_spectrum, perturbation_direction

R2_GATE = 0.98
ORDER_SEPARATION = 0.5

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_GAP = 3
EXIT_UNRELIABLE = 4
EXIT_NOT_DEMONSTRABLE = 5


def _fmt_vec(v) -> str:
    return " ".join(_fmt(x) for x in v)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svdpert",
        description="first-order singular triplet expansions and their "
        "convergence-order certification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser(
        "gen", help="write a seeded matrix with a prescribed spectrum"
    )
    gen.set_defaults(run=_cmd_gen)
    gen.add_argument("--n", type=int, required=True, help="rows (n >= p)")
    gen.add_argument("--p", type=int, required=True, help="cols")
    gen.add_argument(
        "--sv", required=True, help="comma-separated singular values, descending"
    )
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output Matrix Market file")

    expand = sub.add_parser(
        "expand", help="print the first-order expansion of one triplet"
    )
    expand.set_defaults(run=_cmd_expand)
    expand.add_argument("--x", required=True, help="matrix file")
    expand.add_argument("--e", required=True, help="perturbation file")

    verify = sub.add_parser(
        "verify", help="fit residual convergence orders on an epsilon ladder"
    )
    verify.set_defaults(run=_cmd_verify)
    verify.add_argument("--x", required=True, help="matrix file")
    verify.add_argument(
        "--edir",
        required=True,
        help="direction file (normalized internally to unit Frobenius norm)",
    )
    for cmd in (expand, verify):
        cmd.add_argument("--k", type=int, default=1, help="triplet index, 1-based")
        cmd.add_argument(
            "--variant",
            choices=[v.value for v in FormulaVariant],
            default=FormulaVariant.CORRECTED.value,
        )
    # an omitted ladder flag is left out of the call, so the default is the
    # library's
    for flag, kind in (("--eps0", float), ("--factor", float), ("--count", int)):
        verify.add_argument(flag, type=kind, default=argparse.SUPPRESS)
    verify.add_argument("--out", default=None, help="optional CSV report path")

    errata = sub.add_parser(
        "errata",
        help="demonstrate the five cataloged defects of the defective "
        "printed expansion",
    )
    errata.set_defaults(run=_cmd_errata)
    errata.add_argument("--n", type=int, default=5)
    errata.add_argument("--p", type=int, default=3)
    errata.add_argument("--seed", type=int, default=0)

    return parser


def _cmd_gen(args) -> int:
    try:
        values = tuple(float(t) for t in args.sv.split(","))
    except ValueError:
        print(f"error: --sv is not a comma-separated float list: {args.sv!r}",
              file=sys.stderr)
        return EXIT_USAGE
    spec = SpectrumSpec(n=args.n, p=args.p, singular_values=values, seed=args.seed)
    write_matrix(args.out, matrix_with_spectrum(spec))
    return EXIT_OK


def _cmd_expand(args) -> int:
    X = read_matrix(args.x)
    E = read_matrix(args.e)
    exp = expand_matrix(X, E, args.k, FormulaVariant(args.variant))
    proj, co = exp.projections, exp.coefficients
    print(f"rows: {X.shape[0]}")
    print(f"cols: {X.shape[1]}")
    print(f"k: {args.k}")
    print(f"variant: {exp.variant.value}")
    print(f"transposed: {'yes' if X.shape[0] < X.shape[1] else 'no'}")
    print(f"sigma1: {_fmt(exp.sigma1)}")
    print(f"theta1: {_fmt(co.theta1)}")
    print(f"sigma_tilde: {_fmt(exp.sigma_tilde)}")
    print(f"u_tilde: {_fmt_vec(exp.u_tilde)}")
    print(f"v_tilde: {_fmt_vec(exp.v_tilde)}")
    print(f"phi1: {_fmt(proj.phi1)}")
    print(f"f12: {_fmt_vec(proj.f12)}".rstrip())
    print(f"f21: {_fmt_vec(proj.f21)}".rstrip())
    print(f"f31_norm: {_fmt(frobenius_norm(proj.f31[None]))}")
    print(f"g2: {_fmt_vec(co.g2)}".rstrip())
    print(f"g3_norm: {_fmt(frobenius_norm(co.g3[None]))}")
    print(f"h2: {_fmt_vec(co.h2)}".rstrip())
    return EXIT_OK


def _cmd_verify(args) -> int:
    X = read_matrix(args.x)
    E = read_matrix(args.edir)
    norm = frobenius_norm(E)
    if norm == 0.0:
        print("error: --edir matrix has zero norm", file=sys.stderr)
        return EXIT_USAGE
    report = convergence_ladder(
        X,
        E / norm,
        k=args.k,
        variant=FormulaVariant(args.variant),
        **{f: getattr(args, f) for f in ("eps0", "factor", "count") if f in args},
    )
    if args.out is not None:
        write_report_csv(args.out, report)
    print(f"variant: {report.variant.value}")
    print(f"count: {len(report.samples)}")
    print(f"order_u: {_fmt(report.order_u)}")
    print(f"r2_u: {_fmt(report.r2_u)}")
    print(f"order_v: {_fmt(report.order_v)}")
    print(f"r2_v: {_fmt(report.r2_v)}")
    print(f"order_sigma: {_fmt(report.order_sigma)}")
    print(f"r2_sigma: {_fmt(report.r2_sigma)}")
    if report.min_r2 < R2_GATE:
        print(
            f"error: fit unreliable (min r2 {report.min_r2:.4f} < {R2_GATE})",
            file=sys.stderr,
        )
        return EXIT_UNRELIABLE
    return EXIT_OK


def _cmd_errata(args) -> int:
    n, p, seed = args.n, args.p, args.seed
    # the audit's InvalidDims is the dims check: n >= p >= 2
    findings = shape_audit_as_printed(n, p)
    sv = tuple(3.0 * 0.7**j for j in range(p))
    X = matrix_with_spectrum(SpectrumSpec(n=n, p=p, singular_values=sv, seed=seed))
    E = perturbation_direction(n, p, (seed + 1) % 2**64)

    # one shared ladder for the corrected form and every cataloged variant
    variants = tuple(dict.fromkeys(
        (FormulaVariant.CORRECTED, *(d.variant for d in CATALOG if d.variant))
    ))
    reports = dict(zip(variants, convergence_ladders(X, E, variants)))
    corrected = reports[FormulaVariant.CORRECTED]

    print("item,formula,defect,evidence,corrected,defective,separation,status")
    statuses = []
    for d in CATALOG:
        if not d.applies(n, p):
            evidence, status = f"{d.metric},,,", "not applicable (n=p)"
        elif d.variant:
            good = getattr(corrected, d.metric)
            bad = getattr(reports[d.variant], d.metric)
            sep = good - bad
            evidence = f"{d.metric},{_fmt(good)},{_fmt(bad)},{_fmt(sep)}"
            status = "confirmed" if sep >= ORDER_SEPARATION else "not confirmed"
        else:
            expected, printed = d.dims(n, p)
            evidence = f"shape-audit,{expected},{printed},"
            status = "confirmed" if d in findings else "not confirmed"
        statuses.append(status)
        print(f"{d.item},{d.formula},{d.defect},{evidence},{status}")

    if not all(d.applies(n, p) for d in CATALOG):
        print(
            "error: the dropped-complement defect is not demonstrable when "
            "n == p (the complement is empty); rerun with n > p",
            file=sys.stderr,
        )
        return EXIT_NOT_DEMONSTRABLE
    if any(status != "confirmed" for status in statuses):
        print("error: not all defects could be confirmed", file=sys.stderr)
        return EXIT_NOT_DEMONSTRABLE
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except GapTooSmall as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GAP
    except (InsufficientSamples, TripletMatchAmbiguous) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNRELIABLE
    except (ParseError, UnsupportedFormat, ConvergenceFailure, RankDeficient,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (DimensionMismatch, InvalidDims, IndexOutOfRange, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())
