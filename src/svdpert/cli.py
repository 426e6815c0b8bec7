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
import math
import sys

import numpy as np

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
    SingularSystem,
    TripletMatchAmbiguous,
    UnsupportedFormat,
)
from .linalg import _exponent, frobenius_norm
from .mmio import _fmt, read_matrix, write_matrix, write_report_csv
from .perturbation import CATALOG, FormulaVariant, expand_matrix
from .randmat import (
    _MASK64,
    SpectrumSpec,
    matrix_with_spectrum,
    perturbation_direction,
)

R2_GATE = 0.98
ORDER_SEPARATION = 0.5

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_GAP = 3
EXIT_UNRELIABLE = 4
EXIT_NOT_DEMONSTRABLE = 5


def _fmt_vec(v) -> str:
    return " ".join(_fmt(x) for x in np.asarray(v).reshape(-1))


def _fmt_norm(v) -> str:
    """Euclidean norm of v, taken on v scaled by 2^-e, e = _exponent(v),
    and scaled back, so that it neither overflows nor underflows."""
    e = _exponent(v)
    return _fmt(math.ldexp(float(np.linalg.norm(np.ldexp(v, -e))), e))


def _parse_seed(text: str) -> int:
    seed = int(text)
    if not 0 <= seed < (1 << 64):
        raise argparse.ArgumentTypeError("seed must be in [0, 2^64)")
    return seed


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
    gen.add_argument("--n", type=int, required=True, help="rows (n >= p)")
    gen.add_argument("--p", type=int, required=True, help="cols")
    gen.add_argument(
        "--sv", required=True, help="comma-separated singular values, descending"
    )
    gen.add_argument("--seed", type=_parse_seed, default=0)
    gen.add_argument("--out", required=True, help="output Matrix Market file")

    expand = sub.add_parser(
        "expand", help="print the first-order expansion of one triplet"
    )
    expand.add_argument("--x", required=True, help="matrix file")
    expand.add_argument("--e", required=True, help="perturbation file")
    expand.add_argument("--k", type=int, default=1, help="triplet index, 1-based")
    expand.add_argument(
        "--variant",
        choices=[v.value for v in FormulaVariant],
        default=FormulaVariant.CORRECTED.value,
    )

    verify = sub.add_parser(
        "verify", help="fit residual convergence orders on an epsilon ladder"
    )
    verify.add_argument("--x", required=True, help="matrix file")
    verify.add_argument(
        "--edir",
        required=True,
        help="direction file (normalized internally to unit Frobenius norm)",
    )
    verify.add_argument("--k", type=int, default=1)
    verify.add_argument(
        "--variant",
        choices=[v.value for v in FormulaVariant],
        default=FormulaVariant.CORRECTED.value,
    )
    verify.add_argument("--eps0", type=float, default=1e-2)
    verify.add_argument("--factor", type=float, default=0.5)
    verify.add_argument("--count", type=int, default=8)
    verify.add_argument("--out", default=None, help="optional CSV report path")

    errata = sub.add_parser(
        "errata",
        help="demonstrate the five cataloged defects of the defective "
        "printed expansion",
    )
    errata.add_argument("--n", type=int, default=5)
    errata.add_argument("--p", type=int, default=3)
    errata.add_argument("--seed", type=_parse_seed, default=0)

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
    nmin = min(X.shape)
    if not 1 <= args.k <= nmin:
        print(f"error: --k must be in 1..{nmin}, got {args.k}", file=sys.stderr)
        return EXIT_USAGE
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
    print(f"f31_norm: {_fmt_norm(proj.f31)}")
    print(f"g2: {_fmt_vec(co.g2)}".rstrip())
    print(f"g3_norm: {_fmt_norm(co.g3)}")
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
        eps0=args.eps0,
        factor=args.factor,
        count=args.count,
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


def _errata_spectrum(p: int) -> tuple:
    return tuple(3.0 * 0.7**j for j in range(p))


def _cmd_errata(args) -> int:
    n, p, seed = args.n, args.p, args.seed
    if not n >= p >= 2:
        print(f"error: need n >= p >= 2, got n={n}, p={p}", file=sys.stderr)
        return EXIT_USAGE
    spec = SpectrumSpec(n=n, p=p, singular_values=_errata_spectrum(p), seed=seed)
    X = matrix_with_spectrum(spec)
    E = perturbation_direction(n, p, (seed + 1) & _MASK64)

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
            status = "confirmed"
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


_COMMANDS = {
    "gen": _cmd_gen,
    "expand": _cmd_expand,
    "verify": _cmd_verify,
    "errata": _cmd_errata,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (GapTooSmall, SingularSystem) as exc:
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
