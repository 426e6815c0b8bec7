"""Command-line front end.

Four subcommands: ``gen`` writes a seeded test matrix with a prescribed
spectrum, ``expand`` prints a first-order triplet expansion, ``verify``
runs a convergence ladder and reports fitted orders, and ``errata`` checks
all five cataloged defects of the defective printed expansion on an
auto-generated instance.

Exit codes: 0 on success; otherwise the exit_code of the svdpert error
that stopped the run (see svdpert.errors), 1 for any other OSError and 2
for any other ValueError or an invalid flag.

All numeric output uses 17 significant digits.  Output blocks are
``key: value`` lines; vectors are space-separated entries.
"""

import argparse
import functools
import sys

from .convergence import convergence_ladder, errata_rows
from .errors import SvdpertError
from .linalg import frobenius_norm
from .mmio import _fmt, _fmt_each, read_matrix, write_matrix, write_report_csv
from .perturbation import FormulaVariant, expand_matrix
from .randmat import SpectrumSpec, matrix_with_spectrum


def _fmt_vec(v) -> str:
    return _fmt_each(v, " ")[:-1]


# one parser per process: argparse takes about a millisecond to build it,
# a sizeable share of a small command
@functools.cache
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


def _cmd_gen(args) -> None:
    try:
        values = tuple(float(t) for t in args.sv.split(","))
    except ValueError:
        raise ValueError(
            f"--sv is not a comma-separated float list: {args.sv!r}") from None
    spec = SpectrumSpec(n=args.n, p=args.p, singular_values=values, seed=args.seed)
    write_matrix(args.out, matrix_with_spectrum(spec))


def _cmd_expand(args) -> None:
    X = read_matrix(args.x)
    E = read_matrix(args.e)
    exp = expand_matrix(X, E, args.k, FormulaVariant(args.variant))
    proj, co = exp.projections, exp.coefficients
    # either norm can overflow, so both are taken before anything is printed
    f31_norm, g3_norm = (frobenius_norm(w[None]) for w in (proj.f31, co.g3))
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
    print(f"f31_norm: {_fmt(f31_norm)}")
    print(f"g2: {_fmt_vec(co.g2)}".rstrip())
    print(f"g3_norm: {_fmt(g3_norm)}")
    print(f"h2: {_fmt_vec(co.h2)}".rstrip())


def _cmd_verify(args) -> None:
    X = read_matrix(args.x)
    E = read_matrix(args.edir)
    ladder = {f: getattr(args, f) for f in ("eps0", "factor", "count") if f in args}
    report = convergence_ladder(X, E, k=args.k, variant=FormulaVariant(args.variant),
                                **ladder)
    if args.out is not None:
        write_report_csv(args.out, report)
    print(f"variant: {report.variant.value}")
    print(f"count: {len(report.samples)}")
    for fit in report.fits:
        print(f"order_{fit.metric}: {_fmt(fit.order)}")
        print(f"r2_{fit.metric}: {_fmt(fit.r2)}")
    if report.refusal is not None:
        raise report.refusal


def _cmd_errata(args) -> None:
    rows, refusal = errata_rows(args.n, args.p, args.seed)
    print("item,formula,defect,evidence,corrected,defective,separation,status")
    for row in rows:
        d = row.defect
        cells = ("" if c is None else c if isinstance(c, str) else _fmt(c)
                 for c in row[1:5])
        print(f"{d.item},{d.formula},{d.defect},{','.join(cells)},{row.status}")
    if refusal is not None:
        raise refusal


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.run(args)
        return 0
    except SvdpertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())
