"""Command-line front end.

Three subcommands:

    verify  run identity suites at explicit parameters plus seeded
            random sweeps; exit 0 iff everything passes
    table   emit an (m, n) value grid for one overlap family
    matrix  emit one operator matrix, basis matrix, or coefficient table

Exit codes: 0 all-pass, 1 identity failure, 2 degenerate parameters,
3 usage error.  Output is deterministic for a fixed argument vector
(sorted keys, no timestamps), so reports can be diffed byte for byte.
"""

from __future__ import annotations

import argparse
import decimal
import json
import os
import random
import re
import sys
from fractions import Fraction

from .algebra import (
    Params,
    check_casimir_central,
    check_defining_relations,
    check_subalgebras,
)
from .eigenbases import (FAMILIES, GRIDS, RHO_GRIDS, Context, check_orthogonality,
                         oracle_mismatch)
from .errors import DegenerateParameters, exact
from .matrices import RationalMatrix
from .matrixreps import COEFFS, verify_coefficients, verify_leonard_trio
from .racahpoly import verify_racah
from .rationalfns import verify_rational
from .diffmodel import verify_model
from .report import VerificationReport

Q = Fraction

FAULT_SUITE = "algebra-fault-injection"

# Suite name -> its reports on one Context.  The lambdas look their callees
# up at call time, so wrappers installed on the module names see every call.
SUITE_RUNNERS = {
    "algebra": lambda ctx: [check_defining_relations(ctx), check_casimir_central(ctx),
                            check_subalgebras(ctx)],
    "bases": lambda ctx: [check_orthogonality(ctx)],
    "matrixreps": lambda ctx: [verify_coefficients(ctx), verify_leonard_trio(ctx)],
    "racah": lambda ctx: [verify_racah(ctx)],
    "rational": lambda ctx: [verify_rational(ctx)],
    "model": lambda ctx: [verify_model(ctx)],
    # not selectable by --suite: --inject-fault adds it for the explicit set
    FAULT_SUITE: lambda ctx: [_fault_report(ctx)],
}
SUITES = tuple(name for name in SUITE_RUNNERS if name != FAULT_SUITE)

# the matrices `matrix --which` emits by name; basis:<label> and
# coeffs:<basis> select the rest
GENERATORS = ("X", "V", "Z", "Xt", "Vt", "Zt", "C")


SWEEP_DENOMINATORS = (3, 5, 7, 11, 13, 17, 19, 23)
SWEEP_NUMERATORS = tuple(k for k in range(-40, 41) if k != 0)
MAX_RESAMPLES = 100

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_DEGENERATE = 2
EXIT_USAGE = 3


class Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the contract here reserves 2 for
    degenerate parameters, so usage errors exit 3 instead."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads -1 and -1.5 as values, -1/3 as an option: here a
        # dash before a digit, or before a point and a digit, starts a value,
        # which rational() then accepts or refuses
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def rational(text: str) -> Fraction:
    try:
        return exact(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def build_parser() -> Parser:
    parser = Parser(prog="metaracah", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=Parser)

    def add_common(sp, formats=True):
        # each subcommand registers only the options it reads
        sp.add_argument("--N", type=int, default=5, help="representation size minus one")
        sp.add_argument("--alpha", type=rational, default=Q(1, 3))
        sp.add_argument("--beta", type=rational, default=Q(1, 5))
        sp.add_argument("--zeta", type=rational, default=Q(1, 7))
        sp.add_argument("--rho", type=rational, default=Q(1, 13))
        if formats:
            sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--out", default=None,
                        help="output file (default stdout; relative paths resolve "
                             "against $METARACAH_OUT when set)")

    sp = sub.add_parser("verify", help="run verification suites")
    add_common(sp)
    sp.add_argument("--suite", default="all",
                    help="comma-separated subset of "
                         f"{{{','.join(SUITES)}}} or 'all'")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--sweeps", type=int, default=0,
                    help="extra random parameter sets")
    sp.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)

    sp = sub.add_parser("table", help="emit an overlap value grid")
    add_common(sp)
    sp.add_argument("--which", required=True, choices=tuple(GRIDS))
    sp.add_argument("--precision", type=int, default=None,
                    help="csv only: decimal digits for the value column (default 12)")
    sp.add_argument("--exact", action="store_true",
                    help="csv only: append an exact p/q column")

    sp = sub.add_parser("matrix", help="emit a matrix or coefficient table")
    add_common(sp, formats=False)
    sp.add_argument("--which", required=True,
                    help=f"one of {', '.join(GENERATORS)}, basis:<label>, coeffs:<basis>")
    return parser


# -- verify -------------------------------------------------------------------


def _fault_report(ctx: Context) -> VerificationReport:
    # bidiagonal Z with the corner entry bumped: relations must break
    N = ctx.p.N
    rep = check_defining_relations(ctx, Z=ctx.Z + RationalMatrix.banded(N + 1, {0: [1] + [0] * N}))
    rep.suite = FAULT_SUITE
    return rep


def run_suites(p: Params, rho: Fraction, suites) -> list:
    """The reports of the named suites, all read from one Context of (p, rho).

    Raises DegenerateParameters, before any suite runs, when the set is
    not generic.  perfbench/tracer.py calls it as run_suites(p, rho, (suite,)).
    """
    return _reports(Context(p, rho), suites)


def _reports(ctx: Context, suites) -> list:
    return [rep for suite in suites for rep in SUITE_RUNNERS[suite](ctx)]


def sweep_parameters(rng: random.Random, N: int):
    def draw():
        return Q(rng.choice(SWEEP_NUMERATORS), rng.choice(SWEEP_DENOMINATORS))

    return Params(N=N, alpha=draw(), beta=draw(), zeta=draw()), draw()


def _params(args: argparse.Namespace) -> Params:
    return Params(N=args.N, alpha=args.alpha, beta=args.beta, zeta=args.zeta)


def _context(args: argparse.Namespace, needs_rho: bool) -> Context:
    """The arguments' Context; its validation includes rho only when needs_rho."""
    return Context(_params(args), args.rho if needs_rho else None)


def _json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def cmd_verify(args: argparse.Namespace) -> tuple:
    wanted = tuple(s.strip() for s in args.suite.split(","))
    unknown = [s for s in wanted if s not in SUITES and s != "all"]
    if unknown:
        return EXIT_USAGE, f"metaracah: unknown suite(s): {', '.join(map(repr, unknown))}\n"
    if args.sweeps < 0:
        return EXIT_USAGE, "metaracah: --sweeps must be >= 0\n"
    suites = SUITES if "all" in wanted else tuple(s for s in SUITES if s in wanted)
    reports = run_suites(_params(args), args.rho,
                         suites + ((FAULT_SUITE,) if args.inject_fault else ()))

    skipped = 0
    rng = random.Random(args.seed)
    for i in range(args.sweeps):
        for _ in range(MAX_RESAMPLES):
            # only a set the Context refuses is drawn again; a suite that
            # raises after validation ends the run with its offenders
            try:
                ctx = Context(*sweep_parameters(rng, args.N))
            except DegenerateParameters:
                continue
            sweep_reports = _reports(ctx, suites)
            for r in sweep_reports:
                r.suite = f"sweep-{i}/{r.suite}"
            reports.extend(sweep_reports)
            break
        else:
            skipped += 1
            rep = VerificationReport(suite=f"sweep-{i}", params={"N": str(args.N)})
            rep.add_skipped("sweep", "no nondegenerate parameters found within budget")
            reports.append(rep)

    ok = all(r.passed for r in reports)
    payload = {
        "reports": [r.as_dict() for r in reports],
        "skipped_sweeps": skipped,
        "status": "pass" if ok else "fail",
    }
    if args.format == "csv":
        lines = ["suite,id,status,detail"]
        for r in reports:
            for c in sorted(r.checks, key=lambda c: c.id):
                detail = (c.detail or "").replace(",", ";").replace("\n", " ")
                lines.append(f"{r.suite},{c.id},{c.status},{detail}")
        text = "\n".join(lines) + "\n"
    else:
        text = _json(payload)
    return (EXIT_OK if ok else EXIT_FAIL), text


# -- table --------------------------------------------------------------------


def _decimal_str(v: Fraction, precision: int) -> str:
    ctx = decimal.Context(prec=precision)
    return str(ctx.divide(decimal.Decimal(v.numerator), decimal.Decimal(v.denominator)))


def cmd_table(args: argparse.Namespace) -> tuple:
    which = args.which
    precision = 12 if args.precision is None else args.precision
    if precision < 1:
        return EXIT_USAGE, "metaracah: --precision must be >= 1\n"
    if precision > decimal.MAX_PREC:
        return EXIT_USAGE, f"metaracah: --precision must be <= {decimal.MAX_PREC}\n"
    for flag, given in (("--precision", args.precision is not None), ("--exact", args.exact)):
        if given and args.format != "csv":
            return EXIT_USAGE, f"metaracah: {flag} applies only to --format csv\n"
    ctx = _context(args, which in RHO_GRIDS)
    p, grid = ctx.p, ctx.grid(which)

    if args.format == "csv":
        header = "m,n,value" + (",exact" if args.exact else "")
        lines = [header]
        for m in range(p.N + 1):
            for n in range(p.N + 1):
                v = grid[m, n]
                row = f"{m},{n},{_decimal_str(v, precision)}"
                if args.exact:
                    row += f",{v}"
                lines.append(row)
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "which": which,
            "params": {**p.as_dict(), "rho": str(args.rho)},
            "grid": grid.to_strings(),
        }
        text = _json(payload)
    return EXIT_OK, text


# -- matrix -------------------------------------------------------------------


def cmd_matrix(args: argparse.Namespace) -> tuple:
    which = args.which
    kind, sep, name = which.partition(":")
    if sep and kind == "basis":
        if name not in FAMILIES:
            return EXIT_USAGE, f"metaracah: unknown basis label in {which!r}\n"
        ctx = _context(args, True)  # even for a family that does not use rho
        reason = oracle_mismatch(ctx, name)
        if reason is not None:
            return EXIT_FAIL, (f"basis {name} failed revalidation on emit"
                               f"{': ' if reason else ''}{reason}\n")
        fam = ctx.basis(name)
        payload = {"rows": fam.vectors.to_strings(),
                   "eigenvalues": [str(v) for v in fam.eigenvalues]}
    elif sep and kind == "coeffs":
        if name not in COEFFS:
            return EXIT_USAGE, f"metaracah: no coefficient table for {which!r}\n"
        ctx = _context(args, FAMILIES[name].needs_rho)
        # sup, diag and sub are bands -1, 0 and 1 of each table
        payload = {"bands": {
            table: {key: [str(v) for v in band_table.band(k)]
                    for key, k in (("sup", -1), ("diag", 0), ("sub", 1))}
            for table, band_table in ctx.band_tables(name).items()
        }}
    elif which in GENERATORS:
        ctx = _context(args, False)
        if which == "C" and not check_casimir_central(ctx).passed:
            return EXIT_FAIL, "casimir centrality failed on emit\n"
        payload = {"rows": getattr(ctx, which).to_strings()}
    else:
        return EXIT_USAGE, f"metaracah: unknown matrix selector {which!r}\n"
    return EXIT_OK, _json({"which": which, "params": {**ctx.p.as_dict(), "rho": str(args.rho)},
                           **payload})


# -- entry point ---------------------------------------------------------------


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    base = os.environ.get("METARACAH_OUT")
    path = os.path.join(base, out) if base and not os.path.isabs(out) else out
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.N < 1:
        print("metaracah: --N must be at least 1", file=sys.stderr)
        return EXIT_USAGE

    handler = {"verify": cmd_verify, "table": cmd_table, "matrix": cmd_matrix}[args.command]
    try:
        code, text = handler(args)
    except DegenerateParameters as exc:
        code = EXIT_DEGENERATE
        text = _json({"error": "degenerate-parameters", "offenders": exc.offenders})
    if code == EXIT_USAGE:
        sys.stderr.write(text)
        return code
    try:
        _emit(text, args.out)
    except OSError as exc:  # an unwritable --out is a usage error, not a failed identity
        print(f"metaracah: cannot write {exc.filename or args.out}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
