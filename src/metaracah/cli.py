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
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from operator import attrgetter

from .algebra import (
    Params,
    casimir,
    check_casimir_central,
    check_defining_relations,
    check_subalgebras,
)
from .eigenbases import (
    FAMILIES,
    LABELS,
    Context,
    FParams,
    check_orthogonality,
    oracle_basis,
)
from .errors import DegenerateParameters
from .matrices import RationalMatrix
from .matrixreps import (
    coeffs_V_on_f,
    coeffs_X_on_e,
    coeffs_Z_on_e,
    coeffs_on_d,
    coeffs_on_dstar,
    coeffs_on_z,
    verify_coefficients,
    verify_leonard_trio,
)
from .racahpoly import (
    RacahParams,
    closed_form_S,
    closed_form_Stilde,
    racah,
    verify_racah,
)
from .rationalfns import (
    calU,
    calU_tilde,
    closed_form_U,
    closed_form_Utilde,
    dual_hahn,
    dual_hahn_params,
    verify_rational,
)
from .diffmodel import verify_model
from .report import VerificationReport

Q = Fraction

# Suite name -> its reports on one Context.  The lambdas look their callees
# up at call time, so wrappers installed on the module names see every call.
SUITE_RUNNERS = {
    "algebra": lambda ctx: [check_defining_relations(ctx), check_casimir_central(ctx),
                            check_subalgebras(ctx)],
    "bases": lambda ctx: [_bases_report(ctx)],
    "matrixreps": lambda ctx: [verify_coefficients(ctx), verify_leonard_trio(ctx)],
    "racah": lambda ctx: [verify_racah(ctx)],
    "rational": lambda ctx: [verify_rational(ctx)],
    "model": lambda ctx: [verify_model(ctx)],
}
SUITES = tuple(SUITE_RUNNERS)


SWEEP_DENOMINATORS = (3, 5, 7, 11, 13, 17, 19, 23)
SWEEP_NUMERATORS = tuple(k for k in range(-40, 41) if k != 0)
MAX_RESAMPLES = 100

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_DEGENERATE = 2
EXIT_USAGE = 3


@dataclass
class RunConfig:
    N: int
    alpha: Fraction
    beta: Fraction
    zeta: Fraction
    rho: Fraction
    suites: tuple = SUITES
    seed: int = 0
    sweeps: int = 0
    output_format: str = "json"
    precision: int = 12
    inject_fault: bool = False
    extra: dict = field(default_factory=dict)

    def params(self) -> Params:
        return Params(N=self.N, alpha=self.alpha, beta=self.beta, zeta=self.zeta)

    def fparams(self) -> FParams:
        return FParams(rho=self.rho)


class Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the contract here reserves 2 for
    degenerate parameters, so usage errors exit 3 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def build_parser() -> Parser:
    parser = Parser(prog="metaracah", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=Parser)

    def add_common(sp):
        sp.add_argument("--N", type=int, default=5, help="representation size minus one")
        sp.add_argument("--alpha", type=rational, default=Q(1, 3))
        sp.add_argument("--beta", type=rational, default=Q(1, 5))
        sp.add_argument("--zeta", type=rational, default=Q(1, 7))
        sp.add_argument("--rho", type=rational, default=Q(1, 13))
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--precision", type=int, default=12,
                        help="decimal digits for csv value column")
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
    sp.add_argument("--which", required=True, choices=tuple(TABLES))
    sp.add_argument("--exact", action="store_true",
                    help="csv only: append an exact p/q column")

    sp = sub.add_parser("matrix", help="emit a matrix or coefficient table")
    add_common(sp)
    sp.add_argument("--which", required=True,
                    help="one of X, V, Z, Xt, Vt, Zt, C, basis:<label>, coeffs:<basis>")
    return parser


# -- verify -------------------------------------------------------------------


def _fault_report(ctx: Context) -> VerificationReport:
    # bidiagonal Z with the corner entry bumped: relations must break
    Z, n1 = ctx.Z, ctx.p.N + 1
    bumped = RationalMatrix(
        [[Z[i, j] + (1 if i == j == 0 else 0) for j in range(n1)] for i in range(n1)]
    )
    rep = check_defining_relations(ctx, Z=bumped)
    rep.suite = "algebra-fault-injection"
    return rep


def _bases_report(ctx: Context) -> VerificationReport:
    rep = check_orthogonality(ctx)
    bad = [
        label
        for label in LABELS
        if ctx.basis(label).vectors != oracle_basis(ctx, label).vectors
    ]
    rep.add(
        "closed-vs-oracle",
        "closed-form expansions equal the pencil-kernel oracle for all families",
        not bad,
        detail="" if not bad else f"failing families: {bad}",
    )
    return rep


def run_suites(p: Params, fp: FParams, suites) -> list:
    """The reports of the named suites, all read from one Context of (p, fp).

    Raises DegenerateParameters, before any suite runs, when the set is
    not generic.
    """
    ctx = Context(p, fp)
    return [rep for suite in suites for rep in SUITE_RUNNERS[suite](ctx)]


def sweep_parameters(rng: random.Random, N: int):
    def draw():
        return Q(rng.choice(SWEEP_NUMERATORS), rng.choice(SWEEP_DENOMINATORS))

    return Params(N=N, alpha=draw(), beta=draw(), zeta=draw()), FParams(rho=draw())


def _context(cfg: RunConfig, needs_rho: bool) -> Context:
    """The config's Context; its validation includes rho only when needs_rho."""
    return Context(cfg.params(), cfg.fparams() if needs_rho else None)


def _json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def cmd_verify(cfg: RunConfig) -> tuple:
    reports = run_suites(cfg.params(), cfg.fparams(), cfg.suites)
    if cfg.inject_fault:
        reports.append(_fault_report(_context(cfg, needs_rho=True)))

    skipped = 0
    rng = random.Random(cfg.seed)
    for i in range(cfg.sweeps):
        for _ in range(MAX_RESAMPLES):
            sp, sfp = sweep_parameters(rng, cfg.N)
            try:
                sweep_reports = run_suites(sp, sfp, cfg.suites)
            except DegenerateParameters:
                continue
            for r in sweep_reports:
                r.suite = f"sweep-{i}/{r.suite}"
            reports.extend(sweep_reports)
            break
        else:
            skipped += 1
            rep = VerificationReport(suite=f"sweep-{i}", params={"N": str(cfg.N)})
            rep.add_skipped("sweep", "no nondegenerate parameters found within budget")
            reports.append(rep)

    ok = all(r.passed for r in reports)
    payload = {
        "reports": [r.as_dict() for r in reports],
        "skipped_sweeps": skipped,
        "status": "pass" if ok else "fail",
    }
    if cfg.output_format == "csv":
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
    with decimal.localcontext() as ctx:
        ctx.prec = precision
        d = decimal.Decimal(v.numerator) / decimal.Decimal(v.denominator)
    return str(d)


def _on_racah_params(value):
    """A table whose value(m, n, rp) reads the RacahParams built once per table."""
    def cells(ctx):
        rp = RacahParams.from_params(ctx.p, ctx.fp)
        return lambda m, n: value(m, n, rp)
    return cells


# --which -> (needs rho, ctx -> value at (m, n)); lambdas as in
# SUITE_RUNNERS, so each table still looks its callee up at every point.
TABLES = {
    "racah": (True, _on_racah_params(lambda m, n, rp: racah(m, n, rp))),
    "S": (True, _on_racah_params(lambda m, n, rp: closed_form_S(m, n, rp))),
    "Stilde": (True, _on_racah_params(lambda m, n, rp: closed_form_Stilde(m, n, rp))),
    "calU": (False, lambda ctx: lambda m, n: calU(m, n, ctx.p)),
    "calUtilde": (False, lambda ctx: lambda m, n: calU_tilde(m, n, ctx.p)),
    "U": (False, lambda ctx: lambda m, n: closed_form_U(m, n, ctx.p)),
    "Utilde": (False, lambda ctx: lambda m, n: closed_form_Utilde(m, n, ctx.p)),
    "dualHahn": (False, lambda ctx: lambda m, n: dual_hahn(m, n, dual_hahn_params(ctx.p))),
}


def cmd_table(cfg: RunConfig) -> tuple:
    which = cfg.extra["which"]
    needs_rho, cells = TABLES[which]
    ctx = _context(cfg, needs_rho)
    p, value = ctx.p, cells(ctx)
    grid = [[value(m, n) for n in range(p.N + 1)] for m in range(p.N + 1)]

    if cfg.output_format == "csv":
        header = "m,n,value" + (",exact" if cfg.extra.get("exact") else "")
        lines = [header]
        for m in range(p.N + 1):
            for n in range(p.N + 1):
                v = grid[m][n]
                row = f"{m},{n},{_decimal_str(v, cfg.precision)}"
                if cfg.extra.get("exact"):
                    row += f",{v}"
                lines.append(row)
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "which": which,
            "params": {**p.as_dict(), "rho": str(cfg.rho)},
            "grid": [[str(v) for v in row] for row in grid],
        }
        text = _json(payload)
    return EXIT_OK, text


# -- matrix -------------------------------------------------------------------


class _EmitFailed(Exception):
    """An emitted object failed its re-validation; the message is the output."""


def _matrix_rows(mat: RationalMatrix) -> list:
    return [[str(mat[(i, j)]) for j in range(mat.cols)] for i in range(mat.rows)]


def _casimir_checked(ctx: Context) -> RationalMatrix:
    if not check_casimir_central(ctx).passed:
        raise _EmitFailed("casimir centrality failed on emit\n")
    return casimir(ctx)


# selector -> the matrix of a Context
MATRICES = {**{name: attrgetter(name) for name in ("X", "V", "Z", "Xt", "Vt", "Zt")},
            "C": _casimir_checked}

# coeffs:<basis> -> (needs rho, named band coefficients of a Context)
COEFFS = {
    "e": (False, lambda ctx: {"Z": coeffs_Z_on_e(ctx.p), "X": coeffs_X_on_e(ctx.p)}),
    "f": (True, lambda ctx: {"V": coeffs_V_on_f(ctx.p, ctx.fp)}),
    "d": (False, lambda ctx: coeffs_on_d(ctx.p)),
    "dStar": (False, lambda ctx: coeffs_on_dstar(ctx.p)),
    "z": (False, lambda ctx: coeffs_on_z(ctx.p)),
}


def _basis_payload(label: str, ctx: Context) -> dict:
    fam = ctx.basis(label)
    if fam.vectors != oracle_basis(ctx, label).vectors:
        raise _EmitFailed(f"basis {label} failed revalidation on emit\n")
    return {"rows": _matrix_rows(fam.vectors),
            "eigenvalues": [str(v) for v in fam.eigenvalues]}


def _rows_payload(matrix, ctx: Context) -> dict:
    return {"rows": _matrix_rows(matrix(ctx))}


def _coeffs_payload(bands, ctx: Context) -> dict:
    return {"bands": {
        name: {
            "sup": [str(v) for v in tc.sup],
            "diag": [str(v) for v in tc.diag],
            "sub": [str(v) for v in tc.sub],
        }
        for name, tc in bands(ctx).items()
    }}


def cmd_matrix(cfg: RunConfig) -> tuple:
    which = cfg.extra["which"]
    kind, sep, name = which.partition(":")
    if sep and kind == "basis":
        if name not in FAMILIES:
            return EXIT_USAGE, f"metaracah: unknown basis label in {which!r}\n"
        needs_rho = True  # even for a family that does not use rho
        build = partial(_basis_payload, name)
    elif sep and kind == "coeffs":
        if name not in COEFFS:
            return EXIT_USAGE, f"metaracah: no coefficient table for {which!r}\n"
        needs_rho, bands = COEFFS[name]
        build = partial(_coeffs_payload, bands)
    elif which in MATRICES:
        needs_rho = False
        build = partial(_rows_payload, MATRICES[which])
    else:
        return EXIT_USAGE, f"metaracah: unknown matrix selector {which!r}\n"
    ctx = _context(cfg, needs_rho)
    try:
        payload = build(ctx)
    except _EmitFailed as exc:
        return EXIT_FAIL, str(exc)
    return EXIT_OK, _json({"which": which, "params": {**ctx.p.as_dict(), "rho": str(cfg.rho)},
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

    suites = SUITES
    if getattr(args, "suite", None) and args.suite != "all":
        wanted = tuple(s.strip() for s in args.suite.split(","))
        unknown = [s for s in wanted if s not in SUITES]
        if unknown:
            print(f"metaracah: unknown suite(s): {', '.join(unknown)}", file=sys.stderr)
            return EXIT_USAGE
        suites = tuple(s for s in SUITES if s in wanted)

    cfg = RunConfig(
        N=args.N,
        alpha=args.alpha,
        beta=args.beta,
        zeta=args.zeta,
        rho=args.rho,
        suites=suites,
        seed=getattr(args, "seed", 0),
        sweeps=getattr(args, "sweeps", 0),
        output_format=args.format,
        precision=args.precision,
        inject_fault=getattr(args, "inject_fault", False),
        extra={
            "which": getattr(args, "which", None),
            "exact": getattr(args, "exact", False),
        },
    )
    if cfg.N < 1:
        print("metaracah: --N must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    if cfg.sweeps < 0 or cfg.precision < 1:
        print("metaracah: --sweeps must be >= 0 and --precision >= 1", file=sys.stderr)
        return EXIT_USAGE

    handler = {"verify": cmd_verify, "table": cmd_table, "matrix": cmd_matrix}[args.command]
    try:
        code, text = handler(cfg)
    except DegenerateParameters as exc:
        code = EXIT_DEGENERATE
        text = _json({"error": "degenerate-parameters", "offenders": exc.offenders})
    if code == EXIT_USAGE:
        sys.stderr.write(text)
    else:
        _emit(text, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
