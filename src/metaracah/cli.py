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

from .algebra import (
    Params,
    build_V,
    build_X,
    build_Z,
    build_transposes,
    casimir,
    check_casimir_central,
    check_defining_relations,
    check_subalgebras,
    require_generic,
    validate_params,
)
from .eigenbases import (
    FAMILIES,
    FParams,
    LABELS,
    closed_form_basis,
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

# Suite name -> the reports it produces.  The lambdas look their callees
# up at call time, so wrappers installed on the module names see every call.
SUITE_RUNNERS = {
    "algebra": lambda p, fp: [check_defining_relations(p), check_casimir_central(p),
                              check_subalgebras(p, fp.rho)],
    "bases": lambda p, fp: [_bases_report(p, fp)],
    "matrixreps": lambda p, fp: [verify_coefficients(p, fp), verify_leonard_trio(p)],
    "racah": lambda p, fp: [verify_racah(p, fp)],
    "rational": lambda p, fp: [verify_rational(p)],
    "model": lambda p, fp: [verify_model(p, fp)],
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


def _fault_report(p: Params) -> VerificationReport:
    # bidiagonal Z with the corner entry bumped: relations must break
    Z = build_Z(p)
    bumped = RationalMatrix(
        [[Z[i, j] + (1 if i == j == 0 else 0) for j in range(p.N + 1)]
         for i in range(p.N + 1)]
    )
    rep = check_defining_relations(p, Z=bumped)
    rep.suite = "algebra-fault-injection"
    return rep


def _bases_report(p: Params, fp: FParams) -> VerificationReport:
    rep = check_orthogonality(p, fp)
    bad = [
        label
        for label in LABELS
        if closed_form_basis(p, fp, label).vectors != oracle_basis(p, fp, label).vectors
    ]
    rep.add(
        "closed-vs-oracle",
        "closed-form expansions equal the pencil-kernel oracle for all families",
        not bad,
        detail="" if not bad else f"failing families: {bad}",
    )
    return rep


def run_suites(p: Params, fp: FParams, suites) -> list:
    return [rep for suite in suites for rep in SUITE_RUNNERS[suite](p, fp)]


def sweep_parameters(rng: random.Random, N: int):
    def draw():
        return Q(rng.choice(SWEEP_NUMERATORS), rng.choice(SWEEP_DENOMINATORS))

    return Params(N=N, alpha=draw(), beta=draw(), zeta=draw()), FParams(rho=draw())


def _validated(cfg: RunConfig, needs_rho: bool) -> tuple:
    """(p, fp) from the config; raises DegenerateParameters for a degenerate set."""
    p, fp = cfg.params(), cfg.fparams()
    require_generic(p, fp.rho if needs_rho else None)
    return p, fp


def _json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def cmd_verify(cfg: RunConfig) -> tuple:
    p, fp = _validated(cfg, needs_rho=True)
    reports = run_suites(p, fp, cfg.suites)
    if cfg.inject_fault:
        reports.append(_fault_report(p))

    skipped = 0
    rng = random.Random(cfg.seed)
    for i in range(cfg.sweeps):
        done = False
        for _ in range(MAX_RESAMPLES):
            sp, sfp = sweep_parameters(rng, cfg.N)
            if validate_params(sp, sfp.rho):
                continue
            try:
                sweep_reports = run_suites(sp, sfp, cfg.suites)
            except DegenerateParameters:
                continue
            for r in sweep_reports:
                r.suite = f"sweep-{i}/{r.suite}"
            reports.extend(sweep_reports)
            done = True
            break
        if not done:
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
    def cells(p, fp):
        rp = RacahParams.from_params(p, fp)
        return lambda m, n: value(m, n, rp)
    return cells


# --which -> (needs rho, (p, fp) -> value at (m, n)); lambdas as in
# SUITE_RUNNERS, so each table still looks its callee up at every point.
TABLES = {
    "racah": (True, _on_racah_params(lambda m, n, rp: racah(m, n, rp))),
    "S": (True, _on_racah_params(lambda m, n, rp: closed_form_S(m, n, rp))),
    "Stilde": (True, _on_racah_params(lambda m, n, rp: closed_form_Stilde(m, n, rp))),
    "calU": (False, lambda p, fp: lambda m, n: calU(m, n, p)),
    "calUtilde": (False, lambda p, fp: lambda m, n: calU_tilde(m, n, p)),
    "U": (False, lambda p, fp: lambda m, n: closed_form_U(m, n, p)),
    "Utilde": (False, lambda p, fp: lambda m, n: closed_form_Utilde(m, n, p)),
    "dualHahn": (False, lambda p, fp: lambda m, n: dual_hahn(m, n, dual_hahn_params(p))),
}


def cmd_table(cfg: RunConfig) -> tuple:
    which = cfg.extra["which"]
    needs_rho, cells = TABLES[which]
    p, fp = _validated(cfg, needs_rho)
    value = cells(p, fp)
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
            "params": {**p.as_dict(), "rho": str(fp.rho)},
            "grid": [[str(v) for v in row] for row in grid],
        }
        text = _json(payload)
    return EXIT_OK, text


# -- matrix -------------------------------------------------------------------


class _EmitFailed(Exception):
    """An emitted object failed its re-validation; the message is the output."""


def _matrix_rows(mat: RationalMatrix) -> list:
    return [[str(mat[(i, j)]) for j in range(mat.cols)] for i in range(mat.rows)]


def _casimir_checked(p: Params) -> RationalMatrix:
    if not check_casimir_central(p).passed:
        raise _EmitFailed("casimir centrality failed on emit\n")
    return casimir(p)


# selector -> the matrix at p; lambdas for the reason given at SUITE_RUNNERS
MATRICES = {
    "X": lambda p: build_X(p),
    "V": lambda p: build_V(p),
    "Z": lambda p: build_Z(p),
    "Xt": lambda p: build_transposes(p)[2],
    "Vt": lambda p: build_transposes(p)[1],
    "Zt": lambda p: build_transposes(p)[0],
    "C": _casimir_checked,
}

# coeffs:<basis> -> (needs rho, named band coefficients at (p, fp))
COEFFS = {
    "e": (False, lambda p, fp: {"Z": coeffs_Z_on_e(p), "X": coeffs_X_on_e(p)}),
    "f": (True, lambda p, fp: {"V": coeffs_V_on_f(p, fp)}),
    "d": (False, lambda p, fp: coeffs_on_d(p)),
    "dStar": (False, lambda p, fp: coeffs_on_dstar(p)),
    "z": (False, lambda p, fp: coeffs_on_z(p)),
}


def _basis_payload(label: str, p: Params, fp: FParams) -> dict:
    fam = closed_form_basis(p, fp, label)
    if fam.vectors != oracle_basis(p, fp, label).vectors:
        raise _EmitFailed(f"basis {label} failed revalidation on emit\n")
    return {"rows": _matrix_rows(fam.vectors),
            "eigenvalues": [str(v) for v in fam.eigenvalues]}


def _rows_payload(matrix, p: Params, fp: FParams) -> dict:
    return {"rows": _matrix_rows(matrix(p))}


def _coeffs_payload(bands, p: Params, fp: FParams) -> dict:
    return {"bands": {
        name: {
            "sup": [str(v) for v in tc.sup],
            "diag": [str(v) for v in tc.diag],
            "sub": [str(v) for v in tc.sub],
        }
        for name, tc in bands(p, fp).items()
    }}


def cmd_matrix(cfg: RunConfig) -> tuple:
    which = cfg.extra["which"]
    kind, sep, name = which.partition(":")
    if sep and kind == "basis":
        if name not in FAMILIES:
            return EXIT_USAGE, f"metaracah: unknown basis label in {which!r}\n"
        needs_rho = FAMILIES[name].needs_rho
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
    p, fp = _validated(cfg, needs_rho)
    try:
        payload = build(p, fp)
    except _EmitFailed as exc:
        return EXIT_FAIL, str(exc)
    return EXIT_OK, _json({"which": which, "params": {**p.as_dict(), "rho": str(fp.rho)},
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
