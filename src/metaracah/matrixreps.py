"""Closed-form tridiagonal and bidiagonal actions in the eigenbases.

For a basis family b with dual b*, coefficients of an operator O are defined
by O|b_n> = sum_m O^(b)_{m,n} |b_m> and are recovered from matrices by the
conjugation (Bstar)^T O B with the weight of the pairing between
(Bstar)^T and O; ``eigenbases.FAMILIES`` names the dual and the weight: Z
for the pencil family d, Z^T for its adjoint d*, none for the others.
``matrix_on`` builds each such matrix once per Context, on the Context's
one dual side, (Bstar)^T times the weight.  COEFFS maps each basis to the
builder of its named band tables, which ``Context.band_tables`` keeps once
per Context for every reader: ``matrix --which coeffs:`` emits them,
``verify_coefficients`` checks each against ``matrix_on`` under a statement
read off the family's dual and weight, and each table O_b on e and f also
against the transposed operator on the dual, Ot b* = b* O_b^T; the trio,
the racah suite and the rational suite read them too.  Six tables are
built by RationalMatrix.banded from their bands, three diagonals read off
the defining relations; the others are read off them by the [V, Z]
relation, an eigenvalue equation or a transpose.  In a table, band -1
(entry (n+1, n)) feeds |b_{n+1}> in O|b_n>, band 1 (entry (n, n+1)) feeds
|b_n> in O|b_{n+1}>; the JSON keys sup, diag and sub of ``matrix --which
coeffs:`` are bands -1, 0 and 1.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import reduce
from operator import mul
from typing import TYPE_CHECKING

from .algebra import Params, central_params
from .errors import exact, require_indices
from .hyper import series_terms
from .matrices import RationalMatrix
from .report import VerificationReport

if TYPE_CHECKING:
    from .eigenbases import Context

Q = Fraction


def matrix_on(ctx: Context, label: str, op: str) -> RationalMatrix:
    """The matrix (b*)^T op b, with the weight between (b*)^T and op, of op
    on the family b = label, kept in the Context; op names a product of the
    Context's operators as the band tables name it, each factor starting
    at a capital: "VtZt" is Vt Zt."""
    def build():
        factors = re.findall("[A-Z][a-z]*", op)
        op_matrix = reduce(mul, [getattr(ctx, name) for name in factors])
        return ctx.dual_side(label) * op_matrix * ctx.basis(label).vectors
    return ctx.keep(("matrix on", label, op), build)


def _vtilde_refusal(ctx: Context) -> str:
    """"" if right division forms Vtilde = X Z^{-1} of the Context, else
    its refusal, the detail of each check that reads Vtilde on z."""
    try:
        ctx.Vtilde
    except ValueError as exc:
        return f"Vtilde = X Z^{{-1}} refused: {exc}"
    return ""


# -- closed forms --------------------------------------------------------------


def coeffs_Z_on_e(p: Params, mu: tuple) -> RationalMatrix:
    """Z is irreducible tridiagonal on the V eigenbasis, with unit lower band.
    With V = diag(mu), the diagonal of [X, V] = {V, Z} + 2 zeta X + 2 zeta^2 Z
    + xi I is zero, and X_nn = -(2 zeta Z_nn + mu_n + eta) / 2 by the [V, Z]
    relation, so Z_nn = (zeta (mu_n + eta) - xi) / (2 mu_n)."""
    N, a, b, z = p.N, p.alpha, p.beta, p.zeta
    xi, eta = central_params(p)

    def upper(n):
        # entry (n - 1, n)
        return (
            n * (N + 1 - n)
            * (n + 2 * a - b - N - 1)
            * (n - 2 * b - 2 * z - 2)
            * (n - 2 * b - 2 * z + N - 1)
            * (n - 2 * a - b - 2 * z + N - 1)
            / (
                (2 * n - 2 * b - 2 * z - 3)
                * (2 * n - 2 * b - 2 * z - 2) ** 2
                * (2 * n - 2 * b - 2 * z - 1)
            )
        )

    return RationalMatrix.banded(N + 1, {
        -1: [1] * N,
        0: [(z * (m + eta) - xi) / (2 * m) for m in mu],
        1: [upper(n + 1) for n in range(N)],
    })


def coeffs_X_on_e(p: Params, z_on_e: RationalMatrix, mu: tuple) -> RationalMatrix:
    """X on e, the Heun operator of the pair (V, Z), read off Z on e by the
    relation [V, Z] = V + 2X + 2 zeta Z + eta I with V = diag(mu) on e:
    entry (m, n) is ((mu_m - mu_n - 2 zeta) Z_mn - (mu_n + eta) delta_mn) / 2,
    on the three bands of Z."""
    eta = central_params(p)[1]

    def band(k):
        return [((mu[i] - mu[i + k] - 2 * p.zeta) * x - (0 if k else mu[i] + eta)) / 2
                for i, x in enumerate(z_on_e.band(k), max(0, -k))]

    return RationalMatrix.banded(p.N + 1, {k: band(k) for k in (-1, 0, 1)})


def coeffs_V_on_f(p: Params, rho: Fraction) -> RationalMatrix:
    """V is irreducible tridiagonal on the eigenbasis of X + rho Z."""
    N, a, b, z, r = p.N, p.alpha, p.beta, p.zeta, exact(rho)

    def lower(n):
        return -(
            (n - 2 * a + b + 1)
            * (n - 2 * a - r)
            * (n + N - 2 * a - r + 1)
            * (n - N + b - r + 2 * z + 1)
            * (n - b - r)
        ) / (
            (2 * n - 2 * a - r)
            * (2 * n - 2 * a - r + 1) ** 2
            * (2 * n - 2 * a - r + 2)
        )

    def diag(n):
        return (
            n * (n - 2 * a + b) * (n - N + b - r + 2 * z) * (n + N - 2 * a - r)
            / ((2 * n - 2 * a - r - 1) * (2 * n - 2 * a - r))
            + (n - N) * (n - 2 * a - r) * (n - b - r) * (n + N - 2 * a - b - 2 * z)
            / ((2 * n - 2 * a - r) * (2 * n - 2 * a - r + 1))
            - (b + z + 1) * (b + z)
        )

    return RationalMatrix.banded(N + 1, {
        -1: [lower(n) for n in range(N)],
        0: [diag(n) for n in range(N + 1)],
        1: [-(n + 1) * (n - N) * (n + N - 2 * a - b - 2 * z) for n in range(N)],
    })


def coeffs_on_d(p: Params, lam: tuple) -> dict:
    """Z acts lower-bidiagonally on the pencil family; VZ is tridiagonal.  On
    Z d_n, Vtilde = diag(lam) and X = diag(lam) Z, so Z [V, Z] = Z (V + 2X +
    2 zeta Z + eta I) reads T Z - (Z + I) T = 2 Z diag(lam) Z + 2 zeta Z^2 +
    eta Z for T = VZ on d, whose diagonal is s_n u_n - s_(n-1) u_(n-1) - (2
    lam_n + 2 zeta) d_n^2 - eta d_n: d, s bands 0, -1 of Z, u band 1 of T,
    and zero terms off 0..N-1."""
    N, a, b, z = p.N, p.alpha, p.beta, p.zeta
    eta = central_params(p)[1]
    Zc = RationalMatrix.banded(N + 1, {
        -1: [(n - 2 * a + b + 1) / (n - a + 1) for n in range(N)],
        0: [n - a for n in range(N + 1)],
    })
    u = [-(n + 1) * (n - N) * (n + 1 - a) * (n + N - 2 * a - b - 2 * z) for n in range(N)]
    su = [0, *map(mul, Zc.band(-1), u), 0]
    VZc = RationalMatrix.banded(N + 1, {
        -1: [-((n - 2 * a + b + 1) * (n - a - z) * (n - a - z + 1)) / (n - a + 1)
             for n in range(N)],
        0: [su[n + 1] - su[n] - (2 * lam[n] + 2 * z) * d * d - eta * d
            for n, d in enumerate(Zc.band(0))],
        1: u,
    })
    return {"Z": Zc, "VZ": VZc}


def coeffs_on_dstar(z_on_d: RationalMatrix, lam: tuple) -> dict:
    """Xt on the adjoint pencil family, d^T Zt Xt d*: as Xt d*_n = lam_n Zt
    d*_n, it is Zt on d*, the transpose of Z on d, times diag(lam)."""
    return {"Xt": z_on_d.transpose().scaled(None, lam)}


def coeffs_on_z(p: Params, lam: tuple) -> dict:
    """V and X on the Z eigenbasis; X shares its lower band with -V and is
    bidiagonal.  With Z = diag(lam), the diagonals of [Z, X] = Z^2 + X and
    [V, Z] = V + 2X + 2 zeta Z + eta I give X_nn = -lam_n^2 and V_nn."""
    N, a, b, z = p.N, p.alpha, p.beta, p.zeta
    eta = central_params(p)[1]
    v_lower = [-(n - 2 * a + b + 1) for n in range(N)]
    Vc = RationalMatrix.banded(N + 1, {
        -1: v_lower,
        0: [2 * x * x - 2 * z * x - eta for x in lam],
        1: [-(n + 1) * (n - N) * (n + N - 2 * a - b - 2 * z) for n in range(N)],
    })
    Xc = RationalMatrix.banded(N + 1, {
        -1: [-s for s in v_lower],
        0: [-((n - a) ** 2) for n in range(N + 1)],
    })
    return {"V": Vc, "X": Xc}


def etilde_in_z(p: Params, n: int):
    """The Vtilde eigenvector Z d_n over the z family, rescaled to unit head:

    Z d_n / (n - a) = sum_{l=n}^N (n-2a+b+1)_(l-n) / ((l-n)! (n-a)_(l-n)) z_l.
    """
    require_indices("etilde_in_z", p.N, n)
    N, a, b = p.N, p.alpha, p.beta
    return (Q(0),) * n + tuple(series_terms((n - 2 * a + b + 1,), (n - a,), N - n + 1))


def _derived(tables: dict, name: str, source: str, factors: list) -> dict:
    """tables with the table name added, tables[source] diag(factors)."""
    return {**tables, name: tables[source].scaled(None, factors)}


# coeffs:<basis> -> the builder of the band tables of a Context, which
# Context.band_tables calls once per Context.  The six tables the builders
# state are ratios of products of linear factors entry by entry, but for three
# diagonals read off the defining relations and the diagonal of V on f.  Only
# [[W,V],W] (racah-2) fixes that one, with the Casimir's value, which no table
# holds: reading ctx.C would add C's 8 products to every matrixreps and racah
# run, and the rho degree bound of V on f is read off its closed form.  X on d
# is Z on d diag(lambda), Vtilde = X Z^{-1} on z is X on z diag(1/lambda), and
# Zt and VtZt on d* are the transposes of Z and VZ on d; each lambda or mu is
# its family's eigenvalue row in FAMILIES.  The lambdas look their callees up
# at call time, so wrappers installed on the module names see every call, and
# a fault in a table reaches every table read off it.
COEFFS = {
    "e": lambda ctx: {"Z": (z := coeffs_Z_on_e(ctx.p, (mu := ctx.basis("e").eigenvalues))),
                      "X": coeffs_X_on_e(ctx.p, z, mu)},
    "f": lambda ctx: {"V": coeffs_V_on_f(ctx.p, ctx.rho)},
    "d": lambda ctx: _derived(coeffs_on_d(ctx.p, (lam := ctx.basis("d").eigenvalues)),
                              "X", "Z", lam),
    "dStar": lambda ctx: {**coeffs_on_dstar(ctx.band_tables("d")["Z"],
                                            ctx.basis("dStar").eigenvalues),
                          "Zt": ctx.band_tables("d")["Z"].transpose(),
                          "VtZt": ctx.band_tables("d")["VZ"].transpose()},
    "z": lambda ctx: _derived(coeffs_on_z(ctx.p, (lam := ctx.basis("z").eigenvalues)),
                              "Vtilde", "X", [1 / x for x in lam]),
}

# -- verification ---------------------------------------------------------------


def _statement(basis: str, name: str, fam) -> str:
    """The statement of the check of table name on basis, read off its
    family's dual and weight; Vtilde is shown as X Z^{-1}."""
    b, dual = (label.replace("Star", "*") for label in (basis, fam.dual))
    shown = "X Z^{-1}" if name == "Vtilde" else name
    op = shown if len(re.findall("[A-Z]", name)) == 1 else f"({name})"
    left = f"({dual})^T" if "*" in dual else f"{dual}^T"
    weight = f"{fam.weight} " if fam.weight else ""
    return f"closed-form {shown} coefficients on {b} match {left} {weight}{op} {b}"


def verify_coefficients(ctx: Context) -> VerificationReport:
    """Every band table of COEFFS against its conjugation oracle, and each
    table O_b on e and f against the kept transposed operator Ot on the
    dual b*: Ot b* = b* O_b^T, which gram-b makes equivalent to the
    transposed conjugation b^T Ot b* = O_b^T, read with no pairing."""
    from .eigenbases import FAMILIES  # eigenbases imports this module
    rep = VerificationReport(
        suite="matrixreps:coefficients", params={**ctx.p.as_dict(), "rho": str(ctx.rho)}
    )
    for basis in COEFFS:
        for name, table in ctx.band_tables(basis).items():
            check_id = f"{name}-on-{basis.lower()}"
            statement = _statement(basis, name, FAMILIES[basis])
            if name == "Vtilde" and (refusal := _vtilde_refusal(ctx)):
                rep.add(check_id, statement, False, refusal)
                continue
            rep.add_grid(check_id, statement, table - matrix_on(ctx, basis, name))
            # (b*)^T b = I makes b^T b* = I, so O b = b O_b gives Ot b* = b* O_b^T
            if basis in ("e", "f"):
                bstar = ctx.basis(basis + "Star").vectors
                rep.add_grid(f"{name}t-on-{basis}star", "transposed-operator coefficients on"
                             f" {basis}* are the transpose of {name} on {basis}",
                             getattr(ctx, name + "t") * bstar - bstar * table.transpose())
    return rep


def verify_leonard_trio(ctx: Context) -> VerificationReport:
    """The ordered triple (V, Vtilde, Z) with Vtilde = X Z^{-1} forms a lower
    reduced Leonard trio; the three clauses are checked in explicit bases.

    (i)  on e:  V diagonal, Vtilde Z tridiagonal, Z irreducible tridiagonal;
    (ii) on Z d_n: Vtilde diagonal (eigenvalue alpha - n), Z V tridiagonal,
         Z irreducible lower bidiagonal;
    (iii) on z:  Z diagonal, Vtilde irreducible lower bidiagonal,
         V irreducible tridiagonal.

    The diagonals of V on e and Z on z are compared with the eigenvalue
    rows of e and z, as the Z diagonal on Z d_n is with the Z table on d.
    The Z V coefficients on Z d_n are read without the d pairing, as
    Z V (Z d) = (Z d) (VZ)_d, Z d the d* dual side transposed, so they do
    not restate VZ-on-d.  Irreducibility failures are reported with the
    offending band index.
    """
    rep = VerificationReport(suite="matrixreps:leonard-trio", params=ctx.p.as_dict())
    v_e, z_e = matrix_on(ctx, "e", "V"), matrix_on(ctx, "e", "Z")
    # the shape checks on the vectors Z d_n reuse the d pairing:
    # <d*_m | O Z d_n> gives O's matrix on the Z d family, which for O = Z
    # and O = Z V is the matrix of Z and of V Z on d, and for O = Vtilde
    # is d*^T X d, as Vtilde Z = X
    d, on_d = ctx.basis("d"), ctx.band_tables("d")
    vt_et = ctx.basis("dStar").vectors.transpose() * ctx.X * d.vectors
    z_et, zv_et = matrix_on(ctx, "d", "Z"), matrix_on(ctx, "d", "VZ")
    z_z, v_z = matrix_on(ctx, "z", "Z"), matrix_on(ctx, "z", "V")
    refusal = _vtilde_refusal(ctx)  # a verdict on a refused Vtilde is None
    vt_z = None if refusal else matrix_on(ctx, "z", "Vtilde")
    for check_id, statement, ok in (
        ("trio-i-V-diagonal", "clause (i): V diagonal on e",
         v_e.in_band(0, 0) and v_e.band(0) == ctx.basis("e").eigenvalues),
        ("trio-i-VtildeZ-tridiagonal", "clause (i): Vtilde Z tridiagonal on e",
         matrix_on(ctx, "e", "X").in_band(1, 1)),  # Vtilde Z = X
        ("trio-i-Z-tridiagonal", "clause (i): Z tridiagonal on e", z_e.in_band(1, 1)),
        ("trio-ii-Vtilde-diagonal", "clause (ii): Vtilde diagonal on Z d_n", vt_et.in_band(0, 0)),
        ("trio-ii-Vtilde-eigenvalues", "clause (ii): Vtilde eigenvalue on Z d_n is alpha - n",
         vt_et.band(0) == d.eigenvalues),
        ("trio-ii-ZV-tridiagonal", "clause (ii): Z V tridiagonal on Z d_n", zv_et.in_band(1, 1)),
        # the diagonal n - alpha and the subdiagonal (n-2a+b+1)/(n-a+1) are
        # the bands of the Z-on-d table
        ("trio-ii-Z-lower-bidiagonal",
         "clause (ii): Z lower bidiagonal on Z d_n with diagonal n - alpha",
         z_et.in_band(1, 0) and z_et.band(0) == on_d["Z"].band(0)),
        ("trio-ii-Z-subdiagonal",
         "clause (ii): Z subdiagonal on Z d_n is (n-2a+b+1)/(n-a+1); the numerator"
         " alone appears for the head-rescaled family", z_et.band(-1) == on_d["Z"].band(-1)),
        ("trio-iii-Z-diagonal", "clause (iii): Z diagonal on z",
         z_z.in_band(0, 0) and z_z.band(0) == ctx.basis("z").eigenvalues),
        ("trio-iii-Vtilde-lower-bidiagonal", "clause (iii): Vtilde lower bidiagonal on z",
         vt_z and vt_z.in_band(1, 0)),
        ("trio-iii-V-tridiagonal", "clause (iii): V tridiagonal on z", v_z.in_band(1, 1)),
    ):
        rep.add(check_id, statement, ok, refusal if ok is None else "")
    # its own route, clear of the d pairing: V Z d = d (VZ)_d, so Z V (Z d) = (Z d) (VZ)_d
    zd = ctx.dual_side("dStar").transpose()
    rep.add_grid("trio-ii-ZV-coefficients",
                 "clause (ii): Z V on Z d_n carries the VZ coefficients of the d family",
                 ctx.Z * (ctx.V * zd) - zd * on_d["VZ"])
    for check_id, statement, entries in (
        ("trio-i-Z-irreducible", "clause (i): Z bands on e nonzero", z_e.band(-1) + z_e.band(1)),
        ("trio-ii-Z-irreducible", "clause (ii): Z subdiagonal on Z d_n nonzero", z_et.band(-1)),
        ("trio-iii-Vtilde-irreducible", "clause (iii): Vtilde subdiagonal on z nonzero",
         vt_z and vt_z.band(-1)),
        ("trio-iii-V-irreducible", "clause (iii): V bands on z nonzero",
         v_z.band(-1) + v_z.band(1)),
    ):
        zero = next((i for i, x in enumerate(entries or ()) if x == 0), None)
        detail = refusal if entries is None else "" if zero is None else f"zero at index {zero}"
        rep.add(check_id, statement, not detail, detail)
    return rep
