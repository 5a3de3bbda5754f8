"""Closed-form tridiagonal and bidiagonal actions in the eigenbases.

For a basis family b with dual b*, coefficients of an operator O are defined
by O|b_n> = sum_m O^(b)_{m,n} |b_m> and are recovered from matrices by the
conjugation (Bstar)^T W O B, with the dual and the weight W of the pairing
that ``eigenbases.FAMILIES`` names: Z for the pencil family d, Z^T for its
adjoint d*, none for the others.  ``matrix_on`` builds each such matrix
once per Context, on the Context's one dual side (Bstar)^T W.  COEFFS maps
each basis to its named closed-form band tables, which ``matrix --which
coeffs:`` emits and ``verify_coefficients`` checks against ``matrix_on``,
one row of COEFFICIENT_CHECKS per table; ``bands`` keeps each table in the
Context, for them and for the racah suite.  Each
table is a RationalMatrix built by RationalMatrix.banded from its nonzero
bands: band -1 (entry (n+1, n)) feeds |b_{n+1}> in O|b_n>, band 1 (entry
(n, n+1)) feeds |b_n> in O|b_{n+1}>; the JSON keys sup, diag and sub of
``matrix --which coeffs:`` are bands -1, 0 and 1.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import mul
from typing import TYPE_CHECKING

from .algebra import Params
from .hyper import series_terms
from .matrices import RationalMatrix
from .report import VerificationReport

if TYPE_CHECKING:
    from .eigenbases import Context

Q = Fraction


def matrix_on(ctx: Context, label: str, op: str) -> RationalMatrix:
    """The matrix (b*)^T W op b of op on the family b = label, kept in the
    Context; op names a product of the Context's operators, such as "V*Z"."""
    def build():
        op_matrix = reduce(mul, [getattr(ctx, name) for name in op.split("*")])
        return ctx.dual_side(label) * op_matrix * ctx.basis(label).vectors
    return ctx.keep(("matrix on", label, op), build)


def bands(ctx: Context, build, *args):
    """build(*args), a closed-form band table of the Context's parameters,
    kept in the Context under the builder and its arguments.  Each caller
    passes the builder it has bound, so a wrapper or a patch on that name
    sees the one build."""
    return ctx.keep((build, args), build, *args)


# -- closed forms --------------------------------------------------------------


def _z_on_e_sub(p: Params, n: int) -> Fraction:
    """Entry (n-1, n) of Z on e, at index n-1 of band 1; X on e shares it."""
    N, a, b, z = p.N, p.alpha, p.beta, p.zeta
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


def coeffs_Z_on_e(p: Params) -> RationalMatrix:
    """Z is irreducible tridiagonal on the V eigenbasis, with unit lower band."""
    N, a, b, z = p.N, p.alpha, p.beta, p.zeta

    def diag(n):
        return (
            n * (n - 2 * b - 2 * z + N - 1) * (n + 2 * a - b - N - 1)
            / ((2 * n - 2 * b - 2 * z - 2) * (2 * n - 2 * b - 2 * z - 1))
            - (n - N) * (n - 2 * b - 2 * z - 1) * (n - 2 * a - b - 2 * z + N)
            / ((2 * n - 2 * b - 2 * z - 1) * (2 * n - 2 * b - 2 * z))
            - a
        )

    return RationalMatrix.banded(N + 1, {
        -1: [1] * N,
        0: [diag(n) for n in range(N + 1)],
        1: [_z_on_e_sub(p, n + 1) for n in range(N)],
    })


def coeffs_X_on_e(p: Params) -> RationalMatrix:
    """X, a Heun-type combination for the pair (V, Z), is tridiagonal on e."""
    N, a, b, z = p.N, p.alpha, p.beta, p.zeta

    def diag(n):
        return (
            n * (n - 2 * b - 2 * z + N - 1) * (n + 2 * a - b - N - 1) * (n - b - 2 * z - 1)
            / ((2 * n - 2 * b - 2 * z - 2) * (2 * n - 2 * b - 2 * z - 1))
            + (n - N) * (n - 2 * b - 2 * z - 1) * (n - 2 * a - b - 2 * z + N) * (n - b)
            / ((2 * n - 2 * b - 2 * z - 1) * (2 * n - 2 * b - 2 * z))
            - a * a
        )

    return RationalMatrix.banded(N + 1, {
        -1: [b - n for n in range(N)],
        0: [diag(n) for n in range(N + 1)],
        1: [(n - b - 2 * z) * _z_on_e_sub(p, n + 1) for n in range(N)],
    })


def coeffs_V_on_f(p: Params, rho: Fraction) -> RationalMatrix:
    """V is irreducible tridiagonal on the eigenbasis of X + rho Z."""
    N, a, b, z, r = p.N, p.alpha, p.beta, p.zeta, rho

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


def _vz_on_d_diag(p: Params, n: int) -> Fraction:
    """Entry (n, n) of VZ on d; VtZt on d* shares it."""
    N, a, b, z = p.N, p.alpha, p.beta, p.zeta
    return (
        N * (N - b - 2 * a - 2 * z) * (n - a + b + 1)
        + (b + z) * (b + z + 1) * (n + a)
        - 2 * n * (n - 2 * a - z) * (n - a - z)
    )


def coeffs_on_d(p: Params) -> dict:
    """Z and X act lower-bidiagonally on the pencil family; VZ is tridiagonal."""
    N, a, b, z = p.N, p.alpha, p.beta, p.zeta
    Zc = RationalMatrix.banded(N + 1, {
        -1: [(n - 2 * a + b + 1) / (n - a + 1) for n in range(N)],
        0: [n - a for n in range(N + 1)],
    })
    Xc = RationalMatrix.banded(N + 1, {
        -1: [-(n - a) * (n - 2 * a + b + 1) / (n - a + 1) for n in range(N)],
        0: [-((n - a) ** 2) for n in range(N + 1)],
    })
    VZc = RationalMatrix.banded(N + 1, {
        -1: [-((n - 2 * a + b + 1) * (n - a - z) * (n - a - z + 1)) / (n - a + 1)
             for n in range(N)],
        0: [_vz_on_d_diag(p, n) for n in range(N + 1)],
        1: [-(n + 1) * (n - N) * (n + 1 - a) * (n + N - 2 * a - b - 2 * z) for n in range(N)],
    })
    return {"Z": Zc, "X": Xc, "VZ": VZc}


def coeffs_on_dstar(p: Params) -> dict:
    """Transposed actions on the adjoint pencil family (upper-bidiagonal);
    VtZt shares its diagonal with VZ on d."""
    N, a, b, z = p.N, p.alpha, p.beta, p.zeta
    Ztc = RationalMatrix.banded(N + 1, {
        0: [n - a for n in range(N + 1)],
        1: [(n + 1 - 2 * a + b) / (n + 1 - a) for n in range(N)],
    })
    Xtc = RationalMatrix.banded(N + 1, {
        0: [-((n - a) ** 2) for n in range(N + 1)],
        1: [-(n + 1) + 2 * a - b for n in range(N)],
    })
    VtZtc = RationalMatrix.banded(N + 1, {
        -1: [-(n - a + 1) * (n - N) * (n + 1) * (n + N - 2 * a - b - 2 * z) for n in range(N)],
        0: [_vz_on_d_diag(p, n) for n in range(N + 1)],
        1: [-((n - a - z) * (n + 1 - a - z) * (n + 1 - 2 * a + b)) / (n + 1 - a)
            for n in range(N)],
    })
    return {"Zt": Ztc, "Xt": Xtc, "VtZt": VtZtc}


def coeffs_on_z(p: Params) -> dict:
    """V, X and Vtilde = X Z^{-1} on the eigenbasis of Z.

    X shares its lower band with -V and is bidiagonal; Vtilde is lower
    bidiagonal with diagonal -(n - alpha).
    """
    N, a, b, z = p.N, p.alpha, p.beta, p.zeta
    v_lower = [-(n - 2 * a + b + 1) for n in range(N)]
    Vc = RationalMatrix.banded(N + 1, {
        -1: v_lower,
        0: [(n - 2 * a + b + 1) * (n - N) + n * (n + N - 2 * a - b - 2 * z - 1)
            - (N - b - z) * (N - b - z - 1) for n in range(N + 1)],
        1: [-(n + 1) * (n - N) * (n + N - 2 * a - b - 2 * z) for n in range(N)],
    })
    Xc = RationalMatrix.banded(N + 1, {
        -1: [-s for s in v_lower],
        0: [-((n - a) ** 2) for n in range(N + 1)],
    })
    Vtc = RationalMatrix.banded(N + 1, {
        -1: [(n - 2 * a + b + 1) / (n - a) for n in range(N)],
        0: [a - n for n in range(N + 1)],
    })
    return {"V": Vc, "X": Xc, "Vtilde": Vtc}


def etilde_in_z(p: Params, n: int):
    """The Vtilde eigenvector Z d_n over the z family, rescaled to unit head:

    Z d_n / (n - a) = sum_{l=n}^N (n-2a+b+1)_(l-n) / ((l-n)! (n-a)_(l-n)) z_l.
    """
    N, a, b = p.N, p.alpha, p.beta
    return (Q(0),) * n + tuple(series_terms((n - 2 * a + b + 1,), (n - a,), N - n + 1))


# coeffs:<basis> -> (needs rho, the named closed-form band tables of a Context),
# each table built once per Context.  The lambdas look their callees up at
# call time, so wrappers installed on the module names see every call.
COEFFS = {
    "e": (False, lambda ctx: {"Z": bands(ctx, coeffs_Z_on_e, ctx.p),
                              "X": bands(ctx, coeffs_X_on_e, ctx.p)}),
    "f": (True, lambda ctx: {"V": bands(ctx, coeffs_V_on_f, ctx.p, ctx.rho)}),
    "d": (False, lambda ctx: bands(ctx, coeffs_on_d, ctx.p)),
    "dStar": (False, lambda ctx: bands(ctx, coeffs_on_dstar, ctx.p)),
    "z": (False, lambda ctx: bands(ctx, coeffs_on_z, ctx.p)),
}

# check id, statement, the closed form as (basis, table, transposed?) and its
# oracle as (family, operator) for matrix_on
COEFFICIENT_CHECKS = (
    ("Z-on-e", "closed-form Z coefficients on e match (e*)^T Z e",
     ("e", "Z", False), ("e", "Z")),
    ("X-on-e", "closed-form X coefficients on e match (e*)^T X e",
     ("e", "X", False), ("e", "X")),
    ("Zt-on-estar", "transposed-operator coefficients on e* are the transpose of Z on e",
     ("e", "Z", True), ("eStar", "Zt")),
    ("Xt-on-estar", "transposed-operator coefficients on e* are the transpose of X on e",
     ("e", "X", True), ("eStar", "Xt")),
    ("V-on-f", "closed-form V coefficients on f match (f*)^T V f",
     ("f", "V", False), ("f", "V")),
    ("Vt-on-fstar", "transposed-operator coefficients on f* are the transpose of V on f",
     ("f", "V", True), ("fStar", "Vt")),
    ("Z-on-d", "closed-form Z coefficients on d match (d*)^T Z Z d",
     ("d", "Z", False), ("d", "Z")),
    ("X-on-d", "closed-form X coefficients on d match (d*)^T Z X d",
     ("d", "X", False), ("d", "X")),
    ("VZ-on-d", "closed-form VZ coefficients on d match (d*)^T Z (VZ) d",
     ("d", "VZ", False), ("d", "V*Z")),
    ("Zt-on-dstar", "closed-form Zt coefficients on d* match d^T Zt Zt d*",
     ("dStar", "Zt", False), ("dStar", "Zt")),
    ("Xt-on-dstar", "closed-form Xt coefficients on d* match d^T Zt Xt d*",
     ("dStar", "Xt", False), ("dStar", "Xt")),
    ("VtZt-on-dstar", "closed-form VtZt coefficients on d* match d^T Zt (VtZt) d*",
     ("dStar", "VtZt", False), ("dStar", "Vt*Zt")),
    ("V-on-z", "closed-form V coefficients on z match (z*)^T V z",
     ("z", "V", False), ("z", "V")),
    ("X-on-z", "closed-form X coefficients on z match (z*)^T X z",
     ("z", "X", False), ("z", "X")),
    ("Vtilde-on-z", "closed-form X Z^{-1} coefficients on z match (z*)^T X Z^{-1} z",
     ("z", "Vtilde", False), ("z", "Vtilde")),
)


# -- verification ---------------------------------------------------------------


def verify_coefficients(ctx: Context) -> VerificationReport:
    """Every closed-form coefficient family against its conjugation oracle."""
    rep = VerificationReport(
        suite="matrixreps:coefficients", params={**ctx.p.as_dict(), "rho": str(ctx.rho)}
    )
    tables = {basis: build(ctx) for basis, (_, build) in COEFFS.items()}
    for check_id, statement, (basis, name, transposed), (label, op) in COEFFICIENT_CHECKS:
        closed = tables[basis][name]
        rep.add_matrix_zero(check_id, statement,
                            (closed.transpose() if transposed else closed)
                            - matrix_on(ctx, label, op))
    return rep


def _band_nonzero(rep, check_id, statement, entries):
    bad = [i for i, x in enumerate(entries) if x == 0]
    rep.add(check_id, statement, not bad, "" if not bad else f"zero at index {bad[0]}")


def verify_leonard_trio(ctx: Context) -> VerificationReport:
    """The ordered triple (V, Vtilde, Z) with Vtilde = X Z^{-1} forms a lower
    reduced Leonard trio; the three clauses are checked in explicit bases.

    (i)  on e:  V diagonal, Vtilde Z tridiagonal, Z irreducible tridiagonal;
    (ii) on Z d_n: Vtilde diagonal (eigenvalue alpha - n), Z V tridiagonal,
         Z irreducible lower bidiagonal;
    (iii) on z:  Z diagonal, Vtilde irreducible lower bidiagonal,
         V irreducible tridiagonal.

    Irreducibility failures are reported with the offending band index.
    """
    p = ctx.p
    rep = VerificationReport(suite="matrixreps:leonard-trio", params=p.as_dict())

    v_e = matrix_on(ctx, "e", "V")
    z_e = matrix_on(ctx, "e", "Z")
    rep.add("trio-i-V-diagonal", "clause (i): V diagonal on e", v_e.in_band(0, 0))
    rep.add(
        "trio-i-VtildeZ-tridiagonal",
        "clause (i): Vtilde Z tridiagonal on e",
        matrix_on(ctx, "e", "X").in_band(1, 1),  # Vtilde Z = X
    )
    rep.add("trio-i-Z-tridiagonal", "clause (i): Z tridiagonal on e", z_e.in_band(1, 1))
    _band_nonzero(rep, "trio-i-Z-irreducible", "clause (i): Z bands on e nonzero",
                  z_e.band(-1) + z_e.band(1))

    # the coefficient extraction for vectors Z d_n reuses the d pairing:
    # <d*_m | O Z d_n> gives O's matrix on the Z d family, which for O = Z
    # and O = Z V is the matrix of Z and of V Z on d, and for O = Vtilde
    # is d*^T X d, as Vtilde Z = X
    vt_et = ctx.basis("dStar").vectors.transpose() * ctx.X * ctx.basis("d").vectors
    z_et = matrix_on(ctx, "d", "Z")
    rep.add("trio-ii-Vtilde-diagonal", "clause (ii): Vtilde diagonal on Z d_n", vt_et.in_band(0, 0))
    rep.add(
        "trio-ii-Vtilde-eigenvalues",
        "clause (ii): Vtilde eigenvalue on Z d_n is alpha - n",
        all(x == p.alpha - n for n, x in enumerate(vt_et.band(0))),
    )
    zv_et = matrix_on(ctx, "d", "V*Z")
    rep.add("trio-ii-ZV-tridiagonal", "clause (ii): Z V tridiagonal on Z d_n", zv_et.in_band(1, 1))
    rep.add_matrix_zero(
        "trio-ii-ZV-coefficients",
        "clause (ii): Z V on Z d_n carries the VZ coefficients of the d family",
        zv_et - bands(ctx, coeffs_on_d, p)["VZ"],
    )
    rep.add(
        "trio-ii-Z-lower-bidiagonal",
        "clause (ii): Z lower bidiagonal on Z d_n with diagonal n - alpha",
        z_et.in_band(1, 0) and all(x == n - p.alpha for n, x in enumerate(z_et.band(0))),
    )
    rep.add(
        "trio-ii-Z-subdiagonal",
        "clause (ii): Z subdiagonal on Z d_n is (n-2a+b+1)/(n-a+1); the numerator"
        " alone appears for the head-rescaled family",
        all(x * (n - p.alpha + 1) == n - 2 * p.alpha + p.beta + 1
            for n, x in enumerate(z_et.band(-1))),
    )
    _band_nonzero(rep, "trio-ii-Z-irreducible", "clause (ii): Z subdiagonal on Z d_n nonzero",
                  z_et.band(-1))

    z_z = matrix_on(ctx, "z", "Z")
    vt_z = matrix_on(ctx, "z", "Vtilde")
    v_z = matrix_on(ctx, "z", "V")
    rep.add("trio-iii-Z-diagonal", "clause (iii): Z diagonal on z", z_z.in_band(0, 0))
    rep.add("trio-iii-Vtilde-lower-bidiagonal", "clause (iii): Vtilde lower bidiagonal on z",
            vt_z.in_band(1, 0))
    _band_nonzero(rep, "trio-iii-Vtilde-irreducible",
                  "clause (iii): Vtilde subdiagonal on z nonzero", vt_z.band(-1))
    rep.add("trio-iii-V-tridiagonal", "clause (iii): V tridiagonal on z", v_z.in_band(1, 1))
    _band_nonzero(rep, "trio-iii-V-irreducible", "clause (iii): V bands on z nonzero",
                  v_z.band(-1) + v_z.band(1))
    return rep
