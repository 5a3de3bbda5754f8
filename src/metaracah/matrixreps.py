"""Closed-form tridiagonal and bidiagonal actions in the eigenbases.

For a basis family b with dual b*, coefficients of an operator O are defined
by O|b_n> = sum_m O^(b)_{m,n} |b_m> and are recovered from matrices by the
conjugation (Bstar)^T O B, using the extra Z weight for the pencil pair:
coefficients on d come from (Dstar)^T Z O D and coefficients on d* from
D^T Z^T O^T Dstar.  Index conventions for the coefficient containers: sup[n]
feeds |b_{n+1}> (matrix entry (n+1, n)), sub[n] feeds |b_n> from |b_{n+1}>
(matrix entry (n, n+1)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import Params
from .eigenbases import Context, FParams
from .hyper import series_terms
from .matrices import RationalMatrix, inverse
from .report import VerificationReport

Q = Fraction


@dataclass(frozen=True)
class TridiagonalCoeffs:
    """Banded coefficients; bidiagonal actions leave one band at zeros."""

    sup: tuple  # length N, entry n multiplies |b_{n+1}> in O|b_n>
    diag: tuple  # length N+1
    sub: tuple  # length N, entry n multiplies |b_n> in O|b_{n+1}>

    def assemble(self) -> RationalMatrix:
        n1 = len(self.diag)
        m = [[Q(0)] * n1 for _ in range(n1)]
        for n in range(n1):
            m[n][n] = self.diag[n]
            if n < n1 - 1:
                m[n + 1][n] = self.sup[n]
                m[n][n + 1] = self.sub[n]
        return RationalMatrix(m)


def conjugate_plain(op: RationalMatrix, basis, dual) -> RationalMatrix:
    """Coefficients of op in a self-dually-paired basis: (dual)^T op basis."""
    return dual.vectors.transpose() * op * basis.vectors


def conjugate_d(op: RationalMatrix, Z: RationalMatrix, d_basis, dstar_basis) -> RationalMatrix:
    """Coefficients of op on the d family, extracted through the Z pairing."""
    return dstar_basis.vectors.transpose() * Z * op * d_basis.vectors


def conjugate_dstar(op_t: RationalMatrix, Zt: RationalMatrix, d_basis,
                    dstar_basis) -> RationalMatrix:
    """Coefficients of a transposed operator on the d* family."""
    return d_basis.vectors.transpose() * Zt * op_t * dstar_basis.vectors


# -- closed forms --------------------------------------------------------------


def _z_on_e_sub(p: Params, n: int) -> Fraction:
    """Entry (n-1, n) of Z on e, stored at index n-1; X on e shares it."""
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


def coeffs_Z_on_e(p: Params) -> TridiagonalCoeffs:
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

    return TridiagonalCoeffs(
        sup=tuple(Q(1) for _ in range(N)),
        diag=tuple(diag(n) for n in range(N + 1)),
        sub=tuple(_z_on_e_sub(p, n + 1) for n in range(N)),
    )


def coeffs_X_on_e(p: Params) -> TridiagonalCoeffs:
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

    return TridiagonalCoeffs(
        sup=tuple(b - n for n in range(N)),
        diag=tuple(diag(n) for n in range(N + 1)),
        sub=tuple((n - b - 2 * z) * _z_on_e_sub(p, n + 1) for n in range(N)),
    )


def coeffs_V_on_f(p: Params, fp: FParams) -> TridiagonalCoeffs:
    """V is irreducible tridiagonal on the eigenbasis of X + rho Z."""
    N, a, b, z, r = p.N, p.alpha, p.beta, p.zeta, fp.rho

    def sup(n):
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

    def sub(n):
        return -n * (n - N - 1) * (n + N - 2 * a - b - 2 * z - 1)

    return TridiagonalCoeffs(
        sup=tuple(sup(n) for n in range(N)),
        diag=tuple(diag(n) for n in range(N + 1)),
        sub=tuple(sub(n + 1) for n in range(N)),
    )


def coeffs_on_d(p: Params) -> dict:
    """Z and X act lower-bidiagonally on the pencil family; VZ is tridiagonal."""
    N, a, b, z = p.N, p.alpha, p.beta, p.zeta
    zero = tuple(Q(0) for _ in range(N))
    Zc = TridiagonalCoeffs(
        sup=tuple((n - 2 * a + b + 1) / (n - a + 1) for n in range(N)),
        diag=tuple(Q(n) - a for n in range(N + 1)),
        sub=zero,
    )
    Xc = TridiagonalCoeffs(
        sup=tuple(-(n - a) * (n - 2 * a + b + 1) / (n - a + 1) for n in range(N)),
        diag=tuple(-((n - a) ** 2) for n in range(N + 1)),
        sub=zero,
    )

    def vz_diag(n):
        return (
            N * (N - b - 2 * a - 2 * z) * (n - a + b + 1)
            + (b + z) * (b + z + 1) * (n + a)
            - 2 * n * (n - 2 * a - z) * (n - a - z)
        )

    VZc = TridiagonalCoeffs(
        sup=tuple(
            -((n - 2 * a + b + 1) * (n - a - z) * (n - a - z + 1)) / (n - a + 1)
            for n in range(N)
        ),
        diag=tuple(vz_diag(n) for n in range(N + 1)),
        sub=tuple(
            -(n + 1) * (n + 1 - N - 1) * (n + 1 - a) * (n + 1 + N - 2 * a - b - 2 * z - 1)
            for n in range(N)
        ),
    )
    return {"Z": Zc, "X": Xc, "VZ": VZc}


def coeffs_on_dstar(p: Params) -> dict:
    """Transposed actions on the adjoint pencil family (upper-bidiagonal)."""
    N, a, b, z = p.N, p.alpha, p.beta, p.zeta
    zero = tuple(Q(0) for _ in range(N))
    Ztc = TridiagonalCoeffs(
        sup=zero,
        diag=tuple(Q(n) - a for n in range(N + 1)),
        sub=tuple((n + 1 - 2 * a + b) / (n + 1 - a) for n in range(N)),
    )
    Xtc = TridiagonalCoeffs(
        sup=zero,
        diag=tuple(-((n - a) ** 2) for n in range(N + 1)),
        sub=tuple(-(n + 1) + 2 * a - b for n in range(N)),
    )
    vz_diag = coeffs_on_d(p)["VZ"].diag
    VtZtc = TridiagonalCoeffs(
        sup=tuple(
            -(n - a + 1) * (n - N) * (n + 1) * (n + N - 2 * a - b - 2 * z)
            for n in range(N)
        ),
        diag=vz_diag,
        sub=tuple(
            -((n + 1 - a - z - 1) * (n + 1 - a - z) * (n + 1 - 2 * a + b)) / (n + 1 - a)
            for n in range(N)
        ),
    )
    return {"Zt": Ztc, "Xt": Xtc, "VtZt": VtZtc}


def coeffs_on_z(p: Params) -> dict:
    """V, X and Vtilde = X Z^{-1} on the eigenbasis of Z.

    X shares its lower band with -V and is bidiagonal; Vtilde is lower
    bidiagonal with diagonal -(n - alpha).
    """
    N, a, b, z = p.N, p.alpha, p.beta, p.zeta
    zero = tuple(Q(0) for _ in range(N))
    v_sup = tuple(-(n - 2 * a + b + 1) for n in range(N))
    Vc = TridiagonalCoeffs(
        sup=v_sup,
        diag=tuple(
            (n - 2 * a + b + 1) * (n - N)
            + n * (n + N - 2 * a - b - 2 * z - 1)
            - (N - b - z) * (N - b - z - 1)
            for n in range(N + 1)
        ),
        sub=tuple(
            -(n + 1) * (n + 1 - N - 1) * (n + 1 + N - 2 * a - b - 2 * z - 1)
            for n in range(N)
        ),
    )
    Xc = TridiagonalCoeffs(
        sup=tuple(-s for s in v_sup),
        diag=tuple(-((n - a) ** 2) for n in range(N + 1)),
        sub=zero,
    )
    Vtc = TridiagonalCoeffs(
        sup=tuple((n - 2 * a + b + 1) / (n - a) for n in range(N)),
        diag=tuple(-(Q(n) - a) for n in range(N + 1)),
        sub=zero,
    )
    return {"V": Vc, "X": Xc, "Vtilde": Vtc}


def etilde_in_z(p: Params, n: int):
    """The Vtilde eigenvector Z d_n over the z family, rescaled to unit head:

    Z d_n / (n - a) = sum_{l=n}^N (n-2a+b+1)_(l-n) / ((l-n)! (n-a)_(l-n)) z_l.
    """
    N, a, b = p.N, p.alpha, p.beta
    return (Q(0),) * n + tuple(series_terms((n - 2 * a + b + 1,), (n - a,), N - n + 1))


# -- verification ---------------------------------------------------------------


def verify_coefficients(ctx: Context) -> VerificationReport:
    """Every closed-form coefficient family against its conjugation oracle."""
    p, fp = ctx.p, ctx.fp
    Z, V, X = ctx.Z, ctx.V, ctx.X
    Zt, Vt, Xt = ctx.Zt, ctx.Vt, ctx.Xt
    rep = VerificationReport(
        suite="matrixreps:coefficients", params={**p.as_dict(), "rho": str(fp.rho)}
    )

    e = ctx.basis("e")
    estar = ctx.basis("eStar")
    z_on_e = coeffs_Z_on_e(p).assemble()
    x_on_e = coeffs_X_on_e(p).assemble()
    rep.add_matrix_zero(
        "Z-on-e", "closed-form Z coefficients on e match (e*)^T Z e",
        z_on_e - conjugate_plain(Z, e, estar),
    )
    rep.add_matrix_zero(
        "X-on-e", "closed-form X coefficients on e match (e*)^T X e",
        x_on_e - conjugate_plain(X, e, estar),
    )
    rep.add_matrix_zero(
        "Zt-on-estar", "transposed-operator coefficients on e* are the transpose of Z on e",
        z_on_e.transpose() - conjugate_plain(Zt, estar, e),
    )
    rep.add_matrix_zero(
        "Xt-on-estar", "transposed-operator coefficients on e* are the transpose of X on e",
        x_on_e.transpose() - conjugate_plain(Xt, estar, e),
    )

    f = ctx.basis("f")
    fstar = ctx.basis("fStar")
    v_on_f = coeffs_V_on_f(p, fp).assemble()
    rep.add_matrix_zero(
        "V-on-f", "closed-form V coefficients on f match (f*)^T V f",
        v_on_f - conjugate_plain(V, f, fstar),
    )
    rep.add_matrix_zero(
        "Vt-on-fstar", "transposed-operator coefficients on f* are the transpose of V on f",
        v_on_f.transpose() - conjugate_plain(Vt, fstar, f),
    )

    d = ctx.basis("d")
    dstar = ctx.basis("dStar")
    dd = coeffs_on_d(p)
    rep.add_matrix_zero(
        "Z-on-d", "closed-form Z coefficients on d match (d*)^T Z Z d",
        dd["Z"].assemble() - conjugate_d(Z, Z, d, dstar),
    )
    rep.add_matrix_zero(
        "X-on-d", "closed-form X coefficients on d match (d*)^T Z X d",
        dd["X"].assemble() - conjugate_d(X, Z, d, dstar),
    )
    rep.add_matrix_zero(
        "VZ-on-d", "closed-form VZ coefficients on d match (d*)^T Z (VZ) d",
        dd["VZ"].assemble() - conjugate_d(V * Z, Z, d, dstar),
    )
    ds = coeffs_on_dstar(p)
    rep.add_matrix_zero(
        "Zt-on-dstar", "closed-form Zt coefficients on d* match d^T Zt Zt d*",
        ds["Zt"].assemble() - conjugate_dstar(Zt, Zt, d, dstar),
    )
    rep.add_matrix_zero(
        "Xt-on-dstar", "closed-form Xt coefficients on d* match d^T Zt Xt d*",
        ds["Xt"].assemble() - conjugate_dstar(Xt, Zt, d, dstar),
    )
    rep.add_matrix_zero(
        "VtZt-on-dstar", "closed-form VtZt coefficients on d* match d^T Zt (VtZt) d*",
        ds["VtZt"].assemble() - conjugate_dstar(Vt * Zt, Zt, d, dstar),
    )

    zb = ctx.basis("z")
    zstar = ctx.basis("zStar")
    zz = coeffs_on_z(p)
    Vtilde = X * inverse(Z)
    rep.add_matrix_zero(
        "V-on-z", "closed-form V coefficients on z match (z*)^T V z",
        zz["V"].assemble() - conjugate_plain(V, zb, zstar),
    )
    rep.add_matrix_zero(
        "X-on-z", "closed-form X coefficients on z match (z*)^T X z",
        zz["X"].assemble() - conjugate_plain(X, zb, zstar),
    )
    rep.add_matrix_zero(
        "Vtilde-on-z", "closed-form X Z^{-1} coefficients on z match (z*)^T X Z^{-1} z",
        zz["Vtilde"].assemble() - conjugate_plain(Vtilde, zb, zstar),
    )
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
    N = p.N
    Z, V, X = ctx.Z, ctx.V, ctx.X
    Vtilde = X * inverse(Z)
    rep = VerificationReport(suite="matrixreps:leonard-trio", params=p.as_dict())

    e = ctx.basis("e")
    estar = ctx.basis("eStar")
    v_e = conjugate_plain(V, e, estar)
    z_e = conjugate_plain(Z, e, estar)
    rep.add("trio-i-V-diagonal", "clause (i): V diagonal on e", v_e.is_diagonal())
    rep.add(
        "trio-i-VtildeZ-tridiagonal",
        "clause (i): Vtilde Z tridiagonal on e",
        conjugate_plain(Vtilde * Z, e, estar).is_tridiagonal(),
    )
    rep.add("trio-i-Z-tridiagonal", "clause (i): Z tridiagonal on e", z_e.is_tridiagonal())
    _band_nonzero(
        rep, "trio-i-Z-irreducible", "clause (i): Z bands on e nonzero",
        [z_e[n + 1, n] for n in range(N)] + [z_e[n, n + 1] for n in range(N)],
    )

    d = ctx.basis("d")
    dstar = ctx.basis("dStar")
    # the coefficient extraction for vectors Z d_n reuses the d pairing:
    # <d*_m | O Z d_n> gives O's matrix on the Z d family.
    etilde = Z * d.vectors
    def on_etilde(op):
        return dstar.vectors.transpose() * op * etilde
    vt_et = on_etilde(Vtilde)
    z_et = on_etilde(Z)
    rep.add("trio-ii-Vtilde-diagonal", "clause (ii): Vtilde diagonal on Z d_n", vt_et.is_diagonal())
    rep.add(
        "trio-ii-Vtilde-eigenvalues",
        "clause (ii): Vtilde eigenvalue on Z d_n is alpha - n",
        all(vt_et[n, n] == p.alpha - n for n in range(N + 1)),
    )
    zv_et = on_etilde(Z * V)
    rep.add(
        "trio-ii-ZV-tridiagonal",
        "clause (ii): Z V tridiagonal on Z d_n",
        zv_et.is_tridiagonal(),
    )
    rep.add_matrix_zero(
        "trio-ii-ZV-coefficients",
        "clause (ii): Z V on Z d_n carries the VZ coefficients of the d family",
        zv_et - coeffs_on_d(p)["VZ"].assemble(),
    )
    rep.add(
        "trio-ii-Z-lower-bidiagonal",
        "clause (ii): Z lower bidiagonal on Z d_n with diagonal n - alpha",
        z_et.is_lower_bidiagonal()
        and all(z_et[n, n] == n - p.alpha for n in range(N + 1)),
    )
    rep.add(
        "trio-ii-Z-subdiagonal",
        "clause (ii): Z subdiagonal on Z d_n is (n-2a+b+1)/(n-a+1); the numerator"
        " alone appears for the head-rescaled family",
        all(
            z_et[n + 1, n] * (n - p.alpha + 1) == n - 2 * p.alpha + p.beta + 1
            for n in range(N)
        ),
    )
    _band_nonzero(
        rep, "trio-ii-Z-irreducible", "clause (ii): Z subdiagonal on Z d_n nonzero",
        [z_et[n + 1, n] for n in range(N)],
    )

    zb = ctx.basis("z")
    zstar = ctx.basis("zStar")
    z_z = conjugate_plain(Z, zb, zstar)
    vt_z = conjugate_plain(Vtilde, zb, zstar)
    v_z = conjugate_plain(V, zb, zstar)
    rep.add("trio-iii-Z-diagonal", "clause (iii): Z diagonal on z", z_z.is_diagonal())
    rep.add(
        "trio-iii-Vtilde-lower-bidiagonal",
        "clause (iii): Vtilde lower bidiagonal on z",
        vt_z.is_lower_bidiagonal(),
    )
    _band_nonzero(
        rep, "trio-iii-Vtilde-irreducible", "clause (iii): Vtilde subdiagonal on z nonzero",
        [vt_z[n + 1, n] for n in range(N)],
    )
    rep.add("trio-iii-V-tridiagonal", "clause (iii): V tridiagonal on z", v_z.is_tridiagonal())
    _band_nonzero(
        rep, "trio-iii-V-irreducible", "clause (iii): V bands on z nonzero",
        [v_z[n + 1, n] for n in range(N)] + [v_z[n, n + 1] for n in range(N)],
    )
    return rep
