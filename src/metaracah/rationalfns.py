"""Biorthogonal rational functions of Racah type.

The overlaps between the V eigenbases and the generalized eigenbases of
the pencil X = lambda Z are

    U_m(n) = <e_m|d*_n>          Utilde_m(n) = <e*_m|Z|d_n>

and both factor as an explicit prefactor times a terminating 4F3,

    calU_m(n; a, b, c, N) = 4F3(-m, -n, -a, m-2b-2c-1;
                                -N, a-b-n, N-2a-b-2c; 1)

evaluated at (a, b, c) = (alpha, beta, zeta), the tilde variant being
the same function under (n, a, b, c) -> (N-n, N-a-1, b+2c-2, 2-c).
The m- and n-dependence of the lower parameter a-b-n is what makes the
family rational rather than polynomial.

The series and the prefactors separate as in racahpoly: ``calU_table``
builds every calU_m(n) at one parameter set as a product of a term table
in m and one in n (``hyper.series_table``), and serves the calU grid, the
calU-tilde grid (its columns reversed) and the contiguity-shifted table
alike; ``dual_hahn_table`` does the same for the dual Hahn grid.  The
per-point ``calU_general``, ``calU``, ``calU_tilde``, ``dual_hahn`` and
``closed_form_*`` stay as independent single-value references.  Every
public per-index function here refuses an index outside 0..N
(``errors.require_indices``) before it forms any series or Pochhammer.

Verified here, all in exact arithmetic: the dot-product/closed-form
identification, two biorthogonality relations with explicit weights
normalized so h_0 = h*_0 = 1, the bispectral pair, a contiguity relation
under the parameter shift (alpha-1, beta-2, zeta+2) together with its
operator-level counterpart, a dual Hahn expansion, and the Hahn-type
limit at large finite parameter values.  The bispectral pair is the
algebra's tridiagonal actions on the two bases, read from the Context's
band tables (matrixreps.COEFFS) as the racah suite reads its own: the
generalized-eigenvalue recurrence in m is the pencil (X, Z) acting on e,
and the difference equation in n is Vt Zt and Zt acting on d*.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import TYPE_CHECKING

from .algebra import Params, build_X, build_Z
from .errors import PreconditionViolated, exact, require_indices
from .hyper import multi_pochhammer, pochhammer, series_table, terminating_hyp
from .matrices import RationalMatrix
from .report import VerificationReport

if TYPE_CHECKING:
    from .eigenbases import Context

Q = Fraction


def calU_general(m: int, n: int, a, b, c, N: int) -> Fraction:
    """The bare 4F3 at argument 1 for arbitrary rational (a, b, c)."""
    require_indices("calU", N, m, n)
    a, b, c = map(exact, (a, b, c))
    return terminating_hyp(
        upper=(Q(-m), Q(-n), -a, m - 2 * b - 2 * c - 1),
        lower=(Q(-N), a - b - n, N - 2 * a - b - 2 * c),
    )


def calU(m: int, n: int, p: Params) -> Fraction:
    return calU_general(m, n, p.alpha, p.beta, p.zeta, p.N)


def tilde_params(p: Params) -> tuple:
    """The (a, b, c) at which calU_tilde_m(n) is calU_m(N - n)."""
    return p.N - p.alpha - 1, p.beta + 2 * p.zeta - 2, 2 - p.zeta


def calU_tilde(m: int, n: int, p: Params) -> Fraction:
    require_indices("calU-tilde", p.N, m, n)
    return calU_general(m, p.N - n, *tilde_params(p), p.N)


def calU_table(a, b, c, N: int, ns) -> RationalMatrix:
    """calU_general(m, n, a, b, c, N) at every m in 0..N (rows) and n in ns
    (columns) as one series_table: the term at k is
    (-m)_k (m-2b-2c-1)_k (-a)_k / ((-N)_k (N-2a-b-2c)_k k!) times
    (-n)_k / (a-b-n)_k."""
    require_indices("calU_table", N)
    a, b, c = map(exact, (a, b, c))
    return series_table(
        [((-m, m - 2 * b - 2 * c - 1, -a), (-N, N - 2 * a - b - 2 * c)) for m in range(N + 1)],
        [((-n,), (a - b - n,)) for n in ns],
    )


# Each prefactor is the product of its factor in m and its factor in n.


def _prefactor_U_m(m: int, p: Params) -> Fraction:
    a, b, z, N = p.alpha, p.beta, p.zeta, p.N
    return multi_pochhammer((Q(-N), N - 2 * a - b - 2 * z), m) / pochhammer(
        m - 2 * b - 2 * z - 1, m)


def _prefactor_U_n(n: int, p: Params) -> Fraction:
    a, b = p.alpha, p.beta
    return pochhammer(a - b - n, n) / (pochhammer(Q(1), n) * pochhammer(-a, n + 1))


def _prefactor_Utilde_m(m: int, p: Params) -> Fraction:
    a, b, z, N = p.alpha, p.beta, p.zeta, p.N
    return multi_pochhammer((Q(m + 1), -2 * N + 2 * a + b + 2 * z + 1), N - m) / pochhammer(
        -N - m + 2 * b + 2 * z + 1, N - m)


def _prefactor_Utilde_n(n: int, p: Params) -> Fraction:
    a, b, z, N = p.alpha, p.beta, p.zeta, p.N
    num = (n - a) * multi_pochhammer((-N + a + b + 2 * z, -N + 2 * a - b), N - n)
    return num / multi_pochhammer((Q(n - N), n - a, -2 * N + 2 * a + b + 2 * z + 1), N - n)


def closed_form_U(m: int, n: int, p: Params) -> Fraction:
    """Prefactor times calU_m(n) for U_m(n) = <e_m|d*_n>; calU first, as it checks m, n."""
    return calU(m, n, p) * _prefactor_U_m(m, p) * _prefactor_U_n(n, p)


def closed_form_Utilde(m: int, n: int, p: Params) -> Fraction:
    """Prefactor times calU_tilde_m(n) for Utilde_m(n) = <e*_m|Z|d_n>; the series first."""
    return calU_tilde(m, n, p) * _prefactor_Utilde_m(m, p) * _prefactor_Utilde_n(n, p)


# -- biorthogonality ---------------------------------------------------------


def weight_W(j: int, p: Params) -> Fraction:
    require_indices("weight_W", p.N, j)
    a, b, z, N = p.alpha, p.beta, p.zeta, p.N
    num = multi_pochhammer((Q(-N), 1 - a + b, N - 2 * a - b - 2 * z), j) * multi_pochhammer(
        (2 * a - b - N, a + b - N + 2 * z), N - j
    )
    den = pochhammer(Q(1), j) * multi_pochhammer((-a, -2 * b - 2 * z), N)
    return num / den


def weight_Wstar(j: int, p: Params) -> Fraction:
    require_indices("weight_Wstar", p.N, j)
    a, b, z, N = p.alpha, p.beta, p.zeta, p.N
    return (
        pochhammer(Q(-N), j)
        / pochhammer(Q(1), j)
        * (2 * j - 1 - 2 * b - 2 * z)
        / pochhammer(j - 1 - 2 * b - 2 * z, N + 1)
        * multi_pochhammer((1 - 2 * a + b, 1 - a - b - 2 * z), N)
        / pochhammer(-a, N)
    )


def norm_h(n: int, p: Params) -> Fraction:
    require_indices("norm_h", p.N, n)
    # The (-2b-2z)_{n-1} in the raw formula is rewritten as
    # (-2b-2z)_n / (n-1-2b-2z) so that n = 0 is regular and h_0 = 1.
    a, b, z, N = p.alpha, p.beta, p.zeta, p.N
    num = pochhammer(Q(1), n) * pochhammer(N - 2 * b - 2 * z, n) * (n - 1 - 2 * b - 2 * z)
    den = pochhammer(Q(-N), n) * (2 * n - 1 - 2 * b - 2 * z) * pochhammer(-2 * b - 2 * z, n)
    return num / den


def norm_hstar(n: int, p: Params) -> Fraction:
    require_indices("norm_hstar", p.N, n)
    a, b, z, N = p.alpha, p.beta, p.zeta, p.N
    num = multi_pochhammer((Q(1), 1 - 2 * a + b, 1 - a - b - 2 * z), n)
    den = multi_pochhammer((Q(-N), 1 - a + b, N - 2 * a - b - 2 * z), n)
    return num / den


# -- contiguity --------------------------------------------------------------


def shifted_params(p: Params) -> Params:
    """The contiguity shift (alpha, beta, zeta) -> (alpha-1, beta-2, zeta+2)."""
    return Params(N=p.N, alpha=p.alpha - 1, beta=p.beta - 2, zeta=p.zeta + 2)


def _contiguity_residual(p: Params, cU: RationalMatrix) -> RationalMatrix:
    """Residual of the contiguity relation under the parameter shift, cU the
    unshifted calU grid: the shifted calU table minus cU T^T, T lower
    bidiagonal in n.

    calU_m(n; alpha-1, beta-2, zeta+2)
      = (n-alpha)(n-alpha+beta)/(alpha(alpha-beta)) calU_m(n)
        + n(n-2alpha+beta)/(alpha(beta-alpha)) calU_m(n-1)

    A Context's set has alpha != 0 and alpha != beta (registry entries
    (0-alpha) and (0-alpha+beta)).
    """
    a, b, N = p.alpha, p.beta, p.N
    sp = shifted_params(p)
    shifted = calU_table(sp.alpha, sp.beta, sp.zeta, N, range(N + 1))
    T = RationalMatrix.banded(N + 1, {
        -1: [n * (n - 2 * a + b) / (a * (b - a)) for n in range(1, N + 1)],
        0: [(n - a) * (n - a + b) / (a * (a - b)) for n in range(N + 1)],
    })
    return shifted - cU * T.transpose()


def contiguity_operator_check(rep: VerificationReport, ctx: Context) -> None:
    """Add to rep the matrix identities behind the contiguity relation; the
    shifted set need not be generic, as only generator formulas are read
    there."""
    sp = shifted_params(ctx.p)
    X, Z, I = ctx.X, ctx.Z, ctx.I
    rep.add_grid("shift-X", "X - 2Z - I equals X at (alpha-1, beta-2, zeta+2)",
                 X - 2 * Z - I - build_X(sp))
    rep.add_grid("shift-Z", "Z + I equals Z at (alpha-1, beta-2, zeta+2)", Z + I - build_Z(sp))


# -- dual Hahn expansion ------------------------------------------------------


def dual_hahn(i: int, x: int, rho) -> Fraction:
    """R^(dH)_i(x; rho) = 3F2(-i, -x, x+r1+r2+1; r1+1, -N; 1), rho the triple
    (r1, r2, N) of dual_hahn_params, not the rho of X + rho Z."""
    require_indices("dual Hahn", rho[2], i, x)
    r1, r2, N = exact(rho[0]), exact(rho[1]), rho[2]
    return terminating_hyp(upper=(Q(-i), Q(-x), x + r1 + r2 + 1), lower=(r1 + 1, Q(-N)))


def dual_hahn_params(p: Params) -> tuple:
    """The dual Hahn parameters (r1, r2, N) of p, the rho that dual_hahn and
    dual_hahn_table take; not the rho of X + rho Z."""
    a, b, z, N = p.alpha, p.beta, p.zeta, p.N
    return (N - 2 * a - b - 2 * z - 1, 2 * a - b - N - 1, N)


def dual_hahn_table(rho) -> RationalMatrix:
    """dual_hahn(i, x, rho) at every i, x in 0..N as one series_table, rho the
    triple (r1, r2, N) of dual_hahn_params, not the rho of X + rho Z: the
    term at k is (-i)_k / ((r1+1)_k (-N)_k k!) times (-x)_k (x+r1+r2+1)_k."""
    require_indices("dual_hahn_table", rho[2])
    r1, r2, N = exact(rho[0]), exact(rho[1]), rho[2]
    return series_table([((-i,), (r1 + 1, -N)) for i in range(N + 1)],
                        [((-x, x + r1 + r2 + 1), ()) for x in range(N + 1)])


def em_zstar_closed(m: int, k: int, p: Params) -> Fraction:
    """Closed form for <e_m|z*_k>: the factor in m of the U prefactor over k!,
    times the dual Hahn value R^(dH)_k(m)."""
    require_indices("<e_m|z*_k>", p.N, m, k)
    return _prefactor_U_m(m, p) / pochhammer(Q(1), k) * dual_hahn(k, m, dual_hahn_params(p))


def zk_dstar_closed(k: int, n: int, p: Params) -> Fraction:
    """Closed form for <z_k|d*_n>; vanishes for k > n."""
    require_indices("<z_k|d*_n>", p.N, k, n)
    a, b, z, N = p.alpha, p.beta, p.zeta, p.N
    if k > n:
        return Q(0)
    return (
        pochhammer(-a, k)
        * pochhammer(2 * a - b - n, n - k)
        / (pochhammer(-a, n + 1) * pochhammer(Q(1), n - k))
    )


def em_zstar_table(ctx: Context) -> RationalMatrix:
    """em_zstar_closed at every (m, k), kept once per Context: the dual Hahn
    grid transposed, scaled by _prefactor_U_m, looked up at build, in m and
    by 1/k! in k."""
    def build():
        p, indices = ctx.p, range(ctx.p.N + 1)
        return ctx.grid("dualHahn").transpose().scaled(
            [_prefactor_U_m(m, p) for m in indices], [1 / pochhammer(Q(1), k) for k in indices])
    return ctx.keep(("closed overlap", "e", "zStar"), build)


def dual_hahn_residuals(ctx: Context) -> tuple:
    """The residuals of U = (e^T z*)(z^T d*), kept once per Context: e^T z*
    - em_zstar_table, z^T d* - its closed table T, and
    (R^T diag(1/k!)) T diag(1/g_n) - calU, R the dual Hahn grid and g the U
    prefactor's factor in n; T is 0 at k > n.  The scales are applied to
    the factor and to the product, not to T, whose integer form would carry
    the lcm of every row's k! over each column."""
    def build():
        p, indices = ctx.p, range(ctx.p.N + 1)
        e, zstar, zfam, dstar = (ctx.basis(label) for label in ("e", "zStar", "z", "dStar"))
        closed = RationalMatrix([[zk_dstar_closed(k, n, p) for n in indices] for k in indices])
        Rt = ctx.grid("dualHahn").transpose().scaled(None, [Q(1, factorial(k)) for k in indices])
        expansion = (Rt * closed).scaled(None, [1 / _prefactor_U_n(n, p) for n in indices])
        return (e.vectors.transpose() * zstar.vectors - em_zstar_table(ctx),
                zfam.vectors.transpose() * dstar.vectors - closed, expansion - ctx.grid("calU"))
    return ctx.keep(("residuals", "dual Hahn"), build)


def dual_hahn_expansion(ctx: Context, m: int, n: int) -> VerificationReport:
    """Expansion of calU_m(n) over dual Hahn values at (m, n), read off
    dual_hahn_residuals: entry (m, n), row m of e^T z* and column n of z^T d*."""
    p = ctx.p
    require_indices("dual Hahn expansion", p.N, m, n)
    rep = VerificationReport(suite="dual-hahn-expansion",
                             params={**p.as_dict(), "m": str(m), "n": str(n)})
    em, zk, expansion = dual_hahn_residuals(ctx)
    value = ctx.grid("calU")[m, n]
    rep.add(
        "expansion",
        "calU_m(n) = n!/(alpha-beta-n)_n sum_k (-alpha)_k (2alpha-beta-n)_{n-k}"
        " / ((n-k)! k!) R^(dH)_k(m)",
        not expansion[m, n],
        detail=f"expansion = {expansion[m, n] + value}, calU = {value}",
    )
    for check_id, statement, bad in (
        ("em-zstar", "<e_m|z*_k> matches the dual Hahn closed form for all k",
         [k for i, k in em.nonzeros() if i == m]),
        ("zk-dstar", "<z_k|d*_n> is triangular with Pochhammer-ratio entries",
         [k for k, j in zk.nonzeros() if j == n]),
    ):
        rep.add(check_id, statement, not bad, "" if not bad else f"failing k: {bad}")
    return rep


# -- Hahn-type limit -----------------------------------------------------------


def hahn_limit_check(m: int, n: int, aH, bH, p0: Params, tValues) -> VerificationReport:
    """Large-parameter degeneration towards a 3F2 of Hahn type.

    calU_m(n; t, t-a, (N-1-b+2a)/2 - t, N) approaches
    3F2(-m, -n, m+b-N; -N, a-n; 1) as t grows.  Each t is evaluated
    exactly; deviations must decrease along tValues and the last one
    must be below 1/1000 in absolute value.
    """
    require_indices("hahn_limit_check", p0.N, m, n)
    tValues = tuple(map(exact, tValues))
    if not tValues:
        raise PreconditionViolated("hahn_limit_check needs at least one value in tValues")
    aH, bH = map(exact, (aH, bH))
    N = p0.N
    rep = VerificationReport(
        suite="hahn-limit",
        params={"N": str(N), "a": str(aH), "b": str(bH), "m": str(m), "n": str(n)},
    )
    target = terminating_hyp(upper=(Q(-m), Q(-n), m + bH - N), lower=(Q(-N), aH - n))
    devs = []
    for t in tValues:
        val = calU_general(m, n, t, t - aH, Q(N - 1 - bH + 2 * aH, 2) - t, N)
        devs.append(abs(val - target))
    # non-strict so that exact agreement at finite t (e.g. m = n = 0) passes
    decreasing = all(devs[i + 1] <= devs[i] for i in range(len(devs) - 1))
    rep.add(
        "deviation-decreasing",
        "deviation from the 3F2 target is non-increasing along tValues",
        decreasing,
        detail=", ".join(f"t={t}: {float(d):.3e}" for t, d in zip(tValues, devs)),
    )
    rep.add(
        "final-deviation-small",
        "deviation at the largest t is below 1/1000",
        devs[-1] < Q(1, 1000),
        detail=f"|dev| = {float(devs[-1]):.3e}",
    )
    return rep


def verify_rational(ctx: Context) -> VerificationReport:
    """Full identification / biorthogonality / bispectrality suite.

    The calU and calU_tilde grids, the U and Utilde grids built on them
    and the dual Hahn grid are read from the Context and shared by every
    check; the dot-product sides are products of the bases (e^T d*,
    e*^T Z d, e^T z*, z^T d*).  Every check is one residual matrix, zero
    where the identity holds: every sum over an index, and every band
    residual, is an entry of one matrix product, and each diagonal factor
    is a scaling, not a product; gram-U-dual, the square converse of
    gram-U, reads gram-U's residual if zero.  Both biorthogonality relations are
    checked exactly, with the explicit weights.  The bispectral checks
    read the band tables X_e, Z_e of X and Z on e and (VtZt)_d*, (Zt)_d*
    of Vt Zt and Zt on d*, with lambda_n = alpha - n the d* eigenvalues
    and mu_m the e eigenvalues:

      * gevp-recurrence:  X_e^T U - (Z_e^T U) diag(lambda);
      * difference:       U (VtZt)_d* - diag(mu) U (Zt)_d*.

    The dual Hahn check fails at (m, n) exactly where
    dual_hahn_expansion(ctx, m, n) does; both read dual_hahn_residuals.
    """
    p = ctx.p
    N = p.N
    rep = VerificationReport(suite="rational", params=p.as_dict())

    e, estar, dstar = (ctx.basis(label) for label in ("e", "eStar", "dStar"))

    cU, cUt = ctx.grid("calU"), ctx.grid("calUtilde")
    U, Ut = ctx.grid("U"), ctx.grid("Utilde")
    rep.add_grid("identify-U", "<e_m|d*_n> = prefactor * calU_m(n) on the full grid",
                 e.vectors.transpose() * dstar.vectors - U)
    rep.add_grid("identify-Utilde", "<e*_m|Z|d_n> = prefactor * calU_tilde_m(n) on the full grid",
                 estar.vectors.transpose() * ctx.dual_side("dStar").transpose() - Ut)

    W = [weight_W(j, p) for j in range(N + 1)]
    Ws = [weight_Wstar(j, p) for j in range(N + 1)]
    h = [norm_h(n, p) for n in range(N + 1)]
    hs = [norm_hstar(n, p) for n in range(N + 1)]

    rep.add("h0-normalization", "h_0 = h*_0 = 1", h[0] == 1 and hs[0] == 1,
            detail=f"h_0 = {h[0]}, h*_0 = {hs[0]}")
    rep.add_grid("biorth-point", "sum_j W(j) calUt_m(j) calU_n(j) = h_n delta_nm",
                 cUt.scaled(None, W) * cU.transpose() - RationalMatrix.diagonal(h))
    rep.add_grid("biorth-degree", "sum_j W*(j) calUt_j(m) calU_j(n) = h*_n delta_nm",
                 cUt.transpose().scaled(None, Ws) * cU - RationalMatrix.diagonal(hs))
    # Ut and U are square, so a zero Ut U^T - I is the residual of Ut^T U - I too
    gram = Ut * U.transpose() - ctx.I
    ok = rep.add_grid("gram-U", "sum_n Ut_k(n) U_m(n) = delta_km", gram, axes="(k, m)")
    rep.add_grid("gram-U-dual", "sum_m Ut_m(k) U_m(n) = delta_kn",
                 gram if ok else Ut.transpose() * U - ctx.I, axes="(k, n)")

    # e^T X^T d* = X_e^T U, as X e = e X_e, and X^T d* = Z^T d* diag(lambda);
    # e^T Vt Zt d* = U (VtZt)_d*, and V e = e diag(mu)
    on_e, on_dstar = ctx.band_tables("e"), ctx.band_tables("dStar")
    for check_id, statement, residual in (
        ("gevp-recurrence", "GEVP recurrence", on_e["X"].transpose() * U
         - (on_e["Z"].transpose() * U).scaled(None, dstar.eigenvalues)),
        ("difference", "difference-equation", U * on_dstar["VtZt"]
         - (U * on_dstar["Zt"]).scaled(e.eigenvalues)),
        ("contiguity", "contiguity", _contiguity_residual(p, cU)),
    ):
        rep.add_grid(check_id, f"{statement} residual vanishes on the full grid", residual)

    contiguity_operator_check(rep, ctx)

    # the dual Hahn check fails at (m, n) where row m of em, column n of zk
    # or entry (m, n) of the expansion residual is nonzero: its residual is
    # the expansion residual on the rows and columns whose overlaps hold,
    # and 1 elsewhere
    em, zk, expansion = dual_hahn_residuals(ctx)
    bad_rows, bad_cols = {m for m, _ in em.nonzeros()}, {n for _, n in zk.nonzeros()}
    row_ok, col_ok = ([int(i not in bad) for i in range(N + 1)] for bad in (bad_rows, bad_cols))
    rep.add_grid("dual-hahn", "dual Hahn expansion and overlap closed forms on the full grid",
                 expansion.scaled(row_ok, col_ok)
                 + RationalMatrix([[1 - r * c for c in col_ok] for r in row_ok]))

    rep.checks.extend(
        hahn_limit_check(1, 1, Q(1, 3), Q(1, 5), p, (1000, 10000, 100000)).checks)
    return rep
