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

Verified here, all in exact arithmetic: the dot-product/closed-form
identification, two biorthogonality relations with explicit weights
normalized so h_0 = h*_0 = 1, a generalized-eigenvalue three-term
recurrence, a difference equation, a contiguity relation under the
parameter shift (alpha-1, beta-2, zeta+2) together with its
operator-level counterpart, a dual Hahn expansion, and the Hahn-type
limit at large finite parameter values.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import Params, build_X, build_Z
from .eigenbases import Context
from .errors import DegenerateParameters
from .hyper import multi_pochhammer, pochhammer, terminating_hyp
from .matrices import dot
from .report import VerificationReport, grid

Q = Fraction


def calU_general(m: int, n: int, a, b, c, N: int) -> Fraction:
    """The bare 4F3 at argument 1 for arbitrary rational (a, b, c)."""
    a, b, c = Q(a), Q(b), Q(c)
    return terminating_hyp(
        upper=(Q(-m), Q(-n), -a, m - 2 * b - 2 * c - 1),
        lower=(Q(-N), a - b - n, N - 2 * a - b - 2 * c),
    )


def calU(m: int, n: int, p: Params) -> Fraction:
    return calU_general(m, n, p.alpha, p.beta, p.zeta, p.N)


def calU_tilde(m: int, n: int, p: Params) -> Fraction:
    N = p.N
    return calU_general(m, N - n, N - p.alpha - 1, p.beta + 2 * p.zeta - 2, 2 - p.zeta, N)


def _prefactor_U(m: int, n: int, p: Params) -> Fraction:
    a, b, z, N = p.alpha, p.beta, p.zeta, p.N
    return (
        pochhammer(a - b - n, n)
        * multi_pochhammer((Q(-N), N - 2 * a - b - 2 * z), m)
        / (
            pochhammer(Q(1), n)
            * pochhammer(-a, n + 1)
            * pochhammer(m - 2 * b - 2 * z - 1, m)
        )
    )


def _prefactor_Utilde(m: int, n: int, p: Params) -> Fraction:
    a, b, z, N = p.alpha, p.beta, p.zeta, p.N
    num = (
        (n - a)
        * multi_pochhammer((-N + a + b + 2 * z, -N + 2 * a - b), N - n)
        * multi_pochhammer((Q(m + 1), -2 * N + 2 * a + b + 2 * z + 1), N - m)
    )
    den = multi_pochhammer(
        (Q(n - N), n - a, -2 * N + 2 * a + b + 2 * z + 1), N - n
    ) * pochhammer(-N - m + 2 * b + 2 * z + 1, N - m)
    return num / den


def closed_form_U(m: int, n: int, p: Params) -> Fraction:
    """Prefactor times calU_m(n) for U_m(n) = <e_m|d*_n>."""
    return _prefactor_U(m, n, p) * calU(m, n, p)


def closed_form_Utilde(m: int, n: int, p: Params) -> Fraction:
    """Prefactor times calU_tilde_m(n) for Utilde_m(n) = <e*_m|Z|d_n>."""
    return _prefactor_Utilde(m, n, p) * calU_tilde(m, n, p)


# -- biorthogonality ---------------------------------------------------------


def weight_W(j: int, p: Params) -> Fraction:
    a, b, z, N = p.alpha, p.beta, p.zeta, p.N
    num = multi_pochhammer((Q(-N), 1 - a + b, N - 2 * a - b - 2 * z), j) * multi_pochhammer(
        (2 * a - b - N, a + b - N + 2 * z), N - j
    )
    den = pochhammer(Q(1), j) * multi_pochhammer((-a, -2 * b - 2 * z), N)
    return num / den


def weight_Wstar(j: int, p: Params) -> Fraction:
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
    # The (-2b-2z)_{n-1} in the raw formula is rewritten as
    # (-2b-2z)_n / (n-1-2b-2z) so that n = 0 is regular and h_0 = 1.
    a, b, z, N = p.alpha, p.beta, p.zeta, p.N
    num = pochhammer(Q(1), n) * pochhammer(N - 2 * b - 2 * z, n) * (n - 1 - 2 * b - 2 * z)
    den = pochhammer(Q(-N), n) * (2 * n - 1 - 2 * b - 2 * z) * pochhammer(-2 * b - 2 * z, n)
    return num / den


def norm_hstar(n: int, p: Params) -> Fraction:
    a, b, z, N = p.alpha, p.beta, p.zeta, p.N
    num = multi_pochhammer((Q(1), 1 - 2 * a + b, 1 - a - b - 2 * z), n)
    den = multi_pochhammer((Q(-N), 1 - a + b, N - 2 * a - b - 2 * z), n)
    return num / den


# -- bispectrality -----------------------------------------------------------


def _boundary_vanishes(coeff: Fraction, edge: str) -> None:
    """An out-of-range neighbour is dropped only because its coefficient is zero."""
    if coeff != 0:
        raise ArithmeticError(f"boundary coefficient at {edge} must vanish")


def recurrence_A(m: int, p: Params) -> Fraction:
    a, b, z, N = p.alpha, p.beta, p.zeta, p.N
    num = (m - N) * (m + N - 2 * a - b - 2 * z) * (m - 2 * b - 2 * z - 1)
    den = (2 * m - 2 * b - 2 * z - 1) * (2 * m - 2 * b - 2 * z)
    return num / den


def recurrence_C(m: int, p: Params) -> Fraction:
    a, b, z, N = p.alpha, p.beta, p.zeta, p.N
    num = m * (m + 2 * a - b - N - 1) * (m - 2 * b - 2 * z + N - 1)
    den = (2 * m - 2 * b - 2 * z - 2) * (2 * m - 2 * b - 2 * z - 1)
    return -(num / den)


def _gevp_residual(m: int, n: int, p: Params, cU) -> Fraction:
    """Residual of the generalized-eigenvalue recurrence in m; calU_i(j) is cU(i, j).

    n (A_m calU_{m+1} - (A_m + C_m + alpha) calU_m + C_m calU_{m-1})
      = (m+alpha-beta) A_m calU_{m+1}
        - ((m+alpha-beta) A_m - (m-alpha-beta-2zeta-1) C_m) calU_m
        - (m-alpha-beta-2zeta-1) C_m calU_{m-1}

    Out-of-range neighbours carry a vanishing coefficient (A_N and C_0
    both contain an explicit zero factor); this is checked instead of
    evaluating calU outside 0..N.
    """
    a, b, z, N = p.alpha, p.beta, p.zeta, p.N
    A = recurrence_A(m, p)
    C = recurrence_C(m, p)
    c_up = (n - (m + a - b)) * A
    c_mid = -n * (A + C + a) + (m + a - b) * A - (m - a - b - 2 * z - 1) * C
    c_dn = (n + m - a - b - 2 * z - 1) * C

    res = c_mid * cU(m, n)
    if m + 1 <= N:
        res += c_up * cU(m + 1, n)
    else:
        _boundary_vanishes(c_up, "m = N")
    if m - 1 >= 0:
        res += c_dn * cU(m - 1, n)
    else:
        _boundary_vanishes(c_dn, "m = 0")
    return res


def difference_B(n: int, p: Params) -> Fraction:
    a, b, z, N = p.alpha, p.beta, p.zeta, p.N
    return (n - N) * (n + N - 2 * a - b - 2 * z) * (n - a + b + 1)


def difference_D(n: int, p: Params) -> Fraction:
    a, b, z, N = p.alpha, p.beta, p.zeta, p.N
    return n * (n - 2 * a + b) * (n - a - b - 2 * z - 1)


def _difference_residual(m: int, n: int, p: Params, cU) -> Fraction:
    """Residual of the difference equation in n; calU_i(j) is cU(i, j).

    B_n calU_m(n+1) - (B_n + D_n) calU_m(n) + D_n calU_m(n-1)
      = m (2beta+2zeta+1-m) ((n-alpha) calU_m(n)
          - n (n-2alpha+beta)/(n-alpha+beta) calU_m(n-1))
    """
    a, b, z, N = p.alpha, p.beta, p.zeta, p.N
    B = difference_B(n, p)
    D = difference_D(n, p)
    if n - a + b == 0:
        raise DegenerateParameters([f"(n - alpha + beta) = 0 at n = {n}"])
    fac = m * (2 * b + 2 * z + 1 - m)
    c_up = B
    c_mid = -(B + D) - fac * (n - a)
    c_dn = D + fac * n * (n - 2 * a + b) / (n - a + b)

    res = c_mid * cU(m, n)
    if n + 1 <= N:
        res += c_up * cU(m, n + 1)
    else:
        _boundary_vanishes(c_up, "n = N")
    if n - 1 >= 0:
        res += c_dn * cU(m, n - 1)
    else:
        _boundary_vanishes(c_dn, "n = 0")
    return res


# -- contiguity --------------------------------------------------------------


def shifted_params(p: Params) -> Params:
    """The contiguity shift (alpha, beta, zeta) -> (alpha-1, beta-2, zeta+2)."""
    return Params(N=p.N, alpha=p.alpha - 1, beta=p.beta - 2, zeta=p.zeta + 2)


def _contiguity_residual(m: int, n: int, p: Params, cU) -> Fraction:
    """Residual of the contiguity relation under the parameter shift; the
    unshifted calU_i(j) is cU(i, j).

    calU_m(n; alpha-1, beta-2, zeta+2)
      = (n-alpha)(n-alpha+beta)/(alpha(alpha-beta)) calU_m(n)
        + n(n-2alpha+beta)/(alpha(beta-alpha)) calU_m(n-1)
    """
    a, b, z, N = p.alpha, p.beta, p.zeta, p.N
    offenders = []
    if a == 0:
        offenders.append("alpha = 0")
    if a == b:
        offenders.append("alpha = beta")
    if offenders:
        raise DegenerateParameters(offenders)
    sp = shifted_params(p)
    lhs = calU_general(m, n, sp.alpha, sp.beta, sp.zeta, N)
    c0 = (n - a) * (n - a + b) / (a * (a - b))
    c1 = n * (n - 2 * a + b) / (a * (b - a))
    res = lhs - c0 * cU(m, n)
    if n - 1 >= 0:
        res -= c1 * cU(m, n - 1)
    else:
        _boundary_vanishes(c1, "n = 0")
    return res


def contiguity_operator_check(ctx: Context) -> VerificationReport:
    """The matrix identities behind the contiguity relation; the shifted
    set need not be generic, as only generator formulas are read there."""
    rep = VerificationReport(suite="rational-contiguity-operators", params=ctx.p.as_dict())
    sp = shifted_params(ctx.p)
    X, Z, I = ctx.X, ctx.Z, ctx.I
    rep.add_matrix_zero(
        "shift-X",
        "X - 2Z - I equals X at (alpha-1, beta-2, zeta+2)",
        X - 2 * Z - I - build_X(sp),
    )
    rep.add_matrix_zero(
        "shift-Z",
        "Z + I equals Z at (alpha-1, beta-2, zeta+2)",
        Z + I - build_Z(sp),
    )
    return rep


# -- dual Hahn expansion ------------------------------------------------------


def dual_hahn(i: int, x: int, rho) -> Fraction:
    """R^(dH)_i(x; rho) = 3F2(-i, -x, x+r1+r2+1; r1+1, -N; 1)."""
    r1, r2, N = Q(rho[0]), Q(rho[1]), rho[2]
    return terminating_hyp(upper=(Q(-i), Q(-x), x + r1 + r2 + 1), lower=(r1 + 1, Q(-N)))


def dual_hahn_params(p: Params) -> tuple:
    a, b, z, N = p.alpha, p.beta, p.zeta, p.N
    return (N - 2 * a - b - 2 * z - 1, 2 * a - b - N - 1, N)


def em_zstar_closed(m: int, k: int, p: Params) -> Fraction:
    """Closed form for <e_m|z*_k>: a dual Hahn value times a prefactor."""
    a, b, z, N = p.alpha, p.beta, p.zeta, p.N
    pre = multi_pochhammer((Q(-N), N - 2 * a - b - 2 * z), m) / (
        pochhammer(Q(1), k) * pochhammer(m - 2 * b - 2 * z - 1, m)
    )
    return pre * dual_hahn(k, m, dual_hahn_params(p))


def zk_dstar_closed(k: int, n: int, p: Params) -> Fraction:
    """Closed form for <z_k|d*_n>; vanishes for k > n."""
    a, b, z, N = p.alpha, p.beta, p.zeta, p.N
    if k > n:
        return Q(0)
    return (
        pochhammer(-a, k)
        * pochhammer(2 * a - b - n, n - k)
        / (pochhammer(-a, n + 1) * pochhammer(Q(1), n - k))
    )


def _dual_hahn_sum(m: int, n: int, p: Params, R) -> Fraction:
    """n!/(alpha-beta-n)_n sum_k (-alpha)_k (2alpha-beta-n)_{n-k} / ((n-k)! k!) R(k, m),
    with R(k, x) the dual Hahn value R^(dH)_k(x)."""
    a, b = p.alpha, p.beta
    total = sum(
        pochhammer(-a, k)
        * pochhammer(2 * a - b - n, n - k)
        / (pochhammer(Q(1), n - k) * pochhammer(Q(1), k))
        * R(k, m)
        for k in range(n + 1)
    )
    return pochhammer(Q(1), n) / pochhammer(a - b - n, n) * total


def _em_zstar_failures(m: int, p: Params, e, zstar) -> list:
    """The k at which <e_m|z*_k> differs from em_zstar_closed."""
    return [k for k in range(p.N + 1)
            if dot(e.column(m), zstar.column(k)) != em_zstar_closed(m, k, p)]


def _zk_dstar_failures(n: int, p: Params, zfam, dstar) -> list:
    """The k at which <z_k|d*_n> differs from zk_dstar_closed."""
    return [k for k in range(p.N + 1)
            if dot(zfam.column(k), dstar.column(n)) != zk_dstar_closed(k, n, p)]


def dual_hahn_expansion(ctx: Context, m: int, n: int) -> VerificationReport:
    """Expansion of calU_m(n) over dual Hahn values, verified exactly."""
    p = ctx.p
    rho = dual_hahn_params(p)
    rep = VerificationReport(suite="dual-hahn-expansion",
                             params={**p.as_dict(), "m": str(m), "n": str(n)})

    expansion = _dual_hahn_sum(m, n, p, lambda k, x: dual_hahn(k, x, rho))
    value = calU(m, n, p)
    rep.add(
        "expansion",
        "calU_m(n) = n!/(alpha-beta-n)_n sum_k (-alpha)_k (2alpha-beta-n)_{n-k}"
        " / ((n-k)! k!) R^(dH)_k(m)",
        expansion == value,
        detail=f"expansion = {expansion}, calU = {value}",
    )

    e, zstar, zfam, dstar = (ctx.basis(label) for label in ("e", "zStar", "z", "dStar"))
    bad = _em_zstar_failures(m, p, e, zstar)
    rep.add(
        "em-zstar",
        "<e_m|z*_k> matches the dual Hahn closed form for all k",
        not bad,
        detail="" if not bad else f"failing k: {bad}",
    )
    bad = _zk_dstar_failures(n, p, zfam, dstar)
    rep.add(
        "zk-dstar",
        "<z_k|d*_n> is triangular with Pochhammer-ratio entries",
        not bad,
        detail="" if not bad else f"failing k: {bad}",
    )
    return rep


def _dual_hahn_first_failure(ctx: Context, cU):
    """The first (m, n), row by row, where dual_hahn_expansion would fail, or None.

    The dual Hahn table is built once, the em-zstar check runs once per m
    and the zk-dstar check once per n.
    """
    p = ctx.p
    N = p.N
    rho = dual_hahn_params(p)
    R = grid(N, lambda k, x: dual_hahn(k, x, rho))
    e, zstar, zfam, dstar = (ctx.basis(label) for label in ("e", "zStar", "z", "dStar"))
    em_ok = [not _em_zstar_failures(m, p, e, zstar) for m in range(N + 1)]
    zk_ok = [not _zk_dstar_failures(n, p, zfam, dstar) for n in range(N + 1)]
    return next(
        ((m, n) for m in range(N + 1) for n in range(N + 1)
         if not (em_ok[m] and zk_ok[n]
                 and _dual_hahn_sum(m, n, p, lambda k, x: R[k][x]) == cU[m][n])),
        None,
    )


# -- Hahn-type limit -----------------------------------------------------------


def hahn_limit_check(m: int, n: int, aH, bH, p0: Params, tValues) -> VerificationReport:
    """Large-parameter degeneration towards a 3F2 of Hahn type.

    calU_m(n; t, t-a, (N-1-b+2a)/2 - t, N) approaches
    3F2(-m, -n, m+b-N; -N, a-n; 1) as t grows.  Each t is evaluated
    exactly; deviations must decrease along tValues and the last one
    must be below 1/1000 in absolute value.
    """
    aH, bH = Q(aH), Q(bH)
    N = p0.N
    rep = VerificationReport(
        suite="hahn-limit",
        params={"N": str(N), "a": str(aH), "b": str(bH), "m": str(m), "n": str(n)},
    )
    target = terminating_hyp(upper=(Q(-m), Q(-n), m + bH - N), lower=(Q(-N), aH - n))
    devs = []
    for t in tValues:
        t = Q(t)
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

    The calU and calU_tilde grids, and the U and Utilde grids built on
    them, are evaluated once and shared by every check; the dot-product
    sides come from the bases.  Both biorthogonality relations are
    checked exactly, with the explicit weights.
    """
    p = ctx.p
    N = p.N
    rep = VerificationReport(suite="rational", params=p.as_dict())

    e, estar, d, dstar = (ctx.basis(label) for label in ("e", "eStar", "d", "dStar"))
    ZD = ctx.Z * d.vectors

    cU = grid(N, lambda m, n: calU(m, n, p))
    cUt = grid(N, lambda m, n: calU_tilde(m, n, p))
    U = grid(N, lambda m, n: _prefactor_U(m, n, p) * cU[m][n])
    Ut = grid(N, lambda m, n: _prefactor_Utilde(m, n, p) * cUt[m][n])
    rep.add_grid(
        "identify-U",
        "<e_m|d*_n> = prefactor * calU_m(n) on the full grid",
        N,
        lambda m, n: dot(e.column(m), dstar.column(n)) == U[m][n],
    )
    rep.add_grid(
        "identify-Utilde",
        "<e*_m|Z|d_n> = prefactor * calU_tilde_m(n) on the full grid",
        N,
        lambda m, n: dot(estar.column(m), ZD.column(n)) == Ut[m][n],
    )

    W = [weight_W(j, p) for j in range(N + 1)]
    Ws = [weight_Wstar(j, p) for j in range(N + 1)]
    h = [norm_h(n, p) for n in range(N + 1)]
    hs = [norm_hstar(n, p) for n in range(N + 1)]

    rep.add("h0-normalization", "h_0 = h*_0 = 1", h[0] == 1 and hs[0] == 1,
            detail=f"h_0 = {h[0]}, h*_0 = {hs[0]}")
    rep.add_grid(
        "biorth-point",
        "sum_j W(j) calUt_m(j) calU_n(j) = h_n delta_nm",
        N,
        lambda m, n: sum(W[j] * cUt[m][j] * cU[n][j] for j in range(N + 1))
        == (h[n] if n == m else 0),
    )
    rep.add_grid(
        "biorth-degree",
        "sum_j W*(j) calUt_j(m) calU_j(n) = h*_n delta_nm",
        N,
        lambda m, n: sum(Ws[j] * cUt[j][m] * cU[j][n] for j in range(N + 1))
        == (hs[n] if n == m else 0),
    )
    rep.add_grid(
        "gram-U",
        "sum_n Ut_k(n) U_m(n) = delta_km",
        N,
        lambda k, m: sum(Ut[k][n] * U[m][n] for n in range(N + 1)) == (1 if k == m else 0),
        axes="(k, m)",
    )
    rep.add_grid(
        "gram-U-dual",
        "sum_m Ut_m(k) U_m(n) = delta_kn",
        N,
        lambda k, n: sum(Ut[m][k] * U[m][n] for m in range(N + 1)) == (1 if k == n else 0),
        axes="(k, n)",
    )

    def cu_at(i, j):
        return cU[i][j]

    for check_id, statement, residual in (
        ("gevp-recurrence", "GEVP recurrence", _gevp_residual),
        ("difference", "difference-equation", _difference_residual),
        ("contiguity", "contiguity", _contiguity_residual),
    ):
        rep.add_grid(check_id, f"{statement} residual vanishes on the full grid", N,
                     lambda m, n: residual(m, n, p, cu_at) == 0)

    rep.checks.extend(contiguity_operator_check(ctx).checks)

    first_bad = _dual_hahn_first_failure(ctx, cU)
    rep.add("dual-hahn", "dual Hahn expansion and overlap closed forms on the full grid",
            first_bad is None,
            detail="" if first_bad is None else f"first failure at (m, n) = {first_bad}")

    rep.checks.extend(
        hahn_limit_check(1, 1, Q(1, 3), Q(1, 5), p, (1000, 10000, 100000)).checks)
    return rep
