"""Racah polynomials as overlaps between the V eigenbases and the
(X + rho Z) eigenbases.

The transition coefficients

    S_m(n) = <f*_n|e_m>        Stilde_m(n) = <f_n|e*_m>

factor as an explicit Pochhammer prefactor times a terminating 4F3,
i.e. a Racah polynomial R_m(n) evaluated on the integer grid.  The
hatted parameters feeding the 4F3 are

    alpha_hat = -beta - rho - 1
    beta_hat  = -beta + rho - 2 zeta - 1
    gamma_hat = N - 2 alpha - rho

Every function below works over Fraction and every identity is an exact
equality: the dot-product and closed-form routes for S and Stilde are
compared entry by entry, the weights/norms reproduce the Gram relation,
and the three-term recurrence and difference equations have residual
exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import Params
from .eigenbases import Context, FParams
from .errors import PreconditionViolated
from .hyper import multi_pochhammer, pochhammer, terminating_hyp
from .matrices import dot
from .matrixreps import TridiagonalCoeffs, coeffs_V_on_f, coeffs_X_on_e, coeffs_Z_on_e
from .report import VerificationReport, grid

Q = Fraction


@dataclass(frozen=True)
class RacahParams:
    """The four parameters of the Racah polynomial family."""

    alpha_hat: Fraction
    beta_hat: Fraction
    gamma_hat: Fraction
    N: int

    def __post_init__(self):
        object.__setattr__(self, "alpha_hat", Q(self.alpha_hat))
        object.__setattr__(self, "beta_hat", Q(self.beta_hat))
        object.__setattr__(self, "gamma_hat", Q(self.gamma_hat))
        if not (isinstance(self.N, int) and self.N >= 1):
            raise PreconditionViolated("N must be a positive integer")

    @classmethod
    def from_params(cls, p: Params, fp: FParams) -> "RacahParams":
        rho = fp.rho
        return cls(
            alpha_hat=-p.beta - rho - 1,
            beta_hat=-p.beta + rho - 2 * p.zeta - 1,
            gamma_hat=p.N - 2 * p.alpha - rho,
            N=p.N,
        )


def racah(i: int, x: int, rp: RacahParams) -> Fraction:
    """R_i(x) = 4F3(-i, i+a+b+1, -x, x+g-N; a+1, b+g+1, -N; 1)."""
    if not (0 <= i <= rp.N and 0 <= x <= rp.N):
        raise PreconditionViolated("racah indices must lie in 0..N")
    a, b, g = rp.alpha_hat, rp.beta_hat, rp.gamma_hat
    return terminating_hyp(
        upper=(Q(-i), i + a + b + 1, Q(-x), x + g - rp.N),
        lower=(a + 1, b + g + 1, Q(-rp.N)),
    )


def _prefactor_S(m: int, n: int, rp: RacahParams) -> Fraction:
    a, b, g, N = rp.alpha_hat, rp.beta_hat, rp.gamma_hat, rp.N
    return (
        pochhammer(a + 1, n)
        * multi_pochhammer((Q(-N), b + g + 1), m)
        / (
            pochhammer(Q(1), n)
            * pochhammer(n - N + g, n)
            * pochhammer(m + a + b + 1, m)
        )
    )


def _prefactor_Stilde(m: int, n: int, rp: RacahParams) -> Fraction:
    a, b, g, N = rp.alpha_hat, rp.beta_hat, rp.gamma_hat, rp.N
    sign = Q(-1) ** N
    num = (
        multi_pochhammer((Q(-N), g - a - N, -b - N), N - m)
        * pochhammer(a + 1, m)
        * pochhammer(-g - b - n, n)
    )
    den = (
        pochhammer(-N - m - a - b - 1, N - m)
        * multi_pochhammer((Q(n - N), -g - n), N - n)
        * multi_pochhammer((g - a - N, -N - b), n)
    )
    return sign * num / den


def closed_form_S(m: int, n: int, rp: RacahParams) -> Fraction:
    """Prefactor times R_m(n) for S_m(n) = <f*_n|e_m>."""
    return _prefactor_S(m, n, rp) * racah(m, n, rp)


def closed_form_Stilde(m: int, n: int, rp: RacahParams) -> Fraction:
    """Prefactor times R_m(n) for Stilde_m(n) = <f_n|e*_m>."""
    return _prefactor_Stilde(m, n, rp) * racah(m, n, rp)


def weight(n: int, rp: RacahParams) -> Fraction:
    """Discrete orthogonality weight W_n of the Racah family."""
    a, b, g, N = rp.alpha_hat, rp.beta_hat, rp.gamma_hat, rp.N
    num = multi_pochhammer((-b - g - n, a + 1), n)
    den = (
        pochhammer(Q(1), n)
        * multi_pochhammer((Q(n - N), -g - n), N - n)
        * multi_pochhammer((g - a - N, -N - b, n - N + g), n)
    )
    return num / den


def norm(m: int, rp: RacahParams) -> Fraction:
    """Diagonal Gram value N_m in sum_n W_n R_k(n) R_m(n) = N_m delta_km."""
    a, b, g, N = rp.alpha_hat, rp.beta_hat, rp.gamma_hat, rp.N
    sign = Q(-1) ** N
    num = pochhammer(-N - m - a - b - 1, N - m) * pochhammer(m + a + b + 1, m)
    den = multi_pochhammer((Q(-N), g - a - N, -b - N), N - m) * multi_pochhammer(
        (a + 1, Q(-N), b + g + 1), m
    )
    return sign * num / den


def _recurrence_residual(m: int, n: int, N: int, S, vf: TridiagonalCoeffs, mu_m) -> Fraction:
    """Residual of the three-term recurrence in n; S(i, j) is S_i(j).

    mu_m S_m(n) = VF_{n,n-1} S_m(n-1) + VF_{n,n} S_m(n) + VF_{n,n+1} S_m(n+1)

    where VF is the tridiagonal action of V on the f family and
    mu_m the V eigenvalue.  Out-of-range neighbours never contribute:
    VF_{0,-1} and VF_{N,N+1} do not exist because the band vectors
    stop at the edge.  Returns LHS - RHS, exactly zero when the
    identity holds.
    """
    rhs = vf.diag[n] * S(m, n)
    if n >= 1:
        rhs += vf.sup[n - 1] * S(m, n - 1)
    if n <= N - 1:
        rhs += vf.sub[n] * S(m, n + 1)
    return mu_m * S(m, n) - rhs


def _pencil_on_e(p: Params, rho: Fraction) -> TridiagonalCoeffs:
    """The band coefficients of X + rho Z on the e family."""
    xe, ze = coeffs_X_on_e(p), coeffs_Z_on_e(p)

    def combine(x, z):
        return tuple(xi + rho * zi for xi, zi in zip(x, z))

    return TridiagonalCoeffs(sup=combine(xe.sup, ze.sup), diag=combine(xe.diag, ze.diag),
                             sub=combine(xe.sub, ze.sub))


def _difference_residual(m: int, n: int, N: int, S, we: TridiagonalCoeffs, nu_n) -> Fraction:
    """Residual of the difference equation in m; S(i, j) is S_i(j).

    <f*_n|(X + rho Z)|e_m> evaluated two ways: through the f* eigenvalue
    nu_n on the left, and through the band we of X + rho Z on the e
    family, applied along m, on the right.  Returns the difference,
    exactly zero when the identity holds.
    """
    rhs = we.diag[m] * S(m, n)
    if m >= 1:
        # (X + rho Z)^{(e)}_{m-1,m} is the sub coefficient at index m-1.
        rhs += we.sub[m - 1] * S(m - 1, n)
    if m <= N - 1:
        rhs += we.sup[m] * S(m + 1, n)
    return nu_n * S(m, n) - rhs


def verify_racah(ctx: Context) -> VerificationReport:
    """Full identification + bispectrality suite on the (m, n) grid.

    Each table that depends only on (p, rho) is built once and read by
    every check: the R grid, the closed-form S and Stilde grids built on
    it, the bands of V on f and of X + rho Z on e, and the eigenvalue
    rows of the bases.  The dot-product sides come from the bases, never
    from these tables.

    The orthogonality checks, all exact:
      * sum_n Stilde_k(n) S_m(n) = delta_km  (closed forms on both slots);
      * sum_n W_n R_k(n) R_m(n) = N_m delta_km with the explicit weight
        and norm;
      * the weight/norm pair is consistent with the overlap Gram:
        N_m * Stilde_m(n) * S_m(n) = W_n * R_m(n)^2.

    Signs of W_n and N_m are recorded for information only; positivity
    needs parameter restrictions this library does not impose.
    """
    p, fp = ctx.p, ctx.fp
    rp = RacahParams.from_params(p, fp)
    N = p.N
    rep = VerificationReport(suite="racah", params={**p.as_dict(), "rho": str(fp.rho)})

    R = grid(N, lambda m, n: racah(m, n, rp))
    S = grid(N, lambda m, n: _prefactor_S(m, n, rp) * R[m][n])
    St = grid(N, lambda m, n: _prefactor_Stilde(m, n, rp) * R[m][n])
    fstar, e = ctx.basis("fStar"), ctx.basis("e")
    rep.add_grid(
        "identify-S",
        "<f*_n|e_m> = prefactor * R_m(n) on the full grid",
        N,
        lambda m, n: dot(fstar.column(n), e.column(m)) == S[m][n],
    )
    f, estar = ctx.basis("f"), ctx.basis("eStar")
    rep.add_grid(
        "identify-Stilde",
        "<f_n|e*_m> = prefactor * R_m(n) on the full grid",
        N,
        lambda m, n: dot(f.column(n), estar.column(m)) == St[m][n],
    )

    def s_at(i, j):
        return S[i][j]

    vf = coeffs_V_on_f(p, fp)
    rep.add_grid("recurrence", "recurrence residual vanishes on the full grid", N,
                 lambda m, n: _recurrence_residual(m, n, N, s_at, vf, e.eigenvalues[m]) == 0)
    we = _pencil_on_e(p, fp.rho)
    rep.add_grid("difference", "difference residual vanishes on the full grid", N,
                 lambda m, n: _difference_residual(m, n, N, s_at, we, f.eigenvalues[n]) == 0)

    W = [weight(n, rp) for n in range(N + 1)]
    Nm = [norm(m, rp) for m in range(N + 1)]

    rep.add_grid(
        "gram-S",
        "sum_n Stilde_k(n) S_m(n) = delta_km",
        N,
        lambda k, m: sum(St[k][n] * S[m][n] for n in range(N + 1)) == (1 if k == m else 0),
        axes="(k, m)",
    )
    rep.add_grid(
        "weight-orthogonality",
        "sum_n W_n R_k(n) R_m(n) = N_m delta_km",
        N,
        lambda k, m: sum(W[n] * R[k][n] * R[m][n] for n in range(N + 1))
        == (Nm[m] if k == m else 0),
        axes="(k, m)",
    )
    rep.add_grid(
        "weight-norm-consistency",
        "N_m Stilde_m(n) S_m(n) = W_n R_m(n)^2",
        N,
        lambda m, n: Nm[m] * St[m][n] * S[m][n] == W[n] * R[m][n] ** 2,
    )

    signs = "".join("+" if w > 0 else ("-" if w < 0 else "0") for w in W)
    rep.add_info("weight-signs", f"signs of W_0..W_{N}: {signs} (positivity not asserted)")
    signs = "".join("+" if v > 0 else ("-" if v < 0 else "0") for v in Nm)
    rep.add_info("norm-signs", f"signs of N_0..N_{N}: {signs} (positivity not asserted)")
    return rep
