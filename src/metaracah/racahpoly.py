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

Both the series and the prefactors separate.  At summation index k the
4F3 term is a factor in the degree times a factor in the variable, so
``racah_table`` builds the whole R grid as one product of two term tables
(``hyper.series_table``); each prefactor is a factor in m times a factor
in n, evaluated once per index by the grids and once per point by the
single-value references ``racah``, ``closed_form_S`` and
``closed_form_Stilde``.  These, ``weight`` and ``norm`` refuse an index
outside 0..N (``errors.require_indices``) before any arithmetic.

Every function below works over Fraction and every identity is an exact
equality, checked as one residual matrix that must be zero: the
dot-product and closed-form routes for S and Stilde agree on the whole
grid, the weights/norms reproduce the Gram relation, and the three-term
recurrence and difference equations have residual exactly zero.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

from .algebra import Params
from .errors import Frozen, exact, read_rho, require_indices
from .hyper import multi_pochhammer, pochhammer, series_table, terminating_hyp
from .matrices import RationalMatrix
from .report import VerificationReport

if TYPE_CHECKING:
    from .eigenbases import Context

Q = Fraction


class RacahParams(Frozen):
    """The four parameters of the Racah polynomial family."""

    __slots__ = _fields = ("alpha_hat", "beta_hat", "gamma_hat", "N")

    def __init__(self, alpha_hat: Fraction, beta_hat: Fraction, gamma_hat: Fraction, N: int):
        hats = exact(alpha_hat), exact(beta_hat), exact(gamma_hat)
        require_indices("RacahParams", N)
        super().__init__(*hats, N)

    @classmethod
    def from_params(cls, p: Params, rho: Fraction) -> "RacahParams":
        rho = read_rho(rho, "the Racah parameters need rho")
        return cls(
            alpha_hat=-p.beta - rho - 1,
            beta_hat=-p.beta + rho - 2 * p.zeta - 1,
            gamma_hat=p.N - 2 * p.alpha - rho,
            N=p.N,
        )


def racah(i: int, x: int, rp: RacahParams) -> Fraction:
    """R_i(x) = 4F3(-i, i+a+b+1, -x, x+g-N; a+1, b+g+1, -N; 1)."""
    require_indices("racah", rp.N, i, x)
    a, b, g = rp.alpha_hat, rp.beta_hat, rp.gamma_hat
    return terminating_hyp(
        upper=(Q(-i), i + a + b + 1, Q(-x), x + g - rp.N),
        lower=(a + 1, b + g + 1, Q(-rp.N)),
    )


def racah_table(rp: RacahParams) -> RationalMatrix:
    """R_i(x) at every i, x in 0..N as one series_table: the term at k is
    (-i)_k (i+a+b+1)_k / ((a+1)_k (b+g+1)_k (-N)_k k!) times (-x)_k (x+g-N)_k."""
    a, b, g, N = rp.alpha_hat, rp.beta_hat, rp.gamma_hat, rp.N
    return series_table(
        [((-i, i + a + b + 1), (a + 1, b + g + 1, -N)) for i in range(N + 1)],
        [((-x, x + g - N), ()) for x in range(N + 1)],
    )


# Each prefactor is the product of its factor in m and its factor in n.


def _prefactor_S_m(m: int, rp: RacahParams) -> Fraction:
    a, b, g, N = rp.alpha_hat, rp.beta_hat, rp.gamma_hat, rp.N
    return multi_pochhammer((Q(-N), b + g + 1), m) / pochhammer(m + a + b + 1, m)


def _prefactor_S_n(n: int, rp: RacahParams) -> Fraction:
    a, g, N = rp.alpha_hat, rp.gamma_hat, rp.N
    return pochhammer(a + 1, n) / (pochhammer(Q(1), n) * pochhammer(n - N + g, n))


def _prefactor_Stilde_m(m: int, rp: RacahParams) -> Fraction:
    a, b, g, N = rp.alpha_hat, rp.beta_hat, rp.gamma_hat, rp.N
    num = multi_pochhammer((Q(-N), g - a - N, -b - N), N - m) * pochhammer(a + 1, m)
    return Q(-1) ** N * num / pochhammer(-N - m - a - b - 1, N - m)


def _prefactor_Stilde_n(n: int, rp: RacahParams) -> Fraction:
    a, b, g, N = rp.alpha_hat, rp.beta_hat, rp.gamma_hat, rp.N
    den = multi_pochhammer((Q(n - N), -g - n), N - n) * multi_pochhammer((g - a - N, -N - b), n)
    return pochhammer(-g - b - n, n) / den


def closed_form_S(m: int, n: int, rp: RacahParams) -> Fraction:
    """Prefactor times R_m(n) for S_m(n) = <f*_n|e_m>."""
    require_indices("closed_form_S", rp.N, m, n)
    return _prefactor_S_m(m, rp) * _prefactor_S_n(n, rp) * racah(m, n, rp)


def closed_form_Stilde(m: int, n: int, rp: RacahParams) -> Fraction:
    """Prefactor times R_m(n) for Stilde_m(n) = <f_n|e*_m>."""
    require_indices("closed_form_Stilde", rp.N, m, n)
    return _prefactor_Stilde_m(m, rp) * _prefactor_Stilde_n(n, rp) * racah(m, n, rp)


def weight(n: int, rp: RacahParams) -> Fraction:
    """Discrete orthogonality weight W_n of the Racah family."""
    require_indices("weight", rp.N, n)
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
    require_indices("norm", rp.N, m)
    a, b, g, N = rp.alpha_hat, rp.beta_hat, rp.gamma_hat, rp.N
    sign = Q(-1) ** N
    num = pochhammer(-N - m - a - b - 1, N - m) * pochhammer(m + a + b + 1, m)
    den = multi_pochhammer((Q(-N), g - a - N, -b - N), N - m) * multi_pochhammer(
        (a + 1, Q(-N), b + g + 1), m
    )
    return sign * num / den


def verify_racah(ctx: Context) -> VerificationReport:
    """Full identification + bispectrality suite on the (m, n) grid.

    Each table that depends only on (p, rho) is built once and read by
    every check: the R grid and the closed-form S and Stilde grids built
    on it (all three kept on the Context, none evaluated point by point),
    the bands of V on f and of X + rho Z on e, and the eigenvalue rows of
    the bases.  The dot-product sides are the products e^T f* and e*^T f
    of the bases, never these tables.  Every check is one residual
    matrix, zero where the identity holds; every sum over an index, and
    every band residual, is an entry of one matrix product, and each
    diagonal factor is a scaling, not a product:

      * identification:   e^T f* - S  and  e*^T f - Stilde;
      * recurrence in n:  diag(mu) S - S VF^T;
      * difference in m:  S diag(nu) - WE^T S;

    with mu and nu the eigenvalues of e and f, VF the band of V on f and
    WE that of X + rho Z on e.

    The orthogonality checks, all exact:
      * Stilde S^T - I, i.e. sum_n Stilde_k(n) S_m(n) = delta_km (closed
        forms on both slots);
      * R diag(W) R^T - diag(N_m), i.e. sum_n W_n R_k(n) R_m(n) =
        N_m delta_km with the explicit weight and norm;
      * N_m Stilde_m(n) S_m(n) = W_n R_m(n)^2 entrywise, with e*^T f and
        e^T f* for Stilde and S: the dot products, not the grids.

    Signs of W_n and N_m are recorded for information only; positivity
    needs parameter restrictions this library does not impose.
    """
    p, rho = ctx.p, ctx.rho
    N = p.N
    rep = VerificationReport(suite="racah", params={**p.as_dict(), "rho": str(rho)})

    # the grids refuse a Context without rho before RacahParams reads it
    R, S, St = ctx.grid("racah"), ctx.grid("S"), ctx.grid("Stilde")
    rp = RacahParams.from_params(p, rho)
    fstar, e, f, estar = (ctx.basis(label) for label in ("fStar", "e", "f", "eStar"))
    ef, eft = e.vectors.transpose() * fstar.vectors, estar.vectors.transpose() * f.vectors
    rep.add_grid("identify-S", "<f*_n|e_m> = prefactor * R_m(n) on the full grid", ef - S)
    rep.add_grid("identify-Stilde", "<f_n|e*_m> = prefactor * R_m(n) on the full grid",
                 eft - St)

    # the bands stop at the edges, so no neighbour outside 0..N enters
    vf = ctx.band_tables("f")["V"]
    rep.add_grid("recurrence", "recurrence residual vanishes on the full grid",
                 S.scaled(e.eigenvalues) - S * vf.transpose())
    on_e = ctx.band_tables("e")
    we = on_e["X"] + rho * on_e["Z"]
    rep.add_grid("difference", "difference residual vanishes on the full grid",
                 S.scaled(None, f.eigenvalues) - we.transpose() * S)

    W = [weight(n, rp) for n in range(N + 1)]
    Nm = [norm(m, rp) for m in range(N + 1)]
    rep.add_grid("gram-S", "sum_n Stilde_k(n) S_m(n) = delta_km",
                 St * S.transpose() - ctx.I, axes="(k, m)")
    rep.add_grid("weight-orthogonality", "sum_n W_n R_k(n) R_m(n) = N_m delta_km",
                 R.scaled(None, W) * R.transpose() - RationalMatrix.diagonal(Nm), axes="(k, m)")
    rep.add_grid("weight-norm-consistency", "N_m Stilde_m(n) S_m(n) = W_n R_m(n)^2",
                 eft.hadamard(ef).scaled(Nm) - R.hadamard(R).scaled(None, W))

    signs = "".join("+" if w > 0 else ("-" if w < 0 else "0") for w in W)
    rep.add("weight-signs", f"signs of W_0..W_{N}: {signs} (positivity not asserted)", True)
    signs = "".join("+" if v > 0 else ("-" if v < 0 else "0") for v in Nm)
    rep.add("norm-signs", f"signs of N_0..N_{N}: {signs} (positivity not asserted)", True)
    return rep
