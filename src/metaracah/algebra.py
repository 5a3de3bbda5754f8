"""The three-generator algebra in its bidiagonal standard-basis realization.

Generators X, V, Z act on basis vectors |0>, ..., |N> by

    Z|n> = (n - alpha)|n> + |n+1>
    V|n> = (n - beta - zeta - 1)(beta + zeta - n)|n>
           + n(N + 1 - n)(n - 1 - 2 alpha - beta - 2 zeta + N)|n-1>
    X|n> = -(n - alpha)^2 |n> - (n - beta)|n+1>

with |N+1> and |-1> understood as zero.  The defining relations are

    [Z, X] = Z^2 + X
    [X, V] = {V, Z} + 2 zeta X + 2 zeta^2 Z + xi I
    [V, Z] = V + 2 X + 2 zeta Z + eta I

where the two central parameters attached to this realization are

    xi  = (beta + 1)(beta + 2 zeta - N)(N - 2 alpha) + 2 alpha zeta (alpha + 1)
    eta = (N - zeta)(N - 2 alpha - beta - zeta)
          + (beta + zeta)(beta + 1) + 2 alpha^2.

(xi is the unique scalar closing the [X, V] relation for this action; it can
be cross-derived from the zeta-free presentation, where the shifted
generators have xi_b = (beta_b + 1)(beta_b - N)(N - 2 alpha_b) and
xi = xi_b + eta zeta with alpha_b = alpha + zeta/2, beta_b = beta + zeta.)
The builders check nothing; the checks read the generators of a Context.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import DegenerateParameters, Frozen, exact, read_rho, require_indices
from .matrices import RationalMatrix, anticommutator, brackets, commutator
from .report import VerificationReport

if TYPE_CHECKING:
    from .eigenbases import Context

Q = Fraction


class Params(Frozen):
    """Representation parameters: truncation order N plus alpha, beta, zeta."""

    __slots__ = _fields = ("N", "alpha", "beta", "zeta")

    def __init__(self, N: int, alpha: Fraction, beta: Fraction, zeta: Fraction):
        require_indices("Params", N)
        super().__init__(N, exact(alpha), exact(beta), exact(zeta))

    def as_dict(self):
        return {"N": str(self.N), "alpha": str(self.alpha), "beta": str(self.beta),
                "zeta": str(self.zeta)}


def central_params(p: Params) -> tuple:
    """The pair (xi, eta) attached to the bidiagonal realization."""
    a, b, z, N = p.alpha, p.beta, p.zeta, p.N
    xi = (b + 1) * (b + 2 * z - N) * (N - 2 * a) + 2 * a * z * (a + 1)
    eta = (N - z) * (N - 2 * a - b - z) + (b + z) * (b + 1) + 2 * a * a
    return xi, eta


def genericity_registry(p: Params, rho=None):
    """Denominator expressions that must stay nonzero, as (label, vanishes) pairs.

    The list is the union, over basis indices 0 <= n <= N, of every
    denominator appearing in the closed-form bases, tridiagonal
    coefficients, overlap prefactors, weights and norms used downstream.
    Expressions involving rho are included only when rho is given.

    Each entry is passed the value of the expression its label names: (x)
    vanishes when x is 0, and (x)_k when x is an integer in [1-k, 0].  The
    combinations alpha-beta, 2beta+2zeta, 2alpha+beta+2zeta,
    alpha+beta+2zeta and beta-2alpha, and given rho 2alpha+rho, beta+rho
    and beta-rho+2zeta, are formed once (with their shift where it does not
    depend on n), so each value costs at most one addition.
    alpha+beta+2zeta and beta-2alpha enter through calU-tilde's lower
    parameters n-alpha-beta-2zeta+1 and 2alpha-beta-N; beta-2alpha and
    beta-rho+2zeta are also the Racah-hat g-a-N and -N-b of the Stilde
    prefactor, weight and norm.
    """
    N, a, b, z = p.N, p.alpha, p.beta, p.zeta
    a_b, bz2, ab2z = a - b, 2 * b + 2 * z, a + b + 2 * z
    neg_a, abz, b_a2 = -a, 2 * a + b + 2 * z - 2 * N + 1, b - 2 * a + 1
    items = []

    def poch(label, x, k):
        items.append((label, x.denominator == 1 and 1 - k <= x <= 0))

    def linear(label, x):
        items.append((label, x == 0))

    r = read_rho(rho)
    if r is not None:
        ar2, neg_br, br = 2 * a + r, -b - r, b + r - N + 1
        brz = b - r + 2 * z - N + 1
    for n in range(N + 1):
        poch(f"(-alpha)_({n}+1)", neg_a, n + 1)
        poch(f"(alpha-beta-{n})_{n}", a_b - n, n)
        poch(f"({n}-N-alpha+beta+1)_(N-{n})", n - N + 1 - a_b, N - n)
        for k in range(-3, 4):
            linear(f"(2*{n}-2beta-2zeta-({k}))", 2 * n - k - bz2)
        linear(f"({n}-alpha)", n - a)
        linear(f"({n}-alpha+beta)", n - a_b)
        poch(f"({n}-2beta-2zeta-1)_{n}", n - 1 - bz2, n)
        poch(f"(2beta+2zeta-N-{n}+1)_(N-{n})", bz2 + (1 - N - n), N - n)
        poch(f"(2alpha+beta+2zeta-2N+1)_(N-{n})", abz, N - n)
        poch(f"({n}-alpha-beta-2zeta+1)_(N-{n})", n + 1 - ab2z, N - n)
        poch(f"({n}-1-2beta-2zeta)_(N+1)", n - 1 - bz2, N + 1)
        if r is not None:
            for k in range(-1, 3):
                linear(f"(2*{n}-2alpha-rho+({k}))", 2 * n + k - ar2)
            poch(f"({n}-2alpha-rho)_{n}", n - ar2, n)
            poch(f"(-beta-rho)_{n}", neg_br, n)
            poch(f"(beta+rho-N+1)_(N-{n})", br, N - n)
        poch(f"(beta-2alpha+1)_{n}", b_a2, n)
        if r is not None:
            poch(f"(beta-rho+2zeta-N+1)_{n}", brz, n)
    return items


def validate_params(p: Params, rho=None) -> list[str]:
    """Empty list when the parameters are generic, else the vanishing labels."""
    return [label for label, vanishes in genericity_registry(p, rho) if vanishes]


def require_generic(p: Params, rho=None) -> None:
    offenders = validate_params(p, rho)
    if offenders:
        raise DegenerateParameters(offenders)


# -- generator matrices -------------------------------------------------------


def build_Z(p: Params) -> RationalMatrix:
    N, a = p.N, p.alpha
    return RationalMatrix.banded(N + 1, {0: [n - a for n in range(N + 1)], -1: [1] * N})


def build_V(p: Params) -> RationalMatrix:
    N, a, b, z = p.N, p.alpha, p.beta, p.zeta
    return RationalMatrix.banded(N + 1, {
        0: [(n - b - z - 1) * (b + z - n) for n in range(N + 1)],
        1: [n * (N + 1 - n) * (n - 1 - 2 * a - b - 2 * z + N) for n in range(1, N + 1)],
    })


def build_X(p: Params) -> RationalMatrix:
    N, a, b = p.N, p.alpha, p.beta
    return RationalMatrix.banded(N + 1, {0: [-((n - a) ** 2) for n in range(N + 1)],
                                         -1: [-(n - b) for n in range(N)]})


def build_transposes(p: Params):
    """Zt, Vt and Xt, the transposes of the builders' Z, V and X: a Z planted
    in a Context leaves them alone."""
    return build_Z(p).transpose(), build_V(p).transpose(), build_X(p).transpose()


def build_casimir(ctx: Context) -> RationalMatrix:
    """The central element 2ZVZ + {X,V} + 2 zeta {X,Z} + 2X^2 + 2 zeta^2 Z^2
    + 2 eta X + V + 2 xi Z as a matrix; a Context builds it once, as ctx.C."""
    Z, V, X = ctx.Z, ctx.V, ctx.X
    z = ctx.p.zeta
    xi, eta = central_params(ctx.p)
    return (
        2 * (Z * V * Z)
        + anticommutator(X, V)
        + 2 * z * anticommutator(X, Z)
        + 2 * (X * X)
        + 2 * z * z * (Z * Z)
        + 2 * eta * X
        + V
        + 2 * xi * Z
    )


# -- relation checks ----------------------------------------------------------


def _relations(ctx: Context, Z) -> tuple:
    """The residuals of [Z,X] = Z^2 + X, [X,V] = {V,Z} + 2 zeta X
    + 2 zeta^2 Z + xi I and [V,Z] = V + 2 X + 2 zeta Z + eta I on the
    Context's V, X and I, in that order, then the [V,Z], {V,Z} and Z^2 they
    form.  A Context keeps them for its own Z under ("relations",)."""
    V, X, I, zeta = ctx.V, ctx.X, ctx.I, ctx.p.zeta
    xi, eta = central_params(ctx.p)
    vz_c, vz_a = brackets(V, Z)
    Z2 = Z * Z
    return (commutator(Z, X) - (Z2 + X),
            commutator(X, V) - (vz_a + 2 * zeta * X + 2 * zeta * zeta * Z + xi * I),
            vz_c - (V + 2 * X + 2 * zeta * Z + eta * I), vz_c, vz_a, Z2)


def check_defining_relations(ctx: Context, Z=None) -> VerificationReport:
    """Verify the three defining relations on the generator matrices.

    Z may be overridden (fault injection in tests and the CLI); an
    overriding Z forms its own residuals and leaves the kept ones alone.
    """
    kept = ctx.keep(("relations",), _relations, ctx, ctx.Z) if Z is None else _relations(ctx, Z)
    rep = VerificationReport(suite="algebra:relations", params=ctx.p.as_dict())
    for check_id, statement, residual in zip(("relation-ZX", "relation-XV", "relation-VZ"), (
            "[Z,X] - (Z^2 + X) = 0",
            "[X,V] - ({V,Z} + 2 zeta X + 2 zeta^2 Z + xi I) = 0",
            "[V,Z] - (V + 2 X + 2 zeta Z + eta I) = 0"), kept):
        rep.add_grid(check_id, statement, residual)
    return rep


def check_casimir_central(ctx: Context) -> VerificationReport:
    """Verify that the Casimir matrix ctx.C commutes with all three generators."""
    C = ctx.C
    rep = VerificationReport(suite="algebra:casimir", params=ctx.p.as_dict())
    for name, g in (("Z", ctx.Z), ("V", ctx.V), ("X", ctx.X)):
        rep.add_grid(f"casimir-{name}", f"[C,{name}] = 0", commutator(C, g))
    return rep


def check_subalgebras(ctx: Context) -> VerificationReport:
    """Verify the derived presentations living inside the algebra.

    (a) the shifted generators Zb = Z - zeta/2, Xb = X + zeta Z - zeta^2/4,
        Vb = V satisfy the defining relations at zeta = 0 with
        xib = xi - eta zeta and etab = eta + zeta^2/2.  For any Z, V, X
        their residuals are zx, xv - zeta vz and vz, where zx, xv and vz
        are the defining-relation residuals the Context keeps, so Zb, Xb
        and Vb are never formed;
    (b) the Hahn-type pair (Zb, Vb):
            [[Vb,Zb],Vb] = 2{Vb,Zb} + 2 xib I
            [Zb,[Vb,Zb]] = 2 Zb^2 - Vb - etab I,
        formed from the kept brackets as [Vb,Zb] = [V,Z],
        {Vb,Zb} = {V,Z} - zeta V and 2 Zb^2 - etab I = 2 Z^2 - 2 zeta Z - eta I;
    (c) the Racah-type pair (W, V) with W = X + rho Z, the Context's W:
            [V,[W,V]] = 2{W,V} + 2V^2 + 2(eta + zeta(zeta - rho))V
                        + 2(rho xi + zeta(zeta eta - xi - eta rho))I
            [[W,V],W] = 2{W,V} + 2W^2 + 2(eta + zeta(zeta - rho))W
                        + (1 - rho^2)V - C + rho(xi - rho eta)I;
    (d) the solvable pair E = X + Z^2, H = Z with [H,E] = E, whose residual
        is zx, as [Z, Z^2] = 0, so E is never formed.

    rho and the Casimir C are the Context's, so the Context needs rho.
    """
    p, rho = ctx.p, read_rho(ctx.rho, "the subalgebra checks need rho")
    Z, V, ident = ctx.Z, ctx.V, ctx.I
    xi, eta = central_params(p)
    z = p.zeta
    rep = VerificationReport(suite="algebra:subalgebras", params={**p.as_dict(), "rho": str(rho)})

    zx, xv, vz, K, vz_a, Z2 = ctx.keep(("relations",), _relations, ctx, Z)
    for check_id, statement, residual in zip(("shifted-ZX", "shifted-XV", "shifted-VZ"), (
            "[Zb,Xb] = Zb^2 + Xb", "[Xb,Vb] = {Vb,Zb} + xib I", "[Vb,Zb] = Vb + 2 Xb + etab I"),
            (zx, xv - z * vz, vz)):
        rep.add_grid(check_id, statement, residual)
    rep.add_grid(
        "hahn-1",
        "[[Vb,Zb],Vb] = 2{Vb,Zb} + 2 xib I",
        commutator(K, V) - (2 * (vz_a - z * V) + 2 * (xi - eta * z) * ident),
    )
    rep.add_grid(
        "hahn-2",
        "[Zb,[Vb,Zb]] = 2 Zb^2 - Vb - etab I",
        commutator(Z, K) - (2 * Z2 - 2 * z * Z - V - eta * ident),
    )

    W = ctx.W
    C = ctx.C
    e1 = eta + z * (z - rho)
    wv_c, wv_a = brackets(W, V)
    rep.add_grid(
        "racah-1",
        "[V,[W,V]] = 2{W,V} + 2V^2 + 2(eta+zeta(zeta-rho))V + 2(rho xi + zeta(zeta eta - xi - eta rho))I",
        commutator(V, wv_c)
        - (
            2 * wv_a
            + 2 * (V * V)
            + 2 * e1 * V
            + 2 * (rho * xi + z * (z * eta - xi - eta * rho)) * ident
        ),
    )
    rep.add_grid(
        "racah-2",
        "[[W,V],W] = 2{W,V} + 2W^2 + 2(eta+zeta(zeta-rho))W + (1-rho^2)V - C + rho(xi - rho eta)I",
        commutator(wv_c, W)
        - (
            2 * wv_a
            + 2 * (W * W)
            + 2 * e1 * W
            + (1 - rho * rho) * V
            - C
            + rho * (xi - rho * eta) * ident
        ),
    )

    rep.add_grid("borel", "[Z, X + Z^2] = X + Z^2", zx)
    return rep


# -- operators with bidiagonal action -----------------------------------------


def algebraic_heun(p: Params, h0, h1, h2, h3, h4) -> RationalMatrix:
    """The combination h0 I + h1 Z + h2 V + h3 ZV + h4 VZ."""
    Z, V = build_Z(p), build_V(p)
    ident = RationalMatrix.identity(p.N + 1)
    return h0 * ident + h1 * Z + h2 * V + h3 * (Z * V) + h4 * (V * Z)

def heun_bidiagonal(p: Params, h0, h1, h4):
    """The lower-bidiagonal member h0 I + h1 Z - h4 V + h4 [V, Z].

    Expanding the commutator, this is the h2 = h3 = -h4 slice of the generic
    five-parameter combination; that slice is exactly the one whose V and ZV
    contributions cancel the super-diagonal fill.  Returns the matrix and
    whether its nonzero pattern is confined to the diagonal and first
    subdiagonal.
    """
    h0, h1, h4 = map(exact, (h0, h1, h4))
    m = algebraic_heun(p, h0, h1, -h4, -h4, h4)
    return m, m.in_band(1, 0)
