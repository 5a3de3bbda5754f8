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

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import DegenerateParameters
from .matrices import RationalMatrix, anticommutator, commutator
from .report import VerificationReport

if TYPE_CHECKING:
    from .eigenbases import Context

Q = Fraction


@dataclass(frozen=True)
class Params:
    """Representation parameters: truncation order N plus alpha, beta, zeta."""

    N: int
    alpha: Fraction
    beta: Fraction
    zeta: Fraction

    def __post_init__(self):
        if not isinstance(self.N, int) or self.N < 1:
            raise ValueError(f"N must be an integer >= 1, got {self.N!r}")
        object.__setattr__(self, "alpha", Q(self.alpha))
        object.__setattr__(self, "beta", Q(self.beta))
        object.__setattr__(self, "zeta", Q(self.zeta))

    def as_dict(self):
        out = {"N": str(self.N), "alpha": str(self.alpha), "beta": str(self.beta),
               "zeta": str(self.zeta)}
        return out


@dataclass(frozen=True)
class CentralParams:
    xi: Fraction
    eta: Fraction


def central_params(p: Params) -> CentralParams:
    """The xi and eta attached to the bidiagonal realization."""
    a, b, z, N = p.alpha, p.beta, p.zeta, p.N
    xi = (b + 1) * (b + 2 * z - N) * (N - 2 * a) + 2 * a * z * (a + 1)
    eta = (N - z) * (N - 2 * a - b - z) + (b + z) * (b + 1) + 2 * a * a
    return CentralParams(xi=xi, eta=eta)


def _as_int(x: Fraction):
    """x as an int when it is an integer, else None."""
    return x.numerator if x.denominator == 1 else None


def genericity_registry(p: Params, rho=None):
    """Denominator expressions that must stay nonzero, as (label, vanishes) pairs.

    The list is the union, over basis indices 0 <= n <= N, of every
    denominator appearing in the closed-form bases, tridiagonal
    coefficients, overlap prefactors, weights and norms used downstream.
    Expressions involving rho are included only when rho is given.

    Every entry is an integer shift s + c or s - c of one of nine
    combinations c: -alpha, alpha-beta, 2beta+2zeta, 2alpha+beta+2zeta,
    alpha+beta+2zeta, 2alpha+rho, beta+rho, beta-2alpha and
    beta-rho+2zeta.  alpha+beta+2zeta enters through the lower parameter
    n-alpha-beta-2zeta+1 of calU-tilde.  The last two are the Racah-hat
    g-a-N and -N-b of the Stilde prefactor, weight and norm; like every
    Racah-hat parameter, they enter only with rho.
    Each combination is computed once.  When it
    is not an integer, no entry built on it can vanish; when it is, its
    entries are tested in int arithmetic.  A linear entry vanishes when
    its value is 0, and a Pochhammer entry (x)_k when x is an integer in
    [1-k, 0]; nothing is multiplied out.
    """
    N, a, b, z = p.N, p.alpha, p.beta, p.zeta
    neg_a = _as_int(-a)
    a_b = _as_int(a - b)
    bz2 = _as_int(2 * b + 2 * z)
    abz = _as_int(2 * a + b + 2 * z)
    ab2z = _as_int(a + b + 2 * z)
    items = []

    # the entry is s + sign * c, which is never an integer when c is None
    def poch(label, c, s, k, sign=1):
        items.append((label, c is not None and 1 - k <= s + sign * c <= 0))

    def linear(label, c, s, sign=1):
        items.append((label, c is not None and s + sign * c == 0))

    if rho is not None:
        r = Q(rho)
        ar2 = _as_int(2 * a + r)
        br = _as_int(b + r)
        b_a2 = _as_int(b - 2 * a)
        brz = _as_int(b - r + 2 * z)
    for n in range(N + 1):
        poch(f"(-alpha)_({n}+1)", neg_a, 0, n + 1)
        poch(f"(alpha-beta-{n})_{n}", a_b, -n, n)
        poch(f"({n}-N-alpha+beta+1)_(N-{n})", a_b, n - N + 1, N - n, -1)
        for k in range(-3, 4):
            linear(f"(2*{n}-2beta-2zeta-({k}))", bz2, 2 * n - k, -1)
        linear(f"({n}-alpha)", neg_a, n)
        linear(f"({n}-alpha+beta)", a_b, n, -1)
        poch(f"({n}-2beta-2zeta-1)_{n}", bz2, n - 1, n, -1)
        poch(f"(2beta+2zeta-N-{n}+1)_(N-{n})", bz2, 1 - N - n, N - n)
        poch(f"(2alpha+beta+2zeta-2N+1)_(N-{n})", abz, 1 - 2 * N, N - n)
        poch(f"({n}-alpha-beta-2zeta+1)_(N-{n})", ab2z, n + 1, N - n, -1)
        poch(f"({n}-1-2beta-2zeta)_(N+1)", bz2, n - 1, N + 1, -1)
        if rho is not None:
            for k in range(-1, 3):
                linear(f"(2*{n}-2alpha-rho+({k}))", ar2, 2 * n + k, -1)
            poch(f"({n}-2alpha-rho)_{n}", ar2, n, n, -1)
            poch(f"(-beta-rho)_{n}", br, 0, n, -1)
            poch(f"(beta+rho-N+1)_(N-{n})", br, 1 - N, N - n)
            poch(f"(beta-2alpha+1)_{n}", b_a2, 1, n)
            poch(f"(beta-rho+2zeta-N+1)_{n}", brz, 1 - N, n)
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
    m = [[Q(0)] * (N + 1) for _ in range(N + 1)]
    for n in range(N + 1):
        m[n][n] = n - a
        if n < N:
            m[n + 1][n] = Q(1)
    return RationalMatrix(m)


def build_V(p: Params) -> RationalMatrix:
    N, a, b, z = p.N, p.alpha, p.beta, p.zeta
    m = [[Q(0)] * (N + 1) for _ in range(N + 1)]
    for n in range(N + 1):
        m[n][n] = (n - b - z - 1) * (b + z - n)
        if n >= 1:
            m[n - 1][n] = n * (N + 1 - n) * (n - 1 - 2 * a - b - 2 * z + N)
    return RationalMatrix(m)


def build_X(p: Params) -> RationalMatrix:
    N, a, b = p.N, p.alpha, p.beta
    m = [[Q(0)] * (N + 1) for _ in range(N + 1)]
    for n in range(N + 1):
        m[n][n] = -((n - a) ** 2)
        if n < N:
            m[n + 1][n] = -(n - b)
    return RationalMatrix(m)


def build_transposes(p: Params):
    """Matrices of the transposed actions, built from their own closed forms:

        Zt|n> = (n - alpha)|n> + |n-1>
        Vt|n> = (n - beta - zeta - 1)(beta + zeta - n)|n>
                + (n + 1)(N - n)(n - 2 alpha - beta - 2 zeta + N)|n+1>
        Xt|n> = -(n - alpha)^2 |n> - (n - 1 - beta)|n-1>

    Each equals the matrix transpose of the corresponding builder output.
    """
    N, a, b, z = p.N, p.alpha, p.beta, p.zeta
    zt = [[Q(0)] * (N + 1) for _ in range(N + 1)]
    vt = [[Q(0)] * (N + 1) for _ in range(N + 1)]
    xt = [[Q(0)] * (N + 1) for _ in range(N + 1)]
    for n in range(N + 1):
        zt[n][n] = n - a
        vt[n][n] = (n - b - z - 1) * (b + z - n)
        xt[n][n] = -((n - a) ** 2)
        if n >= 1:
            zt[n - 1][n] = Q(1)
            xt[n - 1][n] = -(n - 1 - b)
        if n < N:
            vt[n + 1][n] = (n + 1) * (N - n) * (n - 2 * a - b - 2 * z + N)
    return RationalMatrix(zt), RationalMatrix(vt), RationalMatrix(xt)


def casimir(ctx: Context) -> RationalMatrix:
    """The central element 2ZVZ + {X,V} + 2 zeta {X,Z} + 2X^2 + 2 zeta^2 Z^2
    + 2 eta X + V + 2 xi Z as a matrix."""
    Z, V, X = ctx.Z, ctx.V, ctx.X
    z = ctx.p.zeta
    cp = central_params(ctx.p)
    return (
        2 * (Z * V * Z)
        + anticommutator(X, V)
        + 2 * z * anticommutator(X, Z)
        + 2 * (X * X)
        + 2 * z * z * (Z * Z)
        + 2 * cp.eta * X
        + V
        + 2 * cp.xi * Z
    )


# -- relation checks ----------------------------------------------------------


def check_defining_relations(ctx: Context, Z=None) -> VerificationReport:
    """Verify the three defining relations on the generator matrices.

    Z may be overridden (fault injection in tests and the CLI).
    """
    p, V, X = ctx.p, ctx.V, ctx.X
    Z = ctx.Z if Z is None else Z
    cp = central_params(p)
    z = p.zeta
    ident = ctx.I
    rep = VerificationReport(suite="algebra:relations", params=p.as_dict())
    rep.add_matrix_zero(
        "relation-ZX", "[Z,X] - (Z^2 + X) = 0", commutator(Z, X) - (Z * Z + X)
    )
    rep.add_matrix_zero(
        "relation-XV",
        "[X,V] - ({V,Z} + 2 zeta X + 2 zeta^2 Z + xi I) = 0",
        commutator(X, V)
        - (anticommutator(V, Z) + 2 * z * X + 2 * z * z * Z + cp.xi * ident),
    )
    rep.add_matrix_zero(
        "relation-VZ",
        "[V,Z] - (V + 2 X + 2 zeta Z + eta I) = 0",
        commutator(V, Z) - (V + 2 * X + 2 * z * Z + cp.eta * ident),
    )
    return rep


def check_casimir_central(ctx: Context) -> VerificationReport:
    """Verify that the Casimir matrix commutes with all three generators."""
    C = casimir(ctx)
    rep = VerificationReport(suite="algebra:casimir", params=ctx.p.as_dict())
    for name, g in (("Z", ctx.Z), ("V", ctx.V), ("X", ctx.X)):
        rep.add_matrix_zero(f"casimir-{name}", f"[C,{name}] = 0", commutator(C, g))
    return rep


def check_subalgebras(ctx: Context) -> VerificationReport:
    """Verify the derived presentations living inside the algebra.

    (a) the shifted generators Zb = Z - zeta/2, Xb = X + zeta Z - zeta^2/4,
        Vb = V satisfy the zeta-free relations with
        xib = xi - eta zeta and etab = eta + zeta^2/2;
    (b) the Hahn-type pair (Zb, Vb):
            [[Vb,Zb],Vb] = 2{Vb,Zb} + 2 xib I
            [Zb,[Vb,Zb]] = 2 Zb^2 - Vb - etab I;
    (c) the Racah-type pair (W, V) with W = X + rho Z:
            [V,[W,V]] = 2{W,V} + 2V^2 + 2(eta + zeta(zeta - rho))V
                        + 2(rho xi + zeta(zeta eta - xi - eta rho))I
            [[W,V],W] = 2{W,V} + 2W^2 + 2(eta + zeta(zeta - rho))W
                        + (1 - rho^2)V - C + rho(xi - rho eta)I;
    (d) the solvable pair E = X + Z^2, H = Z with [H,E] = E.

    rho is the Context's, so the Context needs FParams.
    """
    p, rho = ctx.p, ctx.rho
    Z, V, X = ctx.Z, ctx.V, ctx.X
    cp = central_params(p)
    z = p.zeta
    ident = ctx.I
    rep = VerificationReport(suite="algebra:subalgebras", params={**p.as_dict(), "rho": str(rho)})

    Zb = Z - (z / 2) * ident
    Xb = X + z * Z - (z * z / 4) * ident
    Vb = V
    xib = cp.xi - cp.eta * z
    etab = cp.eta + z * z / 2
    rep.add_matrix_zero(
        "shifted-ZX", "[Zb,Xb] = Zb^2 + Xb", commutator(Zb, Xb) - (Zb * Zb + Xb)
    )
    rep.add_matrix_zero(
        "shifted-XV",
        "[Xb,Vb] = {Vb,Zb} + xib I",
        commutator(Xb, Vb) - (anticommutator(Vb, Zb) + xib * ident),
    )
    rep.add_matrix_zero(
        "shifted-VZ",
        "[Vb,Zb] = Vb + 2 Xb + etab I",
        commutator(Vb, Zb) - (Vb + 2 * Xb + etab * ident),
    )

    K = commutator(Vb, Zb)
    rep.add_matrix_zero(
        "hahn-1",
        "[[Vb,Zb],Vb] = 2{Vb,Zb} + 2 xib I",
        commutator(K, Vb) - (2 * anticommutator(Vb, Zb) + 2 * xib * ident),
    )
    rep.add_matrix_zero(
        "hahn-2",
        "[Zb,[Vb,Zb]] = 2 Zb^2 - Vb - etab I",
        commutator(Zb, K) - (2 * (Zb * Zb) - Vb - etab * ident),
    )

    W = X + rho * Z
    C = casimir(ctx)
    e1 = cp.eta + z * (z - rho)
    rep.add_matrix_zero(
        "racah-1",
        "[V,[W,V]] = 2{W,V} + 2V^2 + 2(eta+zeta(zeta-rho))V + 2(rho xi + zeta(zeta eta - xi - eta rho))I",
        commutator(V, commutator(W, V))
        - (
            2 * anticommutator(W, V)
            + 2 * (V * V)
            + 2 * e1 * V
            + 2 * (rho * cp.xi + z * (z * cp.eta - cp.xi - cp.eta * rho)) * ident
        ),
    )
    rep.add_matrix_zero(
        "racah-2",
        "[[W,V],W] = 2{W,V} + 2W^2 + 2(eta+zeta(zeta-rho))W + (1-rho^2)V - C + rho(xi - rho eta)I",
        commutator(commutator(W, V), W)
        - (
            2 * anticommutator(W, V)
            + 2 * (W * W)
            + 2 * e1 * W
            + (1 - rho * rho) * V
            - C
            + rho * (cp.xi - rho * cp.eta) * ident
        ),
    )

    E = X + Z * Z
    rep.add_matrix_zero("borel", "[Z, X + Z^2] = X + Z^2", commutator(Z, E) - E)
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
    h0, h1, h4 = Q(h0), Q(h1), Q(h4)
    m = algebraic_heun(p, h0, h1, -h4, -h4, h4)
    return m, m.is_lower_bidiagonal()
