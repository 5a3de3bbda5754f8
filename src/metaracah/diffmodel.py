"""Differential model on Laurent polynomials.

The three generators act on polynomials of degree at most N as
second-order differential operators with polynomial coefficients:

    Z = x(1-x) d/dx + (Nx - alpha)
    V = x(1-x) d^2/dx^2 + (2x(beta+zeta) + N-2alpha-beta-2zeta) d/dx
        - (beta+zeta)(beta+zeta+1)
    X = -x^2(1-x) d^2/dx^2 - x((N+beta-1)x - 2alpha+1) d/dx
        + (N beta x - alpha^2)

The monomials g_n(x) = (-1)^n (-N)_n x^n reproduce the bidiagonal
matrices of the abstract representation, and the dual space is modelled
by g*_n(x) = (-1)^n x^(-n-1)/(-N)_n under the residue pairing

    <f, g> = coefficient of x^(-1) in f*g

(the contour integral around 0 collapses to residue extraction, which
is exact).  The transposed differential operators agree with the
abstract transposes only modulo the ghost elements g*_(-1) ~ x^0 and
g*_(N+1) ~ x^(-N-2); those never contribute to pairings against
polynomials of degree <= N, and the quotient by them is what matches
the abstract matrices.

Everything is exact: no quadrature, no floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import Params
from .eigenbases import LABELS, Context, family
from .errors import PreconditionViolated
from .hyper import multi_pochhammer, pochhammer, series_terms
from .matrices import RationalMatrix
from .racahpoly import RacahParams, closed_form_S
from .rationalfns import closed_form_U, dual_hahn, dual_hahn_params
from .report import VerificationReport

Q = Fraction


@dataclass(frozen=True)
class LaurentPoly:
    """coeffs[i] is the coefficient of x**(min_exp + i); trimmed on both ends."""

    min_exp: int
    coeffs: tuple

    def __post_init__(self):
        cs = [c if type(c) is Q else Q(c) for c in self.coeffs]
        lo = self.min_exp
        while cs and cs[-1] == 0:
            cs.pop()
        while cs and cs[0] == 0:
            cs.pop(0)
            lo += 1
        if not cs:
            lo = 0
        object.__setattr__(self, "min_exp", lo)
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls(0, ())

    @classmethod
    def monomial(cls, exp: int, coeff=Q(1)) -> "LaurentPoly":
        return cls(exp, (Q(coeff),))

    @classmethod
    def from_dict(cls, terms: dict) -> "LaurentPoly":
        if not terms:
            return cls.zero()
        lo = min(terms)
        hi = max(terms)
        return cls(lo, tuple(terms.get(e, Q(0)) for e in range(lo, hi + 1)))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def max_exp(self) -> int:
        return self.min_exp + len(self.coeffs) - 1

    def items(self):
        for i, c in enumerate(self.coeffs):
            if c != 0:
                yield self.min_exp + i, c

    def coefficient(self, exp: int) -> Fraction:
        i = exp - self.min_exp
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Q(0)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        terms = dict(self.items())
        for e, c in other.items():
            terms[e] = terms.get(e, Q(0)) + c
        return LaurentPoly.from_dict(terms)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.min_exp, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            return LaurentPoly(self.min_exp, tuple(Q(other) * c for c in self.coeffs))
        if self.is_zero or other.is_zero:
            return LaurentPoly.zero()
        out = [Q(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return LaurentPoly(self.min_exp + other.min_exp, tuple(out))

    def __rmul__(self, other):
        return self.__mul__(other)

    def derivative(self) -> "LaurentPoly":
        return LaurentPoly.from_dict({e - 1: e * c for e, c in self.items() if e != 0})


@dataclass(frozen=True)
class DiffOp:
    """a2 d^2/dx^2 + a1 d/dx + a0, all coefficients Laurent polynomials."""

    a2: LaurentPoly
    a1: LaurentPoly
    a0: LaurentPoly

    def apply(self, f: LaurentPoly) -> LaurentPoly:
        df = f.derivative()
        return self.a2 * df.derivative() + self.a1 * df + self.a0 * f


def residue_pair(f: LaurentPoly, g: LaurentPoly) -> Fraction:
    """<f, g>: the coefficient of 1/x in the product f*g.

    Only that one coefficient is read, as the sum of f_e g_(-1-e) over the
    exponents e where both factors have a term; f*g is never formed.
    """
    lo = max(f.min_exp, -1 - g.max_exp)
    hi = min(f.max_exp, -1 - g.min_exp)
    fc, gc = f.coeffs, g.coeffs
    total = Q(0)
    for e in range(lo, hi + 1):
        total += fc[e - f.min_exp] * gc[-1 - e - g.min_exp]
    return total


_X = LaurentPoly.monomial(1)
_X2 = LaurentPoly.monomial(2)
_X3 = LaurentPoly.monomial(3)


def _const(c) -> LaurentPoly:
    return LaurentPoly.monomial(0, c)


def diff_Z(p: Params) -> DiffOp:
    return DiffOp(a2=LaurentPoly.zero(), a1=_X - _X2, a0=p.N * _X - _const(p.alpha))


def diff_V(p: Params) -> DiffOp:
    s = p.beta + p.zeta
    return DiffOp(
        a2=_X - _X2,
        a1=2 * s * _X + _const(p.N - 2 * p.alpha - p.beta - 2 * p.zeta),
        a0=_const(-s * (s + 1)),
    )


def diff_X(p: Params) -> DiffOp:
    return DiffOp(
        a2=_X3 - _X2,
        a1=(2 * p.alpha - 1) * _X - (p.N + p.beta - 1) * _X2,
        a0=p.N * p.beta * _X - _const(p.alpha**2),
    )


def diff_Zt(p: Params) -> DiffOp:
    return DiffOp(
        a2=LaurentPoly.zero(),
        a1=_X2 - _X,
        a0=(p.N + 2) * _X - _const(p.alpha + 1),
    )


def diff_Vt(p: Params) -> DiffOp:
    s = p.beta + p.zeta
    return DiffOp(
        a2=_X - _X2,
        a1=-2 * (s + 2) * _X - _const(p.N - 2 * p.alpha - p.beta - 2 * p.zeta - 2),
        a0=_const(-(s + 1) * (s + 2)),
    )


def diff_Xt(p: Params) -> DiffOp:
    return DiffOp(
        a2=_X3 - _X2,
        a1=(p.N + p.beta + 5) * _X2 - (2 * p.alpha + 3) * _X,
        a0=(p.beta + 2) * (p.N + 2) * _X - _const((p.alpha + 1) ** 2),
    )


def _g_norms(N: int) -> list:
    """(-1)^k (-N)_k = N (N-1) ... (N-k+1) for k = 0..N: the coefficient of
    x^k in g_k, and the reciprocal of the coefficient of x^(-k-1) in g*_k."""
    return series_terms((-N, 1), (), N + 1, argument=-1)


def g_poly(p: Params, n: int) -> LaurentPoly:
    """g_n(x) = (-1)^n (-N)_n x^n, the model of |n>."""
    return LaurentPoly.monomial(n, _g_norms(p.N)[n])


def g_dual_poly(p: Params, n: int) -> LaurentPoly:
    """g*_n(x) = (-1)^n x^(-n-1) / (-N)_n, the model of <n|."""
    return LaurentPoly.monomial(-n - 1, Q(1, _g_norms(p.N)[n]))


def _in_g_basis(f: LaurentPoly, norms: list) -> list:
    """Coefficients of f over g_0..g_N."""
    return [f.coefficient(k) / c for k, c in enumerate(norms)]


def _in_gstar_basis(f: LaurentPoly, norms: list) -> list:
    """Coefficients of f over g*_0..g*_N."""
    return [f.coefficient(-k - 1) * c for k, c in enumerate(norms)]


def _outside(h: LaurentPoly, lo: int, hi: int) -> LaurentPoly:
    """The terms of h whose exponents lie outside [lo, hi]."""
    return LaurentPoly.from_dict({e: c for e, c in h.items() if not lo <= e <= hi})


def matrix_in_monomial_basis(op: DiffOp, p: Params) -> RationalMatrix:
    """Matrix of op on g_0..g_N; raises if the image leaves the span."""
    N = p.N
    norms = _g_norms(N)
    cols = []
    for n in range(N + 1):
        h = op.apply(g_poly(p, n))
        leftover = _outside(h, 0, N)
        if not leftover.is_zero:
            raise PreconditionViolated(
                f"image of g_{n} leaves span(g_0..g_N): exponents "
                f"{[e for e, _ in leftover.items()]}"
            )
        cols.append(_in_g_basis(h, norms))
    return RationalMatrix.from_columns(cols)


def dual_matrix_in_monomial_basis(op_t: DiffOp, p: Params):
    """Matrix of op_t on g*_0..g*_N in the quotient by the ghosts.

    Returns (matrix, ghosts) where ghosts maps n to the leftover Laurent
    polynomial supported outside span(g*_0..g*_N).  The quotient
    convention g*_(-1) = g*_(N+1) = 0 means the leftovers may only live
    at exponents 0 and -N-2.
    """
    N = p.N
    norms = _g_norms(N)
    cols = []
    ghosts = {}
    for n in range(N + 1):
        h = op_t.apply(g_dual_poly(p, n))
        leftover = _outside(h, -N - 1, -1)
        if not leftover.is_zero:
            bad = [e for e, _ in leftover.items() if e not in (0, -N - 2)]
            if bad:
                raise PreconditionViolated(
                    f"dual image of g*_{n} has non-ghost leftover exponents {bad}"
                )
            ghosts[n] = leftover
        cols.append(_in_gstar_basis(h, norms))
    return RationalMatrix.from_columns(cols), ghosts


# -- model bases ---------------------------------------------------------------


def jacobi_poly(n: int, a, b) -> LaurentPoly:
    """J_n^(a,b)(x) = (a+1)_n/n! 2F1(-n, n+a+b+1; a+1; x) on (0, 1)."""
    a, b = Q(a), Q(b)
    pre = pochhammer(a + 1, n) / pochhammer(Q(1), n)
    return LaurentPoly(0, series_terms((-n, n + a + b + 1), (a + 1,), n + 1, head=pre))


def _e_as_jacobi(p: Params) -> tuple:
    """The Jacobi polynomials J_n = J_n^(a,b), a = N-2alpha-beta-2zeta-1,
    b = 2alpha-beta-N-1, and the scales c_n = (1)_n (-N)_n / (n-2beta-2zeta-1)_n
    with e_n = c_n J_n, each for n = 0..N."""
    N, a, b, z = p.N, p.alpha, p.beta, p.zeta
    scales = [
        pochhammer(Q(1), n) * pochhammer(Q(-N), n) / pochhammer(n - 2 * b - 2 * z - 1, n)
        for n in range(N + 1)
    ]
    jac = [jacobi_poly(n, N - 2 * a - b - 2 * z - 1, 2 * a - b - N - 1) for n in range(N + 1)]
    return jac, scales


# One function per family: the n-th model polynomial at (p, rho).


def _model_e(p, rho, n):
    a, b, z, N = p.alpha, p.beta, p.zeta, p.N
    pre = multi_pochhammer((Q(-N), N - 2 * a - b - 2 * z), n) / pochhammer(
        n - 2 * b - 2 * z - 1, n
    )
    return LaurentPoly(
        0, series_terms((-n, n - 2 * b - 2 * z - 1), (N - 2 * a - b - 2 * z,), n + 1, head=pre)
    )


def _model_d(p, rho, n):
    N, a, b = p.N, p.alpha, p.beta
    head = Q(-1) ** n * pochhammer(Q(-N), n)
    return LaurentPoly(n, series_terms((n - N, a - b), (n + 1 - a,), N - n + 1, head=head))


def _model_f(p, rho, n):
    N, a, b = p.N, p.alpha, p.beta
    head = Q(-1) ** n * pochhammer(Q(-N), n)
    return LaurentPoly(
        n, series_terms((n - N, n - b - rho), (2 * n - 2 * a - rho + 1,), N - n + 1, head=head)
    )


def _model_z(p, rho, n):
    # x^n (1-x)^(N-n), scaled like g_n
    N = p.N
    head = Q(-1) ** n * pochhammer(Q(-N), n)
    return LaurentPoly(n, series_terms((n - N,), (), N - n + 1, head=head))


def _model_dstar(p, rho, n):
    # (a-n)_(l+1) = (a-n) (a-n+1)_l
    N, a, b = p.N, p.alpha, p.beta
    pre = Q(-1) ** (n + 1) / (pochhammer(Q(-N), n) * (a - n))
    return LaurentPoly(
        -n - 1, series_terms((b - a + 1, 1 + N - n), (a - n + 1,), n + 1, head=pre)
    )


def _model_estar(p, rho, n):
    # exponents run down from -n-1 to -N-1
    a, b, z, N = p.alpha, p.beta, p.zeta, p.N
    pre = Q(-1) ** n / pochhammer(Q(-N), n)
    terms = series_terms(
        (n + 1, N + n - 2 * a - b - 2 * z), (2 * n - 2 * b - 2 * z,), N - n + 1, head=pre
    )
    return LaurentPoly(-N - 1, terms[::-1])


def _model_fstar(p, rho, n):
    N, a, b = p.N, p.alpha, p.beta
    pre = Q(-1) ** n / pochhammer(Q(-N), n)
    return LaurentPoly(
        -n - 1,
        series_terms((b + rho + 1 - n, 1 + N - n), (1 + 2 * a + rho - 2 * n,), n + 1, head=pre),
    )


def _model_zstar(p, rho, n):
    # expansion of x^(-n-1)(1-x)^(n-1-N) cut at the dual-range edge
    N = p.N
    pre = Q(-1) ** n / pochhammer(Q(-N), n)
    return LaurentPoly(-n - 1, series_terms((1 + N - n,), (), n + 1, head=pre))


_MODELS = {
    "d": _model_d,
    "dStar": _model_dstar,
    "e": _model_e,
    "eStar": _model_estar,
    "f": _model_f,
    "fStar": _model_fstar,
    "z": _model_z,
    "zStar": _model_zstar,
}


def model_basis(ctx: Context, label: str) -> list:
    """The printed Laurent-polynomial model of one eigenbasis family."""
    family(label, ctx.fp)  # refuses unknown labels, and f / f* without FParams
    model = _MODELS[label]
    return [model(ctx.p, ctx.rho, n) for n in range(ctx.p.N + 1)]


def _model_bases_report(ctx: Context) -> tuple:
    """Model families expand to exactly the abstract closed-form columns.

    Returns the report and the model families it built, by label.
    """
    p = ctx.p
    rep = VerificationReport(suite="model-bases", params={**p.as_dict(), "rho": str(ctx.rho)})
    families = {}
    norms = _g_norms(p.N)
    for label in LABELS:
        fam = families[label] = model_basis(ctx, label)
        abstract = ctx.basis(label)
        expand = _in_gstar_basis if label.endswith("Star") else _in_g_basis
        bad = [
            n
            for n in range(p.N + 1)
            if expand(fam[n], norms) != list(abstract.column(n))
        ]
        rep.add(
            f"model-{label}",
            f"model family {label} matches the abstract expansion columnwise",
            not bad,
            detail="" if not bad else f"failing n: {bad}",
        )

    e_fam = families["e"]
    jac, scales = _e_as_jacobi(p)
    bad = [n for n in range(p.N + 1) if e_fam[n] != scales[n] * jac[n]]
    rep.add(
        "model-e-jacobi",
        "e_n(x) is a Jacobi polynomial up to the stated prefactor",
        not bad,
        detail="" if not bad else f"failing n: {bad}",
    )
    return rep, families


def model_orthogonality(ctx: Context, families: dict) -> VerificationReport:
    """The four residue-pairing Grams are exactly the identity.

    families maps each label to its model family.
    """
    p = ctx.p
    rep = VerificationReport(suite="model-orthogonality",
                             params={**p.as_dict(), "rho": str(ctx.rho)})
    N = p.N
    pairs = [
        ("f", "fStar"),
        ("e", "eStar"),
        ("z", "zStar"),
    ]
    for label, dual in pairs:
        fam = families[label]
        dual_fam = families[dual]
        rep.add_grid(
            f"gram-{label}",
            f"<{dual}_m, {label}_n> = delta_mn under the residue pairing",
            N,
            lambda m, n: residue_pair(dual_fam[m], fam[n]) == (1 if m == n else 0),
        )

    d_fam = families["d"]
    dstar_fam = families["dStar"]
    Zop = diff_Z(p)
    z_d_fam = [Zop.apply(d) for d in d_fam]
    rep.add_grid(
        "gram-d",
        "<d*_m, Z d_n> = delta_mn under the residue pairing",
        N,
        lambda m, n: residue_pair(dstar_fam[m], z_d_fam[n]) == (1 if m == n else 0),
    )

    plain = RationalMatrix.from_columns(
        [[residue_pair(dstar_fam[m], d_fam[n]) for m in range(N + 1)] for n in range(N + 1)]
    )
    rep.add_info(
        "gram-d-no-Z",
        "<d*_m, d_n> without the Z insertion is not the identity",
        detail=(
            "identity" if plain == RationalMatrix.identity(N + 1)
            else f"differs from identity, e.g. entry (0, 0) = {plain[0, 0]}"
        ),
    )
    return rep


def integral_representations(ctx: Context) -> VerificationReport:
    """Residue formulas for S, U and the dual Hahn values, full grid."""
    p, rho = ctx.p, ctx.rho
    rep = VerificationReport(suite="model-integrals",
                             params={**p.as_dict(), "rho": str(rho)})
    a, b, z, N = p.alpha, p.beta, p.zeta, p.N
    jac, jac_scale = _e_as_jacobi(p)
    rp = RacahParams.from_params(p, ctx.fp)
    # each formula is a factor in m times a factor in n times the pairing
    # of jac[m] with a window in n: x^(-n-1) times a terminating series
    norms = _g_norms(N)

    s_windows = [
        LaurentPoly(-n - 1, series_terms((1 + b + rho - n, 1 + N - n),
                                         (1 + 2 * a + rho - 2 * n,), n + 1))
        for n in range(N + 1)
    ]
    rep.add_grid("integral-S", "residue formula reproduces S_m(n) on the full grid", N,
                 lambda m, n: jac_scale[m] / norms[n] * residue_pair(jac[m], s_windows[n])
                 == closed_form_S(m, n, rp))

    u_windows = [
        LaurentPoly(-n - 1, series_terms((N + 1 - n, b - a + 1), (a - n + 1,), n + 1))
        for n in range(N + 1)
    ]
    rep.add_grid("integral-U", "residue formula reproduces U_m(n) on the full grid", N,
                 lambda m, n: jac_scale[m] / (norms[n] * (n - a))
                 * residue_pair(jac[m], u_windows[n])
                 == closed_form_U(m, n, p))

    rho_dh = dual_hahn_params(p)
    dh_scale = [pochhammer(Q(1), m) / pochhammer(N - 2 * a - b - 2 * z, m)
                for m in range(N + 1)]
    dh_col = [pochhammer(Q(1), k) / norms[k] for k in range(N + 1)]
    # (1-x)^(k-1-N) expanded to the window that can reach x^(-1)
    dh_windows = [
        LaurentPoly(-k - 1, series_terms((N + 1 - k,), (), k + 1)) for k in range(N + 1)
    ]
    rep.add_grid("integral-dual-hahn",
                 "residue formula reproduces R^(dH)_k(m) on the full grid", N,
                 lambda m, k: dh_scale[m] * dh_col[k] * residue_pair(jac[m], dh_windows[k])
                 == dual_hahn(k, m, rho_dh),
                 axes="(m, k)")
    return rep


def model_transposes(ctx: Context) -> VerificationReport:
    """Adjoint property of the transposed differential operators."""
    p = ctx.p
    rep = VerificationReport(suite="model-transposes", params=p.as_dict())
    N = p.N
    table = [
        ("Z", diff_Z(p), diff_Zt(p), ctx.Zt),
        ("V", diff_V(p), diff_Vt(p), ctx.Vt),
        ("X", diff_X(p), diff_Xt(p), ctx.Xt),
    ]
    g = [g_poly(p, n) for n in range(N + 1)]
    g_dual = [g_dual_poly(p, m) for m in range(N + 1)]
    for name, op, op_t, abstract_t in table:
        op_g = [op.apply(x) for x in g]
        op_t_g_dual = [op_t.apply(x) for x in g_dual]
        rep.add_grid(
            f"adjoint-{name}",
            f"<{name}t g*_m, g_n> = <g*_m, {name} g_n> for all m, n",
            N,
            lambda m, n: residue_pair(op_t_g_dual[m], g[n])
            == residue_pair(g_dual[m], op_g[n]),
        )

        quotient, ghosts = dual_matrix_in_monomial_basis(op_t, p)
        rep.add(
            f"quotient-{name}",
            f"matrix of {name}t on g*_n modulo ghosts equals the abstract transpose",
            quotient == abstract_t,
            detail="" if quotient == abstract_t else "matrix mismatch",
        )
        ghost_exps = sorted({e for g in ghosts.values() for e, _ in g.items()})
        rep.add(
            f"ghosts-{name}",
            f"boundary leftovers of {name}t lie on the ghost exponents only",
            all(e in (0, -N - 2) for e in ghost_exps),
            detail=f"ghost exponents: {ghost_exps}" if ghost_exps else "no ghosts",
        )
    return rep


def verify_model(ctx: Context) -> VerificationReport:
    """Aggregate suite for the differential model."""
    p = ctx.p
    rep = VerificationReport(suite="model", params={**p.as_dict(), "rho": str(ctx.rho)})
    for name, diff, want in (("Z", diff_Z, ctx.Z), ("V", diff_V, ctx.V), ("X", diff_X, ctx.X)):
        got = matrix_in_monomial_basis(diff(p), p)
        rep.add(
            f"g-basis-{name}",
            f"differential {name} on g_n equals the abstract matrix",
            got == want,
            detail="" if got == want else "matrix mismatch",
        )
    bases, families = _model_bases_report(ctx)
    for sub in (
        bases,
        model_orthogonality(ctx, families),
        integral_representations(ctx),
        model_transposes(ctx),
    ):
        rep.checks.extend(sub.checks)
    return rep
