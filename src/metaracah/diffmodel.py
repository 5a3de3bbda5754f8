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

from fractions import Fraction

from .algebra import Params
from .eigenbases import FAMILIES, LABELS, Context, family
from .errors import Frozen, PreconditionViolated, exact
from .hyper import multi_pochhammer, pochhammer, series_terms
from .matrices import RationalMatrix
from .rationalfns import em_zstar_table
from .report import VerificationReport

Q = Fraction
_ZERO = Q(0)


class LaurentPoly(Frozen):
    """coeffs[i] is the coefficient of x**(min_exp + i); trimmed on both ends."""

    __slots__ = _fields = ("min_exp", "coeffs")

    def __init__(self, min_exp: int, coeffs: tuple):
        if type(min_exp) is not int:
            raise PreconditionViolated(f"min_exp must be an int, got {min_exp!r}")
        cs = [c if type(c) is Q else exact(c) for c in coeffs]
        lo = min_exp
        while cs and cs[-1] == 0:
            cs.pop()
        while cs and cs[0] == 0:
            cs.pop(0)
            lo += 1
        if not cs:
            lo = 0
        super().__init__(lo, tuple(cs))

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls(0, ())

    @classmethod
    def monomial(cls, exp: int, coeff=Q(1)) -> "LaurentPoly":
        return cls(exp, (coeff,))

    @classmethod
    def from_dict(cls, terms: dict) -> "LaurentPoly":
        if not terms:
            return cls.zero()
        lo = min(terms)
        hi = max(terms)
        return cls(lo, tuple(terms.get(e, _ZERO) for e in range(lo, hi + 1)))

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
        return _ZERO

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        terms = dict(self.items())
        for e, c in other.items():
            terms[e] = terms.get(e, _ZERO) + c
        return LaurentPoly.from_dict(terms)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.min_exp, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        # a float scalar is NotImplemented, as it is for a RationalMatrix
        if isinstance(other, (int, Q)):
            return LaurentPoly(self.min_exp, tuple(other * c for c in self.coeffs))
        if not isinstance(other, LaurentPoly):
            return NotImplemented
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


class DiffOp(Frozen):
    """a2 d^2/dx^2 + a1 d/dx + a0, all coefficients Laurent polynomials."""

    __slots__ = _fields = ("a2", "a1", "a0")

    def __init__(self, a2: LaurentPoly, a1: LaurentPoly, a0: LaurentPoly):
        super().__init__(a2, a1, a0)

    def apply(self, f: LaurentPoly) -> LaurentPoly:
        df = f.derivative()
        return self.a2 * df.derivative() + self.a1 * df + self.a0 * f


def coefficients(polys: list, exps) -> RationalMatrix:
    """Entry (k, j) is the coefficient of x^exps[k] in polys[j]: column j
    reads polys[j] over the exponents exps."""
    return RationalMatrix([[f.coefficient(e) for f in polys] for e in exps])


def _window(polys: list) -> range:
    """The exponents of polys, lowest to highest, never empty: a matrix needs a row."""
    lo = min(f.min_exp for f in polys)
    return range(lo, max(lo, max(f.max_exp for f in polys)) + 1)


def residue_grid(fs: list, gs: list) -> RationalMatrix:
    """The pairings <f_i, g_j>, each the coefficient of 1/x in f_i*g_j, as
    one product F G over the exponent window e of fs: F[i][e] is the
    coefficient of x^e in f_i and G[e][j] that of x^(-1-e) in g_j.  No
    product f_i*g_j is formed.
    """
    window = _window(fs)
    return coefficients(fs, window).transpose() * coefficients(gs, [-1 - e for e in window])


def residue_pair(f: LaurentPoly, g: LaurentPoly) -> Fraction:
    """<f, g>: the coefficient of 1/x in the product f*g, the one entry of
    residue_grid([f], [g]), read off its band 0 so that the grid is not
    written out."""
    return residue_grid([f], [g]).band(0)[0]


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


def _diff(name: str, p: Params) -> DiffOp:
    """The model operator of the generator name, Z, V or X, or of its
    transpose Zt, Vt or Xt, at p; the names are looked up when called."""
    return {"Z": diff_Z, "V": diff_V, "X": diff_X,
            "Zt": diff_Zt, "Vt": diff_Vt, "Xt": diff_Xt}[name](p)


def _g_norms(N: int) -> list:
    """(-1)^k (-N)_k = N (N-1) ... (N-k+1) for k = 0..N: the coefficient of
    x^k in g_k, and the reciprocal of the coefficient of x^(-k-1) in g*_k."""
    return series_terms((-N, 1), (), N + 1, argument=-1)


def g_bases(norms: list) -> tuple:
    """The monomial bases at norms = _g_norms(N): g_n(x) = (-1)^n (-N)_n x^n,
    the model of |n>, and g*_n(x) = (-1)^n x^(-n-1) / (-N)_n, the model of
    <n|, each for n = 0..N."""
    return ([LaurentPoly.monomial(n, c) for n, c in enumerate(norms)],
            [LaurentPoly.monomial(-n - 1, 1 / c) for n, c in enumerate(norms)])


# -- model bases ---------------------------------------------------------------


def jacobi_poly(n: int, a, b) -> LaurentPoly:
    """J_n^(a,b)(x) = (a+1)_n/n! 2F1(-n, n+a+b+1; a+1; x) on (0, 1)."""
    a, b = map(exact, (a, b))
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
    head = multi_pochhammer((Q(-N), N - 2 * a - b - 2 * z), n) / pochhammer(
        n - 2 * b - 2 * z - 1, n)
    return LaurentPoly(0, series_terms((-n, n - 2 * b - 2 * z - 1), (N - 2 * a - b - 2 * z,),
                                       n + 1, head=head))


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
    family(label, ctx.rho)  # refuses unknown labels, and f / f* without rho
    model = _MODELS[label]
    return [model(ctx.p, ctx.rho, n) for n in range(ctx.p.N + 1)]


def model_bases(rep: VerificationReport, ctx: Context, norms: list) -> dict:
    """Add to rep that the model families expand to exactly the abstract
    closed-form columns: entry (l, n) of each residual reads model polynomial
    n over g_l, or over g*_l for a dual family; norms = _g_norms(N).  A term
    outside that window, exponents 0..N or -N-1..-1, fails the family's
    check, whose detail names the exponents outside it.  Also
    that e is the Jacobi family of _e_as_jacobi(p) up to its scales, the one
    reader of that family.

    Returns the model families it built, by label.
    """
    p = ctx.p
    families = {}
    over_g = (range(p.N + 1), [1 / c for c in norms], "0..N")
    over_gstar = (range(-1, -p.N - 2, -1), norms, "-N-1..-1")
    for label in LABELS:
        fam = families[label] = model_basis(ctx, label)
        exps, scale, window = over_gstar if label.endswith("Star") else over_g
        statement = f"model family {label} matches the abstract expansion columnwise"
        outside = sorted({e for f in fam for e, _ in f.items() if e not in exps})
        if outside:
            rep.add(f"model-{label}", statement, False, f"exponents outside {window}: {outside}")
        else:
            rep.add_grid(f"model-{label}", statement,
                         coefficients(fam, exps).scaled(scale) - ctx.basis(label).vectors,
                         axes="(l, n)")

    # row l of the residual is the l-th exponent of the window both span
    e_fam, (jac, scales) = families["e"], _e_as_jacobi(p)
    window = _window(e_fam + jac)
    rep.add_grid("model-e-jacobi", "e_n(x) is a Jacobi polynomial up to the stated prefactor",
                 coefficients(e_fam, window) - coefficients(jac, window).scaled(None, scales),
                 axes="(l, n)")
    return families


def model_orthogonality(rep: VerificationReport, ctx: Context, families: dict) -> None:
    """Add to rep that the four residue-pairing Grams are exactly the
    identity: each family b of d, e, f and z pairs with its dual b* through
    the model operator of its weight W, both read from FAMILIES, as
    <b*_m, W b_n> = delta_mn.  A weighted pair also records whether its Gram
    without W is the identity; its corner <b*_0, b_0> is read first, and the
    whole Gram is formed only when that corner is 1.

    families maps each label to its model family.
    """
    p = ctx.p
    for label in ("d", "e", "f", "z"):
        fam = FAMILIES[label]
        b, b_dual, w = families[label], families[fam.dual], fam.weight
        gram = residue_grid(b_dual, list(map(_diff(w, p).apply, b)) if w else b)
        pair = f"<{label}*_m, {w} {label}_n>" if w else f"<{fam.dual}_m, {label}_n>"
        rep.add_grid(f"gram-{label}", f"{pair} = delta_mn under the residue pairing",
                     gram - ctx.I)
        if w:
            corner = residue_pair(b_dual[0], b[0])
            plain_is_I = corner == 1 and (residue_grid(b_dual, b) - ctx.I).is_zero()
            rep.add(f"gram-{label}-no-{w}",
                    f"<{label}*_m, {label}_n> without the {w} insertion is not the identity", True,
                    "identity" if plain_is_I
                    else f"differs from identity, e.g. entry (0, 0) = {corner}")


def integral_representations(rep: VerificationReport, ctx: Context, families: dict) -> None:
    """Add to rep the residue formulas for S, U and the dual Hahn values on
    the full grid, each the pairing of model e with a dual model family and
    compared with a closed-form table of the Context: <e_m, f*_n> = S_m(n),
    <e_m, d*_n> = U_m(n), and <e_m, z*_k> = g_m R^(dH)_k(m) / k!, g the U
    prefactor's factor in m, the table rationalfns.em_zstar_table keeps.

    families maps each label to its model family.
    """
    e = families["e"]
    rep.add_grid("integral-S", "residue formula reproduces S_m(n) on the full grid",
                 residue_grid(e, families["fStar"]) - ctx.grid("S"))
    rep.add_grid("integral-U", "residue formula reproduces U_m(n) on the full grid",
                 residue_grid(e, families["dStar"]) - ctx.grid("U"))
    rep.add_grid("integral-dual-hahn",
                 "residue formula reproduces R^(dH)_k(m) on the full grid",
                 residue_grid(e, families["zStar"]) - em_zstar_table(ctx), axes="(m, k)")


def model_transposes(rep: VerificationReport, ctx: Context, g: list, g_dual: list) -> None:
    """Add to rep the differential operators and their transposes against
    the abstract matrices on g, g_dual = g_bases(norms), each operator
    applied once per index.

    The model matrices are the two residue grids of the adjoint check:
    <g*_m, op g_n> is entry (m, n) of op on g, and <op_t g*_m, g_n> is
    entry (n, m) of op_t on g*, modulo the ghosts x^0 and x^(-N-2), which
    pair with no g_n.  An image of g_n with an exponent outside 0..N, or a
    dual image with one outside -N-1..-1 other than the ghosts, fails its
    check; the grids alone cannot see it.
    """
    p = ctx.p
    N = p.N
    for name in ("Z", "V", "X"):
        op, op_t = _diff(name, p), _diff(name + "t", p)
        images = [op.apply(x) for x in g]
        dual_images = [op_t.apply(x) for x in g_dual]
        on_g = residue_grid(g_dual, images)
        on_g_dual = residue_grid(dual_images, g)
        outside = sorted({e for h in images for e, _ in h.items() if not 0 <= e <= N})
        statement = f"differential {name} on g_n equals the abstract matrix"
        if outside:
            rep.add(f"g-basis-{name}", statement, False,
                    f"image exponents outside 0..N: {outside}")
        else:
            rep.add_grid(f"g-basis-{name}", statement, on_g - getattr(ctx, name))
        rep.add_grid(f"adjoint-{name}",
                     f"<{name}t g*_m, g_n> = <g*_m, {name} g_n> for all m, n",
                     on_g_dual - on_g)
        rep.add_grid(f"quotient-{name}",
                     f"matrix of {name}t on g*_n modulo ghosts equals the abstract transpose",
                     on_g_dual.transpose() - getattr(ctx, name + "t"))
        ghost_exps = sorted({e for h in dual_images for e, _ in h.items()
                             if not -N - 1 <= e <= -1})
        rep.add(
            f"ghosts-{name}",
            f"boundary leftovers of {name}t lie on the ghost exponents only",
            all(e in (0, -N - 2) for e in ghost_exps),
            detail=f"ghost exponents: {ghost_exps}" if ghost_exps else "no ghosts",
        )


def verify_model(ctx: Context) -> VerificationReport:
    """Aggregate suite for the differential model, one report: each part
    adds its checks to it, and the report lists them by id, so the order
    the parts run in does not show.  The g-norms, the monomial bases and
    the model families are built once, here or in model_bases, and every
    pairing of the suite reads them."""
    p = ctx.p
    rep = VerificationReport(suite="model", params={**p.as_dict(), "rho": str(ctx.rho)})
    norms = _g_norms(p.N)
    families = model_bases(rep, ctx, norms)
    model_orthogonality(rep, ctx, families)
    integral_representations(rep, ctx, families)
    model_transposes(rep, ctx, *g_bases(norms))
    return rep
