"""The eight (generalized) eigenbases of the bidiagonal realization.

Four operators are diagonalized, each together with its transpose:

    family  equation                      eigenvalue at index n
    d, d*   X|d_n> = lambda_n Z|d_n>      lambda_n = alpha - n   (pencil)
    e, e*   V|e_n> = mu_n |e_n>           mu_n = (n-beta-zeta-1)(beta+zeta-n)
    f, f*   (X+rho Z)|f_n> = nu_n |f_n>   nu_n = (n-alpha-rho)(alpha-n)
    z, z*   Z|z_n> = (n-alpha)|z_n>

Every basis vector has an explicit expansion over the standard basis with
Pochhammer-ratio coefficients; build_basis evaluates those closed forms,
while oracle_basis recomputes each vector from scratch as a kernel of the
relevant matrix pencil at the kept family's eigenvalue row, borrowing only
that row and the closed form's normalization.  Every pencil is bidiagonal
(d, e*, f and z lower; d*, e, f* and z* upper), so each kernel is a
two-term recurrence along the band.
FAMILIES maps each label to its eigenvalue, column, operator, dual and
weight; every entry point looks its label up there.  GRIDS maps the name
of each closed-form overlap table to its builder, and each table is one
immutable RationalMatrix: the R, calU, calU-tilde and dual Hahn tables
are each one product of term tables, and S, Stilde, U and Utilde are
diag(f) G diag(g) on them, scaled without a product, with the
prefactor's factors f in m and g in n evaluated once per index.  A
Context is one validated parameter set; every suite reads the
generators, families and overlap grids from it, and it keeps every
derived table in one store.

Pairings are bilinear (no conjugation).  Each family pairs with its dual
through its weight, the B of its pencil, as FAMILIES states once:

    <e*_m|e_n> = <f*_m|f_n> = <z*_m|z_n> = delta_mn,   <d*_m|Z|d_n> = delta_mn

with matching resolutions of identity.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple

from . import matrixreps, racahpoly, rationalfns
from .algebra import (Params, build_Z, build_V, build_X, build_transposes, build_casimir,
                      require_generic)
from .errors import (Frozen, NondegenerateSpectrumViolated, PreconditionViolated, read_rho,
                     require_indices)
from .hyper import pochhammer, series_terms
from .matrices import RationalMatrix, right_divide_lower_bidiagonal
from .report import VerificationReport

Q = Fraction


class BasisFamily(Frozen):
    """A full eigenbasis: column n of ``vectors`` is the n-th basis vector."""

    __slots__ = _fields = ("label", "vectors", "eigenvalues")

    def __init__(self, label: str, vectors: RationalMatrix, eigenvalues: tuple):
        super().__init__(label, vectors, eigenvalues)

    def column(self, n: int):
        require_indices("basis column", self.vectors.cols - 1, n)
        return self.vectors.column(n)


# -- eigenvalues and closed-form columns ------------------------------------
# _eig_* return the eigenvalue at index n; _col_* the n-th basis vector as
# its coefficients on |0>..|N>: a prefactor in n times the terms of a
# terminating series, reversed for the families indexed by N - l (d, e*, f,
# z).  The upper parameter 1 cancels the series' k! where the expansion has
# none.  rho is None for families that do not use it.


def _eig_d(p, rho, n):
    return p.alpha - n


def _eig_e(p, rho, n):
    return (n - p.beta - p.zeta - 1) * (p.beta + p.zeta - n)


def _eig_f(p, rho, n):
    return (n - p.alpha - rho) * (p.alpha - n)


def _eig_z(p, rho, n):
    return n - p.alpha


def _col_d(p, rho, n):
    N, a, b = p.N, p.alpha, p.beta
    pref = pochhammer(n - N - a + b + 1, N - n) / (
        pochhammer(n - N, N - n) * pochhammer(a - N, N - n)
    )
    return series_terms((n - N, a - N, 1), (n - N - a + b + 1,), N + 1, head=pref)[::-1]


def _col_dstar(p, rho, n):
    a, b = p.alpha, p.beta
    pref = pochhammer(-n + a - b, n) / (pochhammer(1, n) * pochhammer(-a, n + 1))
    return series_terms((-n, -a, 1), (-n + a - b,), p.N + 1, head=pref, argument=-1)


def _col_e(p, rho, n):
    N, a, b, z = p.N, p.alpha, p.beta, p.zeta
    pref = (
        pochhammer(-N, n)
        * pochhammer(N - 2 * a - b - 2 * z, n)
        / pochhammer(n - 2 * b - 2 * z - 1, n)
    )
    return series_terms(
        (-n, n - 2 * b - 2 * z - 1), (-N, N - 2 * a - b - 2 * z), N + 1, head=pref, argument=-1
    )


def _col_estar(p, rho, n):
    N, a, b, z = p.N, p.alpha, p.beta, p.zeta
    pref = (
        pochhammer(-N, N - n)
        * pochhammer(n + N - 2 * a - b - 2 * z, N - n)
        / pochhammer(2 * b + 2 * z - N - n + 1, N - n)
    )
    return series_terms(
        (n - N, 2 * b + 2 * z - N - n + 1),
        (-N, 2 * a + b + 2 * z - 2 * N + 1),
        N + 1,
        head=pref,
    )[::-1]


def _col_f(p, rho, n):
    N, a, b = p.N, p.alpha, p.beta
    pref = pochhammer(b + rho - N + 1, N - n) / (
        pochhammer(n - N, N - n) * pochhammer(2 * a + rho - N - n, N - n)
    )
    return series_terms(
        (n - N, 2 * a + rho - N - n, 1), (b + rho - N + 1,), N + 1, head=pref
    )[::-1]


def _col_fstar(p, rho, n):
    a, b = p.alpha, p.beta
    pref = pochhammer(-b - rho, n) / (pochhammer(1, n) * pochhammer(n - 2 * a - rho, n))
    return series_terms((-n, n - 2 * a - rho, 1), (-b - rho,), p.N + 1, head=pref, argument=-1)


def _col_z(p, rho, n):
    N = p.N
    return series_terms((n - N, 1), (), N + 1, head=1 / pochhammer(n - N, N - n))[::-1]


def _col_zstar(p, rho, n):
    return series_terms((-n, 1), (), p.N + 1, head=(-1) ** n / pochhammer(-n, n), argument=-1)


class Family(NamedTuple):
    """One row of the family table.

    The family b solves A v = eigenvalue * B v with A = operator(ctx), read
    from the operators of a Context, and B its weight, the Context matrix
    named weight (the identity I where weight is None).  Its dual
    b* = FAMILIES[dual] pairs with it through the weight: (b*)^T B b = I.
    """

    eigenvalue: Callable  # (p, rho, n) -> Fraction
    column: Callable  # (p, rho, n) -> [coefficient of |l> for l = 0..N]
    operator: Callable  # (ctx) -> A
    dual: str
    weight: str | None = None
    needs_rho: bool = False


FAMILIES = {
    "d": Family(_eig_d, _col_d, lambda c: c.X, "dStar", "Z"),
    "dStar": Family(_eig_d, _col_dstar, lambda c: c.Xt, "d", "Zt"),
    "e": Family(_eig_e, _col_e, lambda c: c.V, "eStar"),
    "eStar": Family(_eig_e, _col_estar, lambda c: c.Vt, "e"),
    "f": Family(_eig_f, _col_f, lambda c: c.W, "fStar", needs_rho=True),
    "fStar": Family(_eig_f, _col_fstar, lambda c: c.Xt + c.rho * c.Zt, "f", needs_rho=True),
    "z": Family(_eig_z, _col_z, lambda c: c.Z, "zStar"),
    "zStar": Family(_eig_z, _col_zstar, lambda c: c.Zt, "z"),
}
LABELS = tuple(FAMILIES)


def family(label: str, rho: Fraction | None) -> Family:
    """The table row for label; every entry point validates its label here."""
    fam = FAMILIES.get(label)
    if fam is None:
        raise PreconditionViolated(f"unknown basis label {label!r}")
    if fam.needs_rho:
        read_rho(rho, f"label {label!r} needs rho")
    return fam


def eigenvalue(label: str, p: Params, rho: Fraction | None, n: int) -> Fraction:
    require_indices("eigenvalue", p.N, n)
    return family(label, rho).eigenvalue(p, read_rho(rho), n)


def build_basis(p: Params, rho: Fraction | None, label: str) -> BasisFamily:
    """Evaluate the closed-form expansion of every vector in the family."""
    fam, rho = family(label, rho), read_rho(rho)
    N = p.N
    cols = [fam.column(p, rho, n) for n in range(N + 1)]
    eigs = tuple(fam.eigenvalue(p, rho, n) for n in range(N + 1))
    return BasisFamily(label=label, vectors=RationalMatrix.from_columns(cols), eigenvalues=eigs)


def _racah_params(ctx):
    return racahpoly.RacahParams.from_params(ctx.p, ctx.rho)


def _prefactored(table: str, factor_m: Callable, factor_n: Callable, args: Callable):
    """The builder of diag(f) G diag(g), G = ctx.grid(table): f(m) =
    factor_m(m, args(ctx)) and g(n) = factor_n(n, args(ctx)), each
    evaluated once per index and applied by G.scaled, not by a product.
    G comes first, so a lower parameter that vanishes in its series raises
    DegenerateParameters even where a prefactor also has a pole."""
    def build(ctx):
        G, a, indices = ctx.grid(table), args(ctx), range(ctx.p.N + 1)
        return G.scaled([factor_m(m, a) for m in indices], [factor_n(n, a) for n in indices])
    return build


def _calU_grid(ctx):
    p = ctx.p
    return rationalfns.calU_table(p.alpha, p.beta, p.zeta, p.N, range(p.N + 1))


def _calU_tilde_grid(ctx):
    # calU_tilde_m(n) is calU_m(N - n) at the substituted parameters
    N = ctx.p.N
    return rationalfns.calU_table(*rationalfns.tilde_params(ctx.p), N, range(N, -1, -1))


def _params(ctx):
    return ctx.p


# The eight overlap tables, keyed by `table --which` name: each builder
# (ctx) -> RationalMatrix returns one closed form, entry (m, n) its value at
# (m, n), and none is evaluated point by point.  RHO_GRIDS are the tables
# that read rho, through the Racah parameters.
GRIDS = {
    "racah": lambda c: racahpoly.racah_table(_racah_params(c)),
    "S": _prefactored("racah", racahpoly._prefactor_S_m, racahpoly._prefactor_S_n,
                      _racah_params),
    "Stilde": _prefactored("racah", racahpoly._prefactor_Stilde_m,
                           racahpoly._prefactor_Stilde_n, _racah_params),
    "calU": _calU_grid,
    "calUtilde": _calU_tilde_grid,
    "U": _prefactored("calU", rationalfns._prefactor_U_m, rationalfns._prefactor_U_n, _params),
    "Utilde": _prefactored("calUtilde", rationalfns._prefactor_Utilde_m,
                           rationalfns._prefactor_Utilde_n, _params),
    "dualHahn": lambda c: rationalfns.dual_hahn_table(rationalfns.dual_hahn_params(c.p)),
}
RHO_GRIDS = ("racah", "S", "Stilde")


# Nothing in the library calls cached_basis: the families live in a Context.
# perfbench/tracer.py still wraps it and reads its cache_info(), so the name
# stays until the benchmark stops reading it.
cached_basis = lru_cache(maxsize=256)(build_basis)


def _operator(name: str, build: Callable) -> property:
    """The Context attribute kept under ("operator", name): build(ctx)."""
    return property(lambda ctx: ctx.keep(("operator", name), build, ctx))


class Context(Frozen):
    """One parameter set: p, and rho of X + rho Z as a Fraction, or None if not given.

    Making a Context is the one genericity check: it raises
    DegenerateParameters unless (p, rho) is generic, and nothing that takes
    a Context checks again.  Everything a suite reads more than once is
    built on first use and kept for the Context's lifetime by ``keep``, one
    store under keys that name their kind: each operator attribute
    (``operator``), that is the generators Z, V, X, their transposes Zt, Vt,
    Xt (read off one kept ``transposes`` call), the identity I,
    Vtilde = X Z^{-1}, the Casimir C and W = X + rho Z (given rho); each
    closed-form family (``basis``); each overlap grid (``grid``); each dual
    side, (b*)^T times the weight (``dual side``), which every operator
    matrix in an eigenbasis (``matrixreps.matrix_on``) reads; that of b*
    transposed is the weight times b, which the Gram and completeness of b
    read (Z d for d, which identify-Utilde and the trio's Z V clause read
    too); each family's closed-form band tables (``band tables``); the
    closed e^T z* table (``rationalfns.em_zstar_table``) and the dual Hahn
    residuals (``rationalfns.dual_hahn_residuals``).  Equality and hashing
    follow (p, rho); rho = 0 is given.
    """

    _fields = ("p", "rho")

    def __init__(self, p: Params, rho: Fraction | None = None):
        super().__init__(p, read_rho(rho))
        self.__dict__["_kept"] = {}
        require_generic(self.p, self.rho)

    Z = _operator("Z", lambda c: build_Z(c.p))
    V = _operator("V", lambda c: build_V(c.p))
    X = _operator("X", lambda c: build_X(c.p))
    Zt = _operator("Zt", lambda c: c.keep(("transposes",), build_transposes, c.p)[0])
    Vt = _operator("Vt", lambda c: c.keep(("transposes",), build_transposes, c.p)[1])
    Xt = _operator("Xt", lambda c: c.keep(("transposes",), build_transposes, c.p)[2])
    I = _operator("I", lambda c: RationalMatrix.identity(c.p.N + 1))
    Vtilde = _operator("Vtilde", lambda c: right_divide_lower_bidiagonal(c.X, c.Z))
    C = _operator("C", build_casimir)
    W = _operator("W", lambda c: c.X + read_rho(c.rho, "the Racah operator X + rho Z needs rho")
                  * c.Z)

    def keep(self, key, build: Callable, *args):
        """The table kept under key, a tuple that names its kind first:
        build(*args), called on the key's first use only."""
        kept = self._kept
        if key not in kept:
            kept[key] = build(*args)
        return kept[key]

    def basis(self, label: str) -> BasisFamily:
        """The closed-form family, built on first use."""
        return self.keep(("basis", label), build_basis, self.p, self.rho, label)

    def dual_side(self, label: str) -> RationalMatrix:
        """(b*)^T times the weight for the family b = label, its dual b* and
        weight read from FAMILIES, built on first use."""
        def build():
            fam = family(label, self.rho)
            left = self.basis(fam.dual).vectors.transpose()
            return left * getattr(self, fam.weight) if fam.weight else left
        return self.keep(("dual side", label), build)

    def band_tables(self, basis: str) -> dict:
        """The closed-form band tables matrixreps.COEFFS[basis] builds, each
        a RationalMatrix under the name of its operator, built on first use;
        a family that needs rho is refused through FAMILIES."""
        family(basis, self.rho)
        if basis not in matrixreps.COEFFS:
            raise PreconditionViolated(f"no band tables for {basis!r}")
        return self.keep(("band tables", basis), matrixreps.COEFFS[basis], self)

    def grid(self, name: str) -> RationalMatrix:
        """The overlap table GRIDS[name] builds, entry (m, n) its value at
        (m, n), built on first use and kept as its reduced entries (each
        written once); like every RationalMatrix it cannot be changed in
        place.  A name in RHO_GRIDS is refused without rho."""
        if name not in GRIDS:
            raise PreconditionViolated(f"unknown grid {name!r}")
        if name in RHO_GRIDS:
            read_rho(self.rho, f"grid {name!r} needs rho")
        return self.keep(("grid", name), lambda: GRIDS[name](self).reduced())


def oracle_basis(ctx: Context, label: str) -> BasisFamily:
    """Recompute each basis vector of the kept family ctx.basis(label) as
    the kernel of A - eigenvalue B at the family's own eigenvalue row, A
    the family's operator and B its weight.

    Every pencil (A, B) is bidiagonal, lower when A and B both are, else
    upper; its diagonal and off bands are read once, off the integer form
    of a sum such as X + rho Z, so the pencil is not written out.  Diagonal
    entry j of A - lam B vanishes at lam = a_j / b_j, or at every lam when
    a_j = b_j = 0: the roots are found once, and each eigenvalue looks its
    vanishing entries up.  From the one vanishing entry k, v_k = 1 and
    v_j = -off v_(j-1) / diag_j for j > k (lower) or -off v_(j+1) / diag_j
    for j < k (upper), zero on the other side: O(N) per index, forming
    only the entries the recurrence reads.  The vector is scaled so its
    component on |n> matches the kept family's entry (n, n): that diagonal
    and the eigenvalue row, which it returns, are all the oracle reads of
    the family, so an eigenvalue that is off moves the kernel off the
    family's vector.

    NondegenerateSpectrumViolated for a pencil off the band, an eigenvalue
    at which no diagonal entry vanishes (a nonsingular band matrix: kernel
    dimension 0) or several do (a multiple root of det(A - lam B) =
    prod_j (a_j - lam b_j)), or a vanishing component on |n>; no set that
    a Context accepts reaches any of them.
    """
    kept = ctx.basis(label)  # refuses an unknown label, or a missing rho
    fam = FAMILIES[label]
    A, B = fam.operator(ctx), getattr(ctx, fam.weight or "I")
    lower = A.in_band(1, 0) and B.in_band(1, 0)
    if not (lower or A.in_band(0, 1) and B.in_band(0, 1)):
        raise NondegenerateSpectrumViolated(f"family {label}: pencil is not bidiagonal")
    off_band = -1 if lower else 1
    a_diag, a_off, b_diag, b_off = A.band(0), A.band(off_band), B.band(0), B.band(off_band)
    always, roots = [], {}
    for j, (x, y) in enumerate(zip(a_diag, b_diag)):
        if y:
            roots.setdefault(x / y, []).append(j)
        elif not x:
            always.append(j)
    N = ctx.p.N
    cols = []
    for n, lam in enumerate(kept.eigenvalues):
        zeros = always + roots.get(lam, [])
        if len(zeros) != 1:
            what = f"{len(zeros)} diagonal entries vanish" if zeros else "kernel dimension 0"
            raise NondegenerateSpectrumViolated(f"family {label}, index {n}: {what}, expected 1")
        k = zeros[0]
        v = [Q(0)] * (N + 1)
        v[k] = Q(1)
        for j in range(k + 1, N + 1) if lower else range(k - 1, -1, -1):
            prev = j - 1 if lower else j + 1
            i = min(j, prev)  # off-band entry (j, prev) is at index i of its band
            off = a_off[i] - lam * b_off[i] if b_off[i] else a_off[i]
            v[j] = -off * v[prev] / (a_diag[j] - lam * b_diag[j])
        anchor = kept.vectors[n, n]
        if v[n] == 0 or anchor == 0:
            raise NondegenerateSpectrumViolated(
                f"family {label}, index {n}: vanishing component on |{n}>"
            )
        scale = anchor / v[n]
        cols.append([scale * x for x in v])
    return BasisFamily(label=label, vectors=RationalMatrix.from_columns(cols),
                       eigenvalues=kept.eigenvalues)


def oracle_mismatch(ctx: Context, label: str) -> str | None:
    """None when the closed-form family of label equals oracle_basis's;
    otherwise the reason: the message of the NondegenerateSpectrumViolated
    the oracle raised, or "" when it found other vectors."""
    try:
        same = ctx.basis(label).vectors == oracle_basis(ctx, label).vectors
    except NondegenerateSpectrumViolated as exc:
        return str(exc)
    return None if same else ""


def z_action_on_d(p: Params, n: int):
    """Closed-form expansion of Z applied to the n-th pencil vector:

    Z d_n = (alpha - beta - 1) * pref(n)
            * sum_l (n-N)_(N-l) (alpha-N)_(N-l+1) / (n-N-alpha+beta+1)_(N-l+1) |l>

    with pref(n) the same prefactor as in the d-family closed form.
    """
    require_indices("z_action_on_d", p.N, n)
    N, a, b = p.N, p.alpha, p.beta
    c = n - N - a + b + 1
    pref = (a - b - 1) * pochhammer(c, N - n) / (
        pochhammer(n - N, N - n) * pochhammer(a - N, N - n)
    )
    # (alpha-N)_(k+1) / (c)_(k+1) = (alpha-N)/c * (alpha-N+1)_k / (c+1)_k, k = N - l
    head = pref * (a - N) / c
    return tuple(series_terms((n - N, a - N + 1, 1), (c + 1,), N + 1, head=head)[::-1])


def check_orthogonality(ctx: Context) -> VerificationReport:
    """The bases suite: Gram, completeness and distinct-eigenvalue checks
    for the four basis pairs b, b* of d, e, f and z, each paired through its
    weight B in FAMILIES (Z for the pencil family d, the identity
    otherwise): the Gram (b*)^T (B b) and the resolution of identity
    (B b) (b*)^T are both I, read off the same two square factors (B b is
    Z d for d), so a zero Gram decides both; and the family's
    own eigenvalues are pairwise distinct.  Last, closed-vs-oracle: every
    closed-form family equals oracle_basis's, and a failure names each
    family that does not, with the oracle's message where it raised.
    """
    rep = VerificationReport(
        suite="eigenbases:orthogonality", params={**ctx.p.as_dict(), "rho": str(ctx.rho)}
    )
    for label in ("d", "e", "f", "z"):
        fam, b = FAMILIES[label], ctx.basis(label)
        w = fam.weight or ""
        bar = f"|{w}|" if w else "|"
        # B b and (b*)^T, square: a zero Gram (b*)^T (B b) - I decides (B b) (b*)^T = I too
        left, right = ctx.dual_side(fam.dual).transpose(), ctx.basis(fam.dual).vectors.transpose()
        gram = right * left - ctx.I
        ok = rep.add_grid(f"gram-{label}", f"<{label}*_m{bar}{label}_n> = delta_mn", gram)
        rep.add_grid(f"completeness-{label}", f"sum_n {w}|{label}_n><{label}*_n| = I",
                     gram if ok else left * right - ctx.I)
        distinct = len(set(b.eigenvalues)) == len(b.eigenvalues)
        rep.add(f"distinct-eigenvalues-{label}", f"family {label}: eigenvalues pairwise distinct",
                distinct, "" if distinct else "repeated eigenvalue")
    reasons = {label: oracle_mismatch(ctx, label) for label in LABELS}
    bad = [label for label, reason in reasons.items() if reason is not None]
    raised = [f"; oracle: {reason}" for reason in reasons.values() if reason]
    rep.add("closed-vs-oracle",
            "closed-form expansions equal the pencil-kernel oracle for all families",
            not bad, detail="" if not bad else f"failing families: {bad}" + "".join(raised))
    return rep
