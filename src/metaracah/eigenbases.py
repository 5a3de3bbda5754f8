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
relevant matrix pencil and only borrows the closed form's normalization.
Every pencil is bidiagonal (d, e*, f and z lower, the adjoint families
upper), so each kernel is a two-term recurrence along the band.
FAMILIES maps each label to its eigenvalue, column, pencil, dual and
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
through the weight B of its pencil, as FAMILIES states once:

    <e*_m|e_n> = <f*_m|f_n> = <z*_m|z_n> = delta_mn,   <d*_m|Z|d_n> = delta_mn

with matching resolutions of identity.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

from . import racahpoly, rationalfns
from .algebra import (Params, build_Z, build_V, build_X, build_transposes, build_casimir,
                      require_generic)
from .errors import Frozen, NondegenerateSpectrumViolated, PreconditionViolated
from .hyper import pochhammer, series_terms
from .matrices import RationalMatrix, right_divide_lower_bidiagonal
from .report import VerificationReport

Q = Fraction


class BasisFamily(Frozen):
    """A full eigenbasis: column n of ``vectors`` is the n-th basis vector."""

    __slots__ = _fields = ("label", "vectors", "eigenvalues")

    def __init__(self, label: str, vectors: RationalMatrix, eigenvalues: tuple):
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "eigenvalues", eigenvalues)

    def column(self, n: int):
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

    The family b solves A v = eigenvalue * B v with (A, B) = pencil(ctx),
    read from the generators Z, V, X, their transposes Zt, Vt, Xt, the
    identity I and rho of a Context.  Its dual b* = FAMILIES[dual] pairs
    with it through the weight W = B, the Context matrix named weight
    (None for the identity): (b*)^T W b = I.
    """

    eigenvalue: Callable  # (p, rho, n) -> Fraction
    column: Callable  # (p, rho, n) -> [coefficient of |l> for l = 0..N]
    pencil: Callable  # (ctx) -> (A, B)
    dual: str
    weight: str | None = None
    needs_rho: bool = False


FAMILIES = {
    "d": Family(_eig_d, _col_d, lambda c: (c.X, c.Z), "dStar", "Z"),
    "dStar": Family(_eig_d, _col_dstar, lambda c: (c.Xt, c.Zt), "d", "Zt"),
    "e": Family(_eig_e, _col_e, lambda c: (c.V, c.I), "eStar"),
    "eStar": Family(_eig_e, _col_estar, lambda c: (c.Vt, c.I), "e"),
    "f": Family(_eig_f, _col_f, lambda c: (c.X + c.rho * c.Z, c.I), "fStar", needs_rho=True),
    "fStar": Family(_eig_f, _col_fstar, lambda c: (c.Xt + c.rho * c.Zt, c.I), "f",
                    needs_rho=True),
    "z": Family(_eig_z, _col_z, lambda c: (c.Z, c.I), "zStar"),
    "zStar": Family(_eig_z, _col_zstar, lambda c: (c.Zt, c.I), "z"),
}
LABELS = tuple(FAMILIES)


def family(label: str, rho: Fraction | None) -> Family:
    """The table row for label; every entry point validates its label here."""
    fam = FAMILIES.get(label)
    if fam is None:
        raise PreconditionViolated(f"unknown basis label {label!r}")
    if fam.needs_rho and rho is None:
        raise PreconditionViolated(f"label {label!r} needs rho")
    return fam


def eigenvalue(label: str, p: Params, rho: Fraction | None, n: int) -> Fraction:
    return family(label, rho).eigenvalue(p, rho, n)


def build_basis(p: Params, rho: Fraction | None, label: str) -> BasisFamily:
    """Evaluate the closed-form expansion of every vector in the family."""
    fam = family(label, rho)
    N = p.N
    cols = [fam.column(p, rho, n) for n in range(N + 1)]
    eigs = tuple(fam.eigenvalue(p, rho, n) for n in range(N + 1))
    return BasisFamily(label=label, vectors=RationalMatrix.from_columns(cols), eigenvalues=eigs)


class Grid(NamedTuple):
    """One row of the grid table: build(ctx) is the closed-form overlap
    table of a Context as a RationalMatrix, entry (m, n) its value at
    (m, n)."""

    build: Callable  # (ctx) -> RationalMatrix
    needs_rho: bool = False


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


# The eight overlap tables, keyed by `table --which` name, each built as one
# RationalMatrix.  Every table is a closed form, and none is evaluated point
# by point.
GRIDS = {
    "racah": Grid(lambda c: racahpoly.racah_table(_racah_params(c)), needs_rho=True),
    "S": Grid(_prefactored("racah", racahpoly._prefactor_S_m, racahpoly._prefactor_S_n,
                           _racah_params), needs_rho=True),
    "Stilde": Grid(_prefactored("racah", racahpoly._prefactor_Stilde_m,
                                racahpoly._prefactor_Stilde_n, _racah_params), needs_rho=True),
    "calU": Grid(_calU_grid),
    "calUtilde": Grid(_calU_tilde_grid),
    "U": Grid(_prefactored("calU", rationalfns._prefactor_U_m, rationalfns._prefactor_U_n,
                           _params)),
    "Utilde": Grid(_prefactored("calUtilde", rationalfns._prefactor_Utilde_m,
                                rationalfns._prefactor_Utilde_n, _params)),
    "dualHahn": Grid(lambda c: rationalfns.dual_hahn_table(rationalfns.dual_hahn_params(c.p))),
}


# Nothing in the library calls cached_basis: the families live in a Context.
# perfbench/tracer.py still wraps it and reads its cache_info(), so the name
# stays until the benchmark stops reading it.
cached_basis = lru_cache(maxsize=256)(build_basis)


class Context(Frozen):
    """One parameter set: p, and rho of X + rho Z as a Fraction, or None if not given.

    Making a Context is the one genericity check: it raises
    DegenerateParameters unless (p, rho) is generic, and nothing that
    takes a Context checks again.  Everything a suite reads more than once
    is built on first use and kept for the Context's lifetime.  The
    generators Z, V, X, their transposes Zt, Vt, Xt, the identity I,
    Vtilde = X Z^{-1} and the Casimir C are attributes; every other table
    goes through ``keep``, one store under keys that name their kind: each
    closed-form family (``basis``), each overlap grid (``grid``), each
    dual side (b*)^T W (``dual_side``), which the Gram checks and every
    operator matrix in an eigenbasis (``matrixreps.matrix_on``) share, and
    each closed-form band table (``matrixreps.bands``).  Each matrix keeps
    its own transpose and integer-scaled forms.  Equality and hashing
    follow (p, rho); rho = 0 is given.
    """

    _fields = ("p", "rho")

    def __init__(self, p: Params, rho: Fraction | None = None):
        # no __slots__: cached_property keeps its values in the __dict__ too
        self.__dict__.update(p=p, rho=None if rho is None else Q(rho), _kept={})
        require_generic(self.p, self.rho)

    Z = cached_property(lambda self: build_Z(self.p))
    V = cached_property(lambda self: build_V(self.p))
    X = cached_property(lambda self: build_X(self.p))
    _transposes = cached_property(lambda self: build_transposes(self.p))
    Zt = property(lambda self: self._transposes[0])
    Vt = property(lambda self: self._transposes[1])
    Xt = property(lambda self: self._transposes[2])
    I = cached_property(lambda self: RationalMatrix.identity(self.p.N + 1))
    Vtilde = cached_property(lambda self: right_divide_lower_bidiagonal(self.X, self.Z))
    C = cached_property(build_casimir)

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
        """(b*)^T W for the family b = label, its dual b* and weight W read
        from FAMILIES, built on first use."""
        def build():
            fam = family(label, self.rho)
            left = self.basis(fam.dual).vectors.transpose()
            return left * getattr(self, fam.weight) if fam.weight else left
        return self.keep(("dual side", label), build)

    def grid(self, name: str) -> RationalMatrix:
        """The overlap table GRIDS[name], entry (m, n) its value at (m, n),
        built on first use and kept as its reduced entries (each written
        once); like every RationalMatrix it cannot be changed in place."""
        if name not in GRIDS:
            raise PreconditionViolated(f"unknown grid {name!r}")
        if GRIDS[name].needs_rho and self.rho is None:
            raise PreconditionViolated(f"grid {name!r} needs rho")
        return self.keep(("grid", name), lambda: GRIDS[name].build(self).reduced())


def oracle_basis(ctx: Context, label: str) -> BasisFamily:
    """Recompute each basis vector as the kernel of A - eigenvalue B.

    Every pencil (A, B) is bidiagonal, lower when A and B both are, else
    upper; its diagonal and off bands are read once, off the integer form
    of a sum such as X + rho Z, so the pencil is not written out.  Diagonal
    entry j of A - lam B vanishes at lam = a_j / b_j, or at every lam when
    a_j = b_j = 0: the roots are found once, and each eigenvalue looks its
    vanishing entries up.  From the one vanishing entry k, v_k = 1 and
    v_j = -off v_(j-1) / diag_j for j > k (lower) or -off v_(j+1) / diag_j
    for j < k (upper), zero on the other side: O(N) per index, forming
    only the entries the recurrence reads.  The vector is scaled so its
    component on |n> matches the closed form's, the only use made of the
    closed-form data.

    NondegenerateSpectrumViolated for a pencil off the band, an eigenvalue
    at which no diagonal entry vanishes (a nonsingular band matrix: kernel
    dimension 0) or several do (a multiple root of det(A - lam B) =
    prod_j (a_j - lam b_j)), or a vanishing component on |n>; no set that
    a Context accepts reaches any of them.
    """
    p, rho = ctx.p, ctx.rho
    A, B = family(label, rho).pencil(ctx)
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
    N = p.N
    eigs = tuple(eigenvalue(label, p, rho, n) for n in range(N + 1))
    closed = ctx.basis(label).vectors
    cols = []
    for n, lam in enumerate(eigs):
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
        anchor = closed[n, n]
        if v[n] == 0 or anchor == 0:
            raise NondegenerateSpectrumViolated(
                f"family {label}, index {n}: vanishing component on |{n}>"
            )
        scale = anchor / v[n]
        cols.append([scale * x for x in v])
    return BasisFamily(label=label, vectors=RationalMatrix.from_columns(cols), eigenvalues=eigs)


def z_action_on_d(p: Params, n: int):
    """Closed-form expansion of Z applied to the n-th pencil vector:

    Z d_n = (alpha - beta - 1) * pref(n)
            * sum_l (n-N)_(N-l) (alpha-N)_(N-l+1) / (n-N-alpha+beta+1)_(N-l+1) |l>

    with pref(n) the same prefactor as in the d-family closed form.
    """
    N, a, b = p.N, p.alpha, p.beta
    c = n - N - a + b + 1
    pref = (a - b - 1) * pochhammer(c, N - n) / (
        pochhammer(n - N, N - n) * pochhammer(a - N, N - n)
    )
    # (alpha-N)_(k+1) / (c)_(k+1) = (alpha-N)/c * (alpha-N+1)_k / (c+1)_k, k = N - l
    head = pref * (a - N) / c
    return tuple(series_terms((n - N, a - N + 1, 1), (c + 1,), N + 1, head=head)[::-1])


def check_orthogonality(ctx: Context) -> VerificationReport:
    """Gram, completeness and distinct-eigenvalue checks for the four basis
    pairs b, b* of d, e, f and z, each paired through its weight W in
    FAMILIES (Z for the pencil family d, the identity otherwise): the Gram
    (b*)^T W b and the resolution of identity W b (b*)^T are both I, and
    the family's own eigenvalues are pairwise distinct.
    """
    rep = VerificationReport(
        suite="eigenbases:orthogonality", params={**ctx.p.as_dict(), "rho": str(ctx.rho)}
    )
    for label in ("d", "e", "f", "z"):
        fam, b = FAMILIES[label], ctx.basis(label)
        w = fam.weight or ""
        weighted = getattr(ctx, w) * b.vectors if w else b.vectors
        bar = f"|{w}|" if w else "|"
        rep.add_matrix_zero(f"gram-{label}", f"<{label}*_m{bar}{label}_n> = delta_mn",
                            ctx.dual_side(label) * b.vectors - ctx.I)
        rep.add_matrix_zero(f"completeness-{label}", f"sum_n {w}|{label}_n><{label}*_n| = I",
                            weighted * ctx.basis(fam.dual).vectors.transpose() - ctx.I)
        distinct = len(set(b.eigenvalues)) == len(b.eigenvalues)
        rep.add(f"distinct-eigenvalues-{label}", f"family {label}: eigenvalues pairwise distinct",
                distinct, "" if distinct else "repeated eigenvalue")
    return rep
