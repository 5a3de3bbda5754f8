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
FAMILIES maps each label to its eigenvalue, column and pencil; every
entry point looks its label up there.  A Context is one validated
parameter set; every suite reads the generators and families from it.

Pairings are bilinear (no conjugation).  The families pair up as

    <e*_m|e_n> = <f*_m|f_n> = <z*_m|z_n> = delta_mn,   <d*_m|Z|d_n> = delta_mn

with matching resolutions of identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable

from .algebra import Params, build_Z, build_V, build_X, build_transposes, require_generic
from .errors import NondegenerateSpectrumViolated, PreconditionViolated
from .hyper import pochhammer, series_terms
from .matrices import RationalMatrix, nullspace
from .report import VerificationReport

Q = Fraction


@dataclass(frozen=True)
class FParams:
    """The extra parameter rho entering the pencil W = X + rho Z."""

    rho: Fraction

    def __post_init__(self):
        object.__setattr__(self, "rho", Q(self.rho))


@dataclass(frozen=True)
class BasisFamily:
    """A full eigenbasis: column n of ``vectors`` is the n-th basis vector."""

    label: str
    vectors: RationalMatrix
    eigenvalues: tuple

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


@dataclass(frozen=True)
class Family:
    """One row of the family table.

    The family solves A v = eigenvalue * B v with (A, B) = pencil(ctx),
    read from the generators Z, V, X, their transposes Zt, Vt, Xt, the
    identity I and rho of a Context.
    """

    eigenvalue: Callable  # (p, rho, n) -> Fraction
    column: Callable  # (p, rho, n) -> [coefficient of |l> for l = 0..N]
    pencil: Callable  # (ctx) -> (A, B)
    needs_rho: bool = False


FAMILIES = {
    "d": Family(_eig_d, _col_d, lambda c: (c.X, c.Z)),
    "dStar": Family(_eig_d, _col_dstar, lambda c: (c.Xt, c.Zt)),
    "e": Family(_eig_e, _col_e, lambda c: (c.V, c.I)),
    "eStar": Family(_eig_e, _col_estar, lambda c: (c.Vt, c.I)),
    "f": Family(_eig_f, _col_f, lambda c: (c.X + c.rho * c.Z, c.I), needs_rho=True),
    "fStar": Family(_eig_f, _col_fstar, lambda c: (c.Xt + c.rho * c.Zt, c.I), needs_rho=True),
    "z": Family(_eig_z, _col_z, lambda c: (c.Z, c.I)),
    "zStar": Family(_eig_z, _col_zstar, lambda c: (c.Zt, c.I)),
}
LABELS = tuple(FAMILIES)


def family(label: str, fp: FParams | None) -> Family:
    """The table row for label; every entry point validates its label here."""
    fam = FAMILIES.get(label)
    if fam is None:
        raise PreconditionViolated(f"unknown basis label {label!r}")
    if fam.needs_rho and fp is None:
        raise PreconditionViolated(f"label {label!r} needs FParams")
    return fam


def eigenvalue(label: str, p: Params, fp: FParams | None, n: int) -> Fraction:
    return family(label, fp).eigenvalue(p, fp.rho if fp else None, n)


def build_basis(p: Params, fp: FParams | None, label: str) -> BasisFamily:
    """Evaluate the closed-form expansion of every vector in the family."""
    fam = family(label, fp)
    rho = fp.rho if fp else None
    N = p.N
    cols = [fam.column(p, rho, n) for n in range(N + 1)]
    eigs = tuple(fam.eigenvalue(p, rho, n) for n in range(N + 1))
    return BasisFamily(label=label, vectors=RationalMatrix.from_columns(cols), eigenvalues=eigs)


# Nothing in the library calls cached_basis: the families live in a Context.
# perfbench/tracer.py still wraps it and reads its cache_info(), so the name
# stays until the benchmark stops reading it.
cached_basis = lru_cache(maxsize=256)(build_basis)


@dataclass(frozen=True)
class Context:
    """One parameter set: p, and FParams where rho is given.

    Making a Context is the one genericity check: it raises
    DegenerateParameters unless (p, rho) is generic, and nothing that
    takes a Context checks again.  The generators Z, V, X, their
    transposes Zt, Vt, Xt, the identity I and each closed-form family are
    built on first use and kept for the Context's lifetime.  Equality and
    hashing follow (p, fp).
    """

    p: Params
    fp: FParams | None = None
    _bases: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        require_generic(self.p, self.rho)

    @property
    def rho(self):
        """rho, or None when no FParams are given."""
        return self.fp.rho if self.fp else None

    Z = cached_property(lambda self: build_Z(self.p))
    V = cached_property(lambda self: build_V(self.p))
    X = cached_property(lambda self: build_X(self.p))
    _transposes = cached_property(lambda self: build_transposes(self.p))
    Zt = property(lambda self: self._transposes[0])
    Vt = property(lambda self: self._transposes[1])
    Xt = property(lambda self: self._transposes[2])
    I = cached_property(lambda self: RationalMatrix.identity(self.p.N + 1))

    def basis(self, label: str) -> BasisFamily:
        """The closed-form family, built on first use."""
        fam = self._bases.get(label)
        if fam is None:
            fam = self._bases[label] = build_basis(self.p, self.fp, label)
        return fam


def oracle_basis(ctx: Context, label: str) -> BasisFamily:
    """Recompute each basis vector as a kernel of (A - eigenvalue B).

    Fraction-free elimination must return a one-dimensional kernel for every
    index (NondegenerateSpectrumViolated otherwise); the solution is scaled
    so its component on |n> matches the closed form's, which is the only use
    made of the closed-form data: the anchors are the diagonal of the
    closed-form family.
    """
    p, fp = ctx.p, ctx.fp
    A, B = family(label, fp).pencil(ctx)
    N = p.N
    eigs = tuple(eigenvalue(label, p, fp, n) for n in range(N + 1))
    closed = ctx.basis(label).vectors
    cols = []
    for n in range(N + 1):
        kernel = nullspace(A - eigs[n] * B)
        if len(kernel) != 1:
            raise NondegenerateSpectrumViolated(
                f"family {label}, index {n}: kernel dimension {len(kernel)}, expected 1"
            )
        v = list(kernel[0])
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
    """Gram and completeness relations for all four basis pairs.

    Self-dual pairs use the plain bilinear Gram; the pencil pair is paired
    through Z.  Completeness bundles the three plain resolutions of identity
    and the Z-weighted one for the pencil family.
    """
    p, fp = ctx.p, ctx.fp
    ident, Z = ctx.I, ctx.Z
    rep = VerificationReport(
        suite="eigenbases:orthogonality", params={**p.as_dict(), "rho": str(fp.rho)}
    )
    fams = {label: ctx.basis(label).vectors for label in LABELS}
    for label in ("e", "f", "z"):
        dual = fams[label + "Star"]
        rep.add_matrix_zero(
            f"gram-{label}",
            f"<{label}*_m|{label}_n> = delta_mn",
            dual.transpose() * fams[label] - ident,
        )
        rep.add_matrix_zero(
            f"completeness-{label}",
            f"sum_n |{label}_n><{label}*_n| = I",
            fams[label] * dual.transpose() - ident,
        )
    rep.add_matrix_zero(
        "gram-d", "<d*_m|Z|d_n> = delta_mn", fams["dStar"].transpose() * Z * fams["d"] - ident
    )
    rep.add_matrix_zero(
        "completeness-d", "sum_n Z|d_n><d*_n| = I", Z * fams["d"] * fams["dStar"].transpose() - ident
    )
    for label in ("d", "e", "f", "z"):
        eigs = [eigenvalue(label, p, fp, n) for n in range(p.N + 1)]
        distinct = len(set(eigs)) == p.N + 1
        rep.add(
            f"distinct-eigenvalues-{label}",
            f"family {label}: eigenvalues pairwise distinct",
            distinct,
            "" if distinct else "repeated eigenvalue",
        )
    return rep
