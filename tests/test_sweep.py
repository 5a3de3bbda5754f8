"""A generated fault sweep over every item a Context keeps.

The six suites run on a clean Context at N = 2.  Then, for each item the
Context's store holds after that run (each operator, family, dual side,
band table, operator matrix in an eigenbasis and overlap grid, the closed
e^T z* table, the dual Hahn residuals, the defining-relation residuals,
each model family and each model operator, down to each member of a
tuple, a dict or a family), one fault is planted per band of each matrix:
1 added at the band's first entry.  A family also gets 1 added to its
eigenvalue at index 1.  Each model polynomial gets 1 added at its lowest
exponent, each model family one stray term in its last polynomial,
x^(N+1), or x^(-N-2) for a dual family, and each model operator two
faults in its a0: 1 added, and x^(N+1) added.  Each faulted item is kept
in a fresh Context and the six suites run again; a suite that raises
fails the test.  The column
of a check is the set of faults that fail it.  The test pins the faults
that fail no check (none), the checks that no fault fails, and the
groups of checks that share one column: two checks with one column fail
together on every fault the sweep plants, so they decide one identity,
or read one kept object and nothing else.

At N = 2 the sweep plants 417 faults and runs the six suites 418 times:
about 7.5 s alone (2-core VM, Python 3.11.7).
"""

from collections import defaultdict
from fractions import Fraction as Q

from metaracah import Context, DiffOp, LaurentPoly, Params
from metaracah.cli import SUITE_RUNNERS, SUITES
from metaracah.eigenbases import BasisFamily
from metaracah.matrices import RationalMatrix

from test_faults import (BASES, CASIMIR, MODEL, RACAH, RATIONAL, RELATIONS, SUBALGEBRAS,
                         _eigenvalue_plus_1, _plus_1_at)


N = 2


def _faults(value):
    """(where, faulted value) for each fault the sweep plants in value."""
    if isinstance(value, RationalMatrix):
        for band in range(1 - value.rows, value.cols):
            yield band, _plus_1_at(value, max(0, -band), max(0, band))
    elif isinstance(value, BasisFamily):
        for where, vectors in _faults(value.vectors):
            yield ("vectors", where), BasisFamily(value.label, vectors, value.eigenvalues)
        yield "eigenvalues", _eigenvalue_plus_1(value)
    elif isinstance(value, list):  # a model family
        for n, f in enumerate(value):
            yield n, value[:n] + [f + LaurentPoly.monomial(f.min_exp)] + value[n + 1:]
        stray = -N - 2 if value[-1].max_exp < 0 else N + 1
        yield "stray", value[:-1] + [value[-1] + LaurentPoly.monomial(stray)]
    elif isinstance(value, DiffOp):
        for exp in (0, N + 1):
            yield exp, DiffOp(value.a2, value.a1, value.a0 + LaurentPoly.monomial(exp))
    elif isinstance(value, tuple):
        for i, member in enumerate(value):
            for where, faulted in _faults(member):
                yield (i, where), value[:i] + (faulted,) + value[i + 1:]
    else:  # the band tables of a basis, by name
        for name, member in value.items():
            for where, faulted in _faults(member):
                yield (name, where), {**value, name: faulted}


def _statuses(ctx):
    return {(rep.suite, c.id): c.status for suite in SUITES for rep in SUITE_RUNNERS[suite](ctx)
            for c in rep.checks}


TRIO = "matrixreps:leonard-trio"

# the (key, where) faults that fail no check: none, since the trio's V-on-e
# and Z-on-z diagonals are compared with their families' eigenvalue rows
SILENT = []

# the checks that share one column, one set per column
SAME_COLUMN = {
    # the shifted and Borel checks decide the kept defining-relation
    # residuals: those of [Zb, Xb] and [Z, X + Z^2] are [Z, X]'s, and that
    # of [Vb, Zb] is [V, Z]'s (that of [Xb, Vb], [X, V]'s less zeta times
    # [V, Z]'s, shares its column with no check)
    frozenset({(RELATIONS, "relation-ZX"), (SUBALGEBRAS, "shifted-ZX"),
               (SUBALGEBRAS, "borel")}),
    frozenset({(RELATIONS, "relation-VZ"), (SUBALGEBRAS, "shifted-VZ")}),
    # C is built from the Context's generators, so a fault in one of them,
    # or in C, moves C against all three
    frozenset({(CASIMIR, "casimir-Z"), (CASIMIR, "casimir-V"), (CASIMIR, "casimir-X")}),
    # square converses, read off one pair of square factors: (b*)^T (B b)
    # = I and (B b) (b*)^T = I; Ut U^T = I and Ut^T U = I; the weighted
    # sums over points and over degrees.  Each model Gram reads its own
    # pair of kept model families, so none shares a column
    frozenset({(BASES, "gram-d"), (BASES, "completeness-d")}),
    frozenset({(BASES, "gram-e"), (BASES, "completeness-e")}),
    frozenset({(BASES, "gram-f"), (BASES, "completeness-f")}),
    frozenset({(BASES, "gram-z"), (BASES, "completeness-z")}),
    frozenset({(RATIONAL, "gram-U"), (RATIONAL, "gram-U-dual")}),
    frozenset({(RATIONAL, "biorth-point"), (RATIONAL, "biorth-degree")}),
}

# the checks that no fault of the sweep fails
NEVER_FAILED = {
    # eigenvalue 1 plus 1 repeats an eigenvalue of d (alpha - n) and of z
    # (n - alpha), but none of e or f
    (BASES, "distinct-eigenvalues-e"), (BASES, "distinct-eigenvalues-f"),
    # 1 added to a band entry leaves it nonzero on this set
    (TRIO, "trio-i-Z-irreducible"), (TRIO, "trio-ii-Z-irreducible"),
    (TRIO, "trio-iii-V-irreducible"),
    # information records, which always pass
    (MODEL, "gram-d-no-Z"), (RACAH, "weight-signs"), (RACAH, "norm-signs"),
    # the Hahn limit and the h_0 norm read routes, not kept items
    (RATIONAL, "deviation-decreasing"), (RATIONAL, "final-deviation-small"),
    (RATIONAL, "h0-normalization"),
}


def test_every_kept_band_is_read_and_shared_columns_are_pinned(rho):
    p = Params(N=N, alpha=Q(1, 3), beta=Q(1, 5), zeta=Q(1, 7))
    clean = Context(p, rho)
    checks = _statuses(clean)
    assert set(checks.values()) == {"pass"}
    columns, silent = defaultdict(set), []
    for key, value in list(clean._kept.items()):  # the one store, every item it holds
        for where, faulted in _faults(value):
            ctx = Context(p, rho)
            ctx.keep(key, lambda v: v, faulted)
            failed = [check for check, status in _statuses(ctx).items() if status == "fail"]
            silent += [] if failed else [(key, where)]
            for check in failed:
                columns[check].add((key, where))
    groups = defaultdict(set)
    for check in checks:
        groups[frozenset(columns[check])].add(check)
    assert silent == SILENT
    assert {frozenset(ids) for column, ids in groups.items() if column and len(ids) > 1} == \
        SAME_COLUMN
    assert groups[frozenset()] == NEVER_FAILED
