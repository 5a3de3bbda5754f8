"""Every check of the algebra, bases, racah, rational and model suites can
fail: one fault row per check id.

A row plants one fault, either in one item a Context keeps (a family, a
grid, a band table, a dual side or an operator) or in one route a
suite calls (a weight, a norm, a builder, a parameter shift, a model
family, a model operator or the Jacobi split of model e), and lists
exactly the (suite, id) pairs that fault flips across the five suites;
the ids are paired with their suites because the racah and rational
suites both have a check named difference, and the bases and model
suites both have gram-d..gram-z.  The algebra rows each plant one
operator of the Context, and the same fault in an operator flips the
same set in every row that plants it; the same holds for a model family
and MODEL_FLIPS.  Apart from the rows, each of the eight overlap grids
gets one fault, 1 added at entry (1, 2), and its exact flip set, so a
check that reads one grid on both sides of its identity shows as an id
missing from that set.  The Leonard-trio and band-table coefficient rows
are tests/test_matrixreps.py::TRIO_FAULTS and COEFF_FAULTS.
"""

import pytest

import metaracah.racahpoly as rp
import metaracah.rationalfns as rf
from metaracah import Context, Params, diffmodel
from metaracah.cli import SUITE_RUNNERS, run_suites
from metaracah.eigenbases import GRIDS, BasisFamily
from metaracah.matrices import RationalMatrix

from test_diffmodel import _a0_plus, _jacobi_2_plus_x2, _n2_plus

SUITES = ("algebra", "bases", "racah", "rational", "model")
# they record signs, or whether the model Gram of d holds without its
# weight Z, for information only, and always pass
EXEMPT = {("racah", "weight-signs"), ("racah", "norm-signs"), ("model", "gram-d-no-Z")}


def _plus_1_at(table, m, n):
    """table with 1 added at entry (m, n)."""
    return table + RationalMatrix([[int((i, j) == (m, n)) for j in range(table.cols)]
                                   for i in range(table.rows)])


def _vectors_plus_1(family):
    """family with 1 added at entry (1, 2) of its vectors."""
    return BasisFamily(family.label, _plus_1_at(family.vectors, 1, 2), family.eigenvalues)


def _eigenvalue_plus_1(family):
    """family with 1 added to its eigenvalue at index 1."""
    return BasisFamily(family.label, family.vectors,
                       tuple(x + (n == 1) for n, x in enumerate(family.eigenvalues)))


def _eigenvalue_repeated(family):
    """family with its eigenvalue at index 1 set to the one at index 0."""
    eigs = family.eigenvalues
    return BasisFamily(family.label, family.vectors, (eigs[0], eigs[0]) + eigs[2:])


def _dual_side_plus_1(label):
    """The fault that adds 1 at entry (1, 2) of the kept dual side of label."""
    return kept(("dual side", label), lambda t: _plus_1_at(t, 1, 2))


def _plus_1_at_index(index):
    """The wrap of f(k, ...) into f with 1 added at k = index."""
    return lambda f: lambda k, *args: f(k, *args) + (k == index)


def _calU_general_plus(extra):
    """The wrap of calU_general(m, n, t, ...) into it plus extra(t)."""
    return lambda f: lambda m, n, t, *args: f(m, n, t, *args) + extra(t)


def kept(key, change):
    """The fault change(value) in the item a Context keeps under key; the
    value is read off a Context the suites have run on."""
    def plant(clean, ctx, monkeypatch):
        value = change(clean.keep(key, lambda: pytest.fail(f"{key} is not kept")))
        ctx.keep(key, lambda: value)
    return plant


def route(module, name, wrap):
    """The fault wrap(f) in the function f that module names name."""
    def plant(clean, ctx, monkeypatch):
        monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    return plant


def _model_operator_fault(name, exp):
    """The fault x^exp added to a0 of the model operator diff_<name>."""
    return route(diffmodel, f"diff_{name}", lambda diff: _a0_plus(diff, exp))


BASES, RACAH, RATIONAL, MODEL = "eigenbases:orthogonality", "racah", "rational", "model"
RELATIONS, CASIMIR, SUBALGEBRAS = "algebra:relations", "algebra:casimir", "algebra:subalgebras"
ALGEBRA = {(RELATIONS, "relation-ZX"), (RELATIONS, "relation-XV"), (RELATIONS, "relation-VZ"),
           (CASIMIR, "casimir-Z"), (CASIMIR, "casimir-V"), (CASIMIR, "casimir-X"),
           (SUBALGEBRAS, "shifted-ZX"), (SUBALGEBRAS, "shifted-XV"), (SUBALGEBRAS, "shifted-VZ"),
           (SUBALGEBRAS, "hahn-1"), (SUBALGEBRAS, "hahn-2"), (SUBALGEBRAS, "racah-1"),
           (SUBALGEBRAS, "racah-2"), (SUBALGEBRAS, "borel")}

# operator -> the (suite, id) pairs that 1 added at its entry (1, 1) flips.
# No relation in [Z, X] or the borel pair reads V, and the Hahn pair reads
# no X; only the Racah pair reads W and C, and the casimir checks C.  The
# pencils of the oracle read X, Z, V and W, the shift checks compare the
# Context's X and Z with the builders', and the model's g-basis checks
# compare its differential Z, V and X with them.  The Gram of d reads Z d,
# the d* dual side transposed, which is read off the kept Zt, not Z
OPERATOR_FLIPS = {
    "Z": ALGEBRA | {(BASES, "closed-vs-oracle"), (RATIONAL, "shift-X"), (RATIONAL, "shift-Z"),
                    (MODEL, "g-basis-Z")},
    "V": (ALGEBRA - {(RELATIONS, "relation-ZX"), (SUBALGEBRAS, "shifted-ZX"),
                     (SUBALGEBRAS, "borel")}) | {(BASES, "closed-vs-oracle"), (MODEL, "g-basis-V")},
    "X": (ALGEBRA - {(SUBALGEBRAS, "hahn-1"), (SUBALGEBRAS, "hahn-2")})
         | {(BASES, "closed-vs-oracle"), (RATIONAL, "shift-X"), (MODEL, "g-basis-X")},
    "C": {(CASIMIR, "casimir-Z"), (CASIMIR, "casimir-V"), (CASIMIR, "casimir-X"),
          (SUBALGEBRAS, "racah-2")},
    "W": {(SUBALGEBRAS, "racah-1"), (SUBALGEBRAS, "racah-2"), (BASES, "closed-vs-oracle")},
}


def _operator_fault(name):
    """The fault 1 added at entry (1, 1) of the operator name, and its flips."""
    return kept(("operator", name), lambda t: _plus_1_at(t, 1, 1)), OPERATOR_FLIPS[name]


# grid -> the (suite, id) pairs that 1 added at its entry (1, 2) flips.  S
# and Stilde are built on the R grid, U on calU and Utilde on calUtilde, so
# a fault in a grid reaches the grids built on it; weight-norm-consistency
# reads R and the dot-product overlaps, not S or Stilde, so only the R grid
# reaches it.  gram-U and gram-U-dual state the same identity of square
# matrices, so every fault flips both.  The model's residue formulas
# compare their pairings with the S grid, the U grid and the kept closed
# e^T z* table, whose dual Hahn factor is the dualHahn grid
GRID_FLIPS = {
    "racah": {(RACAH, "identify-S"), (RACAH, "identify-Stilde"), (RACAH, "recurrence"),
              (RACAH, "difference"), (RACAH, "gram-S"), (RACAH, "weight-orthogonality"),
              (RACAH, "weight-norm-consistency"), (MODEL, "integral-S")},
    "S": {(RACAH, "identify-S"), (RACAH, "recurrence"), (RACAH, "difference"), (RACAH, "gram-S"),
          (MODEL, "integral-S")},
    "Stilde": {(RACAH, "identify-Stilde"), (RACAH, "gram-S")},
    "calU": {(RATIONAL, "identify-U"), (RATIONAL, "gram-U"), (RATIONAL, "gram-U-dual"),
             (RATIONAL, "gevp-recurrence"), (RATIONAL, "difference"), (RATIONAL, "biorth-point"),
             (RATIONAL, "biorth-degree"), (RATIONAL, "contiguity"), (RATIONAL, "dual-hahn"),
             (MODEL, "integral-U")},
    "calUtilde": {(RATIONAL, "identify-Utilde"), (RATIONAL, "gram-U"), (RATIONAL, "gram-U-dual"),
                  (RATIONAL, "biorth-point"), (RATIONAL, "biorth-degree")},
    "U": {(RATIONAL, "identify-U"), (RATIONAL, "gram-U"), (RATIONAL, "gram-U-dual"),
          (RATIONAL, "gevp-recurrence"), (RATIONAL, "difference"), (MODEL, "integral-U")},
    "Utilde": {(RATIONAL, "identify-Utilde"), (RATIONAL, "gram-U"), (RATIONAL, "gram-U-dual")},
    "dualHahn": {(RATIONAL, "dual-hahn"), (MODEL, "integral-dual-hahn")},
}


def _grid_fault(name):
    """The fault 1 added at entry (1, 2) of the grid name, and its flips."""
    return kept(("grid", name), lambda t: _plus_1_at(t, 1, 2)), GRID_FLIPS[name]


# model family -> the (suite, id) pairs that x^1, or x^(-2) for a dual
# family, added to its polynomial n = 2 flips: each family is read over
# g_0..g_N or g*_0..g*_N, so the term is in its basis check's window, and
# it flips the model Gram that pairs it and each residue formula that
# pairs model e with it; model e is also the one family the Jacobi check
# reads, and it meets every dual family that a formula pairs it with
MODEL_FLIPS = {
    "d": {(MODEL, "model-d"), (MODEL, "gram-d")},
    "dStar": {(MODEL, "model-dStar"), (MODEL, "gram-d"), (MODEL, "integral-U")},
    "e": {(MODEL, "model-e"), (MODEL, "model-e-jacobi"), (MODEL, "gram-e"), (MODEL, "integral-S"),
          (MODEL, "integral-U"), (MODEL, "integral-dual-hahn")},
    "eStar": {(MODEL, "model-eStar"), (MODEL, "gram-e")},
    "f": {(MODEL, "model-f"), (MODEL, "gram-f")},
    "fStar": {(MODEL, "model-fStar"), (MODEL, "gram-f"), (MODEL, "integral-S")},
    "z": {(MODEL, "model-z"), (MODEL, "gram-z")},
    "zStar": {(MODEL, "model-zStar"), (MODEL, "gram-z"), (MODEL, "integral-dual-hahn")},
}


def _model_fault(label):
    """The fault of MODEL_FLIPS in the model family label, and its flips."""
    fault = _n2_plus(-2 if label.endswith("Star") else 1)

    def plant(clean, ctx, monkeypatch):
        monkeypatch.setitem(diffmodel._MODELS, label, fault(diffmodel._MODELS[label]))
    return plant, MODEL_FLIPS[label]


# what a fault in Z d, the kept d* dual side transposed, flips in the five
# suites: the two checks of the d pair and identify-Utilde, which read it
Z_D_FLIPS = {(BASES, "gram-d"), (BASES, "completeness-d"), (RATIONAL, "identify-Utilde")}

# (suite, id) -> the fault and the (suite, id) pairs it flips.  gram-b and
# completeness-b both read B b, the kept dual side of b* transposed, and
# (b*)^T, so every fault flips both: a fault in that dual side, and one in
# a family's vectors, which the oracle also solves for afresh.
# identify-S and identify-Stilde read the products e^T f* and e*^T f, as
# weight-norm-consistency does, so a fault in f* or f flips all three
FAULTS = {
    (RELATIONS, "relation-ZX"): _operator_fault("Z"),
    (RELATIONS, "relation-XV"): _operator_fault("V"),
    (RELATIONS, "relation-VZ"): _operator_fault("V"),
    (CASIMIR, "casimir-Z"): _operator_fault("C"),
    (CASIMIR, "casimir-V"): _operator_fault("C"),
    (CASIMIR, "casimir-X"): _operator_fault("C"),
    (SUBALGEBRAS, "shifted-ZX"): _operator_fault("X"),
    (SUBALGEBRAS, "shifted-XV"): _operator_fault("V"),
    (SUBALGEBRAS, "shifted-VZ"): _operator_fault("V"),
    (SUBALGEBRAS, "hahn-1"): _operator_fault("V"),
    (SUBALGEBRAS, "hahn-2"): _operator_fault("V"),
    (SUBALGEBRAS, "racah-1"): _operator_fault("W"),
    (SUBALGEBRAS, "racah-2"): _operator_fault("W"),
    (SUBALGEBRAS, "borel"): _operator_fault("X"),
    (BASES, "gram-d"): (_dual_side_plus_1("dStar"), Z_D_FLIPS),
    (BASES, "completeness-d"): (_dual_side_plus_1("dStar"), Z_D_FLIPS),
    (BASES, "gram-e"): (_dual_side_plus_1("eStar"),
                        {(BASES, "gram-e"), (BASES, "completeness-e")}),
    (BASES, "completeness-e"): (_dual_side_plus_1("eStar"),
                                {(BASES, "gram-e"), (BASES, "completeness-e")}),
    (BASES, "gram-f"): (_dual_side_plus_1("fStar"),
                        {(BASES, "gram-f"), (BASES, "completeness-f")}),
    (BASES, "completeness-f"): (_dual_side_plus_1("fStar"),
                                {(BASES, "gram-f"), (BASES, "completeness-f")}),
    (BASES, "gram-z"): (_dual_side_plus_1("zStar"),
                        {(BASES, "gram-z"), (BASES, "completeness-z")}),
    (BASES, "completeness-z"): (_dual_side_plus_1("zStar"),
                                {(BASES, "gram-z"), (BASES, "completeness-z")}),
    # the oracle solves at the kept eigenvalues, so a repeated one also
    # moves an oracle vector off the family's
    (BASES, "distinct-eigenvalues-d"): (kept(("basis", "d"), _eigenvalue_repeated),
                                        {(BASES, "distinct-eigenvalues-d"),
                                         (BASES, "closed-vs-oracle"), (RATIONAL, "difference")}),
    (BASES, "distinct-eigenvalues-e"): (kept(("basis", "e"), _eigenvalue_repeated),
                                        {(BASES, "distinct-eigenvalues-e"),
                                         (BASES, "closed-vs-oracle"), (RACAH, "recurrence"),
                                         (RACAH, "difference"), (RATIONAL, "gevp-recurrence"),
                                         (RATIONAL, "difference")}),
    (BASES, "distinct-eigenvalues-f"): (kept(("basis", "f"), _eigenvalue_repeated),
                                        {(BASES, "distinct-eigenvalues-f"),
                                         (BASES, "closed-vs-oracle"), (RACAH, "difference")}),
    (BASES, "distinct-eigenvalues-z"): (kept(("basis", "z"), _eigenvalue_repeated),
                                        {(BASES, "distinct-eigenvalues-z"),
                                         (BASES, "closed-vs-oracle")}),
    # no check but the oracle reads the e* eigenvalues
    (BASES, "closed-vs-oracle"): (kept(("basis", "eStar"), _eigenvalue_plus_1),
                                  {(BASES, "closed-vs-oracle")}),
    (RACAH, "identify-S"): (kept(("basis", "fStar"), _vectors_plus_1),
                            {(RACAH, "identify-S"), (RACAH, "weight-norm-consistency"),
                             (BASES, "gram-f"), (BASES, "completeness-f"),
                             (BASES, "closed-vs-oracle"), (MODEL, "model-fStar")}),
    (RACAH, "identify-Stilde"): (kept(("basis", "f"), _vectors_plus_1),
                                 {(RACAH, "identify-Stilde"), (RACAH, "weight-norm-consistency"),
                                  (BASES, "gram-f"), (BASES, "completeness-f"),
                                  (BASES, "closed-vs-oracle"), (MODEL, "model-f")}),
    (RACAH, "recurrence"): (kept(("band tables", "f"),
                                 lambda d: {**d, "V": _plus_1_at(d["V"], 1, 1)}),
                            {(RACAH, "recurrence")}),
    (RACAH, "difference"): (kept(("basis", "f"), _eigenvalue_plus_1),
                            {(RACAH, "difference"), (BASES, "closed-vs-oracle")}),
    (RACAH, "gram-S"): _grid_fault("Stilde"),
    (RACAH, "weight-orthogonality"): (route(rp, "weight", _plus_1_at_index(1)),
                                      {(RACAH, "weight-orthogonality"),
                                       (RACAH, "weight-norm-consistency")}),
    (RACAH, "weight-norm-consistency"): (route(rp, "norm", _plus_1_at_index(1)),
                                         {(RACAH, "weight-orthogonality"),
                                          (RACAH, "weight-norm-consistency")}),
    (RATIONAL, "identify-U"): (kept(("basis", "dStar"), _vectors_plus_1),
                               {(RATIONAL, "identify-U"), (RATIONAL, "dual-hahn"),
                                (BASES, "gram-d"), (BASES, "completeness-d"),
                                (BASES, "closed-vs-oracle"), (MODEL, "model-dStar")}),
    (RATIONAL, "identify-Utilde"): (_dual_side_plus_1("dStar"), Z_D_FLIPS),
    (RATIONAL, "h0-normalization"): (route(rf, "norm_h", _plus_1_at_index(0)),
                                     {(RATIONAL, "h0-normalization"),
                                      (RATIONAL, "biorth-point")}),
    (RATIONAL, "biorth-point"): (route(rf, "weight_W", _plus_1_at_index(1)),
                                 {(RATIONAL, "biorth-point")}),
    (RATIONAL, "biorth-degree"): (route(rf, "weight_Wstar", _plus_1_at_index(1)),
                                  {(RATIONAL, "biorth-degree")}),
    (RATIONAL, "gram-U"): _grid_fault("Utilde"),
    (RATIONAL, "gram-U-dual"): _grid_fault("U"),
    (RATIONAL, "gevp-recurrence"): (kept(("basis", "dStar"), _eigenvalue_plus_1),
                                    {(RATIONAL, "gevp-recurrence"),
                                     (BASES, "closed-vs-oracle")}),
    (RATIONAL, "difference"): (kept(("band tables", "dStar"),
                                    lambda d: {**d, "VtZt": _plus_1_at(d["VtZt"], 1, 1)}),
                               {(RATIONAL, "difference")}),
    # zeta + 3 for zeta + 2: X and Z read no zeta, so the shift checks pass
    (RATIONAL, "contiguity"): (route(rf, "shifted_params", lambda f: lambda p: f(
        Params(N=p.N, alpha=p.alpha, beta=p.beta, zeta=p.zeta + 1))),
                               {(RATIONAL, "contiguity")}),
    (RATIONAL, "shift-X"): _operator_fault("X"),
    (RATIONAL, "shift-Z"): (route(rf, "build_Z", lambda f: lambda p: _plus_1_at(f(p), 1, 1)),
                            {(RATIONAL, "shift-Z")}),
    (RATIONAL, "dual-hahn"): _grid_fault("dualHahn"),
    # the Hahn limit off by 1 at its middle t, and off by 1000/t at every t:
    # still decreasing, but too slowly
    (RATIONAL, "deviation-decreasing"): (route(rf, "calU_general",
                                               _calU_general_plus(lambda t: t == 10000)),
                                         {(RATIONAL, "deviation-decreasing")}),
    (RATIONAL, "final-deviation-small"): (route(rf, "calU_general",
                                                _calU_general_plus(lambda t: 1000 / t)),
                                          {(RATIONAL, "final-deviation-small")}),
    # each model basis check, Gram and residue formula reads the model
    # families of MODEL_FLIPS: a Gram is faulted in its dual family, a
    # formula in the dual family it pairs model e with
    (MODEL, "model-d"): _model_fault("d"),
    (MODEL, "model-dStar"): _model_fault("dStar"),
    (MODEL, "model-e"): _model_fault("e"),
    (MODEL, "model-eStar"): _model_fault("eStar"),
    (MODEL, "model-f"): _model_fault("f"),
    (MODEL, "model-fStar"): _model_fault("fStar"),
    (MODEL, "model-z"): _model_fault("z"),
    (MODEL, "model-zStar"): _model_fault("zStar"),
    (MODEL, "gram-d"): _model_fault("dStar"),
    (MODEL, "gram-e"): _model_fault("eStar"),
    (MODEL, "gram-f"): _model_fault("fStar"),
    (MODEL, "gram-z"): _model_fault("zStar"),
    (MODEL, "integral-S"): _model_fault("fStar"),
    (MODEL, "integral-U"): _model_fault("dStar"),
    (MODEL, "integral-dual-hahn"): _model_fault("zStar"),
    (MODEL, "model-e-jacobi"): (route(diffmodel, "_e_as_jacobi", _jacobi_2_plus_x2),
                                {(MODEL, "model-e-jacobi")}),
    # x^4 = x^(N+1) added to a0 lifts every image of g_n past x^N, or every
    # dual image of g*_m to x^(3-m), off the exponents that a pairing reads
    # and, but for x^0, off the ghosts; a constant stays in both spans, so
    # it moves only the matrices, and diff_Z is also the weight of the
    # model Gram of d
    (MODEL, "g-basis-Z"): (_model_operator_fault("Z", 4), {(MODEL, "g-basis-Z")}),
    (MODEL, "adjoint-Z"): (_model_operator_fault("Z", 0),
                           {(MODEL, "g-basis-Z"), (MODEL, "adjoint-Z"), (MODEL, "gram-d")}),
    (MODEL, "quotient-Z"): (_model_operator_fault("Zt", 0),
                            {(MODEL, "adjoint-Z"), (MODEL, "quotient-Z")}),
    (MODEL, "ghosts-Z"): (_model_operator_fault("Zt", 4), {(MODEL, "ghosts-Z")}),
    (MODEL, "g-basis-V"): (_model_operator_fault("V", 4), {(MODEL, "g-basis-V")}),
    (MODEL, "adjoint-V"): (_model_operator_fault("V", 0),
                           {(MODEL, "g-basis-V"), (MODEL, "adjoint-V")}),
    (MODEL, "quotient-V"): (_model_operator_fault("Vt", 0),
                            {(MODEL, "adjoint-V"), (MODEL, "quotient-V")}),
    (MODEL, "ghosts-V"): (_model_operator_fault("Vt", 4), {(MODEL, "ghosts-V")}),
    (MODEL, "g-basis-X"): (_model_operator_fault("X", 4), {(MODEL, "g-basis-X")}),
    (MODEL, "adjoint-X"): (_model_operator_fault("X", 0),
                           {(MODEL, "g-basis-X"), (MODEL, "adjoint-X")}),
    (MODEL, "quotient-X"): (_model_operator_fault("Xt", 0),
                            {(MODEL, "adjoint-X"), (MODEL, "quotient-X")}),
    (MODEL, "ghosts-X"): (_model_operator_fault("Xt", 4), {(MODEL, "ghosts-X")}),
}


def _failures(ctx):
    return {(rep.suite, c.id) for suite in SUITES for rep in SUITE_RUNNERS[suite](ctx)
            for c in rep.failures}


def test_every_check_of_the_five_suites_has_a_fault_row(p3, rho):
    reports = run_suites(p3, rho, SUITES)
    assert all(rep.passed for rep in reports)
    ids = {(rep.suite, c.id) for rep in reports for c in rep.checks}
    assert EXEMPT <= ids and len(ids) == 80
    assert ALGEBRA == {check for check in ids if check[0].startswith("algebra:")}
    assert ids - EXEMPT == set(FAULTS)


@pytest.mark.parametrize("check", FAULTS, ids=lambda check: "/".join(check))
def test_each_fault_flips_its_row_exactly(ctx3, check, monkeypatch):
    # the clean value is read off a Context the suites have run on, changed,
    # and kept in a fresh Context before the suites read it
    plant, flipped = FAULTS[check]
    assert not _failures(ctx3)
    ctx = Context(ctx3.p, ctx3.rho)
    plant(ctx3, ctx, monkeypatch)
    assert check in flipped
    assert _failures(ctx) == flipped


@pytest.mark.parametrize("name", GRID_FLIPS)
def test_each_grid_fault_flips_exactly_the_checks_that_read_it(ctx3, name):
    # one row per kept overlap grid; a check that read a grid on both sides
    # of its identity would pass under that grid's fault and be missing here
    assert set(GRID_FLIPS) == set(GRIDS)
    assert not _failures(ctx3)
    plant, flipped = _grid_fault(name)
    ctx = Context(ctx3.p, ctx3.rho)
    plant(ctx3, ctx, None)
    assert _failures(ctx) == flipped
