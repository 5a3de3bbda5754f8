import sys
from collections import Counter
from fractions import Fraction as Q

import pytest

import metaracah.eigenbases as eb
import metaracah.matrixreps as mr
from metaracah import Context, Params, build_V, build_X, build_Z, build_basis
from metaracah.cli import SUITE_RUNNERS, SUITES, main
from metaracah.eigenbases import BasisFamily
from metaracah.matrices import RationalMatrix, inverse
from metaracah.racahpoly import verify_racah
from metaracah.rationalfns import verify_rational
from metaracah.matrixreps import (
    coeffs_V_on_f,
    coeffs_X_on_e,
    coeffs_Z_on_e,
    coeffs_on_d,
    coeffs_on_dstar,
    coeffs_on_z,
    etilde_in_z,
    verify_coefficients,
    verify_leonard_trio,
)


def test_all_coefficient_families(ctx5):
    rep = verify_coefficients(ctx5)
    assert rep.passed, [(c.id, c.detail) for c in rep.failures]


def test_coefficient_families_negative_params(ctx_other):
    assert verify_coefficients(ctx_other).passed


def test_Z_on_e_matches_conjugation(p3):
    # the band matrix reproduces Z in the e pairing
    e = build_basis(p3, None, "e")
    estar = build_basis(p3, None, "eStar")
    Z = build_Z(p3)
    assert coeffs_Z_on_e(p3, e.eigenvalues) == estar.vectors.transpose() * Z * e.vectors


def test_X_on_e_is_V_conjugation_consistent(p3):
    e = build_basis(p3, None, "e")
    estar = build_basis(p3, None, "eStar")
    X = build_X(p3)
    x_on_e = coeffs_X_on_e(p3, coeffs_Z_on_e(p3, e.eigenvalues), e.eigenvalues)
    assert x_on_e == estar.vectors.transpose() * X * e.vectors


def test_V_on_f_bands(p3, rho):
    f = build_basis(p3, rho, "f")
    fstar = build_basis(p3, rho, "fStar")
    V = build_V(p3)
    assert coeffs_V_on_f(p3, rho) == fstar.vectors.transpose() * V * f.vectors


def test_VZ_on_d_by_triangular_solve(p3):
    # independent oracle: expand (V Z) d_n over the d family by solving
    # the linear system, without touching the adjoint pairing
    d = build_basis(p3, None, "d")
    VZ = build_V(p3) * build_Z(p3)
    got = coeffs_on_d(p3, d.eigenvalues)["VZ"]
    d_inv = inverse(d.vectors)
    for n in range(p3.N + 1):
        coeffs = d_inv.apply(VZ.apply(d.column(n)))
        assert list(coeffs) == [got[l, n] for l in range(p3.N + 1)]


def test_dual_families_share_the_tridiagonal_core(ctx5):
    # Zt and VtZt on the adjoint family are the transposes of Z and VZ on
    # d, conjugation against conjugation, so COEFFS reads them off the d
    # tables; Xt on d* is not the transpose of X on d
    for op, op_t in (("Z", "Zt"), ("VZ", "VtZt")):
        assert mr.matrix_on(ctx5, "dStar", op_t) == mr.matrix_on(ctx5, "d", op).transpose()
    assert mr.matrix_on(ctx5, "dStar", "Xt") != mr.matrix_on(ctx5, "d", "X").transpose()
    on_d, on_dstar = ctx5.band_tables("d"), ctx5.band_tables("dStar")
    assert on_dstar["VtZt"].band(0) == on_d["VZ"].band(0)
    assert on_dstar["Xt"] == coeffs_on_dstar(on_d["Z"], ctx5.basis("dStar").eigenvalues)["Xt"]


def test_z_family_bidiagonal_split(p3):
    # X and -V share their band -1 on the z family
    zz = coeffs_on_z(p3, build_basis(p3, None, "z").eigenvalues)
    assert zz["X"].band(-1) == tuple(-s for s in zz["V"].band(-1))
    assert all(s == 0 for s in zz["X"].band(1))


def test_etilde_expansion_over_z(p3):
    zfam = build_basis(p3, None, "z")
    d = build_basis(p3, None, "d")
    Z = build_Z(p3)
    for n in range(p3.N + 1):
        # expansion is normalized to unit head: Z d_n = (n - alpha) sum_l c_l z_l
        coeffs = etilde_in_z(p3, n)
        recon = [
            (n - p3.alpha)
            * sum(coeffs[l] * zfam.vectors[i, l] for l in range(p3.N + 1))
            for i in range(p3.N + 1)
        ]
        assert list(Z.apply(d.column(n))) == recon


def test_leonard_trio_passes(ctx5):
    rep = verify_leonard_trio(ctx5)
    assert rep.passed, [(c.id, c.detail) for c in rep.failures]


def test_leonard_trio_degenerate_control(monkeypatch):
    # beta = -1/3 makes 2*alpha - beta - 1 = 0, killing band entries; the
    # registry refuses the set, (beta-2alpha+1)_n, so its validation is
    # switched off to reach the trio
    monkeypatch.setattr(eb, "require_generic", lambda p, rho=None: None)
    p = Params(N=5, alpha=Q(1, 3), beta=Q(-1, 3), zeta=Q(1, 7))
    rep = verify_leonard_trio(Context(p))
    failed = {c.id: c.detail for c in rep.failures}
    assert failed == {
        "trio-i-Z-irreducible": "zero at index 9",
        "trio-ii-Z-irreducible": "zero at index 0",
        "trio-iii-Vtilde-irreducible": "zero at index 0",
        "trio-iii-V-irreducible": "zero at index 0",
    }


def test_vz_fault_details_name_the_one_bumped_point(ctx3, monkeypatch):
    # one wrong entry of the VZ diagonal, which VZ on d and VtZt on d*
    # share: the two coefficient checks fail at that entry alone, and the
    # trio, which multiplies the table by Z d, down column 1 of Z d
    on_d = mr.coeffs_on_d
    monkeypatch.setattr(mr, "coeffs_on_d",
                        lambda *a: {**(d := on_d(*a)), "VZ": _plus_1_at(d["VZ"], 1, 1)})
    failed = {c.id: c.detail for rep in (verify_coefficients(ctx3), verify_leonard_trio(ctx3))
              for c in rep.failures}
    assert failed == {
        "VZ-on-d": "failing (m, n): [(1, 1)]",
        "VtZt-on-dstar": "failing (m, n): [(1, 1)]",
        "trio-ii-ZV-coefficients": "failing (m, n): [(1, 1), (2, 1), (3, 1)]",
    }


def _plus_1_at(table, m, n):
    """table with 1 added at entry (m, n)."""
    return table + RationalMatrix([[int((i, j) == (m, n)) for j in range(table.cols)]
                                   for i in range(table.rows)])


def _zero_at(table, m, n):
    """table with entry (m, n) set to 0."""
    return RationalMatrix([[0 if (i, j) == (m, n) else table[i, j] for j in range(table.cols)]
                           for i in range(table.rows)])


def _shifted(family):
    """family with 1 added to each eigenvalue."""
    return BasisFamily(family.label, family.vectors, tuple(x + 1 for x in family.eigenvalues))


def _table_plus_1(name):
    """The change that adds 1 at entry (1, 1) of the band table name."""
    return lambda tables: {**tables, name: _plus_1_at(tables[name], 1, 1)}


def _matrixreps_failures(ctx):
    return {c.id for rep in SUITE_RUNNERS["matrixreps"](ctx) for c in rep.failures}


def _kept_fault_failures(ctx3, key, change):
    """The matrixreps ids that fail on a fresh Context of ctx3's set that
    keeps change(value), value the item ctx3 keeps under key once the suite
    has run on it."""
    assert not _matrixreps_failures(ctx3)
    planted = change(ctx3.keep(key, lambda: pytest.fail(f"{key} is not kept")))
    ctx = Context(ctx3.p, ctx3.rho)
    ctx.keep(key, lambda: planted)
    return _matrixreps_failures(ctx)


# trio id -> the key of the kept value a fault changes, the change, and the
# matrixreps ids the fault flips, coefficient checks included.  The value
# is a ("matrix on", label, op) matrix, which the coefficient checks of op
# on label read too, the d band tables, the d family, the d* dual side or
# the operator X, which matrix_on, Vtilde and the trio's d*^T X d read; a
# fault in the d family reaches the X and VZ tables built from its
# eigenvalues, a fault in the Z table on d the Zt and Xt tables on d* read
# off it, and a zeroed band entry keeps every band shape.  The V-on-e and
# Z-on-z diagonals are their families' eigenvalue rows.  The Z V clause
# reads Z d, the d* dual side transposed, so a fault there flips it, and
# the d* conjugations, but not VZ-on-d, which reads the d dual side
TRIO_FAULTS = {
    "trio-i-V-diagonal": (("matrix on", "e", "V"), lambda t: _plus_1_at(t, 1, 1),
                          {"trio-i-V-diagonal"}),
    "trio-i-VtildeZ-tridiagonal": (("matrix on", "e", "X"), lambda t: _plus_1_at(t, 0, 2),
                                   {"trio-i-VtildeZ-tridiagonal", "X-on-e"}),
    "trio-i-Z-tridiagonal": (("matrix on", "e", "Z"), lambda t: _plus_1_at(t, 0, 2),
                             {"trio-i-Z-tridiagonal", "Z-on-e"}),
    "trio-i-Z-irreducible": (("matrix on", "e", "Z"), lambda t: _zero_at(t, 1, 0),
                             {"trio-i-Z-irreducible", "Z-on-e"}),
    "trio-ii-Vtilde-diagonal": (("operator", "X"), lambda t: _plus_1_at(t, 0, 0),
                                {"trio-i-VtildeZ-tridiagonal", "trio-ii-Vtilde-diagonal",
                                 "trio-ii-Vtilde-eigenvalues",
                                 "trio-iii-Vtilde-lower-bidiagonal", "X-on-e", "X-on-d",
                                 "X-on-z", "Vtilde-on-z"}),
    "trio-ii-Vtilde-eigenvalues": (("basis", "d"), _shifted,
                                   {"trio-ii-Vtilde-eigenvalues", "trio-ii-ZV-coefficients",
                                    "X-on-d", "VZ-on-d", "VtZt-on-dstar"}),
    "trio-ii-ZV-tridiagonal": (("matrix on", "d", "VZ"), lambda t: _plus_1_at(t, 0, 2),
                               {"trio-ii-ZV-tridiagonal", "VZ-on-d"}),
    "trio-ii-ZV-coefficients": (("dual side", "dStar"), lambda t: _plus_1_at(t, 1, 2),
                                {"trio-ii-ZV-coefficients", "Xt-on-dstar", "Zt-on-dstar",
                                 "VtZt-on-dstar"}),
    "trio-ii-Z-lower-bidiagonal": (("band tables", "d"), _table_plus_1("Z"),
                                   {"trio-ii-Z-lower-bidiagonal", "Z-on-d", "Zt-on-dstar",
                                    "Xt-on-dstar"}),
    "trio-ii-Z-subdiagonal": (("band tables", "d"),
                              lambda d: {**d, "Z": _plus_1_at(d["Z"], 2, 1)},
                              {"trio-ii-Z-subdiagonal", "Z-on-d", "Zt-on-dstar",
                               "Xt-on-dstar"}),
    "trio-ii-Z-irreducible": (("matrix on", "d", "Z"), lambda t: _zero_at(t, 1, 0),
                              {"trio-ii-Z-irreducible", "trio-ii-Z-subdiagonal", "Z-on-d"}),
    "trio-iii-Z-diagonal": (("matrix on", "z", "Z"), lambda t: _plus_1_at(t, 1, 1),
                            {"trio-iii-Z-diagonal"}),
    "trio-iii-Vtilde-lower-bidiagonal": (("matrix on", "z", "Vtilde"),
                                         lambda t: _plus_1_at(t, 0, 1),
                                         {"trio-iii-Vtilde-lower-bidiagonal", "Vtilde-on-z"}),
    "trio-iii-Vtilde-irreducible": (("matrix on", "z", "Vtilde"), lambda t: _zero_at(t, 1, 0),
                                    {"trio-iii-Vtilde-irreducible", "Vtilde-on-z"}),
    "trio-iii-V-tridiagonal": (("matrix on", "z", "V"), lambda t: _plus_1_at(t, 0, 2),
                               {"trio-iii-V-tridiagonal", "V-on-z"}),
    "trio-iii-V-irreducible": (("matrix on", "z", "V"), lambda t: _zero_at(t, 0, 1),
                               {"trio-iii-V-irreducible", "V-on-z"}),
}


def test_every_trio_check_has_a_fault_row(ctx3):
    rep = verify_leonard_trio(ctx3)
    assert rep.passed
    assert {c.id for c in rep.checks} == set(TRIO_FAULTS)


@pytest.mark.parametrize("check_id", TRIO_FAULTS)
def test_each_trio_fault_flips_its_row_exactly(ctx3, check_id):
    key, change, flipped = TRIO_FAULTS[check_id]
    assert check_id in flipped
    assert _kept_fault_failures(ctx3, key, change) == flipped


# coefficient id -> the key of the kept value a fault changes, the change,
# and the matrixreps ids the fault flips.  Most faults add 1 at entry (1, 1)
# of one band table, which the check on e* or f* of the transposed
# operator reads too; the d* tables Zt and Xt are read off Z on d, so a
# fault there flips them, and the trio's Z-on-d diagonal.  The e* and f*
# checks read the kept Zt, Xt and Vt, so a fault in one flips its e* or f*
# check and not the e or f check, and the d* conjugations that read it;
# Z d is the d* dual side transposed, and so reads Zt.  A fault in the d
# dual side flips every conjugation on d, but not the trio's Z V clause
COEFF_FAULTS = {
    "Z-on-e": (("band tables", "e"), _table_plus_1("Z"), {"Z-on-e", "Zt-on-estar"}),
    "Zt-on-estar": (("operator", "Zt"), lambda t: _plus_1_at(t, 1, 1),
                    {"Zt-on-estar", "Zt-on-dstar", "Xt-on-dstar", "VtZt-on-dstar",
                     "trio-ii-ZV-coefficients"}),
    "X-on-e": (("band tables", "e"), _table_plus_1("X"), {"X-on-e", "Xt-on-estar"}),
    "Xt-on-estar": (("operator", "Xt"), lambda t: _plus_1_at(t, 1, 1),
                    {"Xt-on-estar", "Xt-on-dstar"}),
    "V-on-f": (("band tables", "f"), _table_plus_1("V"), {"V-on-f", "Vt-on-fstar"}),
    "Vt-on-fstar": (("operator", "Vt"), lambda t: _plus_1_at(t, 1, 1),
                    {"Vt-on-fstar", "VtZt-on-dstar"}),
    "Z-on-d": (("band tables", "d"), _table_plus_1("Z"),
               {"Z-on-d", "Zt-on-dstar", "Xt-on-dstar", "trio-ii-Z-lower-bidiagonal"}),
    "VZ-on-d": (("dual side", "d"), lambda t: _plus_1_at(t, 1, 2),
                {"VZ-on-d", "Z-on-d", "X-on-d", "trio-ii-Z-lower-bidiagonal",
                 "trio-ii-Z-subdiagonal", "trio-ii-ZV-tridiagonal"}),
    "X-on-d": (("band tables", "d"), _table_plus_1("X"), {"X-on-d"}),
    "Xt-on-dstar": (("band tables", "dStar"), _table_plus_1("Xt"), {"Xt-on-dstar"}),
    "Zt-on-dstar": (("band tables", "dStar"), _table_plus_1("Zt"), {"Zt-on-dstar"}),
    "VtZt-on-dstar": (("band tables", "dStar"), _table_plus_1("VtZt"), {"VtZt-on-dstar"}),
    "V-on-z": (("band tables", "z"), _table_plus_1("V"), {"V-on-z"}),
    "X-on-z": (("band tables", "z"), _table_plus_1("X"), {"X-on-z"}),
    "Vtilde-on-z": (("band tables", "z"), _table_plus_1("Vtilde"), {"Vtilde-on-z"}),
}


def test_every_coefficient_check_has_a_fault_row(ctx3):
    rep = verify_coefficients(ctx3)
    assert rep.passed
    assert [c.id for c in rep.checks] == list(COEFF_FAULTS)


@pytest.mark.parametrize("check_id", COEFF_FAULTS)
def test_each_coefficient_fault_flips_its_row_exactly(ctx3, check_id):
    key, change, flipped = COEFF_FAULTS[check_id]
    assert check_id in flipped
    assert _kept_fault_failures(ctx3, key, change) == flipped


def _bumped_at_2_1(builder, name):
    """builder with 1 added at entry (2, 1) of its table name."""
    def bumped(*a):
        tables = builder(*a)
        return {**tables, name: _plus_1_at(tables[name], 2, 1)}
    return bumped


def _band_table_failures(ctx):
    # keyed by suite and id: the racah and rational suites both have a
    # check named difference
    return {(rep.suite, c.id): c.detail
            for rep in (verify_coefficients(ctx), verify_leonard_trio(ctx), verify_racah(ctx),
                        verify_rational(ctx))
            for c in rep.failures}


COEFFICIENTS, TRIO = "matrixreps:coefficients", "matrixreps:leonard-trio"


def test_a_fault_in_Z_on_d_reaches_every_table_read_off_it(ctx3, monkeypatch):
    # X on d, Zt on d* and Xt on d* are read off Z on d, so each fails with
    # it; the trio's subdiagonal and the rational difference equation read
    # the tables too
    monkeypatch.setattr(mr, "coeffs_on_d", _bumped_at_2_1(mr.coeffs_on_d, "Z"))
    assert _band_table_failures(ctx3) == {
        (COEFFICIENTS, "Z-on-d"): "failing (m, n): [(2, 1)]",
        (COEFFICIENTS, "X-on-d"): "failing (m, n): [(2, 1)]",
        (COEFFICIENTS, "Zt-on-dstar"): "failing (m, n): [(1, 2)]",
        (COEFFICIENTS, "Xt-on-dstar"): "failing (m, n): [(1, 2)]",
        (TRIO, "trio-ii-Z-subdiagonal"): "",
        ("rational", "difference"): "failing (m, n): [(0, 2), (1, 2), (2, 2), (3, 2)]",
    }


def test_a_fault_in_Z_on_e_reaches_X_on_e(ctx3, monkeypatch):
    # X on e is read off Z on e by the [V, Z] relation, the e* checks read
    # e* times the transposed tables, so the transposed point (1, 2) fails
    # down column 2, at each nonzero of column 1 of e*, and the racah
    # difference equation and the rational recurrence read both tables on e
    z_on_e = mr.coeffs_Z_on_e
    monkeypatch.setattr(mr, "coeffs_Z_on_e", lambda *a: _plus_1_at(z_on_e(*a), 2, 1))
    assert _band_table_failures(ctx3) == {
        (COEFFICIENTS, "Z-on-e"): "failing (m, n): [(2, 1)]",
        (COEFFICIENTS, "X-on-e"): "failing (m, n): [(2, 1)]",
        (COEFFICIENTS, "Zt-on-estar"): "failing (m, n): [(1, 2), (2, 2), (3, 2)]",
        (COEFFICIENTS, "Xt-on-estar"): "failing (m, n): [(1, 2), (2, 2), (3, 2)]",
        ("racah", "difference"): "failing (m, n): [(1, 0), (1, 1), (1, 2), (1, 3)]",
        ("rational", "gevp-recurrence"): "failing (m, n): [(1, 0), (1, 1), (1, 2), (1, 3)]",
    }


def test_a_fault_in_X_on_z_reaches_Vtilde_on_z(ctx3, monkeypatch):
    monkeypatch.setattr(mr, "coeffs_on_z", _bumped_at_2_1(mr.coeffs_on_z, "X"))
    assert _band_table_failures(ctx3) == {
        (COEFFICIENTS, "X-on-z"): "failing (m, n): [(2, 1)]",
        (COEFFICIENTS, "Vtilde-on-z"): "failing (m, n): [(2, 1)]",
    }


# the matrixreps ids a planted Z flips at N=3 besides those that read
# Vtilde on z: each conjugation and trio clause that reads Z; the e* check
# of Zt reads the kept Zt, which a planted Z does not reach
Z_FLIPS = {"Z-on-e", "Z-on-d", "X-on-d", "VZ-on-d", "trio-i-Z-tridiagonal",
           "trio-ii-Z-lower-bidiagonal", "trio-ii-Z-subdiagonal", "trio-ii-ZV-tridiagonal",
           "trio-ii-ZV-coefficients", "trio-iii-Z-diagonal"}
VTILDE_ON_Z = ("Vtilde-on-z", "trio-iii-Vtilde-lower-bidiagonal", "trio-iii-Vtilde-irreducible")
REFUSED = "Vtilde = X Z^{-1} refused: "


@pytest.mark.parametrize("change, vtilde_failures", [
    # 1 added on the diagonal: right division still divides by Z
    (lambda z: _plus_1_at(z, 1, 1),
     {"Vtilde-on-z": "failing (m, n): [(1, 0), (1, 1), (2, 0), (2, 1)]",
      "trio-iii-Vtilde-lower-bidiagonal": ""}),
    (lambda z: _plus_1_at(z, 1, 2), dict.fromkeys(
        VTILDE_ON_Z, REFUSED + "right division needs a lower-bidiagonal divisor of matching size")),
    (lambda z: _zero_at(z, 1, 1), dict.fromkeys(VTILDE_ON_Z, REFUSED + "matrix is singular")),
], ids=("bidiagonal", "above-the-band", "singular"))
def test_a_Z_that_Vtilde_cannot_divide_by_fails_its_checks_without_a_crash(ctx3, change,
                                                                          vtilde_failures):
    # every suite returns its reports; the checks that read Vtilde on z fail
    # with the refusal of right division, and the others as for a Z that
    # right division divides by
    planted = change(ctx3.Z)
    ctx = Context(ctx3.p, ctx3.rho)
    ctx.keep(("operator", "Z"), lambda: planted)
    reports = [rep for suite in SUITES for rep in SUITE_RUNNERS[suite](ctx)]
    failed = {c.id: c.detail for rep in reports if rep.suite.startswith("matrixreps")
              for c in rep.failures}
    assert {i: failed.get(i) for i in vtilde_failures} == vtilde_failures
    assert set(failed) == Z_FLIPS | set(vtilde_failures)


ON_THE_DIAGONAL = "failing (m, n): [(0, 0), (1, 1), (2, 2), (3, 3)]"
IN_ROW_0 = "failing (m, n): [(0, 0), (0, 1), (0, 2), (0, 3)]"
# a diagonal off in a table, as the e* checks and the trio's Z V clause
# read it: times e* or Z d, both lower triangular
IN_THE_LOWER_TRIANGLE = "failing (m, n): [(0, 0), (1, 0), (1, 1), (2, 0)]"
# what xi + 1 breaks: the Z-on-e diagonal, read off the [X, V] relation,
# and all that reads Z on e
XI_FAILURES = {
    (COEFFICIENTS, "Z-on-e"): ON_THE_DIAGONAL,
    (COEFFICIENTS, "X-on-e"): ON_THE_DIAGONAL,
    (COEFFICIENTS, "Zt-on-estar"): IN_THE_LOWER_TRIANGLE,
    (COEFFICIENTS, "Xt-on-estar"): IN_THE_LOWER_TRIANGLE,
    ("racah", "difference"): IN_ROW_0,
    ("rational", "gevp-recurrence"): IN_ROW_0,
}


def _with_central_params(monkeypatch, shift):
    central = mr.central_params
    monkeypatch.setattr(mr, "central_params", lambda p: tuple(
        x + dx for x, dx in zip(central(p), shift)))


def test_the_Z_on_e_diagonal_is_read_off_xi(ctx3, monkeypatch):
    _with_central_params(monkeypatch, (1, 0))
    assert _band_table_failures(ctx3) == XI_FAILURES


def test_the_diagonals_on_e_d_and_z_are_read_off_eta(ctx3, monkeypatch):
    # eta enters the diagonals of Z and X on e, of VZ on d and of V on z
    _with_central_params(monkeypatch, (0, 1))
    assert _band_table_failures(ctx3) == {
        **XI_FAILURES,
        (COEFFICIENTS, "VZ-on-d"): ON_THE_DIAGONAL,
        (COEFFICIENTS, "VtZt-on-dstar"): ON_THE_DIAGONAL,
        (COEFFICIENTS, "V-on-z"): ON_THE_DIAGONAL,
        (TRIO, "trio-ii-ZV-coefficients"): IN_THE_LOWER_TRIANGLE,
        ("rational", "difference"): IN_ROW_0,
    }


def test_every_band_table_has_exactly_one_check(ctx5):
    # verify_coefficients names each check after a COEFFS table, or after
    # the transpose of an e or f table
    ids = [c.id for c in verify_coefficients(ctx5).checks]
    assert len(ids) == len(set(ids)) == 15
    tables = {f"{name}-on-{basis.lower()}" for basis in mr.COEFFS
              for name in ctx5.band_tables(basis)}
    assert tables <= set(ids) and len(tables) == 12


def test_a_table_added_to_COEFFS_gets_its_check_and_statement(ctx3, monkeypatch):
    # the statement is read off the basis, the table name and the family's
    # dual and weight in FAMILIES, so a new table needs no second edit
    z_tables = mr.COEFFS["z"]
    monkeypatch.setitem(mr.COEFFS, "z", lambda ctx: {
        **z_tables(ctx), "Z": RationalMatrix.diagonal(ctx.basis("z").eigenvalues)})
    checks = {c.id: c for c in verify_coefficients(ctx3).checks}
    assert len(checks) == 16
    assert checks["Z-on-z"].status == "pass"
    assert checks["Z-on-z"].statement == "closed-form Z coefficients on z match (z*)^T Z z"


def test_matrixreps_suite_builds_each_conjugation_once(capsys, products):
    # the trio reads the operator matrices verify_coefficients has built,
    # X on e among them, as Vtilde Z = X; only Vtilde on Z d_n (d*^T X d),
    # V on e and Z on z are its own, and each dual side (b*)^T W is formed
    # once per family.  The e* and f* checks (Ot b* - b* O_b^T) and the
    # trio's Z V clause (Z (V Z d) - Z d (VZ)_d) form their own products,
    # 2 each and 3, every one with a banded factor
    assert main(["verify", "--suite", "matrixreps", "--N", "8"]) == 0
    capsys.readouterr()
    assert len(products) == 43


def test_each_band_table_is_built_once_per_context(ctx5, monkeypatch):
    # every suite reads the COEFFS bands of its one Context through
    # Context.band_tables: the coefficient checks, the trio, the racah and
    # the rational recurrence and difference residuals each call a builder
    # at most once between them, through any binding
    counts = Counter()
    modules = [m for name, m in sys.modules.items()
               if name == "metaracah" or name.startswith("metaracah.")]
    builders = (coeffs_Z_on_e, coeffs_X_on_e, coeffs_V_on_f, coeffs_on_d, coeffs_on_dstar,
                coeffs_on_z)
    for target in builders:
        def counted(*args, _target=target):
            counts[_target.__name__] += 1
            return _target(*args)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is target:
                    monkeypatch.setattr(module, attr, counted)
    reports = [verify_coefficients(ctx5), verify_leonard_trio(ctx5), verify_racah(ctx5),
               verify_rational(ctx5)]
    for basis in mr.COEFFS:
        assert ctx5.band_tables(basis) is ctx5.band_tables(basis)
    assert all(rep.passed for rep in reports)
    assert counts == Counter({target.__name__: 1 for target in builders})
    other = Context(ctx5.p, ctx5.rho)
    verify_coefficients(other)
    assert set(counts.values()) == {2}
