from fractions import Fraction as Q

import pytest

import metaracah.rationalfns as rf
from metaracah.errors import DegenerateParameters
from metaracah.hyper import pochhammer
from metaracah.matrices import dot
from metaracah.rationalfns import (
    _contiguity_residual,
    _difference_residual,
    _gevp_residual,
    calU,
    calU_general,
    calU_tilde,
    closed_form_U,
    closed_form_Utilde,
    contiguity_operator_check,
    dual_hahn,
    dual_hahn_expansion,
    dual_hahn_params,
    em_zstar_closed,
    hahn_limit_check,
    norm_h,
    norm_hstar,
    recurrence_C,
    shifted_params,
    verify_rational,
    weight_W,
    weight_Wstar,
    zk_dstar_closed,
)
from metaracah import Params


def cu(p):
    """calU_i(j) as the residual kernels read it."""
    return lambda i, j: calU(i, j, p)


def test_calU_trivial_rows(p5):
    for n in range(p5.N + 1):
        assert calU(0, n, p5) == 1
    for m in range(p5.N + 1):
        assert calU(m, 0, p5) == 1


def test_calU_tilde_is_the_substituted_series(p5):
    # retranscribe the substitution with separate arithmetic
    N, a, b, z = p5.N, p5.alpha, p5.beta, p5.zeta
    for m in range(N + 1):
        for n in range(N + 1):
            direct = calU_general(m, N - n, N - a - 1, b + 2 * z - 2, 2 - z, N)
            assert calU_tilde(m, n, p5) == direct


def test_U_row_zero_is_pure_prefactor(p5):
    a, b, z, N = p5.alpha, p5.beta, p5.zeta, p5.N
    for n in range(N + 1):
        pref = pochhammer(a - b - n, n) / (
            pochhammer(1, n) * pochhammer(-a, n + 1)
        )
        assert closed_form_U(0, n, p5) == pref


def test_overlaps_match_closed_forms(p5, ctx5):
    e, dstar = ctx5.basis("e"), ctx5.basis("dStar")
    estar, d = ctx5.basis("eStar"), ctx5.basis("d")
    Z = ctx5.Z
    for m in range(p5.N + 1):
        for n in range(p5.N + 1):
            assert dot(e.column(m), dstar.column(n)) == closed_form_U(m, n, p5)
            assert dot(estar.column(m), Z.apply(d.column(n))) == closed_form_Utilde(m, n, p5)


def test_biorthogonality_report(ctx5):
    checks = {c.id: c for c in verify_rational(ctx5).checks}
    for check_id in ("h0-normalization", "biorth-point", "biorth-degree",
                     "gram-U", "gram-U-dual"):
        assert checks[check_id].status == "pass", checks[check_id]


def test_gram_U_failures_name_their_points(p3, ctx3, monkeypatch):
    # doubling Utilde_1(2) breaks row k = 1 of gram-U wherever U_m(2) != 0,
    # and row k = 2 of gram-U-dual wherever U_1(n) != 0
    pre = rf._prefactor_Utilde
    monkeypatch.setattr(rf, "_prefactor_Utilde",
                        lambda m, n, p: pre(m, n, p) * (2 if (m, n) == (1, 2) else 1))
    checks = {c.id: c for c in verify_rational(ctx3).checks}
    N = p3.N
    row = [(1, m) for m in range(N + 1) if closed_form_U(m, 2, p3) != 0]
    dual = [(2, n) for n in range(N + 1) if closed_form_U(1, n, p3) != 0]
    assert row and dual
    assert checks["gram-U"].status == "fail"
    assert checks["gram-U"].detail == f"failing (k, m): {row[:4]}"
    assert checks["gram-U-dual"].status == "fail"
    assert checks["gram-U-dual"].detail == f"failing (k, n): {dual[:4]}"


def test_point_mass_sums_by_hand(p5):
    N = p5.N
    # h_0 = 1, so the (0, 0) point sum is the total weight mass
    assert sum(weight_W(j, p5) for j in range(N + 1)) == 1
    assert norm_h(0, p5) == 1
    assert norm_hstar(0, p5) == 1
    # an off-diagonal pair cancels
    mixed = sum(
        weight_W(j, p5) * calU_tilde(1, j, p5) * calU(2, j, p5) for j in range(N + 1)
    )
    assert mixed == 0
    diag = sum(
        weight_W(j, p5) * calU_tilde(1, j, p5) * calU(1, j, p5) for j in range(N + 1)
    )
    assert diag == norm_h(1, p5)


def test_degree_sums_by_hand(p5):
    N = p5.N
    mixed = sum(
        weight_Wstar(j, p5) * calU_tilde(j, 2, p5) * calU(j, 1, p5)
        for j in range(N + 1)
    )
    assert mixed == 0
    diag = sum(
        weight_Wstar(j, p5) * calU_tilde(j, 1, p5) * calU(j, 1, p5)
        for j in range(N + 1)
    )
    assert diag == norm_hstar(1, p5)


def test_gevp_recurrence_grid(p5):
    for m in range(p5.N + 1):
        for n in range(p5.N + 1):
            assert _gevp_residual(m, n, p5, cu(p5)) == 0


def test_gevp_boundary_structure(p5):
    # m = 0 leans on C_0 = 0, n = 0 on both sides evaluating to constants
    assert recurrence_C(0, p5) == 0
    assert _gevp_residual(0, 3, p5, cu(p5)) == 0
    assert _gevp_residual(4, 0, p5, cu(p5)) == 0


def test_difference_grid(p5):
    for m in range(p5.N + 1):
        for n in range(p5.N + 1):
            assert _difference_residual(m, n, p5, cu(p5)) == 0


def test_difference_degenerate_point():
    # n - alpha + beta = 0 hits the divided coefficient
    p = Params(N=4, alpha=Q(7, 3), beta=Q(1, 3), zeta=Q(1, 7))
    with pytest.raises(DegenerateParameters):
        _difference_residual(1, 2, p, cu(p))


def test_contiguity_grid_and_shift(p5):
    sp = shifted_params(p5)
    assert (sp.alpha, sp.beta, sp.zeta) == (
        p5.alpha - 1, p5.beta - 2, p5.zeta + 2,
    )
    for m in range(p5.N + 1):
        for n in range(p5.N + 1):
            assert _contiguity_residual(m, n, p5, cu(p5)) == 0


def test_contiguity_head_coefficient_is_one(p5):
    # at n = 0 only the undisplaced term survives, with unit coefficient
    a, b = p5.alpha, p5.beta
    assert (0 - a) * (0 - a + b) / (a * (a - b)) == 1


def test_contiguity_rejects_degenerate_shift():
    for p in (Params(N=3, alpha=Q(0), beta=Q(1, 5), zeta=Q(1, 7)),
              Params(N=3, alpha=Q(1, 5), beta=Q(1, 5), zeta=Q(1, 7))):
        with pytest.raises(DegenerateParameters):
            _contiguity_residual(1, 1, p, cu(p))


def test_contiguity_operator_identities(ctx5):
    rep = contiguity_operator_check(ctx5)
    assert rep.passed, [(c.id, c.detail) for c in rep.failures]


def test_dual_hahn_rows(p5):
    rho = dual_hahn_params(p5)
    for x in range(p5.N + 1):
        assert dual_hahn(0, x, rho) == 1
    for i in range(p5.N + 1):
        assert dual_hahn(i, 0, rho) == 1


def test_dual_hahn_expansion_grid(p3, ctx3):
    for m in range(p3.N + 1):
        for n in range(p3.N + 1):
            rep = dual_hahn_expansion(ctx3, m, n)
            assert rep.passed, [(c.id, c.detail) for c in rep.failures]


def test_zk_dstar_vanishes_above_the_diagonal(p5):
    assert zk_dstar_closed(3, 1, p5) == 0
    assert zk_dstar_closed(5, 4, p5) == 0
    assert zk_dstar_closed(1, 1, p5) != 0


def test_em_zstar_head(p5):
    # k = 0 pairs the m-th ray against the constant dual ray
    a, b, z, N = p5.alpha, p5.beta, p5.zeta, p5.N
    for m in range(N + 1):
        expected = (
            pochhammer(-N, m)
            * pochhammer(N - 2 * a - b - 2 * z, m)
            / pochhammer(m - 2 * b - 2 * z - 1, m)
        )
        assert em_zstar_closed(m, 0, p5) == expected


def test_hahn_limit_exact_head(p5):
    # m = n = 0 agrees exactly at every finite t, so deviations are all zero
    rep = hahn_limit_check(0, 0, Q(1, 3), Q(1, 5), p5, (10, 100))
    assert rep.passed


def test_hahn_limit_decreasing_deviation(p5):
    rep = hahn_limit_check(1, 1, Q(1, 3), Q(1, 5), p5, (1000, 10000, 100000))
    assert rep.passed, [(c.id, c.detail) for c in rep.failures]


def test_full_suite(ctx5):
    rep = verify_rational(ctx5)
    assert rep.passed, [(c.id, c.detail) for c in rep.failures]


def test_full_suite_negative_params(ctx_other):
    assert verify_rational(ctx_other).passed


@pytest.mark.parametrize("bad_m, bad_n", [(2, None), (None, 1), (1, 3)])
def test_dual_hahn_detail_names_first_failing_point(p3, ctx3, monkeypatch, bad_m, bad_n):
    # break <e_m|z*_k> at one m and <z_k|d*_n> at one n; the suite must name
    # the first point, row by row, where dual_hahn_expansion fails
    em, zk = rf.em_zstar_closed, rf.zk_dstar_closed
    monkeypatch.setattr(rf, "em_zstar_closed",
                        lambda m, k, p: em(m, k, p) + (m == bad_m))
    monkeypatch.setattr(rf, "zk_dstar_closed",
                        lambda k, n, p: zk(k, n, p) + (n == bad_n))
    first = next((m, n) for m in range(p3.N + 1) for n in range(p3.N + 1)
                 if not dual_hahn_expansion(ctx3, m, n).passed)
    check = next(c for c in verify_rational(ctx3).checks if c.id == "dual-hahn")
    assert check.status == "fail"
    assert check.detail == f"first failure at (m, n) = ({first[0]}, {first[1]})"
