import re
from fractions import Fraction as Q
from math import factorial

import pytest

import metaracah.matrixreps as mr
import metaracah.racahpoly as racahpoly
import metaracah.rationalfns as rf
from metaracah.eigenbases import GRIDS, Context, eigenvalue
from metaracah.errors import DegenerateParameters, PreconditionViolated
from metaracah.hyper import multi_pochhammer, pochhammer
from metaracah.matrices import RationalMatrix, dot
from metaracah.racahpoly import RacahParams, norm, verify_racah, weight
from metaracah.rationalfns import (
    _contiguity_residual,
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
    shifted_params,
    verify_rational,
    weight_W,
    weight_Wstar,
    zk_dstar_closed,
)
from metaracah.report import VerificationReport
from metaracah import Params, validate_params


def cu(p):
    """The calU grid as the residual builders read it."""
    return RationalMatrix([[calU(i, j, p) for j in range(p.N + 1)] for i in range(p.N + 1)])


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


def _with_entry(grid, i, j, change):
    """A copy of the grid matrix with entry (i, j) replaced by change(entry):
    what a fault test puts in a Context's grid table."""
    rows = [list(grid.row(r)) for r in range(grid.rows)]
    rows[i][j] = change(rows[i][j])
    return RationalMatrix(rows)


def test_gram_U_failures_name_their_points(p3, ctx3):
    # doubling Utilde_1(2) breaks row k = 1 of gram-U wherever U_m(2) != 0,
    # and row k = 2 of gram-U-dual wherever U_1(n) != 0
    ctx3._kept[("grid", "Utilde")] = _with_entry(ctx3.grid("Utilde"), 1, 2, lambda x: 2 * x)
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


def _check(ctx, check_id):
    return next(c for c in verify_rational(ctx).checks if c.id == check_id)


def test_gevp_recurrence_grid(p5, ctx5):
    # sum_j X_jm U_j(n) = lambda_n sum_j Z_jm U_j(n), X and Z the bands on
    # e read down column m, lambda_n = alpha - n the d* eigenvalue, summed
    # one Fraction term at a time
    mu, rng = ctx5.basis("e").eigenvalues, range(p5.N + 1)
    Z = mr.coeffs_Z_on_e(p5, mu)
    X = mr.coeffs_X_on_e(p5, Z, mu)
    for m in rng:
        for n in rng:
            lam = eigenvalue("dStar", p5, None, n)
            assert sum(X[j, m] * closed_form_U(j, n, p5) for j in rng) == lam * sum(
                Z[j, m] * closed_form_U(j, n, p5) for j in rng)
    assert (_check(ctx5, "gevp-recurrence").status, _check(ctx5, "gevp-recurrence").detail) == (
        "pass", "")


def test_difference_grid(p5, ctx5):
    # sum_j U_m(j) VZ_nj = mu_m sum_j U_m(j) Z_nj, VZ and Z the bands on d
    # read along row n, as Vt Zt and Zt on d* are their transposes, and
    # mu_m the e eigenvalue
    d, rng = mr.coeffs_on_d(p5, ctx5.basis("d").eigenvalues), range(p5.N + 1)
    for m in rng:
        mu = eigenvalue("e", p5, None, m)
        for n in rng:
            assert sum(closed_form_U(m, j, p5) * d["VZ"][n, j] for j in rng) == mu * sum(
                closed_form_U(m, j, p5) * d["Z"][n, j] for j in rng)
    assert (_check(ctx5, "difference").status, _check(ctx5, "difference").detail) == ("pass", "")


@pytest.mark.parametrize("i, j, gevp, difference", [
    (2, 2, [(1, 2), (2, 2), (3, 2)], [(2, 1), (2, 2), (2, 3)]),
    (0, 3, [(0, 3), (1, 3)], [(0, 2), (0, 3)]),
], ids=["2-2", "0-3"])
def test_a_bumped_calU_point_breaks_its_band_neighbours(ctx3, i, j, gevp, difference):
    # calU_i(j) off by one, before the U grid is built on it: the
    # recurrence fails in column j at rows i-1..i+1 and the difference
    # equation in row i at columns j-1..j+1, wherever the bands reach
    ctx3._kept[("grid", "calU")] = _with_entry(ctx3.grid("calU"), i, j, lambda x: x + 1)
    for check_id, points in (("gevp-recurrence", gevp), ("difference", difference)):
        check = _check(ctx3, check_id)
        assert (check.status, check.detail) == ("fail", f"failing (m, n): {points}")


def test_difference_degenerate_point():
    # n - alpha + beta = 0 at n = 2 would divide the difference equation's
    # coefficient, and calU itself has the lower parameter alpha-beta-n = 0:
    # the registry names it, so no Context of the set reaches the suite
    p = Params(N=4, alpha=Q(7, 3), beta=Q(1, 3), zeta=Q(1, 7))
    assert "(2-alpha+beta)" in validate_params(p)
    with pytest.raises(DegenerateParameters, match=re.escape("(2-alpha+beta)")):
        Context(p)


def test_contiguity_grid_and_shift(p5):
    sp = shifted_params(p5)
    assert (sp.alpha, sp.beta, sp.zeta) == (
        p5.alpha - 1, p5.beta - 2, p5.zeta + 2,
    )
    assert _contiguity_residual(p5, cu(p5)).is_zero()


# one band-table entry or the shifted set off, and the first four points of
# the one check that reads it, row by row.  X on e with entry (2, 1) bumped
# adds U_2(n) to row m = 1 of the recurrence, and Z on d with entry (2, 2)
# bumped adds mu_m U_m(2) to column n = 2 of the difference equation (Zt
# on d* is its transpose); contiguity holds wherever m = 0 or n = 0
BAND_FAULTS = [
    (mr, "coeffs_X_on_e", lambda X: lambda *a: _with_entry(X(*a), 2, 1, lambda x: x + 1),
     "gevp-recurrence", "failing (m, n): [(1, 0), (1, 1), (1, 2), (1, 3)]"),
    (mr, "coeffs_on_d",
     lambda d: lambda *a: {**d(*a), "Z": _with_entry(d(*a)["Z"], 2, 2, lambda x: x + 1)},
     "difference", "failing (m, n): [(0, 2), (1, 2), (2, 2), (3, 2)]"),
    (rf, "shifted_params",
     lambda _: lambda p: Params(N=p.N, alpha=p.alpha - 1, beta=p.beta - 2, zeta=p.zeta + 3),
     "contiguity", "failing (m, n): [(1, 1), (1, 2), (1, 3), (2, 1)]"),
]


@pytest.mark.parametrize("module, target, fault, check_id, detail", BAND_FAULTS,
                         ids=[check_id for _, _, _, check_id, _ in BAND_FAULTS])
def test_band_checks_name_the_points_a_fault_breaks(ctx3, monkeypatch, module, target, fault,
                                                    check_id, detail):
    monkeypatch.setattr(module, target, fault(getattr(module, target)))
    assert [(c.id, c.detail) for c in verify_rational(ctx3).failures] == [(check_id, detail)]


def test_contiguity_head_coefficient_is_one(p5):
    # at n = 0 only the undisplaced term survives, with unit coefficient
    a, b = p5.alpha, p5.beta
    assert (0 - a) * (0 - a + b) / (a * (a - b)) == 1


def test_contiguity_rejects_degenerate_shift():
    # the contiguity coefficients divide by alpha and alpha - beta: the
    # registry names both, so no Context of either set reaches the suite
    for p, label in ((Params(N=3, alpha=Q(0), beta=Q(1, 5), zeta=Q(1, 7)), "(0-alpha)"),
                     (Params(N=3, alpha=Q(1, 5), beta=Q(1, 5), zeta=Q(1, 7)), "(0-alpha+beta)")):
        assert label in validate_params(p)
        with pytest.raises(DegenerateParameters, match=re.escape(label)):
            Context(p)


def test_contiguity_operator_identities(ctx5):
    rep = VerificationReport("rational")
    contiguity_operator_check(rep, ctx5)
    assert [c.id for c in rep.checks] == ["shift-X", "shift-Z"]
    assert rep.passed, [(c.id, c.detail) for c in rep.failures]


def test_dual_hahn_rows(p5):
    rho = dual_hahn_params(p5)
    for x in range(p5.N + 1):
        assert dual_hahn(0, x, rho) == 1
    for i in range(p5.N + 1):
        assert dual_hahn(i, 0, rho) == 1


@pytest.mark.parametrize("ctx_name", ["ctx3", "ctx5", "ctx_other"])
def test_dual_hahn_grid_has_the_koekoek_lesky_swarttouw_norms(request, ctx_name):
    # KLS section 9.6 at (gamma, delta, N) = dual_hahn_params(p): the sum
    # over x of its weight times R_m(x) R_n(x) is exactly
    # delta_mn / (C(gamma+n, n) C(delta+N-n, N-n)), C(a, k) = (a-k+1)_k / k!
    ctx = request.getfixturevalue(ctx_name)
    ga, de, N = dual_hahn_params(ctx.p)
    R, xs = ctx.grid("dualHahn"), range(N + 1)
    w = [(2 * x + ga + de + 1) * multi_pochhammer((ga + 1, -N), x) * factorial(N)
         / ((-1) ** x * pochhammer(x + ga + de + 1, N + 1) * multi_pochhammer((de + 1, 1), x))
         for x in xs]

    def binomial(a, k):
        return pochhammer(a - k + 1, k) / factorial(k)
    assert [[sum(w[x] * R[m, x] * R[n, x] for x in xs) for n in xs] for m in xs] == [
        [(m == n) / (binomial(ga + n, n) * binomial(de + N - n, N - n)) for n in xs] for m in xs]


def test_dual_hahn_expansion_grid(p3, ctx3):
    for m in range(p3.N + 1):
        for n in range(p3.N + 1):
            rep = dual_hahn_expansion(ctx3, m, n)
            assert rep.passed, [(c.id, c.detail) for c in rep.failures]


def test_dual_hahn_expansion_reads_the_suites_kept_residuals(ctx3, monkeypatch):
    # one route for the identity: verify_rational keeps the three residuals,
    # and dual_hahn_expansion reads each point off them, forming no series,
    # closed form or product of its own
    verify_rational(ctx3)
    kept = rf.dual_hahn_residuals(ctx3)

    def formed(*args, **kwargs):
        raise AssertionError("formed again after the suite")
    for name in ("dual_hahn", "calU", "em_zstar_closed", "zk_dstar_closed", "terminating_hyp",
                 "series_table", "pochhammer", "multi_pochhammer"):
        monkeypatch.setattr(rf, name, formed)
    monkeypatch.setattr(RationalMatrix, "__mul__", formed)
    for m in range(ctx3.p.N + 1):
        for n in range(ctx3.p.N + 1):
            assert dual_hahn_expansion(ctx3, m, n).passed
    assert rf.dual_hahn_residuals(ctx3) is kept


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


@pytest.mark.parametrize("ctx_name", ["ctx3", "ctx_other"])
def test_the_kept_em_zstar_table_is_the_closed_form_at_every_point(request, ctx_name):
    ctx = request.getfixturevalue(ctx_name)
    rng = range(ctx.p.N + 1)
    table = rf.em_zstar_table(ctx)
    assert table == RationalMatrix([[em_zstar_closed(m, k, ctx.p) for k in rng] for m in rng])
    assert rf.em_zstar_table(ctx) is table


# each per-point reference at an index pair (i, j) in its own argument order
INDEXED_REFERENCES = {
    "calU_general": lambda ctx, i, j: calU_general(i, j, Q(1, 3), Q(1, 5), Q(1, 7), ctx.p.N),
    "calU": lambda ctx, i, j: calU(i, j, ctx.p),
    "calU_tilde": lambda ctx, i, j: calU_tilde(i, j, ctx.p),
    "closed_form_U": lambda ctx, i, j: closed_form_U(i, j, ctx.p),
    "closed_form_Utilde": lambda ctx, i, j: closed_form_Utilde(i, j, ctx.p),
    "dual_hahn": lambda ctx, i, j: dual_hahn(i, j, dual_hahn_params(ctx.p)),
    "em_zstar_closed": lambda ctx, i, j: em_zstar_closed(i, j, ctx.p),
    "zk_dstar_closed": lambda ctx, i, j: zk_dstar_closed(i, j, ctx.p),
    "dual_hahn_expansion": lambda ctx, i, j: dual_hahn_expansion(ctx, i, j),
    "hahn_limit_check": lambda ctx, i, j: hahn_limit_check(i, j, Q(1, 3), Q(1, 5), ctx.p, (1000,)),
}

# each one-index reference at its index
ONE_INDEX_REFERENCES = {"weight_W": weight_W, "weight_Wstar": weight_Wstar,
                        "norm_h": norm_h, "norm_hstar": norm_hstar}


# indices no per-point reference takes: outside 0..N, or not an int
OUTSIDE = ["-1", "N+1", "1/2", "True"]


def _outside(name, N):
    return {"-1": -1, "N+1": N + 1, "1/2": Q(1, 2), "True": True}[name]


@pytest.mark.parametrize("outside", OUTSIDE)
@pytest.mark.parametrize("position", [0, 1])
@pytest.mark.parametrize("name", INDEXED_REFERENCES)
def test_rational_references_refuse_indices_outside_0_to_N(ctx3, name, position, outside):
    # as racahpoly.racah does; an index past N would read a series past its
    # termination, a negative one an empty or reversed Pochhammer, and one
    # that is no int, True included, a value off the grid
    indices = [1, 1]
    indices[position] = _outside(outside, ctx3.p.N)
    with pytest.raises(PreconditionViolated, match=re.escape(f"indices {tuple(indices)}")):
        INDEXED_REFERENCES[name](ctx3, *indices)


@pytest.mark.parametrize("outside", OUTSIDE)
@pytest.mark.parametrize("name", ONE_INDEX_REFERENCES)
def test_weights_and_norms_refuse_indices_outside_0_to_N(p3, name, outside):
    # unguarded, norm_h(N+1) divides by zero and weight_Wstar(N+1) is 0
    j = _outside(outside, p3.N)
    with pytest.raises(PreconditionViolated, match=re.escape(f"{name} indices {(j,)}")):
        ONE_INDEX_REFERENCES[name](j, p3)


def test_out_of_range_indices_are_refused_before_any_arithmetic(ctx3, monkeypatch):
    # with every series and Pochhammer of both modules made to raise, each
    # per-point reference still meets the index guard first
    def formed(*args, **kwargs):
        raise AssertionError("arithmetic formed before the index guard")
    for module in (rf, racahpoly):
        for name in ("pochhammer", "multi_pochhammer", "terminating_hyp"):
            monkeypatch.setattr(module, name, formed)
    rp = RacahParams.from_params(ctx3.p, ctx3.rho)
    two_index = {**INDEXED_REFERENCES, **{
        name: lambda ctx, i, j, ref=getattr(racahpoly, name): ref(i, j, rp)
        for name in ("racah", "closed_form_S", "closed_form_Stilde")}}
    one_index = {**{name: lambda j, ref=ref: ref(j, ctx3.p)
                    for name, ref in ONE_INDEX_REFERENCES.items()},
                 "weight": lambda j: weight(j, rp), "norm": lambda j: norm(j, rp)}
    for outside in (-1, ctx3.p.N + 1, Q(1, 2), True):
        for indices in ((outside, 1), (1, outside)):
            for name, reference in two_index.items():
                with pytest.raises(PreconditionViolated, match=re.escape(f"indices {indices}")):
                    reference(ctx3, *indices)
        for name, reference in one_index.items():
            with pytest.raises(PreconditionViolated,
                               match=re.escape(f"{name} indices {(outside,)}")):
                reference(outside)


@pytest.mark.parametrize("t_values", [(), iter(())], ids=["tuple", "iterator"])
def test_hahn_limit_refuses_no_t_values(p3, t_values):
    with pytest.raises(PreconditionViolated, match="tValues"):
        hahn_limit_check(1, 1, Q(1, 3), Q(1, 5), p3, t_values)


def test_hahn_limit_reads_an_iterator_of_t_values_as_its_tuple(p3):
    # the deviation detail lists every t, so tValues is read once
    t_values = (1000, 10000)
    from_iterator, from_tuple = (hahn_limit_check(1, 1, Q(1, 3), Q(1, 5), p3, ts)
                                 for ts in (iter(t_values), t_values))
    assert [c.as_dict() for c in from_iterator.checks] == [c.as_dict() for c in from_tuple.checks]
    assert from_tuple.checks[0].detail.startswith("t=1000: ")


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
    # the first four points, row by row, where dual_hahn_expansion fails.
    # The closed e^T z* table is the U prefactor's factor in m times the
    # dual Hahn grid, so the fault goes into that factor; GRIDS bound the
    # original at import, so the U grid stays sound
    pre, zk = rf._prefactor_U_m, rf.zk_dstar_closed
    monkeypatch.setattr(rf, "_prefactor_U_m", lambda m, p: pre(m, p) + (m == bad_m))
    monkeypatch.setattr(rf, "zk_dstar_closed",
                        lambda k, n, p: zk(k, n, p) + (n == bad_n))
    bad = [(m, n) for m in range(p3.N + 1) for n in range(p3.N + 1)
           if not dual_hahn_expansion(ctx3, m, n).passed]
    check = next(c for c in verify_rational(ctx3).checks if c.id == "dual-hahn")
    assert check.status == "fail" and len(bad) >= 4
    assert check.detail == f"failing (m, n): {bad[:4]}"


def _per_point_references(ctx):
    """check id -> (axes, holds(i, j)) for every product-backed check of the
    racah and rational suites, each sum taken one Fraction term at a time
    from the Context's bases and grids."""
    p, N = ctx.p, ctx.p.N
    rng = range(N + 1)
    vec = {label: ctx.basis(label).vectors
           for label in ("e", "eStar", "f", "fStar", "d", "dStar", "z", "zStar")}
    R, S, St, cU, cUt, U, Ut, dH = (ctx.grid(name) for name in (
        "racah", "S", "Stilde", "calU", "calUtilde", "U", "Utilde", "dualHahn"))

    def total(terms):
        out = Q(0)
        for t in terms:
            out += t
        return out

    def pair(a, b, m, n):
        return total(vec[a][l, m] * vec[b][l, n] for l in rng)

    def delta(i, j, value=1):
        return value if i == j else 0

    rp = RacahParams.from_params(p, ctx.rho)
    W, Nm = [weight(n, rp) for n in rng], [norm(m, rp) for m in rng]
    Wr, Ws = [weight_W(j, p) for j in rng], [weight_Wstar(j, p) for j in rng]
    h, hs = [norm_h(n, p) for n in rng], [norm_hstar(n, p) for n in rng]
    zd = [[total(ctx.Z[l, j] * vec["d"][j, n] for j in rng) for n in rng] for l in rng]
    a, b = p.alpha, p.beta
    em_ok = [all(pair("e", "zStar", m, k) == em_zstar_closed(m, k, p) for k in rng) for m in rng]
    zk_ok = [all(pair("z", "dStar", k, n) == zk_dstar_closed(k, n, p) for k in rng) for n in rng]

    def expansion(m, n):
        return pochhammer(1, n) / pochhammer(a - b - n, n) * total(
            pochhammer(-a, k) * pochhammer(2 * a - b - n, n - k)
            / (pochhammer(1, n - k) * pochhammer(1, k)) * dH[k, m] for k in range(n + 1))

    return {
        "identify-S": ("(m, n)", lambda m, n: pair("e", "fStar", m, n) == S[m, n]),
        "identify-Stilde": ("(m, n)", lambda m, n: pair("eStar", "f", m, n) == St[m, n]),
        "gram-S": ("(k, m)", lambda k, m: total(St[k, n] * S[m, n] for n in rng) == delta(k, m)),
        "weight-orthogonality": ("(k, m)", lambda k, m: total(
            W[n] * R[k, n] * R[m, n] for n in rng) == delta(k, m, Nm[m])),
        "identify-U": ("(m, n)", lambda m, n: pair("e", "dStar", m, n) == U[m, n]),
        "identify-Utilde": ("(m, n)", lambda m, n: total(
            vec["eStar"][l, m] * zd[l][n] for l in rng) == Ut[m, n]),
        "biorth-point": ("(m, n)", lambda m, n: total(
            Wr[j] * cUt[m, j] * cU[n, j] for j in rng) == delta(m, n, h[n])),
        "biorth-degree": ("(m, n)", lambda m, n: total(
            Ws[j] * cUt[j, m] * cU[j, n] for j in rng) == delta(m, n, hs[n])),
        "gram-U": ("(k, m)", lambda k, m: total(Ut[k, n] * U[m, n] for n in rng) == delta(k, m)),
        "gram-U-dual": ("(k, n)", lambda k, n: total(
            Ut[m, k] * U[m, n] for m in rng) == delta(k, n)),
        "dual-hahn": ("(m, n)", lambda m, n: em_ok[m] and zk_ok[n]
                      and expansion(m, n) == cU[m, n]),
    }


# the product-backed checks that read each grid
READERS = {"racah": {"weight-orthogonality"}, "S": {"identify-S", "gram-S"},
           "U": {"identify-U", "gram-U", "gram-U-dual"},
           "calU": {"biorth-point", "biorth-degree", "dual-hahn"}}


@pytest.mark.parametrize("name", sorted(READERS))
def test_product_checks_name_the_points_a_perturbed_grid_breaks(p3, rho, name):
    # one grid cell off by one: each check that reads the grid through a
    # matrix product fails at exactly the points where the per-point sums
    # fail, listed row by row; every other product-backed check passes
    ctx = Context(p3, rho)
    for grid_name in GRIDS:
        ctx.grid(grid_name)
    ctx._kept[("grid", name)] = _with_entry(ctx.grid(name), 1, 2, lambda x: x + 1)
    checks = {c.id: c for rep in (verify_racah(ctx), verify_rational(ctx)) for c in rep.checks}
    for check_id, (axes, holds) in _per_point_references(ctx).items():
        bad = [(i, j) for i in range(p3.N + 1) for j in range(p3.N + 1) if not holds(i, j)]
        assert bool(bad) == (check_id in READERS[name]), check_id
        got = (checks[check_id].status, checks[check_id].detail)
        assert got == (("fail", f"failing {axes}: {bad[:4]}") if bad else ("pass", "")), check_id
