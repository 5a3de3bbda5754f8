import re
import sys
from collections import Counter
from fractions import Fraction as Q

import pytest

import metaracah.matrixreps as mr
import metaracah.racahpoly as racahpoly
from metaracah.eigenbases import eigenvalue
from metaracah.errors import PreconditionViolated
from metaracah.hyper import multi_pochhammer, pochhammer
from metaracah.matrices import RationalMatrix, dot
from metaracah.racahpoly import (
    RacahParams,
    closed_form_S,
    closed_form_Stilde,
    norm,
    racah,
    verify_racah,
    weight,
)
from metaracah.matrixreps import coeffs_V_on_f, coeffs_X_on_e, coeffs_Z_on_e


@pytest.fixture
def rp(p5, rho):
    return RacahParams.from_params(p5, rho)


def test_parameter_dictionary(p5, rho):
    rp = RacahParams.from_params(p5, rho)
    assert rp.alpha_hat == -p5.beta - rho - 1
    assert rp.beta_hat == -p5.beta + rho - 2 * p5.zeta - 1
    assert rp.gamma_hat == p5.N - 2 * p5.alpha - rho
    assert rp.N == p5.N


def test_parameter_dictionary_needs_rho(p5):
    # as Context.W does, the Racah parameters refuse a missing rho by name
    with pytest.raises(PreconditionViolated, match="^the Racah parameters need rho$"):
        RacahParams.from_params(p5, None)


def test_racah_trivial_rows(rp):
    # degree zero is constant; argument zero gives 1 for every degree
    for x in range(rp.N + 1):
        assert racah(0, x, rp) == 1
    for i in range(rp.N + 1):
        assert racah(i, 0, rp) == 1


# each per-point reference and the number of its indices
RACAH_REFERENCES = {"racah": (racah, 2), "closed_form_S": (closed_form_S, 2),
                    "closed_form_Stilde": (closed_form_Stilde, 2), "weight": (weight, 1),
                    "norm": (norm, 1)}


@pytest.mark.parametrize("outside", ["-1", "N+1", "1/2", "True"])
@pytest.mark.parametrize("name, position", [(name, position) for name, (_, count)
                                            in RACAH_REFERENCES.items() for position in range(count)])
def test_racah_references_refuse_indices_outside_0_to_N(rp, name, position, outside):
    # unguarded, most of these fail first inside a Pochhammer, naming neither
    # the function nor the index, and a Fraction or True index is evaluated
    reference, count = RACAH_REFERENCES[name]
    indices = [1] * count
    indices[position] = {"-1": -1, "N+1": rp.N + 1, "1/2": Q(1, 2), "True": True}[outside]
    with pytest.raises(PreconditionViolated, match=re.escape(f"{name} indices {tuple(indices)}")):
        reference(*indices, rp)


def test_overlaps_match_closed_forms(p5, ctx5, rp):
    fstar, e = ctx5.basis("fStar"), ctx5.basis("e")
    f, estar = ctx5.basis("f"), ctx5.basis("eStar")
    for m in range(p5.N + 1):
        for n in range(p5.N + 1):
            assert dot(fstar.column(n), e.column(m)) == closed_form_S(m, n, rp)
            assert dot(f.column(n), estar.column(m)) == closed_form_Stilde(m, n, rp)


def test_S_row_zero_is_pure_prefactor(p5, ctx5, rp):
    # R_0 = 1, so the m = 0 row exposes the prefactor alone
    a, g = rp.alpha_hat, rp.gamma_hat
    fstar, e = ctx5.basis("fStar"), ctx5.basis("e")
    for n in range(p5.N + 1):
        pref = pochhammer(a + 1, n) / (
            pochhammer(1, n) * pochhammer(n - rp.N + g, n)
        )
        assert closed_form_S(0, n, rp) == pref
        assert dot(fstar.column(n), e.column(0)) == pref


def test_gram_biorthogonality(ctx5):
    checks = {c.id: c for c in verify_racah(ctx5).checks}
    for check_id in ("gram-S", "weight-orthogonality", "weight-norm-consistency"):
        assert checks[check_id].status == "pass", checks[check_id]
    assert {"weight-signs", "norm-signs"} <= set(checks)


def test_weight_orthogonality_row_sums(p5, rho, rp):
    # k = m = 0 collapses to sum_n W_n = N_0
    total = sum(weight(n, rp) for n in range(rp.N + 1))
    assert total == norm(0, rp)
    # an off-diagonal pair must cancel exactly
    mixed = sum(
        weight(n, rp) * racah(0, n, rp) * racah(1, n, rp) for n in range(rp.N + 1)
    )
    assert mixed == 0


@pytest.mark.parametrize("ctx_name", ["ctx3", "ctx5", "ctx_other"])
def test_weight_and_norm_are_those_of_koekoek_lesky_swarttouw(request, ctx_name):
    # KLS section 9.2 at alpha = a, beta = b, gamma = -N-1, delta = g (the
    # hatted parameters): its weight makes the R grid orthogonal, and weight
    # and norm are its weight and squared norm up to a factor free of x and m
    ctx = request.getfixturevalue(ctx_name)
    rp = RacahParams.from_params(ctx.p, ctx.rho)
    al, be, ga, de = rp.alpha_hat, rp.beta_hat, -rp.N - 1, rp.gamma_hat
    R, xs = ctx.grid("racah"), range(rp.N + 1)
    w = [multi_pochhammer((al + 1, be + de + 1, ga + 1, ga + de + 1, (ga + de + 3) / 2), x)
         / multi_pochhammer((-al + ga + de + 1, -be + ga + 1, (ga + de + 1) / 2, de + 1, 1), x)
         for x in xs]
    h = [multi_pochhammer((m + al + be + 1, al + be - ga + 1, al - de + 1, be + 1, 1), m)
         / (pochhammer(al + be + 2, 2 * m) * multi_pochhammer((al + 1, be + de + 1, ga + 1), m))
         for m in xs]
    gram = [[sum(w[x] * R[m, x] * R[n, x] for x in xs) for n in xs] for m in xs]
    assert all(gram[m][n] == 0 for m in xs for n in xs if m != n)
    assert len({gram[m][m] / h[m] for m in xs}) == 1
    assert len({weight(x, rp) / w[x] for x in xs}) == 1
    assert len({norm(m, rp) / h[m] for m in xs}) == 1


def _band_sum(band, i, value):
    """sum_j O_ij value(j) for the tridiagonal O, read entry by entry: the
    per-point reference for the suite's band products."""
    return sum(band[i, j] * value(j) for j in range(max(i - 1, 0), min(i + 2, band.rows)))


def _s_table(p, rho):
    rp = RacahParams.from_params(p, rho)
    return [[closed_form_S(m, n, rp) for n in range(p.N + 1)] for m in range(p.N + 1)]


def test_recurrence_residuals_vanish(p5, rho, ctx5):
    # mu_m S_m(n) = sum_j VF_nj S_m(j), VF the band of V on f
    S, vf = _s_table(p5, rho), coeffs_V_on_f(p5, rho)
    for m in range(p5.N + 1):
        mu = eigenvalue("e", p5, rho, m)
        for n in range(p5.N + 1):
            assert mu * S[m][n] == _band_sum(vf, n, lambda j: S[m][j])
    check = next(c for c in verify_racah(ctx5).checks if c.id == "recurrence")
    assert (check.status, check.detail) == ("pass", "")


def test_recurrence_detects_perturbed_band(ctx3, monkeypatch):
    # V on f with entry 2 of band 0 bumped breaks the recurrence in column
    # n = 2 only
    def bumped(p, rho):
        vf = coeffs_V_on_f(p, rho)
        return RationalMatrix.banded(p.N + 1, {
            -1: vf.band(-1),
            0: [x + (1 if i == 2 else 0) for i, x in enumerate(vf.band(0))],
            1: vf.band(1),
        })

    monkeypatch.setattr(mr, "coeffs_V_on_f", bumped)
    rep = verify_racah(ctx3)
    assert [(c.id, c.detail) for c in rep.failures] == [
        ("recurrence", "failing (m, n): [(0, 2), (1, 2), (2, 2), (3, 2)]")
    ]


def test_difference_detects_perturbed_band(ctx3, monkeypatch):
    # X on e with entry 1 of band -1 bumped puts a stray S_2(n) into row
    # m = 1 only
    xe = coeffs_X_on_e

    def bumped(*a):
        band = xe(*a)
        return RationalMatrix.banded(band.rows, {
            -1: [x + (1 if i == 1 else 0) for i, x in enumerate(band.band(-1))],
            0: band.band(0),
            1: band.band(1),
        })

    monkeypatch.setattr(mr, "coeffs_X_on_e", bumped)
    rep = verify_racah(ctx3)
    assert [(c.id, c.detail) for c in rep.failures] == [
        ("difference", "failing (m, n): [(1, 0), (1, 1), (1, 2), (1, 3)]")
    ]


def test_difference_residuals_vanish(p5, rho, ctx5):
    # nu_n S_m(n) = sum_i WE_im S_i(n), WE the band of X + rho Z on e,
    # read down column m of WE: the transposed band
    mu = ctx5.basis("e").eigenvalues
    S, ze = _s_table(p5, rho), coeffs_Z_on_e(p5, mu)
    xe = coeffs_X_on_e(p5, ze, mu)
    we_t = RationalMatrix.banded(p5.N + 1, {
        -k: [x + rho * z for x, z in zip(xe.band(k), ze.band(k))] for k in (-1, 0, 1)
    })
    for n in range(p5.N + 1):
        nu = eigenvalue("f", p5, rho, n)
        for m in range(p5.N + 1):
            assert nu * S[m][n] == _band_sum(we_t, m, lambda i: S[i][n])
    check = next(c for c in verify_racah(ctx5).checks if c.id == "difference")
    assert (check.status, check.detail) == ("pass", "")


def test_full_suite(ctx5):
    rep = verify_racah(ctx5)
    assert rep.passed, [(c.id, c.detail) for c in rep.failures]


def test_full_suite_negative_params(ctx_other):
    assert verify_racah(ctx_other).passed


def test_suite_builds_each_table_once(ctx5, monkeypatch):
    # count calls at every binding of each builder in the package: one R
    # table, a product of term tables, feeds S and Stilde; racah and
    # closed_form_S are for single values only
    counts = Counter()
    modules = [m for name, m in sys.modules.items()
               if name == "metaracah" or name.startswith("metaracah.")]
    for target in (coeffs_V_on_f, coeffs_X_on_e, coeffs_Z_on_e, racah, racahpoly.racah_table,
                   closed_form_S, closed_form_Stilde):
        def counted(*args, _target=target, **kwargs):
            counts[_target.__name__] += 1
            return _target(*args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is target:
                    monkeypatch.setattr(module, attr, counted)
    assert verify_racah(ctx5).passed
    assert counts["racah_table"] == 1 and counts["racah"] == 0
    assert counts["closed_form_S"] == counts["closed_form_Stilde"] == 0
    for band in ("coeffs_V_on_f", "coeffs_X_on_e", "coeffs_Z_on_e"):
        assert counts[band] <= 1, (band, counts[band])
