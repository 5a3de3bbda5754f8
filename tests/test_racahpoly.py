import sys
from collections import Counter
from fractions import Fraction as Q

import pytest

from metaracah.errors import PreconditionViolated
from metaracah.hyper import pochhammer
from metaracah.racahpoly import (
    RacahParams,
    closed_form_S,
    closed_form_Stilde,
    norm,
    overlap_S,
    overlap_Stilde,
    racah,
    racah_difference,
    racah_orthogonality,
    racah_recurrence,
    verify_racah,
    weight,
)
from metaracah.matrixreps import TridiagonalCoeffs, coeffs_V_on_f, coeffs_X_on_e, coeffs_Z_on_e


@pytest.fixture
def rp(p5, fp):
    return RacahParams.from_params(p5, fp)


def test_parameter_dictionary(p5, fp):
    rp = RacahParams.from_params(p5, fp)
    assert rp.alpha_hat == -p5.beta - fp.rho - 1
    assert rp.beta_hat == -p5.beta + fp.rho - 2 * p5.zeta - 1
    assert rp.gamma_hat == p5.N - 2 * p5.alpha - fp.rho
    assert rp.N == p5.N


def test_racah_trivial_rows(rp):
    # degree zero is constant; argument zero gives 1 for every degree
    for x in range(rp.N + 1):
        assert racah(0, x, rp) == 1
    for i in range(rp.N + 1):
        assert racah(i, 0, rp) == 1


def test_racah_rejects_out_of_window(rp):
    with pytest.raises(PreconditionViolated):
        racah(rp.N + 1, 0, rp)


def test_overlaps_match_closed_forms(p5, fp, rp):
    for m in range(p5.N + 1):
        for n in range(p5.N + 1):
            assert overlap_S(m, n, p5, fp) == closed_form_S(m, n, rp)
            assert overlap_Stilde(m, n, p5, fp) == closed_form_Stilde(m, n, rp)


def test_S_row_zero_is_pure_prefactor(p5, fp, rp):
    # R_0 = 1, so the m = 0 row exposes the prefactor alone
    a, g = rp.alpha_hat, rp.gamma_hat
    for n in range(p5.N + 1):
        pref = pochhammer(a + 1, n) / (
            pochhammer(1, n) * pochhammer(n - rp.N + g, n)
        )
        assert closed_form_S(0, n, rp) == pref
        assert overlap_S(0, n, p5, fp) == pref


def test_gram_biorthogonality(p5, fp):
    rep = racah_orthogonality(p5, fp)
    assert rep.passed, [(c.id, c.detail) for c in rep.failures]


def test_weight_orthogonality_row_sums(p5, fp, rp):
    # k = m = 0 collapses to sum_n W_n = N_0
    total = sum(weight(n, rp) for n in range(rp.N + 1))
    assert total == norm(0, rp)
    # an off-diagonal pair must cancel exactly
    mixed = sum(
        weight(n, rp) * racah(0, n, rp) * racah(1, n, rp) for n in range(rp.N + 1)
    )
    assert mixed == 0


def test_recurrence_residuals_vanish(p5, fp):
    for m in range(p5.N + 1):
        for n in range(p5.N + 1):
            assert racah_recurrence(m, n, p5, fp) == 0


def test_recurrence_detects_perturbed_band(p5, fp):
    vf = coeffs_V_on_f(p5, fp)
    bad = TridiagonalCoeffs(
        sup=vf.sup,
        diag=tuple(x + (1 if i == 2 else 0) for i, x in enumerate(vf.diag)),
        sub=vf.sub,
    )
    residuals = [racah_recurrence(m, 2, p5, fp, vf=bad) for m in range(p5.N + 1)]
    assert any(r != 0 for r in residuals)
    # untouched columns stay clean
    assert all(racah_recurrence(m, 3, p5, fp, vf=bad) == 0 for m in range(p5.N + 1))


def test_difference_residuals_vanish(p5, fp):
    for m in range(p5.N + 1):
        for n in range(p5.N + 1):
            assert racah_difference(m, n, p5, fp) == 0


def test_full_suite(p5, fp):
    rep = verify_racah(p5, fp)
    assert rep.passed, [(c.id, c.detail) for c in rep.failures]


def test_full_suite_negative_params(p_other, fp_other):
    assert verify_racah(p_other, fp_other).passed


def test_suite_builds_each_table_once(p5, fp, monkeypatch):
    # count calls at every binding of each builder in the package
    counts = Counter()
    modules = [m for name, m in sys.modules.items()
               if name == "metaracah" or name.startswith("metaracah.")]
    for target in (coeffs_V_on_f, coeffs_X_on_e, coeffs_Z_on_e, closed_form_S):
        def counted(*args, _target=target, **kwargs):
            counts[_target.__name__] += 1
            return _target(*args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is target:
                    monkeypatch.setattr(module, attr, counted)
    assert verify_racah(p5, fp).passed
    assert counts["closed_form_S"] == (p5.N + 1) ** 2
    for band in ("coeffs_V_on_f", "coeffs_X_on_e", "coeffs_Z_on_e"):
        assert counts[band] <= 1, (band, counts[band])
