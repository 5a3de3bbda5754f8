import sys
from collections import Counter
from fractions import Fraction as Q

import pytest

import metaracah.racahpoly as racahpoly
from metaracah.eigenbases import closed_form_basis, eigenvalue
from metaracah.errors import PreconditionViolated
from metaracah.hyper import pochhammer
from metaracah.matrices import dot
from metaracah.racahpoly import (
    RacahParams,
    _difference_residual,
    _pencil_on_e,
    _recurrence_residual,
    closed_form_S,
    closed_form_Stilde,
    norm,
    racah,
    verify_racah,
    weight,
)
from metaracah.matrixreps import TridiagonalCoeffs, coeffs_V_on_f, coeffs_X_on_e, coeffs_Z_on_e
from metaracah.report import grid


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
    fstar, e = closed_form_basis(p5, fp, "fStar"), closed_form_basis(p5, fp, "e")
    f, estar = closed_form_basis(p5, fp, "f"), closed_form_basis(p5, fp, "eStar")
    for m in range(p5.N + 1):
        for n in range(p5.N + 1):
            assert dot(fstar.column(n), e.column(m)) == closed_form_S(m, n, rp)
            assert dot(f.column(n), estar.column(m)) == closed_form_Stilde(m, n, rp)


def test_S_row_zero_is_pure_prefactor(p5, fp, rp):
    # R_0 = 1, so the m = 0 row exposes the prefactor alone
    a, g = rp.alpha_hat, rp.gamma_hat
    fstar, e = closed_form_basis(p5, fp, "fStar"), closed_form_basis(p5, fp, "e")
    for n in range(p5.N + 1):
        pref = pochhammer(a + 1, n) / (
            pochhammer(1, n) * pochhammer(n - rp.N + g, n)
        )
        assert closed_form_S(0, n, rp) == pref
        assert dot(fstar.column(n), e.column(0)) == pref


def test_gram_biorthogonality(p5, fp):
    checks = {c.id: c for c in verify_racah(p5, fp).checks}
    for check_id in ("gram-S", "weight-orthogonality", "weight-norm-consistency"):
        assert checks[check_id].status == "pass", checks[check_id]
    assert {"weight-signs", "norm-signs"} <= set(checks)


def test_weight_orthogonality_row_sums(p5, fp, rp):
    # k = m = 0 collapses to sum_n W_n = N_0
    total = sum(weight(n, rp) for n in range(rp.N + 1))
    assert total == norm(0, rp)
    # an off-diagonal pair must cancel exactly
    mixed = sum(
        weight(n, rp) * racah(0, n, rp) * racah(1, n, rp) for n in range(rp.N + 1)
    )
    assert mixed == 0


def _s_table(p, fp):
    rp = RacahParams.from_params(p, fp)
    S = grid(p.N, lambda m, n: closed_form_S(m, n, rp))
    return lambda i, j: S[i][j]


def test_recurrence_residuals_vanish(p5, fp):
    S, vf = _s_table(p5, fp), coeffs_V_on_f(p5, fp)
    for m in range(p5.N + 1):
        mu = eigenvalue("e", p5, fp, m)
        for n in range(p5.N + 1):
            assert _recurrence_residual(m, n, p5.N, S, vf, mu) == 0


def test_recurrence_detects_perturbed_band(p3, fp, monkeypatch):
    # V on f with diag[2] bumped breaks the recurrence in column n = 2 only
    def bumped(p, fp):
        vf = coeffs_V_on_f(p, fp)
        return TridiagonalCoeffs(
            sup=vf.sup,
            diag=tuple(x + (1 if i == 2 else 0) for i, x in enumerate(vf.diag)),
            sub=vf.sub,
        )

    monkeypatch.setattr(racahpoly, "coeffs_V_on_f", bumped)
    rep = verify_racah(p3, fp)
    assert [(c.id, c.detail) for c in rep.failures] == [
        ("recurrence", "failing (m, n): [(0, 2), (1, 2), (2, 2), (3, 2)]")
    ]


def test_difference_residuals_vanish(p5, fp):
    S, we = _s_table(p5, fp), _pencil_on_e(p5, fp.rho)
    for n in range(p5.N + 1):
        nu = eigenvalue("f", p5, fp, n)
        for m in range(p5.N + 1):
            assert _difference_residual(m, n, p5.N, S, we, nu) == 0


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
