import sys
from collections import Counter
from fractions import Fraction as Q

import metaracah.matrixreps as mr
from metaracah import Context, Params, build_V, build_X, build_Z, build_basis
from metaracah.cli import main
from metaracah.matrices import RationalMatrix, inverse
from metaracah.racahpoly import verify_racah
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
    assert coeffs_Z_on_e(p3) == estar.vectors.transpose() * Z * e.vectors


def test_X_on_e_is_V_conjugation_consistent(p3):
    e = build_basis(p3, None, "e")
    estar = build_basis(p3, None, "eStar")
    X = build_X(p3)
    assert coeffs_X_on_e(p3) == estar.vectors.transpose() * X * e.vectors


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
    got = coeffs_on_d(p3)["VZ"]
    d_inv = inverse(d.vectors)
    for n in range(p3.N + 1):
        coeffs = d_inv.apply(VZ.apply(d.column(n)))
        assert list(coeffs) == [got[l, n] for l in range(p3.N + 1)]


def test_dual_families_share_the_tridiagonal_core(p5):
    # VtZt on the adjoint family carries the same diagonal as VZ on d
    assert coeffs_on_dstar(p5)["VtZt"].band(0) == coeffs_on_d(p5)["VZ"].band(0)


def test_z_family_bidiagonal_split(p3):
    # X and -V share their band -1 on the z family
    zz = coeffs_on_z(p3)
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


def test_leonard_trio_degenerate_control():
    # beta = -1/3 makes 2*alpha - beta - 1 = 0, killing band entries; the
    # trio needs no rho, and with rho the set is refused: (beta-2alpha+1)_n
    p = Params(N=5, alpha=Q(1, 3), beta=Q(-1, 3), zeta=Q(1, 7))
    rep = verify_leonard_trio(Context(p))
    failed = {c.id: c.detail for c in rep.failures}
    assert failed == {
        "trio-i-Z-irreducible": "zero at index 9",
        "trio-ii-Z-irreducible": "zero at index 0",
        "trio-iii-Vtilde-irreducible": "zero at index 0",
        "trio-iii-V-irreducible": "zero at index 0",
    }


def test_vz_fault_details_keep_their_signs(ctx3, monkeypatch):
    # one wrong entry of the VZ diagonal, which VZ on d and VtZt on d*
    # share: the two coefficient checks read closed form minus oracle, the
    # trio reads its matrix minus the closed form
    diag = mr._vz_on_d_diag
    monkeypatch.setattr(mr, "_vz_on_d_diag", lambda p, n: diag(p, n) + (n == 1))
    failed = {c.id: c.detail for rep in (verify_coefficients(ctx3), verify_leonard_trio(ctx3))
              for c in rep.failures}
    assert failed == {
        "VZ-on-d": "first nonzero residual at (1,1): 1",
        "VtZt-on-dstar": "first nonzero residual at (1,1): 1",
        "trio-ii-ZV-coefficients": "first nonzero residual at (1,1): -1",
    }


def test_matrixreps_suite_builds_each_conjugation_once(capsys, monkeypatch):
    # the trio reads the operator matrices verify_coefficients has built,
    # X on e among them, as Vtilde Z = X; only Vtilde on Z d_n (d*^T X d),
    # V on e and Z on z are its own, and each dual side (b*)^T W is formed
    # once per family
    products = []
    mul = RationalMatrix.__mul__

    def counted(self, other):
        if isinstance(other, RationalMatrix):
            products.append(other.shape)
        return mul(self, other)

    monkeypatch.setattr(RationalMatrix, "__mul__", counted)
    assert main(["verify", "--suite", "matrixreps", "--N", "8"]) == 0
    capsys.readouterr()
    assert len(products) == 40


def test_each_band_table_is_built_once_per_context(ctx5, monkeypatch):
    # every suite reads the COEFFS bands of its one Context: the coefficient
    # checks, the racah recurrence and difference residuals and the trio
    # each call a builder at most once between them, through any binding
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
    reports = [verify_coefficients(ctx5), verify_leonard_trio(ctx5), verify_racah(ctx5)]
    for basis, (_, build) in mr.COEFFS.items():
        assert build(ctx5) == build(ctx5)
    assert all(rep.passed for rep in reports)
    assert counts == Counter({target.__name__: 1 for target in builders})
    other = Context(ctx5.p, ctx5.rho)
    verify_coefficients(other)
    assert set(counts.values()) == {2}
