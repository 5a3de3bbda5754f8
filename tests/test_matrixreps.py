from fractions import Fraction as Q

from metaracah import Context, Params, build_V, build_X, build_Z, build_basis
from metaracah.matrices import inverse
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
    # assembled band matrix reproduces Z in the e pairing
    e = build_basis(p3, None, "e")
    estar = build_basis(p3, None, "eStar")
    Z = build_Z(p3)
    assert coeffs_Z_on_e(p3).assemble() == estar.vectors.transpose() * Z * e.vectors


def test_X_on_e_is_V_conjugation_consistent(p3):
    e = build_basis(p3, None, "e")
    estar = build_basis(p3, None, "eStar")
    X = build_X(p3)
    assert coeffs_X_on_e(p3).assemble() == estar.vectors.transpose() * X * e.vectors


def test_V_on_f_bands(p3, fp):
    f = build_basis(p3, fp, "f")
    fstar = build_basis(p3, fp, "fStar")
    V = build_V(p3)
    assert coeffs_V_on_f(p3, fp).assemble() == fstar.vectors.transpose() * V * f.vectors


def test_VZ_on_d_by_triangular_solve(p3):
    # independent oracle: expand (V Z) d_n over the d family by solving
    # the linear system, without touching the adjoint pairing
    d = build_basis(p3, None, "d")
    VZ = build_V(p3) * build_Z(p3)
    got = coeffs_on_d(p3)["VZ"].assemble()
    d_inv = inverse(d.vectors)
    for n in range(p3.N + 1):
        coeffs = d_inv.apply(VZ.apply(d.column(n)))
        assert list(coeffs) == [got[l, n] for l in range(p3.N + 1)]


def test_dual_families_share_the_tridiagonal_core(p5):
    # VtZt on the adjoint family carries the same diagonal as VZ on d
    assert coeffs_on_dstar(p5)["VtZt"].diag == coeffs_on_d(p5)["VZ"].diag


def test_z_family_bidiagonal_split(p3):
    # X and -V share their upper band on the z family
    zz = coeffs_on_z(p3)
    assert zz["X"].sup == tuple(-s for s in zz["V"].sup)
    assert all(s == 0 for s in zz["X"].sub)


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
