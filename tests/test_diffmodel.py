from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings, strategies as st

from metaracah import LABELS, Context, build_basis
from metaracah.diffmodel import (
    DiffOp,
    LaurentPoly,
    _model_bases_report,
    diff_V,
    diff_X,
    diff_Z,
    diff_Zt,
    g_dual_poly,
    g_poly,
    integral_representations,
    jacobi_poly,
    matrix_in_monomial_basis,
    model_basis,
    model_orthogonality,
    model_transposes,
    residue_pair,
    verify_model,
)
from metaracah.hyper import pochhammer


def mono(exp, coeff=1):
    return LaurentPoly.monomial(exp, Q(coeff))


def test_residue_pairing_basics():
    assert residue_pair(mono(-1), mono(0)) == 1
    assert residue_pair(mono(-3), mono(1)) == 0
    assert residue_pair(mono(2), mono(-3, 5)) == 5
    # delta on exponents summing to -1
    for a in range(-3, 3):
        for b in range(-3, 3):
            expected = Q(1) if a + b == -1 else Q(0)
            assert residue_pair(mono(a), mono(b)) == expected


def test_residue_pairing_bilinear_symmetric():
    f = mono(-2, 3) + mono(1, Q(1, 2))
    g = mono(1, 4) + mono(-2, 7)
    h = mono(0, 2)
    assert residue_pair(f, g) == residue_pair(g, f)
    assert residue_pair(f + h, g) == residue_pair(f, g) + residue_pair(h, g)


# coefficients with mixed denominators and many exact zeros, so that
# polynomials have zero inner coefficients and zero ends to trim
coefficients = st.one_of(
    st.just(Q(0)),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
)
laurent_polys = st.builds(
    LaurentPoly,
    min_exp=st.integers(min_value=-12, max_value=8),
    coeffs=st.lists(coefficients, max_size=9).map(tuple),
)


# x^-3/2 - 2x^-1/3 against: the zero polynomial on either side, a
# monomial no exponent of f meets, a constant, and overlapping supports
_F = LaurentPoly(-3, (Q(1, 2), 0, Q(-2, 3)))


@given(f=laurent_polys, g=laurent_polys)
@example(f=_F, g=LaurentPoly.zero())
@example(f=LaurentPoly.zero(), g=_F)
@example(f=_F, g=LaurentPoly.monomial(5))
@example(f=_F, g=LaurentPoly.monomial(0, Q(7)))
@example(f=_F, g=LaurentPoly(0, (5, 11, 13)))
@settings(max_examples=300, deadline=None)
def test_residue_pair_reads_the_product_coefficient(f, g):
    assert residue_pair(f, g) == (f * g).coefficient(-1)
    assert type(residue_pair(f, g)) is Q


def test_laurent_poly_normalizes_its_coefficients():
    f = LaurentPoly(-2, (0, 0, 3, 0, Q(1, 2), 0, 0))
    assert f.min_exp == 0 and f.coeffs == (Q(3), Q(0), Q(1, 2))
    assert all(type(c) is Q for c in f.coeffs)
    zero = LaurentPoly(4, (0, Q(0), 0))
    assert zero.is_zero and zero.min_exp == 0 and zero.coeffs == ()


def test_laurent_arithmetic():
    f = mono(0) - mono(1)          # 1 - x
    assert f * f == mono(0) - mono(1, 2) + mono(2)
    assert f.derivative() == mono(0, -1)
    assert mono(-2).derivative() == mono(-3, -2)
    assert (f - f).is_zero


def test_monomial_rays_are_dual(p3):
    for m in range(p3.N + 1):
        for n in range(p3.N + 1):
            got = residue_pair(g_dual_poly(p3, m), g_poly(p3, n))
            assert got == (1 if m == n else 0)


def test_Z_on_the_first_ray(p3):
    got = diff_Z(p3).apply(g_poly(p3, 0))
    expected = -p3.alpha * g_poly(p3, 0) + g_poly(p3, 1)
    assert got == expected


def test_operator_matrices_match_abstract(p3):
    from metaracah import build_V, build_X, build_Z

    assert matrix_in_monomial_basis(diff_Z(p3), p3) == build_Z(p3)
    assert matrix_in_monomial_basis(diff_V(p3), p3) == build_V(p3)
    assert matrix_in_monomial_basis(diff_X(p3), p3) == build_X(p3)


def test_model_polynomials_carry_the_abstract_columns(p3, fp, ctx3):
    # residue pairing against the dual rays reads off g-expansion
    # coefficients, which must match the abstract basis columns
    for label in ("d", "e", "z", "f"):
        fam = build_basis(p3, fp, label)
        polys = model_basis(ctx3, label)
        for n in range(p3.N + 1):
            coeffs = tuple(
                residue_pair(g_dual_poly(p3, l), polys[n]) for l in range(p3.N + 1)
            )
            assert coeffs == fam.column(n), (label, n)


def test_dual_model_polynomials(p3, fp, ctx3):
    # dual families expand over the dual rays; pair against the plain rays
    for label in ("dStar", "eStar", "zStar", "fStar"):
        fam = build_basis(p3, fp, label)
        polys = model_basis(ctx3, label)
        for n in range(p3.N + 1):
            coeffs = tuple(
                residue_pair(polys[n], g_poly(p3, l)) for l in range(p3.N + 1)
            )
            assert coeffs == fam.column(n), (label, n)


def test_e_is_a_jacobi_polynomial(p3):
    a = p3.N - 2 * p3.alpha - p3.beta - 2 * p3.zeta - 1
    b = 2 * p3.alpha - p3.beta - p3.N - 1
    for n in range(p3.N + 1):
        scale = (
            pochhammer(1, n)
            * pochhammer(-p3.N, n)
            / pochhammer(n - 2 * p3.beta - 2 * p3.zeta - 1, n)
        )
        assert model_basis(Context(p3), "e")[n] == scale * jacobi_poly(n, a, b)


@pytest.mark.parametrize("n, a, b", [(2, -3, Q(1, 2)), (3, Q(-4), Q(-7, 3)), (1, -2, 5)])
def test_jacobi_poly_where_a_plus_one_plus_n_vanishes(n, a, b):
    # (a+1)_k is nonzero for k <= n-1; only the ratio after x^n would divide by 0
    assert a + 1 + n == 0
    want = {
        k: pochhammer(a + 1, n) / pochhammer(1, n) * pochhammer(-n, k)
        * pochhammer(n + a + b + 1, k) / (pochhammer(a + 1, k) * pochhammer(1, k))
        for k in range(n + 1)
    }
    assert jacobi_poly(n, a, b) == LaurentPoly.from_dict(want)


def test_model_bases_report(ctx5):
    rep, families = _model_bases_report(ctx5)
    assert rep.passed, [(c.id, c.detail) for c in rep.failures]
    assert tuple(families) == LABELS


def test_model_orthogonality(ctx3):
    families = {label: model_basis(ctx3, label) for label in LABELS}
    rep = model_orthogonality(ctx3, families)
    assert rep.passed, [(c.id, c.detail) for c in rep.failures]
    # the pencil pair is recorded as non-orthogonal without the Z insertion
    info = [c for c in rep.checks if c.id == "gram-d-no-Z"]
    assert info and "(0, 0)" in info[0].detail


def test_integral_representations(ctx_other):
    rep = integral_representations(ctx_other)
    assert rep.passed, [(c.id, c.detail) for c in rep.failures]


def test_transposed_operators(ctx3):
    rep = model_transposes(ctx3)
    assert rep.passed, [(c.id, c.detail) for c in rep.failures]
    ghost_checks = [c for c in rep.checks if c.id.startswith("ghosts-")]
    assert len(ghost_checks) == 3


def test_adjoint_identity_single_pair(p3):
    # <Zt g*_0, g_1> = <g*_0, Z g_1> spelled out by hand
    left = residue_pair(
        diff_Zt(p3).apply(g_dual_poly(p3, 0)), g_poly(p3, 1)
    )
    right = residue_pair(
        g_dual_poly(p3, 0), diff_Z(p3).apply(g_poly(p3, 1))
    )
    assert left == right


def test_full_model_suite(ctx5):
    rep = verify_model(ctx5)
    assert rep.passed, [(c.id, c.detail) for c in rep.failures]


def test_model_suite_applies_each_operator_once(p5, ctx5, monkeypatch):
    # g-basis matrices (3 ops), adjoint images of g_n and g*_m (3 + 3),
    # dual quotient matrices (3) and Z on d_n: 13 applications per index
    calls = []
    apply = DiffOp.apply

    def counted(self, f):
        calls.append(f)
        return apply(self, f)

    monkeypatch.setattr(DiffOp, "apply", counted)
    assert verify_model(ctx5).passed
    assert len(calls) <= 13 * (p5.N + 1)
