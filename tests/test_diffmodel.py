import json
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings, strategies as st

import metaracah.diffmodel as diffmodel
import metaracah.rationalfns as rf
from metaracah import LABELS, Context, Params, build_basis
from metaracah.cli import main
from metaracah.diffmodel import (
    DiffOp,
    LaurentPoly,
    _e_as_jacobi,
    _g_norms,
    diff_V,
    diff_X,
    diff_Z,
    diff_Zt,
    g_bases,
    integral_representations,
    jacobi_poly,
    model_bases,
    model_basis,
    model_orthogonality,
    model_transposes,
    residue_grid,
    residue_pair,
    verify_model,
)
from metaracah.hyper import pochhammer
from metaracah.report import VerificationReport


def mono(exp, coeff=1):
    return LaurentPoly.monomial(exp, Q(coeff))


def monomial_bases(p):
    return g_bases(_g_norms(p.N))


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
# monomial no exponent of f meets, a constant, and overlapping supports;
# then lists of one to four on each side, all-zero lists among them
_F = LaurentPoly(-3, (Q(1, 2), 0, Q(-2, 3)))
_ZERO = LaurentPoly.zero()


@given(fs=st.lists(laurent_polys, min_size=1, max_size=4),
       gs=st.lists(laurent_polys, min_size=1, max_size=4))
@example(fs=[_F], gs=[_ZERO])
@example(fs=[_ZERO], gs=[_F])
@example(fs=[_F], gs=[LaurentPoly.monomial(5)])
@example(fs=[_F], gs=[LaurentPoly.monomial(0, Q(7))])
@example(fs=[_F], gs=[LaurentPoly(0, (5, 11, 13))])
@example(fs=[_ZERO, _ZERO], gs=[_F, _ZERO, mono(2)])
@example(fs=[_F, mono(4)], gs=[_ZERO] * 4)
@example(fs=[_ZERO] * 3, gs=[_ZERO])
@example(fs=[mono(-1), _ZERO, _F, LaurentPoly(2, (1, 2))], gs=[mono(0), _F, mono(-3, 5)])
@settings(max_examples=300, deadline=None)
def test_residue_pair_reads_the_product_coefficient(fs, gs):
    grid = residue_grid(fs, gs)
    assert grid.shape == (len(fs), len(gs))
    for i, f in enumerate(fs):
        for j, g in enumerate(gs):
            want = (f * g).coefficient(-1)
            assert grid[i, j] == want and type(grid[i, j]) is Q
            assert residue_pair(f, g) == want and type(residue_pair(f, g)) is Q


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
    g, g_dual = monomial_bases(p3)
    for m in range(p3.N + 1):
        for n in range(p3.N + 1):
            got = residue_pair(g_dual[m], g[n])
            assert got == (1 if m == n else 0)


def test_Z_on_the_first_ray(p3):
    g, _ = monomial_bases(p3)
    got = diff_Z(p3).apply(g[0])
    expected = -p3.alpha * g[0] + g[1]
    assert got == expected


def test_operator_matrices_match_abstract(p3):
    from metaracah import build_V, build_X, build_Z

    g, g_dual = monomial_bases(p3)
    assert residue_grid(g_dual, [diff_Z(p3).apply(x) for x in g]) == build_Z(p3)
    assert residue_grid(g_dual, [diff_V(p3).apply(x) for x in g]) == build_V(p3)
    assert residue_grid(g_dual, [diff_X(p3).apply(x) for x in g]) == build_X(p3)


def test_model_polynomials_carry_the_abstract_columns(p3, rho, ctx3):
    # residue pairing against the dual rays reads off g-expansion
    # coefficients, which must match the abstract basis columns
    _, g_dual = monomial_bases(p3)
    for label in ("d", "e", "z", "f"):
        fam = build_basis(p3, rho, label)
        polys = model_basis(ctx3, label)
        for n in range(p3.N + 1):
            coeffs = tuple(
                residue_pair(g_dual[l], polys[n]) for l in range(p3.N + 1)
            )
            assert coeffs == fam.column(n), (label, n)


def test_dual_model_polynomials(p3, rho, ctx3):
    # dual families expand over the dual rays; pair against the plain rays
    g, _ = monomial_bases(p3)
    for label in ("dStar", "eStar", "zStar", "fStar"):
        fam = build_basis(p3, rho, label)
        polys = model_basis(ctx3, label)
        for n in range(p3.N + 1):
            coeffs = tuple(
                residue_pair(polys[n], g[l]) for l in range(p3.N + 1)
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


def families_of(ctx):
    return {label: model_basis(ctx, label) for label in LABELS}


def test_model_bases_report(ctx5):
    rep = VerificationReport("model")
    families = model_bases(rep, ctx5, _g_norms(ctx5.p.N))
    assert rep.passed, [(c.id, c.detail) for c in rep.failures]
    assert tuple(families) == LABELS
    assert len(rep.checks) == len(LABELS) + 1


def _count_dense_plain_grams(monkeypatch, families):
    """Wrap residue_grid; the returned list gains an entry per <d*_m, d_n>
    formed over the whole families."""
    dense, grid = [], diffmodel.residue_grid

    def counted(fs, gs):
        if fs is families["dStar"] and gs is families["d"]:
            dense.append(fs)
        return grid(fs, gs)

    monkeypatch.setattr(diffmodel, "residue_grid", counted)
    return dense


def test_model_orthogonality(ctx3, monkeypatch):
    families = families_of(ctx3)
    dense = _count_dense_plain_grams(monkeypatch, families)
    rep = VerificationReport("model")
    model_orthogonality(rep, ctx3, families)
    assert rep.passed, [(c.id, c.detail) for c in rep.failures]
    # the pencil pair is recorded as non-orthogonal without the Z insertion,
    # read off its corner -1/alpha alone
    info = {c.id: c.detail for c in rep.checks if c.id.endswith("-no-Z")}
    assert info == {"gram-d-no-Z": "differs from identity, e.g. entry (0, 0) = -3"}
    assert not dense


def test_plain_d_gram_is_formed_where_its_corner_is_one(monkeypatch):
    # at alpha = -1 the corner <d*_0, d_0> = -1/alpha is 1, so the whole
    # Gram decides the entry, and it is not the identity
    ctx = Context(Params(N=3, alpha=Q(-1), beta=Q(18, 7), zeta=Q(-39, 11)), Q(-11, 3))
    families = families_of(ctx)
    dense = _count_dense_plain_grams(monkeypatch, families)
    rep = VerificationReport("model")
    model_orthogonality(rep, ctx, families)
    assert rep.passed, [(c.id, c.detail) for c in rep.failures]
    info, = [c.detail for c in rep.checks if c.id == "gram-d-no-Z"]
    assert info == "differs from identity, e.g. entry (0, 0) = 1"
    assert len(dense) == 1


def test_integral_representations(ctx_other, monkeypatch):
    # the three residue formulas pair the model families they are given
    # and build no Laurent polynomial of their own
    families = families_of(ctx_other)
    built = []
    monkeypatch.setattr(LaurentPoly, "__init__", lambda self, *args: built.append(args))
    rep = VerificationReport("model")
    integral_representations(rep, ctx_other, families)
    assert rep.passed, [(c.id, c.detail) for c in rep.failures]
    assert [c.id for c in rep.checks] == ["integral-S", "integral-U", "integral-dual-hahn"]
    assert not built


def test_transposed_operators(ctx3):
    rep = VerificationReport("model")
    model_transposes(rep, ctx3, *monomial_bases(ctx3.p))
    assert rep.passed, [(c.id, c.detail) for c in rep.failures]
    ghost_checks = [c for c in rep.checks if c.id.startswith("ghosts-")]
    assert len(ghost_checks) == 3


def _n2_plus(exp):
    """The fault that adds x^exp to model polynomial n = 2."""
    def fault(model):
        return lambda p, rho, n: model(p, rho, n) + (mono(exp) if n == 2 else LaurentPoly.zero())
    return fault


def _xt_plus_x(diff):
    def op(p):
        xt = diff(p)
        return DiffOp(xt.a2, xt.a1, xt.a0 + mono(1))
    return op


def _jacobi_2_plus_x2(e_as_jacobi):
    def split(p):
        jac, scales = e_as_jacobi(p)
        return [j + mono(2) if n == 2 else j for n, j in enumerate(jac)], scales
    return split


# one model function off, and the first four points of each residue grid
# that reads it, row by row: f_2 + 1 adds the x^(-1) term of every f*_m to
# column n = 2; Xt + x pairs x g*_m ~ x^(-m) with g_(m-1); jac_2 + x^2 is
# read by model-e-jacobi alone, at its exponent l = 2; e_2 + x^2 meets only
# the duals f*_n, d*_n and z*_n with n >= 2, which reach down to x^(-3);
# z*_2 + x^(-2) is read at basis vector l = 1 and meets the x^1 term of
# every e_m with m >= 1 and of z_0 and z_1
MODEL_FAULTS = [
    (diffmodel._MODELS, "f", _n2_plus(0),
     {"gram-f": "failing (m, n): [(0, 2), (1, 2), (2, 2), (3, 2)]"}),
    (vars(diffmodel), "diff_Xt", _xt_plus_x,
     {"adjoint-X": "failing (m, n): [(1, 0), (2, 1), (3, 2)]"}),
    (vars(diffmodel), "_e_as_jacobi", _jacobi_2_plus_x2,
     {"model-e-jacobi": "failing (l, n): [(2, 2)]"}),
    (diffmodel._MODELS, "e", _n2_plus(2), {
        "integral-S": "failing (m, n): [(2, 2), (2, 3)]",
        "integral-U": "failing (m, n): [(2, 2), (2, 3)]",
        "integral-dual-hahn": "failing (m, k): [(2, 2), (2, 3)]",
    }),
    (diffmodel._MODELS, "zStar", _n2_plus(-2), {
        "model-zStar": "failing (l, n): [(1, 2)]",
        "gram-z": "failing (m, n): [(2, 0), (2, 1)]",
        "integral-dual-hahn": "failing (m, k): [(1, 2), (2, 2), (3, 2)]",
    }),
]


@pytest.mark.parametrize("table, key, fault, details", MODEL_FAULTS,
                         ids=[key for _, key, _, _ in MODEL_FAULTS])
def test_residue_checks_name_the_points_a_fault_breaks(ctx3, monkeypatch, table, key, fault,
                                                       details):
    monkeypatch.setitem(table, key, fault(table[key]))
    checks = {c.id: c for c in verify_model(ctx3).checks}
    assert {i: (checks[i].status, checks[i].detail) for i in details} == {
        i: ("fail", detail) for i, detail in details.items()}


def test_a_fault_in_the_closed_e_zstar_table_fails_the_dual_hahn_residue_check(ctx3,
                                                                               monkeypatch):
    # the residue grid of model e against model z* is compared with the kept
    # closed e^T z* table, whose factor in m no model polynomial reads: that
    # factor off at m = 1 fails row 1 of integral-dual-hahn and nothing else
    pre = rf._prefactor_U_m
    monkeypatch.setattr(rf, "_prefactor_U_m", lambda m, p: pre(m, p) + (m == 1))
    failed = {c.id: c.detail for c in verify_model(ctx3).failures}
    assert failed == {"integral-dual-hahn": "failing (m, k): [(1, 0), (1, 1), (1, 2), (1, 3)]"}


def test_the_jacobi_family_is_built_once_and_read_by_its_check_alone(ctx3, monkeypatch):
    calls = []

    def faulty(p):
        calls.append(p)
        return _jacobi_2_plus_x2(_e_as_jacobi)(p)

    monkeypatch.setattr(diffmodel, "_e_as_jacobi", faulty)
    failed = {c.id: c.detail for c in verify_model(ctx3).failures}
    assert failed == {"model-e-jacobi": "failing (l, n): [(2, 2)]"}
    assert calls == [ctx3.p]


# one coefficient of model polynomial n = 2 off by one: x^1 for a family
# read over g_0..g_N, x^(-2) for a dual family read over g*_0..g*_N, both
# basis vector l = 1; no other family's basis check reads it
@pytest.mark.parametrize("label", LABELS)
def test_a_model_fault_fails_its_own_basis_check_only(ctx3, monkeypatch, label):
    fault = _n2_plus(-2 if label.endswith("Star") else 1)
    monkeypatch.setitem(diffmodel._MODELS, label, fault(diffmodel._MODELS[label]))
    basis_checks = {f"model-{other}" for other in LABELS}
    failed = {c.id: c.detail for c in verify_model(ctx3).failures if c.id in basis_checks}
    assert failed == {f"model-{label}": "failing (l, n): [(1, 2)]"}


# one term outside the window a family is read over, 0..N or -N-1..-1 for
# a dual family, added to model polynomial n = 2; before the window was
# read in full, no basis check saw any of these
STRAY_TERMS = [(label, exp) for labels, exps in (
    (("f", "z"), (-1, -2, 4, -5)), (("d",), (-2, 4, -5)), (("e",), (-1, 4)),
    (("dStar", "eStar", "fStar", "zStar"), (1, 0, 4, -5))) for label in labels for exp in exps]


@pytest.mark.parametrize("label, exp", STRAY_TERMS)
def test_a_stray_term_fails_its_basis_check(ctx3, monkeypatch, label, exp):
    monkeypatch.setitem(diffmodel._MODELS, label, _n2_plus(exp)(diffmodel._MODELS[label]))
    window = "-N-1..-1" if label.endswith("Star") else "0..N"
    failed = {c.id: c.detail for c in verify_model(ctx3).failures}
    assert failed[f"model-{label}"] == f"exponents outside {window}: [{exp}]"


def _a0_plus(diff, exp):
    def op(p):
        d = diff(p)
        return DiffOp(d.a2, d.a1, d.a0 + mono(exp))
    return op


# one monomial added to a0 of one differential operator, and every check of
# model_transposes it fails: x^2 pushes X g_2 and X g_3 past x^N, x^(-1)
# takes V g_0 below x^0, x^(-2) takes Xt g*_3 below the ghost x^(-N-2), and
# a constant stays in the span, so only the matrices see it
TRANSPOSE_FAULTS = [
    ("diff_X", 2, {
        "g-basis-X": "image exponents outside 0..N: [4, 5]",
        "adjoint-X": "failing (m, n): [(2, 0), (3, 1)]",
    }),
    ("diff_V", -1, {
        "g-basis-V": "image exponents outside 0..N: [-1]",
        "adjoint-V": "failing (m, n): [(0, 1), (1, 2), (2, 3)]",
    }),
    ("diff_Xt", -2, {
        "adjoint-X": "failing (m, n): [(0, 2), (1, 3)]",
        "quotient-X": "failing (m, n): [(2, 0), (3, 1)]",
        "ghosts-X": "ghost exponents: [-6, -5, 0]",
    }),
    ("diff_Z", 0, {
        "g-basis-Z": "failing (m, n): [(0, 0), (1, 1), (2, 2), (3, 3)]",
        "adjoint-Z": "failing (m, n): [(0, 0), (1, 1), (2, 2), (3, 3)]",
    }),
]


@pytest.mark.parametrize("name, exp, details", TRANSPOSE_FAULTS,
                         ids=[name for name, _, _ in TRANSPOSE_FAULTS])
def test_every_transpose_check_can_fail_and_none_raises(ctx3, monkeypatch, name, exp, details):
    monkeypatch.setattr(diffmodel, name, _a0_plus(getattr(diffmodel, name), exp))
    rep = VerificationReport("model")
    model_transposes(rep, ctx3, *monomial_bases(ctx3.p))
    assert {c.id: c.detail for c in rep.failures} == details


def test_a_faulty_operator_is_an_identity_failure_in_the_cli(capsys, monkeypatch):
    monkeypatch.setattr(diffmodel, "diff_X", _a0_plus(diffmodel.diff_X, 2))
    assert main(["verify", "--suite", "model", "--N", "3"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "fail"
    failed = {c["id"] for r in payload["reports"] for c in r["checks"] if c["status"] == "fail"}
    assert failed == {"g-basis-X", "adjoint-X"}


def test_adjoint_identity_single_pair(p3):
    # <Zt g*_0, g_1> = <g*_0, Z g_1> spelled out by hand
    g, g_dual = monomial_bases(p3)
    left = residue_pair(
        diff_Zt(p3).apply(g_dual[0]), g[1]
    )
    right = residue_pair(
        g_dual[0], diff_Z(p3).apply(g[1])
    )
    assert left == right


def test_full_model_suite(ctx5):
    rep = verify_model(ctx5)
    assert rep.passed, [(c.id, c.detail) for c in rep.failures]


def test_model_suite_applies_each_operator_once(p5, ctx5, monkeypatch):
    # Z, V and X on g_n (g-basis matrices and adjoint right sides), Zt, Vt
    # and Xt on g*_m (adjoint left sides and quotient matrices), and Z on
    # d_n: 7 applications per index
    calls = []
    apply = DiffOp.apply

    def counted(self, f):
        calls.append(f)
        return apply(self, f)

    monkeypatch.setattr(DiffOp, "apply", counted)
    assert verify_model(ctx5).passed
    assert len(calls) <= 7 * (p5.N + 1)
