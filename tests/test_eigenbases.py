from collections import Counter
from fractions import Fraction as Q

import pytest

import metaracah.eigenbases as eb
from metaracah import (
    LABELS,
    Context,
    DegenerateParameters,
    NondegenerateSpectrumViolated,
    Params,
    PreconditionViolated,
    build_Z,
    build_basis,
    check_orthogonality,
    oracle_basis,
)
from metaracah.cli import SUITES, run_suites
from metaracah.diffmodel import model_basis
from metaracah.eigenbases import FAMILIES, eigenvalue, z_action_on_d


@pytest.mark.parametrize("label", LABELS)
def test_closed_form_matches_kernel_oracle(label, ctx3):
    closed = build_basis(ctx3.p, ctx3.fp, label)
    oracle = oracle_basis(ctx3, label)
    assert closed.vectors == oracle.vectors
    assert closed.eigenvalues == oracle.eigenvalues


@pytest.mark.parametrize("label", LABELS)
def test_closed_form_matches_oracle_negative_params(label, ctx_other):
    assert build_basis(ctx_other.p, ctx_other.fp, label).vectors == \
        oracle_basis(ctx_other, label).vectors


def test_orthogonality_and_completeness(ctx5):
    rep = check_orthogonality(ctx5)
    assert rep.passed, [c.id for c in rep.failures]
    ids = {c.id for c in rep.checks}
    assert {"gram-e", "gram-f", "gram-z", "gram-d"} <= ids
    assert {"completeness-e", "completeness-d"} <= ids


def test_normalization_anchors(p3, fp):
    # head of the adjoint pencil family is a pure multiple of |0>
    dstar0 = build_basis(p3, fp, "dStar").column(0)
    assert dstar0[0] == -1 / p3.alpha
    assert all(x == 0 for x in dstar0[1:])
    # top of the z family is exactly |N>
    ztop = build_basis(p3, fp, "z").column(p3.N)
    assert ztop == tuple(Q(int(l == p3.N)) for l in range(p3.N + 1))
    # unit component on the anchor slot for the e family
    evecs = build_basis(p3, fp, "e").vectors
    assert all(evecs[n, n] == 1 for n in range(p3.N + 1))


def test_z_action_on_d_closed_form(p3):
    Z = build_Z(p3)
    d = build_basis(p3, None, "d")
    for n in range(p3.N + 1):
        assert Z.apply(d.column(n)) == z_action_on_d(p3, n)


def test_eigenvalues_by_direct_action(ctx3):
    # B-weighted eigen-equations, family by family
    p3, fp = ctx3.p, ctx3.fp
    for label in LABELS:
        A, B = FAMILIES[label].pencil(ctx3)
        fam = build_basis(p3, fp, label)
        for n in range(p3.N + 1):
            v = fam.column(n)
            lam = eigenvalue(label, p3, fp, n)
            assert A.apply(v) == tuple(lam * x for x in B.apply(v)), (label, n)


def test_oracle_guards_empty_kernel(ctx3, monkeypatch):
    # an off-spectrum value leaves nothing in the kernel
    monkeypatch.setattr(eb, "eigenvalue", lambda *args: Q(1, 2))
    with pytest.raises(NondegenerateSpectrumViolated):
        eb.oracle_basis(ctx3, "z")


@pytest.mark.parametrize("entry", [
    pytest.param(lambda ctx, label: eigenvalue(label, ctx.p, ctx.fp, 0), id="eigenvalue"),
    pytest.param(lambda ctx, label: ctx.basis(label), id="Context_basis"),
    pytest.param(lambda ctx, label: build_basis(ctx.p, ctx.fp, label), id="build_basis"),
    pytest.param(lambda ctx, label: oracle_basis(ctx, label), id="oracle_basis"),
    pytest.param(lambda ctx, label: model_basis(ctx, label), id="model_basis"),
])
def test_unknown_label_rejected(entry, ctx3):
    with pytest.raises(PreconditionViolated, match="unknown basis label 'q'"):
        entry(ctx3, "q")


def test_rho_families_need_fparams(p3):
    ctx = Context(p3)
    assert ctx.rho is None
    for label in ("f", "fStar"):
        with pytest.raises(PreconditionViolated, match=f"label '{label}' needs FParams"):
            ctx.basis(label)
        with pytest.raises(PreconditionViolated, match=f"label '{label}' needs FParams"):
            model_basis(ctx, label)


def test_context_validates_once_and_hashes_on_its_set(p3, fp):
    with pytest.raises(DegenerateParameters) as exc:
        Context(Params(N=3, alpha=Q(1), beta=Q(1, 5), zeta=Q(1, 7)))
    assert "(1-alpha)" in exc.value.offenders
    # rho enters only when FParams are given: 2alpha + rho = 0 here
    assert Context(p3).rho is None
    with pytest.raises(DegenerateParameters):
        Context(p3, eb.FParams(rho=-2 * p3.alpha))
    a, b = Context(p3, fp), Context(p3, fp)
    assert a == b and hash(a) == hash(b) and a != Context(p3)
    a.basis("e")
    assert a == b and hash(a) == hash(b)
    assert a.Z is a.Z and a.Zt is a.Zt and a.basis("e") is a.basis("e")


def test_each_family_is_built_once_per_set(p3, fp, monkeypatch):
    # every suite reads the families from the one Context of the set
    calls = Counter()
    build = eb.build_basis

    def counted(p, fp, label):
        calls[label] += 1
        return build(p, fp, label)

    monkeypatch.setattr(eb, "build_basis", counted)
    run_suites(p3, fp, SUITES)
    assert calls == Counter({label: 1 for label in LABELS})
