from fractions import Fraction as Q

import pytest

import metaracah.eigenbases as eb
from metaracah import (
    LABELS,
    NondegenerateSpectrumViolated,
    PreconditionViolated,
    build_Z,
    build_basis,
    check_orthogonality,
    oracle_basis,
)
from metaracah.cli import SUITES, run_suites
from metaracah.diffmodel import model_basis
from metaracah.eigenbases import closed_form_basis, eigenvalue, z_action_on_d


@pytest.mark.parametrize("label", LABELS)
def test_closed_form_matches_kernel_oracle(label, p3, fp):
    closed = build_basis(p3, fp, label)
    oracle = oracle_basis(p3, fp, label)
    assert closed.vectors == oracle.vectors
    assert closed.eigenvalues == oracle.eigenvalues


@pytest.mark.parametrize("label", LABELS)
def test_closed_form_matches_oracle_negative_params(label, p_other, fp_other):
    assert build_basis(p_other, fp_other, label).vectors == \
        oracle_basis(p_other, fp_other, label).vectors


def test_orthogonality_and_completeness(p5, fp):
    rep = check_orthogonality(p5, fp)
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


def test_eigenvalues_by_direct_action(p3, fp):
    # B-weighted eigen-equations, family by family
    from metaracah.eigenbases import _pencil

    for label in LABELS:
        A, B = _pencil(label, p3, fp)
        fam = build_basis(p3, fp, label)
        for n in range(p3.N + 1):
            v = fam.column(n)
            lam = eigenvalue(label, p3, fp, n)
            assert A.apply(v) == tuple(lam * x for x in B.apply(v)), (label, n)


def test_oracle_guards_empty_kernel(p3, fp, monkeypatch):
    # an off-spectrum value leaves nothing in the kernel
    monkeypatch.setattr(eb, "eigenvalue", lambda *args: Q(1, 2))
    with pytest.raises(NondegenerateSpectrumViolated):
        eb.oracle_basis(p3, fp, "z")


@pytest.mark.parametrize("entry", [
    pytest.param(lambda p, fp, label: eigenvalue(label, p, fp, 0), id="eigenvalue"),
    pytest.param(lambda p, fp, label: closed_form_basis(p, fp, label),
                 id="closed_form_basis"),
    pytest.param(lambda p, fp, label: build_basis(p, fp, label), id="build_basis"),
    pytest.param(lambda p, fp, label: oracle_basis(p, fp, label), id="oracle_basis"),
    pytest.param(lambda p, fp, label: model_basis(label, p, fp), id="model_basis"),
])
def test_unknown_label_rejected(entry, p3, fp):
    with pytest.raises(PreconditionViolated, match="unknown basis label 'q'"):
        entry(p3, fp, "q")


def test_each_family_is_built_once_per_set(p3, fp):
    # every suite reads the families through one cache key per family
    eb.cached_basis.cache_clear()
    run_suites(p3, fp, SUITES)
    assert eb.cached_basis.cache_info().misses == len(LABELS)
