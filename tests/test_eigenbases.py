import re
from collections import Counter
from fractions import Fraction as Q

import pytest

import metaracah.eigenbases as eb
import metaracah.matrixreps as mr
from metaracah import (
    LABELS,
    Context,
    DegenerateParameters,
    NondegenerateSpectrumViolated,
    Params,
    PreconditionViolated,
    RacahParams,
    build_Z,
    build_basis,
    check_orthogonality,
    closed_form_S,
    closed_form_Stilde,
    closed_form_U,
    closed_form_Utilde,
    oracle_basis,
)
from metaracah import cli
from metaracah.algebra import check_casimir_central, check_defining_relations, check_subalgebras
from metaracah.cli import SUITES, run_suites
from metaracah.diffmodel import model_basis, verify_model
from metaracah.eigenbases import FAMILIES, eigenvalue, z_action_on_d
from metaracah.matrices import RationalMatrix
from metaracah.racahpoly import verify_racah
from metaracah.rationalfns import verify_rational


@pytest.mark.parametrize("label", LABELS)
def test_closed_form_matches_kernel_oracle(label, ctx3):
    closed = build_basis(ctx3.p, ctx3.rho, label)
    oracle = oracle_basis(ctx3, label)
    assert closed.vectors == oracle.vectors
    assert closed.eigenvalues == oracle.eigenvalues


@pytest.mark.parametrize("label", LABELS)
def test_closed_form_matches_oracle_negative_params(label, ctx_other):
    assert build_basis(ctx_other.p, ctx_other.rho, label).vectors == \
        oracle_basis(ctx_other, label).vectors


def test_orthogonality_and_completeness(ctx5):
    rep = check_orthogonality(ctx5)
    assert rep.passed, [c.id for c in rep.failures]
    ids = {c.id for c in rep.checks}
    assert {"gram-e", "gram-f", "gram-z", "gram-d"} <= ids
    assert {"completeness-e", "completeness-d"} <= ids


def test_families_name_each_dual_pair(ctx3):
    # the dual of a dual is the family, the dual side, (b*)^T times the
    # weight, is kept in the Context, and as each dual has the transposed
    # weight, the dual's dual side transposed is the weight times the family
    for label, fam in FAMILIES.items():
        assert FAMILIES[fam.dual].dual == label
        assert ctx3.dual_side(label) is ctx3.dual_side(label)
        assert ctx3.dual_side(label) * ctx3.basis(label).vectors == ctx3.I
        b = ctx3.basis(label).vectors
        weighted = ctx3.dual_side(fam.dual).transpose()
        assert weighted == (getattr(ctx3, fam.weight) * b if fam.weight else b)
        assert weighted * ctx3.basis(fam.dual).vectors.transpose() == ctx3.I
    assert {label: fam.weight for label, fam in FAMILIES.items() if fam.weight} == {
        "d": "Z", "dStar": "Zt"}


def test_normalization_anchors(p3, rho):
    # head of the adjoint pencil family is a pure multiple of |0>
    dstar0 = build_basis(p3, rho, "dStar").column(0)
    assert dstar0[0] == -1 / p3.alpha
    assert all(x == 0 for x in dstar0[1:])
    # top of the z family is exactly |N>
    ztop = build_basis(p3, rho, "z").column(p3.N)
    assert ztop == tuple(Q(int(l == p3.N)) for l in range(p3.N + 1))
    # unit component on the anchor slot for the e family
    evecs = build_basis(p3, rho, "e").vectors
    assert all(evecs[n, n] == 1 for n in range(p3.N + 1))


def test_z_action_on_d_closed_form(p3):
    Z = build_Z(p3)
    d = build_basis(p3, None, "d")
    for n in range(p3.N + 1):
        assert Z.apply(d.column(n)) == z_action_on_d(p3, n)


def test_eigenvalues_by_direct_action(ctx3):
    # B-weighted eigen-equations, family by family, B the family's weight
    p3, rho = ctx3.p, ctx3.rho
    for label, fam in FAMILIES.items():
        A, B = fam.operator(ctx3), getattr(ctx3, fam.weight or "I")
        basis = build_basis(p3, rho, label)
        for n in range(p3.N + 1):
            v = basis.column(n)
            lam = eigenvalue(label, p3, rho, n)
            assert A.apply(v) == tuple(lam * x for x in B.apply(v)), (label, n)


def test_oracle_guards_empty_kernel(ctx3):
    # an off-spectrum eigenvalue row, kept as the z family's, leaves nothing
    # in the kernel
    z = ctx3.basis("z")
    ctx = Context(ctx3.p, ctx3.rho)
    ctx.keep(("basis", "z"), lambda: eb.BasisFamily("z", z.vectors, (Q(1, 2),) * 4))
    with pytest.raises(NondegenerateSpectrumViolated):
        eb.oracle_basis(ctx, "z")


# kept family -> the oracle's reason once 1 is added to its eigenvalue at
# index 1: off the spectrum of e* and f*; at z*, the next eigenvalue, whose
# kernel is another vector
OFF_EIGENVALUE = {
    "eStar": "family eStar, index 1: kernel dimension 0, expected 1",
    "fStar": "family fStar, index 1: kernel dimension 0, expected 1",
    "zStar": "",
}


@pytest.mark.parametrize("label", OFF_EIGENVALUE)
def test_an_eigenvalue_off_in_a_kept_dual_family_fails_the_oracle(label, p3, rho, capsys,
                                                                  monkeypatch):
    # distinct-eigenvalues-* reads only d, e, f and z; the oracle solves at
    # the row each family keeps, which `matrix --which basis:<label>` emits,
    # so one entry off in an e*, f* or z* row fails closed-vs-oracle,
    # naming that family, and the emit
    build = eb.build_basis

    def bumped(p, rho, name):
        fam = build(p, rho, name)
        if name != label:
            return fam
        return eb.BasisFamily(name, fam.vectors,
                              tuple(x + (n == 1) for n, x in enumerate(fam.eigenvalues)))

    monkeypatch.setattr(eb, "build_basis", bumped)
    reason = OFF_EIGENVALUE[label]
    check, = [c for c in check_orthogonality(Context(p3, rho)).checks
              if c.id == "closed-vs-oracle"]
    assert (check.status, check.detail) == (
        "fail", f"failing families: [{label!r}]" + (f"; oracle: {reason}" if reason else ""))
    assert cli.main(["matrix", "--which", f"basis:{label}", "--N", "3"]) == 1
    assert capsys.readouterr().out == (f"basis {label} failed revalidation on emit"
                                       f"{': ' if reason else ''}{reason}\n")


@pytest.mark.parametrize("entry", [
    pytest.param(lambda ctx, label: eigenvalue(label, ctx.p, ctx.rho, 0), id="eigenvalue"),
    pytest.param(lambda ctx, label: ctx.basis(label), id="Context_basis"),
    pytest.param(lambda ctx, label: build_basis(ctx.p, ctx.rho, label), id="build_basis"),
    pytest.param(lambda ctx, label: oracle_basis(ctx, label), id="oracle_basis"),
    pytest.param(lambda ctx, label: model_basis(ctx, label), id="model_basis"),
])
def test_unknown_label_rejected(entry, ctx3):
    with pytest.raises(PreconditionViolated, match="unknown basis label 'q'"):
        entry(ctx3, "q")


def test_unknown_grid_rejected(p3, rho):
    # the name is checked before the rho a grid may need
    for ctx in (Context(p3, rho), Context(p3)):
        with pytest.raises(PreconditionViolated, match="unknown grid 'nope'"):
            ctx.grid("nope")


def test_rho_families_need_fparams(p3):
    ctx = Context(p3)
    assert ctx.rho is None
    for label in ("f", "fStar"):
        with pytest.raises(PreconditionViolated, match=f"label '{label}' needs rho"):
            ctx.basis(label)
        with pytest.raises(PreconditionViolated, match=f"label '{label}' needs rho"):
            model_basis(ctx, label)


def test_racah_operator_needs_rho(p3, rho):
    # W = X + rho Z refuses a Context without rho, as the f family does
    with pytest.raises(PreconditionViolated, match="^the Racah operator X \\+ rho Z needs rho$"):
        Context(p3).W
    ctx = Context(p3, rho)
    assert ctx.W is ctx.W and ctx.W == ctx.X + rho * ctx.Z


# each suite entry point and the message it refuses a Context without rho
# with, or None where it reads no rho
RHOLESS = [
    (check_defining_relations, None),
    (check_casimir_central, None),
    (check_subalgebras, "the subalgebra checks need rho"),
    (check_orthogonality, "label 'f' needs rho"),
    (mr.verify_coefficients, "label 'f' needs rho"),
    (mr.verify_leonard_trio, None),
    (verify_racah, "grid 'racah' needs rho"),
    (verify_rational, None),
    (verify_model, "label 'f' needs rho"),
]


@pytest.mark.parametrize("entry, refusal", RHOLESS, ids=[entry.__name__ for entry, _ in RHOLESS])
def test_suites_pass_or_refuse_a_context_without_rho(p3, entry, refusal):
    # a suite that reads rho refuses a Context without it, through the
    # family, the grid or its own guard, and none crashes on rho = None
    ctx = Context(p3)
    if refusal is None:
        assert entry(ctx).passed
    else:
        with pytest.raises(PreconditionViolated, match=f"^{refusal}$"):
            entry(ctx)


def test_band_tables_refuse_a_family_that_needs_rho(p3, rho):
    with pytest.raises(PreconditionViolated, match="^label 'f' needs rho$"):
        Context(p3).band_tables("f")
    with pytest.raises(PreconditionViolated, match="^no band tables for 'eStar'$"):
        Context(p3).band_tables("eStar")
    ctx = Context(p3, rho)
    assert set(ctx.band_tables("f")) == {"V"}
    assert ctx.band_tables("e") is ctx.band_tables("e")


def test_context_validates_once_and_hashes_on_its_set(p3, rho):
    with pytest.raises(DegenerateParameters) as exc:
        Context(Params(N=3, alpha=Q(1), beta=Q(1, 5), zeta=Q(1, 7)))
    assert "(1-alpha)" in exc.value.offenders
    # rho enters only when it is given: 2alpha + rho = 0 here
    assert Context(p3).rho is None
    with pytest.raises(DegenerateParameters):
        Context(p3, -2 * p3.alpha)
    a, b = Context(p3, rho), Context(p3, rho)
    assert a == b and hash(a) == hash(b) and a != Context(p3)
    a.basis("e")
    assert a == b and hash(a) == hash(b)
    assert a.Z is a.Z and a.Zt is a.Zt and a.basis("e") is a.basis("e")


def test_each_family_is_built_once_per_set(p3, rho, monkeypatch):
    # every suite reads the families from the one Context of the set
    calls = Counter()
    build = eb.build_basis

    def counted(p, rho, label):
        calls[label] += 1
        return build(p, rho, label)

    monkeypatch.setattr(eb, "build_basis", counted)
    run_suites(p3, rho, SUITES)
    assert calls == Counter({label: 1 for label in LABELS})


def test_rho_zero_is_a_given_rho(p3):
    given, missing = Context(p3, 0), Context(p3)
    assert given.rho == 0 and given.basis("f").eigenvalues[0] == -p3.alpha ** 2
    assert given.grid("S") == given.basis("e").vectors.transpose() * given.basis("fStar").vectors
    for build in (lambda ctx: ctx.basis("f"), lambda ctx: ctx.grid("S")):
        with pytest.raises(PreconditionViolated, match="needs rho"):
            build(missing)


def test_rho_grids_need_fparams_and_each_grid_is_kept(p3, rho):
    ctx = Context(p3)
    for name in eb.GRIDS:
        if name in eb.RHO_GRIDS:
            with pytest.raises(PreconditionViolated, match=f"grid '{name}' needs rho"):
                ctx.grid(name)
        else:
            assert ctx.grid(name) is ctx.grid(name)
    assert set(eb.RHO_GRIDS) == {"racah", "S", "Stilde"}
    # the grids built on the R, calU and calU-tilde grids equal the
    # per-point closed forms
    ctx = Context(p3, rho)
    rp = RacahParams.from_params(p3, rho)
    per_point = {"S": lambda m, n: closed_form_S(m, n, rp),
                 "Stilde": lambda m, n: closed_form_Stilde(m, n, rp),
                 "U": lambda m, n: closed_form_U(m, n, p3),
                 "Utilde": lambda m, n: closed_form_Utilde(m, n, p3)}
    for name, value in per_point.items():
        assert ctx.grid(name) == RationalMatrix([[value(m, n) for n in range(p3.N + 1)]
                                                 for m in range(p3.N + 1)]), name
    assert ctx.Vtilde is ctx.Vtilde and ctx.Vtilde * ctx.Z == ctx.X


def test_grids_cannot_be_changed_in_place(ctx3):
    # every suite on a Context reads the one kept grid, so no caller may
    # change it: a grid is an immutable matrix with tuple rows
    grid = ctx3.grid("Utilde")
    with pytest.raises(TypeError):
        ctx3.grid("Utilde")[1][2] *= 2
    with pytest.raises(TypeError):
        grid[1, 2] *= 2
    with pytest.raises(TypeError):
        grid.row(1)[2] *= 2
    with pytest.raises(AttributeError):
        grid.rows = 2
    assert ctx3.grid("Utilde") is grid
    assert grid == eb.Context(ctx3.p, ctx3.rho).grid("Utilde")


# each per-index entry point on the family table, and its name in the refusal
PER_INDEX = [
    ("eigenvalue", lambda ctx, n: eigenvalue("d", ctx.p, None, n)),
    ("basis column", lambda ctx, n: ctx.basis("e").column(n)),
    ("z_action_on_d", lambda ctx, n: z_action_on_d(ctx.p, n)),
    ("etilde_in_z", lambda ctx, n: mr.etilde_in_z(ctx.p, n)),
]


@pytest.mark.parametrize("outside", ["-1", "N+1", "1/2", "True"])
@pytest.mark.parametrize("name, entry", PER_INDEX, ids=[name for name, _ in PER_INDEX])
def test_per_index_entries_refuse_indices_outside_0_to_N(ctx3, name, entry, outside):
    # unguarded, -1 reads the last column, a Fraction or True index is
    # evaluated, and N+1 fails inside a Pochhammer or a tuple, or not at all
    n = {"-1": -1, "N+1": ctx3.p.N + 1, "1/2": Q(1, 2), "True": True}[outside]
    with pytest.raises(PreconditionViolated, match=re.escape(f"{name} indices ({n!r},)")):
        entry(ctx3, n)
