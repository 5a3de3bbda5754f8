"""The overlap tables and the oracle kernels against their per-point and
dense-elimination references."""

import itertools
import json
import random
import sys
from collections import Counter
from fractions import Fraction as Q

import pytest

import metaracah.eigenbases as eb
from metaracah import (Context, DegenerateParameters, NondegenerateSpectrumViolated, Params, cli,
                       matrices)
from metaracah.cli import SWEEP_DENOMINATORS, SWEEP_NUMERATORS
from metaracah.eigenbases import (BasisFamily, FAMILIES, GRIDS, LABELS, RHO_GRIDS, eigenvalue,
                                  oracle_basis)
from metaracah.hyper import series_table, terminating_hyp
from metaracah.matrices import RationalMatrix, nullspace, right_divide_lower_bidiagonal
from metaracah.matrixreps import COEFFS
from metaracah.racahpoly import RacahParams, closed_form_S, closed_form_Stilde, racah
from metaracah.rationalfns import (
    calU,
    calU_tilde,
    closed_form_U,
    closed_form_Utilde,
    dual_hahn,
    dual_hahn_params,
)

# GRIDS name -> the per-point closed form at (p, rho), one value per cell
PER_POINT = {
    "racah": lambda p, rp: lambda m, n: racah(m, n, rp),
    "S": lambda p, rp: lambda m, n: closed_form_S(m, n, rp),
    "Stilde": lambda p, rp: lambda m, n: closed_form_Stilde(m, n, rp),
    "calU": lambda p, rp: lambda m, n: calU(m, n, p),
    "calUtilde": lambda p, rp: lambda m, n: calU_tilde(m, n, p),
    "U": lambda p, rp: lambda m, n: closed_form_U(m, n, p),
    "Utilde": lambda p, rp: lambda m, n: closed_form_Utilde(m, n, p),
    "dualHahn": lambda p, rp: lambda m, n: dual_hahn(m, n, dual_hahn_params(p)),
}

SMALL_DENOMINATORS = sorted({Q(k, d) for k in range(-6, 7) for d in (1, 2, 3)})


def _draws(seed, count):
    """count parameter sets per N = 1..6, half from the CLI sweep
    distribution and half from the small-denominator reproduction."""
    rng = random.Random(seed)
    sweep = lambda: Q(rng.choice(SWEEP_NUMERATORS), rng.choice(SWEEP_DENOMINATORS))
    small = lambda: rng.choice(SMALL_DENOMINATORS)
    return [(N, [draw() for _ in range(4)]) for N in range(1, 7)
            for draw in (sweep, small) for _ in range(count)]


def _outcome(build):
    """("value", rows), ("degenerate", offenders) or ("zero-division",)."""
    try:
        return ("value", build())
    except DegenerateParameters as exc:
        return ("degenerate", exc.offenders)
    except ZeroDivisionError:
        return ("zero-division",)


def test_names_cover_every_grid():
    assert set(PER_POINT) == set(GRIDS)


def test_every_table_equals_its_per_point_closed_form(monkeypatch):
    # the Context's validation is switched off, so that sets the registry
    # refuses reach the tables too: each table holds the per-point value at
    # every cell, and raises DegenerateParameters with the per-point
    # offenders wherever the per-point path does.  Where a per-point
    # prefactor divides by zero first, the table may name a lower parameter
    # that vanishes in a later cell's series instead, since it sums every
    # series before it forms a prefactor
    monkeypatch.setattr(eb, "require_generic", lambda p, rho=None: None)
    outcomes = Counter()
    for N, (alpha, beta, zeta, rho) in _draws(seed=12, count=12):
        p = Params(N=N, alpha=alpha, beta=beta, zeta=zeta)
        ctx, rp = Context(p, rho), RacahParams.from_params(p, rho)
        for name, per_point in PER_POINT.items():
            value = per_point(p, rp)
            want = _outcome(lambda: RationalMatrix([[value(m, n) for n in range(N + 1)]
                                                    for m in range(N + 1)]))
            got = _outcome(lambda: ctx.grid(name))
            if want[0] == "zero-division":
                assert got[0] in ("zero-division", "degenerate"), (name, p, rho)
            else:
                assert got == want, (name, p, rho)
            outcomes[want[0]] += 1
    # the draws reach every outcome
    assert set(outcomes) == {"value", "degenerate", "zero-division"}, outcomes


def test_every_set_a_context_accepts_without_rho_builds_its_rho_free_tables():
    # the registry without rho covers every denominator of the tables that
    # read no rho: on each set with denominators 1 and 2 that Context(p)
    # accepts, each such grid and the band tables of the families without
    # rho build; the lower parameter 2alpha-beta-N of calU-tilde is the
    # registry's (beta-2alpha+1)_n, which reads no rho
    values = sorted({Q(k, 2) for k in range(-2, 7)})
    built = 0
    for N in range(1, 6):
        for alpha, beta, zeta in itertools.product(values, repeat=3):
            try:
                ctx = Context(Params(N=N, alpha=alpha, beta=beta, zeta=zeta))
            except DegenerateParameters:
                continue
            for name in GRIDS:
                if name not in RHO_GRIDS:
                    ctx.grid(name)
            for basis in ("e", "d", "dStar", "z"):
                ctx.band_tables(basis)
            built += 1
    assert built > 200


def test_every_set_a_context_accepts_with_rho_builds_every_table_and_oracle():
    # the registry with rho covers every denominator of every table: on each
    # set with denominators 1 and 2 that Context(p, rho) accepts, every grid
    # and every band table builds, and each oracle finds the closed-form
    # family, as oracle_basis promises for accepted sets
    values = sorted({Q(k, 2) for k in range(-2, 7)})
    built = 0
    for N in range(1, 4):
        for alpha, beta, zeta, rho in itertools.product(values, repeat=4):
            try:
                ctx = Context(Params(N=N, alpha=alpha, beta=beta, zeta=zeta), rho)
            except DegenerateParameters:
                continue
            for name in GRIDS:
                ctx.grid(name)
            for basis in COEFFS:
                ctx.band_tables(basis)
            assert [eb.oracle_mismatch(ctx, label) for label in LABELS] == [None] * 8, ctx
            built += 1
    assert built > 1000


def test_series_table_stops_each_factor_at_its_own_reach():
    # (-2)_k vanishes from k = 3 on, and entry (i, x) sums to k = min(i, x),
    # so no factor of a 3 x 3 table forms that term
    rows = [((-i,), (-2,)) for i in range(3)]
    cols = [((-x,), ()) for x in range(3)]
    assert series_table(rows, cols) == RationalMatrix(
        [[terminating_hyp((-i, -x), (-2,)) for x in range(3)] for i in range(3)])
    with pytest.raises(DegenerateParameters, match="lower parameter -2 vanishes within "
                                                   r"summation range 0\.\.3"):
        series_table([((-i,), (-2,)) for i in range(4)], [((-x,), ()) for x in range(4)])


def _projective(v):
    """v scaled to a unit first nonzero entry."""
    head = next(x for x in v if x != 0)
    return tuple(x / head for x in v)


@pytest.mark.parametrize("ctx_name", ["ctx3", "ctx_other"])
@pytest.mark.parametrize("label", LABELS)
def test_bidiagonal_kernel_equals_nullspace(request, ctx_name, label):
    # each column of the band recurrence spans the kernel that dense
    # Gauss-Jordan elimination finds
    ctx = request.getfixturevalue(ctx_name)
    fam = FAMILIES[label]
    A, B = fam.operator(ctx), getattr(ctx, fam.weight or "I")
    oracle = oracle_basis(ctx, label)
    for n in range(ctx.p.N + 1):
        lam = eigenvalue(label, ctx.p, ctx.rho, n)
        kernel = nullspace(A - lam * B)
        assert len(kernel) == 1, (label, n)
        assert _projective(oracle.column(n)) == _projective(kernel[0]), (label, n)


def _refuse_nullspace(monkeypatch):
    """Make matrices.nullspace raise, after checking that no other module
    of the package holds the name."""
    holders = [name for name, module in sys.modules.items()
               if name.startswith("metaracah") and "nullspace" in vars(module)]
    assert holders == ["metaracah.matrices"], holders

    def refused(m):
        raise AssertionError("nullspace called")

    monkeypatch.setattr(matrices, "nullspace", refused)


def _plant_closed_basis(monkeypatch, vectors, eigenvalues):
    """Make every closed-form family the columns of vectors, at the
    eigenvalue row eigenvalues, which the oracle solves at."""
    monkeypatch.setattr(eb, "build_basis", lambda p, rho, label: BasisFamily(
        label, vectors, tuple(eigenvalues)))


def test_off_spectrum_value_reaches_the_elimination(ctx3, monkeypatch):
    # no diagonal entry of Z - I/2 vanishes, so the band matrix is
    # nonsingular and its kernel is empty
    _refuse_nullspace(monkeypatch)
    _plant_closed_basis(monkeypatch, RationalMatrix.identity(4), (Q(1, 2),) * 4)
    with pytest.raises(NondegenerateSpectrumViolated) as exc:
        oracle_basis(ctx3, "z")
    assert str(exc.value) == "family z, index 0: kernel dimension 0, expected 1"


def test_two_vanishing_diagonal_entries_reach_the_elimination(ctx3, monkeypatch):
    # diag(0, 0, 2, 3) at eigenvalue 0 vanishes twice: 0 is a double root of
    # det(A - lam B), so the spectrum is degenerate there
    _refuse_nullspace(monkeypatch)
    operator = lambda c: RationalMatrix.diagonal([0, 0, 2, 3])
    monkeypatch.setitem(FAMILIES, "z", FAMILIES["z"]._replace(operator=operator))
    _plant_closed_basis(monkeypatch, RationalMatrix.identity(4), (Q(0),) * 4)
    with pytest.raises(NondegenerateSpectrumViolated) as exc:
        oracle_basis(ctx3, "z")
    assert str(exc.value) == "family z, index 0: 2 diagonal entries vanish, expected 1"


def test_a_pencil_off_the_band_reaches_the_elimination(ctx3, capsys, monkeypatch):
    # Z^2 - lambda Z = Z (Z - lambda I) has the kernels of the z family, but
    # Z^2 has a second subdiagonal: the oracle refuses the pencil, the bases
    # suite reports a failing check and the emit exits 1
    _refuse_nullspace(monkeypatch)
    operator = lambda c: c.Z * c.Z
    monkeypatch.setitem(FAMILIES, "z", FAMILIES["z"]._replace(operator=operator, weight="Z"))
    message = "family z: pencil is not bidiagonal"
    with pytest.raises(NondegenerateSpectrumViolated) as exc:
        oracle_basis(ctx3, "z")
    assert str(exc.value) == message
    check, = [c for c in eb.check_orthogonality(ctx3).checks if c.id == "closed-vs-oracle"]
    assert (check.status, check.detail) == ("fail", f"failing families: ['z']; oracle: {message}")
    assert cli.main(["matrix", "--which", "basis:z", "--N", "3"]) == 1
    assert capsys.readouterr().out == f"basis z failed revalidation on emit: {message}\n"


def test_a_diagonal_entry_vanishing_at_every_eigenvalue_anchors_each_kernel(rho, monkeypatch):
    # at alpha = 0, Z has the diagonal (0, 1, 2, 3), so the pencil
    # Z - lam Z = (1 - lam) Z has a_0 = b_0 = 0: entry (0, 0) vanishes at
    # every lam, and at lam = 1/2 it is the only one, so each kernel vector
    # starts at |0> and follows Z's recurrence v_j = -v_(j-1) / j
    _refuse_nullspace(monkeypatch)
    monkeypatch.setattr(eb, "require_generic", lambda p, rho=None: None)
    ctx = Context(Params(N=3, alpha=0, beta=Q(1, 5), zeta=Q(1, 7)), rho)
    monkeypatch.setitem(FAMILIES, "z", FAMILIES["z"]._replace(weight="Z"))
    _plant_closed_basis(monkeypatch, RationalMatrix.identity(4), (Q(1, 2),) * 4)
    v = (Q(1), Q(-1), Q(1, 2), Q(-1, 6))
    assert oracle_basis(ctx, "z").vectors == RationalMatrix.from_columns(
        [[x / v[n] for x in v] for n in range(4)])


def test_a_vanishing_component_on_the_anchor_reaches_the_elimination(ctx3, monkeypatch):
    # each kernel vector is scaled to the closed form's component on |n>;
    # a closed family that is 0 there, at the z eigenvalues, leaves nothing
    # to scale it by
    _refuse_nullspace(monkeypatch)
    _plant_closed_basis(monkeypatch, RationalMatrix.zeros(4),
                        [eigenvalue("z", ctx3.p, None, n) for n in range(4)])
    with pytest.raises(NondegenerateSpectrumViolated) as exc:
        oracle_basis(ctx3, "z")
    assert str(exc.value) == "family z, index 0: vanishing component on |0>"


def test_oracle_takes_no_elimination_on_the_eight_pencils(ctx3, capsys, monkeypatch):
    _refuse_nullspace(monkeypatch)
    for label in LABELS:
        assert oracle_basis(ctx3, label).vectors == ctx3.basis(label).vectors
    assert cli.main(["verify", "--suite", "all", "--N", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "pass"


def test_vtilde_is_the_right_quotient(ctx_other):
    assert ctx_other.Vtilde * ctx_other.Z == ctx_other.X


def test_right_division_refuses_a_divisor_off_its_shape():
    X = RationalMatrix.identity(2)
    with pytest.raises(ValueError, match="singular"):
        right_divide_lower_bidiagonal(X, RationalMatrix([[0, 0], [1, 1]]))
    with pytest.raises(ValueError, match="lower-bidiagonal"):
        right_divide_lower_bidiagonal(X, RationalMatrix([[1, 1], [0, 1]]))
