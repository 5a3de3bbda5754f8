"""The overlap tables and the oracle kernels against their per-point and
dense-elimination references."""

import random
from collections import Counter
from fractions import Fraction as Q

import pytest

import metaracah.eigenbases as eb
from metaracah import Context, DegenerateParameters, NondegenerateSpectrumViolated, Params
from metaracah.cli import SWEEP_DENOMINATORS, SWEEP_NUMERATORS
from metaracah.eigenbases import FAMILIES, GRIDS, LABELS, eigenvalue, oracle_basis
from metaracah.hyper import series_table, terminating_hyp
from metaracah.matrices import RationalMatrix, nullspace, right_divide_lower_bidiagonal
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
    ctx = request.getfixturevalue(ctx_name)
    A, B = FAMILIES[label].pencil(ctx)
    band_kernel = eb._band_kernel(A, B)
    assert band_kernel is not None
    for n in range(ctx.p.N + 1):
        lam = eigenvalue(label, ctx.p, ctx.rho, n)
        v, kernel = band_kernel(lam), nullspace(A - lam * B)
        assert len(kernel) == 1 and _projective(v) == _projective(kernel[0]), (label, n)


def _count_nullspace(monkeypatch):
    calls = []
    original = eb.nullspace

    def counted(m):
        calls.append(m)
        return original(m)

    monkeypatch.setattr(eb, "nullspace", counted)
    return calls


def test_off_spectrum_value_reaches_the_elimination(ctx3, monkeypatch):
    # no diagonal entry of Z - I/2 vanishes: the elimination finds no kernel
    calls = _count_nullspace(monkeypatch)
    monkeypatch.setattr(eb, "eigenvalue", lambda *args: Q(1, 2))
    with pytest.raises(NondegenerateSpectrumViolated) as exc:
        oracle_basis(ctx3, "z")
    assert str(exc.value) == "family z, index 0: kernel dimension 0, expected 1"
    assert len(calls) == 1


def test_two_vanishing_diagonal_entries_reach_the_elimination(ctx3, monkeypatch):
    # diag(0, 0, 2, 3) at eigenvalue 0 vanishes twice: a two-dimensional kernel
    calls = _count_nullspace(monkeypatch)
    pencil = lambda c: (RationalMatrix.diagonal([0, 0, 2, 3]), c.I)
    monkeypatch.setitem(FAMILIES, "z", FAMILIES["z"]._replace(pencil=pencil))
    monkeypatch.setattr(eb, "eigenvalue", lambda *args: Q(0))
    with pytest.raises(NondegenerateSpectrumViolated) as exc:
        oracle_basis(ctx3, "z")
    assert str(exc.value) == "family z, index 0: kernel dimension 2, expected 1"
    assert len(calls) == 1


def test_a_pencil_off_the_band_reaches_the_elimination(ctx3, monkeypatch):
    # Z^2 - lambda Z = Z (Z - lambda I) has the kernels of the z family, and
    # Z^2 has a second subdiagonal
    calls = _count_nullspace(monkeypatch)
    pencil = lambda c: (c.Z * c.Z, c.Z)
    monkeypatch.setitem(FAMILIES, "z", FAMILIES["z"]._replace(pencil=pencil))
    assert oracle_basis(ctx3, "z").vectors == ctx3.basis("z").vectors
    assert len(calls) == ctx3.p.N + 1


def test_oracle_takes_no_elimination_on_the_eight_pencils(ctx3, monkeypatch):
    calls = _count_nullspace(monkeypatch)
    for label in LABELS:
        assert oracle_basis(ctx3, label).vectors == ctx3.basis(label).vectors
    assert calls == []


def test_vtilde_is_the_right_quotient(ctx_other):
    assert ctx_other.Vtilde * ctx_other.Z == ctx_other.X


def test_right_division_refuses_a_divisor_off_its_shape():
    X = RationalMatrix.identity(2)
    with pytest.raises(ValueError, match="singular"):
        right_divide_lower_bidiagonal(X, RationalMatrix([[0, 0], [1, 1]]))
    with pytest.raises(ValueError, match="lower-bidiagonal"):
        right_divide_lower_bidiagonal(X, RationalMatrix([[1, 1], [0, 1]]))
