"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Every check is exact (Fraction equality); the large-parameter limit is the
single tolerance-based criterion and its bound is stated inline.  Timed
criteria assert their wall-clock budget.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction as Q

import metaracah.eigenbases as eigenbases
from metaracah import (
    Context,
    LABELS,
    Params,
    build_basis,
    build_V,
    build_X,
    build_Z,
    check_casimir_central,
    check_defining_relations,
    check_orthogonality,
    check_subalgebras,
    oracle_basis,
    validate_params,
    verify_coefficients,
    verify_leonard_trio,
    verify_model,
    verify_racah,
    verify_rational,
    whipple_check,
)
from metaracah.algebra import algebraic_heun, heun_bidiagonal
from metaracah.errors import DegenerateParameters
from metaracah.hyper import terminating_hyp
from metaracah.matrices import commutator
from metaracah.rationalfns import calU_general, hahn_limit_check

SEED = 20260815
PRIMES = (3, 5, 7, 11, 13, 17, 19, 23)
NUMERATORS = [k for k in range(-40, 41) if k != 0]

DEFAULTS = dict(alpha=Q(1, 3), beta=Q(1, 5), zeta=Q(1, 7))
RHO = Q(1, 13)


def _line(num, ok, label, extra=""):
    status = "pass" if ok else "FAIL"
    msg = f"criterion {num:02d}: {status} - {label}"
    if extra:
        msg += f" [{extra}]"
    print(msg)
    assert ok, msg


def random_set(rng, N):
    while True:
        draw = lambda: Q(rng.choice(NUMERATORS), rng.choice(PRIMES))
        p = Params(N=N, alpha=draw(), beta=draw(), zeta=draw())
        rho = draw()
        if not validate_params(p, rho):
            return p, rho


def sweep(seed, per_n, n_values):
    rng = random.Random(seed)
    return [random_set(rng, N) for N in n_values for _ in range(per_n)]


def test_criterion_01_defining_relations():
    start = time.perf_counter()
    sets = sweep(SEED, 5, range(1, 13))  # 60 sets >= 50, every N in 1..12
    ok = all(check_defining_relations(Context(p, rho)).passed for p, rho in sets)
    elapsed = time.perf_counter() - start
    _line(1, ok and elapsed < 5.0, "defining relations exact on random sweep",
          f"{len(sets)} sets, {elapsed:.2f}s < 5s")


def test_criterion_02_casimir_centrality():
    # same sweep as criterion 1 by construction (same seed and schedule)
    sets = sweep(SEED, 5, range(1, 13))
    ok = True
    for p, rho in sets:
        C = Context(p, rho).C
        for G in (build_X(p), build_V(p), build_Z(p)):
            ok = ok and commutator(C, G).is_zero()
    _line(2, ok, "Casimir commutes with X, V, Z on the same sweep",
          f"{len(sets)} sets")


def test_criterion_03_subalgebra_embeddings():
    ok = True
    for N in range(1, 9):
        p = Params(N=N, **DEFAULTS)
        rep = check_subalgebras(Context(p, RHO))
        ok = ok and rep.passed
    _line(3, ok, "shifted, Hahn-type, Racah-type and Borel relations", "N = 1..8")


def test_criterion_04_heun_bidiagonality():
    p = Params(N=6, **DEFAULTS)
    rng = random.Random(SEED + 4)
    triples = [
        (Q(rng.randint(-9, 9)), Q(rng.randint(-9, 9)), Q(rng.randint(1, 9)))
        for _ in range(20)
    ]
    ok = all(heun_bidiagonal(p, *t)[1] for t in triples)
    # negative control: off the bidiagonal slice the combination is only
    # tridiagonal, never lower bidiagonal
    control = algebraic_heun(p, 1, 1, 1, 0, 1)
    ok = ok and control.in_band(1, 1) and not control.in_band(1, 0)
    _line(4, ok, "Heun combination bidiagonal on the slice, tridiagonal off it",
          "20 triples + control")


def test_criterion_05_eigenbases_vs_oracle():
    start = time.perf_counter()
    sets = sweep(SEED + 5, 2, range(1, 11))  # 20 sets, N = 1..10
    ok = True
    for p, rho in sets:
        ctx = Context(p, rho)
        for label in LABELS:
            closed = build_basis(p, rho, label)
            oracle = oracle_basis(ctx, label)
            ok = ok and closed.vectors == oracle.vectors
    elapsed = time.perf_counter() - start
    _line(5, ok and elapsed < 30.0, "closed-form bases equal kernel oracle",
          f"8 families x {len(sets)} sets, {elapsed:.2f}s < 30s")


def test_criterion_06_orthogonality_completeness():
    ok = True
    for N in (4, 8):
        p = Params(N=N, **DEFAULTS)
        rep = check_orthogonality(Context(p, RHO))
        ok = ok and rep.passed
    _line(6, ok, "four Grams and both resolutions of identity", "N = 4, 8")


def test_criterion_07_coefficient_formulas():
    ok = True
    for N in (2, 5, 8):
        p = Params(N=N, **DEFAULTS)
        rep = verify_coefficients(Context(p, RHO))
        ok = ok and rep.passed
    _line(7, ok, "printed action coefficients equal conjugation oracles",
          "N = 2, 5, 8")


def test_criterion_08_leonard_trio(monkeypatch):
    p = Params(N=6, **DEFAULTS)
    rep = verify_leonard_trio(Context(p))
    ok = rep.passed
    # the registry refuses the control, (beta-2alpha+1)_n, so its validation
    # is switched off to reach the trio
    monkeypatch.setattr(eigenbases, "require_generic", lambda p, rho=None: None)
    degenerate = Params(N=5, alpha=Q(1, 3), beta=Q(-1, 3), zeta=Q(1, 7))
    bad = verify_leonard_trio(Context(degenerate))
    located = [c for c in bad.failures if "zero at index" in c.detail]
    ok = ok and not bad.passed and located
    _line(8, bool(ok), "trio clauses pass; degenerate control located",
          f"control fails {len(located)} irreducibility checks")


def test_criterion_09_racah_identification():
    ok = True
    for N in (2, 5, 8):
        p = Params(N=N, **DEFAULTS)
        rep = verify_racah(Context(p, RHO))
        ok = ok and rep.passed
    _line(9, ok, "overlaps are Racah polynomials; weights, norms, "
          "recurrence, difference exact", "full grids, N = 2, 5, 8")


def test_criterion_10_rational_suite():
    start = time.perf_counter()
    ok = True
    for N in (2, 5, 8):
        p = Params(N=N, **DEFAULTS)
        rep = verify_rational(Context(p))
        ok = ok and rep.passed
    elapsed = time.perf_counter() - start
    _line(10, ok and elapsed < 60.0, "rational biorthogonal suite exact",
          f"full grids, N = 2, 5, 8, {elapsed:.2f}s < 60s")


def test_criterion_11_hahn_limit():
    p = Params(N=5, **DEFAULTS)
    aH, bH = Q(1, 3), Q(1, 5)
    m = n = 1
    target = terminating_hyp((-m, -n, m + bH - p.N), (-p.N, aH - n))

    def deviation(t):
        val = calU_general(
            m, n, Q(t), Q(t) - aH, Q(p.N - 1, 2) - Q(bH, 2) + aH - Q(t), p.N
        )
        return abs(val - target)

    d3, d5 = deviation(10**3), deviation(10**5)
    ok = d5 < Q(1, 1000) and d5 < d3
    rep = hahn_limit_check(m, n, aH, bH, p, (10**3, 10**4, 10**5))
    ok = ok and rep.passed
    _line(11, ok, "large-parameter limit reaches the 3F2 value",
          f"dev(1e5) = {float(d5):.3e} < 1e-3 and < dev(1e3) = {float(d3):.3e}")


def test_criterion_12_differential_model():
    ok = True
    for N in (4, 6):
        p = Params(N=N, **DEFAULTS)
        rep = verify_model(Context(p, RHO))
        ok = ok and rep.passed
    _line(12, ok, "differential realization: matrices, orthogonality, "
          "integral representations", "N = 4, 6")


def test_criterion_13_whipple_transformation():
    rng = random.Random(SEED + 13)
    passed = 0
    attempts = 0
    while passed < 200 and attempts < 2000:
        attempts += 1
        n = rng.randint(0, 8)
        a, b, c, d, e = (
            Q(rng.choice(NUMERATORS), rng.choice(PRIMES)) for _ in range(5)
        )
        f = 1 - n + a + b + c - d - e
        try:
            assert whipple_check(n, a, b, c, d, e, f)
        except DegenerateParameters:
            continue
        passed += 1
    _line(13, passed == 200, "terminating balanced transformation",
          f"{passed} instances, n <= 8, {attempts} draws")


def _cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "metaracah.cli", *argv],
        capture_output=True, text=True,
    )
    return proc.returncode, proc.stdout


def test_criterion_14_cli_determinism_and_exit_codes():
    argv = ("verify", "--N", "3", "--suite", "racah", "--seed", "5",
            "--sweeps", "1")
    code1, out1 = _cli(*argv)
    code2, out2 = _cli(*argv)
    ok = code1 == code2 == 0 and out1 == out2 and len(out1) > 0
    ok = ok and json.loads(out1)["status"] == "pass"

    fault_code, fault_out = _cli("verify", "--N", "3", "--suite", "algebra",
                                 "--inject-fault")
    ok = ok and fault_code == 1 and json.loads(fault_out)["status"] == "fail"

    degen_code, _ = _cli("verify", "--N", "3", "--alpha", "2")
    usage_code, _ = _cli("verify", "--alpha", "oops")
    ok = ok and degen_code == 2 and usage_code == 3
    _line(14, ok, "byte-identical reports; exit codes 0/1/2/3 honored",
          "two runs compared; fault, degenerate, usage probes")
