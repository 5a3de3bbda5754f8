import math
import random
import re
from fractions import Fraction as Q

import pytest

import metaracah.algebra as algebra
from metaracah.algebra import (
    Params,
    algebraic_heun,
    build_V,
    build_X,
    build_Z,
    central_params,
    check_casimir_central,
    check_defining_relations,
    check_subalgebras,
    genericity_registry,
    heun_bidiagonal,
    validate_params,
)
from metaracah.eigenbases import Context
from metaracah.hyper import pochhammer
from metaracah.matrices import RationalMatrix, commutator, nullspace

P2 = Params(N=2, alpha=Q(1, 3), beta=Q(1, 5), zeta=Q(1, 7))

# frozen from an independent symbolic solve of the two inhomogeneous
# relations for (xi, eta) at the P2 parameters
XI_P2 = Q(-3616, 1575)
ETA_P2 = Q(27266, 11025)
CASIMIR_SCALAR_P2 = Q(-21842, 99225)


def test_central_params_frozen_values():
    assert central_params(P2) == (XI_P2, ETA_P2)


def test_relations_hold_on_defaults(ctx5):
    rep = check_defining_relations(ctx5)
    assert rep.passed
    assert sorted(c.id for c in rep.checks) == [
        "relation-VZ", "relation-XV", "relation-ZX",
    ]


def test_relations_hold_on_negative_parameters(ctx_other):
    assert check_defining_relations(ctx_other).passed


def test_relations_fail_under_matrix_override(p3, ctx3):
    Z = build_Z(p3)
    bumped = RationalMatrix(
        [[Z[i, j] + (1 if (i, j) == (1, 1) else 0) for j in range(p3.N + 1)]
         for i in range(p3.N + 1)]
    )
    rep = check_defining_relations(ctx3, Z=bumped)
    assert not rep.passed
    # the detail carries the failing points
    assert any("(" in c.detail for c in rep.failures)


def test_a_relation_fault_lists_its_exact_failing_points(ctx3):
    # Z + E_00, the corner bump of --inject-fault: each residual changes by
    # products of E_00 with Z, X (lower bidiagonal) or V (upper
    # bidiagonal), which reach only (1, 0) or (0, 1) besides the corner
    N = ctx3.p.N
    Z = ctx3.Z + RationalMatrix.banded(N + 1, {0: [1] + [0] * N})
    rep = check_defining_relations(ctx3, Z=Z)
    assert {c.id: (c.status, c.detail) for c in rep.checks} == {
        "relation-ZX": ("fail", "failing (m, n): [(0, 0), (1, 0)]"),
        "relation-XV": ("fail", "failing (m, n): [(0, 0), (0, 1)]"),
        "relation-VZ": ("fail", "failing (m, n): [(0, 0), (0, 1)]"),
    }


def test_one_relation_builder_states_both_presentations(ctx3, monkeypatch):
    # the zeta-free presentation is the defining relations at zeta = 0, from
    # the same builder: a fault in its [V,Z] residual fails relation-VZ and
    # shifted-VZ together, and nothing else
    relations = algebra._relations

    def faulty(*args):
        (zx, xv, vz), *formed = relations(*args)
        return ((zx, xv, vz + ctx3.I), *formed)

    monkeypatch.setattr(algebra, "_relations", faulty)
    reports = check_defining_relations(ctx3), check_subalgebras(ctx3)
    assert {c.id for rep in reports for c in rep.failures} == {"relation-VZ", "shifted-VZ"}


def test_casimir_is_scalar_at_p2():
    C = Context(P2).C
    assert C == CASIMIR_SCALAR_P2 * RationalMatrix.identity(3)


def test_casimir_commutes(p5, ctx5):
    rep = check_casimir_central(ctx5)
    assert rep.passed
    C = ctx5.C
    assert commutator(C, build_V(p5)).is_zero()


def test_subalgebra_report(ctx5):
    rep = check_subalgebras(ctx5)
    assert rep.passed
    ids = {c.id for c in rep.checks}
    assert {"shifted-ZX", "hahn-1", "racah-1", "borel"} <= ids


def test_racah_member_spectrum_via_kernel_dimension(rho):
    # X + rho Z has eigenvalues (n - alpha - rho)(alpha - n); checked
    # through the kernel of W - nu I, not through any basis code
    W = build_X(P2) + rho * build_Z(P2)
    ident = RationalMatrix.identity(3)
    expected = [(n - P2.alpha - rho) * (P2.alpha - n) for n in range(3)]
    assert sorted(expected) == sorted([Q(-310, 117), Q(-46, 117), Q(-16, 117)])
    for nu in expected:
        assert len(nullspace(W - nu * ident)) == 1
    # a value off the spectrum leaves the kernel empty
    assert nullspace(W - Q(1, 2) * ident) == []


def test_heun_bidiagonal_slice(p5):
    for h0, h1, h4 in [(1, 2, 3), (0, 1, 1), (Q(1, 2), Q(-2, 3), Q(5, 7))]:
        m, ok = heun_bidiagonal(p5, h0, h1, h4)
        assert ok
        assert m.in_band(1, 0)


def test_heun_generic_combination_is_not_bidiagonal(p5):
    # leaving the h2 = h3 = -h4 slice reintroduces the upper fill
    m = algebraic_heun(p5, 1, 1, 1, 0, 1)
    assert not m.in_band(1, 0)


def test_validate_params_flags_integer_alpha():
    p = Params(N=3, alpha=Q(1), beta=Q(1, 5), zeta=Q(1, 7))
    offenders = validate_params(p)
    assert offenders
    assert any("alpha" in o or "(-" in o or ")" in o for o in offenders)


def test_params_reject_bad_N():
    with pytest.raises(ValueError):
        Params(N=0, alpha=Q(1, 3), beta=Q(1, 5), zeta=Q(1, 7))


def _reference_registry(p, rho=None):
    """The registry with every Pochhammer product multiplied out."""
    N, a, b, z = p.N, p.alpha, p.beta, p.zeta
    items = []
    for n in range(N + 1):
        items.append((f"(-alpha)_({n}+1)", pochhammer(-a, n + 1)))
        items.append((f"(alpha-beta-{n})_{n}", pochhammer(a - b - n, n)))
        items.append(
            (f"({n}-N-alpha+beta+1)_(N-{n})", pochhammer(n - N - a + b + 1, N - n))
        )
        for k in range(-3, 4):
            items.append((f"(2*{n}-2beta-2zeta-({k}))", 2 * n - 2 * b - 2 * z - k))
        items.append((f"({n}-alpha)", n - a))
        items.append((f"({n}-alpha+beta)", n - a + b))
        items.append((f"({n}-2beta-2zeta-1)_{n}", pochhammer(n - 2 * b - 2 * z - 1, n)))
        items.append(
            (f"(2beta+2zeta-N-{n}+1)_(N-{n})", pochhammer(2 * b + 2 * z - N - n + 1, N - n))
        )
        items.append(
            (
                f"(2alpha+beta+2zeta-2N+1)_(N-{n})",
                pochhammer(2 * a + b + 2 * z - 2 * N + 1, N - n),
            )
        )
        # the lower parameter a-b-n of calU-tilde at its substituted arguments
        items.append(
            (f"({n}-alpha-beta-2zeta+1)_(N-{n})", pochhammer(n - a - b - 2 * z + 1, N - n))
        )
        items.append((f"({n}-1-2beta-2zeta)_(N+1)", pochhammer(n - 1 - 2 * b - 2 * z, N + 1)))
        if rho is not None:
            r = Q(rho)
            for k in range(-1, 3):
                items.append((f"(2*{n}-2alpha-rho+({k}))", 2 * n - 2 * a - r + k))
            items.append((f"({n}-2alpha-rho)_{n}", pochhammer(n - 2 * a - r, n)))
            items.append((f"(-beta-rho)_{n}", pochhammer(-b - r, n)))
            items.append((f"(beta+rho-N+1)_(N-{n})", pochhammer(b + r - N + 1, N - n)))
        # (g-a-N)_n and (-N-b)_n in the Racah-hat parameters of Stilde; the
        # first, which reads no rho, is also the lower parameter 2alpha-beta-N
        # of calU-tilde
        items.append((f"(beta-2alpha+1)_{n}", pochhammer(b - 2 * a + 1, n)))
        if rho is not None:
            items.append(
                (f"(beta-rho+2zeta-N+1)_{n}", pochhammer(b - r + 2 * z - N + 1, n))
            )
    return items


def _integer_combination_draw(rng, N):
    """Parameters whose values are not integers, with one of the registry's
    combinations (alpha-beta, 2beta+2zeta, 2alpha+beta+2zeta, 2alpha+rho,
    beta+rho, alpha+beta+2zeta) set to an integer near its degenerate range."""
    fractional = [Q(k, d) for k in range(-20, 21) for d in (2, 3, 4) if k % d]
    a, b, z, r = (rng.choice(fractional) for _ in range(4))
    k = rng.randint(-2, 2 * N + 2)
    which = rng.randrange(6)
    if which == 0:
        b = a - k
    elif which == 1:
        z = Q(k, 2) - b
    elif which == 2:
        z = (k - 2 * a - b) / 2
    elif which == 3:
        r = k - 2 * a
    elif which == 4:
        r = k - b
    else:
        z = (k - a - b) / 2
    return Params(N=N, alpha=a, beta=b, zeta=z), r


def test_registry_labels_match_multiplied_out_reference():
    # small denominators put many parameters on an exact zero of some entry
    rng = random.Random(7)
    values = sorted({Q(k, d) for k in range(-12, 13) for d in (1, 2, 3)})
    for p, rho in ((P2, None), (P2, Q(1, 13)),
                   (Params(N=24, alpha=Q(1, 2), beta=Q(1, 2), zeta=Q(1, 2)), None),
                   (Params(N=24, alpha=Q(1, 2), beta=Q(1, 2), zeta=Q(1, 2)), Q(-1))):
        assert [label for label, _ in genericity_registry(p, rho)] == \
            [label for label, _ in _reference_registry(p, rho)]
    degenerate = 0
    for N in range(1, 7):
        for _ in range(60):
            p = Params(N=N, alpha=rng.choice(values), beta=rng.choice(values),
                       zeta=rng.choice(values))
            rho = rng.choice(values)
            for r in (None, rho):
                expected = [label for label, value in _reference_registry(p, r)
                            if value == 0]
                assert validate_params(p, r) == expected, (p, r)
                degenerate += bool(expected)
    assert degenerate > 200

    # a combination is an integer while alpha, beta, zeta and rho are not
    for p, rho in [
        (Params(N=4, alpha=Q(1, 3), beta=Q(1, 2), zeta=Q(1, 2)), None),
        (Params(N=4, alpha=Q(1, 2), beta=Q(1, 5), zeta=Q(1, 7)), Q(-1)),
        (Params(N=4, alpha=Q(1, 4), beta=Q(1, 3), zeta=Q(37, 12)), None),
        (Params(N=4, alpha=Q(1, 3), beta=Q(1, 3), zeta=Q(1, 7)), Q(2, 3)),
    ]:
        expected = [label for label, value in _reference_registry(p, rho) if value == 0]
        assert expected and validate_params(p, rho) == expected
    degenerate = 0
    for _ in range(300):
        p, rho = _integer_combination_draw(rng, rng.randint(1, 24))
        for r in (None, rho):
            expected = [label for label, value in _reference_registry(p, r) if value == 0]
            assert validate_params(p, r) == expected, (p, r)
            degenerate += bool(expected)
    assert degenerate > 300


def _label_verdict(label, p, rho):
    """Whether the expression a registry label names vanishes at (p, rho).

    A label is (x)_k, the Pochhammer product x (x+1) ... (x+k-1), or (x);
    x and k are read as exact expressions in N, alpha, beta, zeta and rho,
    2beta as 2*beta, and the product is multiplied out."""
    depth = 0
    for end, char in enumerate(label):
        depth += {"(": 1, ")": -1}.get(char, 0)
        if depth == 0:
            break
    names = {"N": p.N, "alpha": p.alpha, "beta": p.beta, "zeta": p.zeta, "rho": rho}

    def read(text):
        assert re.fullmatch(r"[-+*()0-9a-zN]+", text), text
        return eval(re.sub(r"(\d)([a-zN])", r"\1*\2", text), {"__builtins__": {}}, names)

    x, rest = read(label[1:end]), label[end + 1:]
    if not rest:
        return x == 0
    assert rest.startswith("_"), label
    return math.prod(x + i for i in range(read(rest[1:]))) == 0


def test_registry_entries_are_the_values_their_labels_name():
    # each entry's verdict is read off its own label, not off a second
    # hand-written list of values
    rng = random.Random(31)
    values = sorted({Q(k, d) for k in range(-12, 13) for d in (1, 2, 3)})
    draws = [(Params(N=rng.randint(1, 8), alpha=rng.choice(values), beta=rng.choice(values),
                     zeta=rng.choice(values)), rng.choice(values)) for _ in range(120)]
    draws += [_integer_combination_draw(rng, rng.randint(1, 12)) for _ in range(120)]
    vanishing = 0
    for p, rho in draws:
        for r in (None, rho):
            for label, vanishes in genericity_registry(p, r):
                assert vanishes == _label_verdict(label, p, r), (label, p, r)
                vanishing += vanishes
    assert vanishing > 500


def test_registry_without_rho_is_the_registry_with_rho_less_its_rho_entries():
    # every entry that reads no rho is stated whether or not rho is given,
    # in the same order
    rng = random.Random(37)
    values = sorted({Q(k, d) for k in range(-12, 13) for d in (1, 2, 3)})
    draws = [(Params(N=rng.randint(1, 8), alpha=rng.choice(values), beta=rng.choice(values),
                     zeta=rng.choice(values)), rng.choice(values)) for _ in range(300)]
    draws += [_integer_combination_draw(rng, rng.randint(1, 12)) for _ in range(100)]
    for p, rho in draws:
        assert validate_params(p) == [label for label in validate_params(p, rho)
                                      if "rho" not in label], (p, rho)
    assert validate_params(Params(2, Q(5, 2), 3, Q(5, 2))) == ["(beta-2alpha+1)_2"]
