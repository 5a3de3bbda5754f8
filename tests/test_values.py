"""Value semantics of the parameter, series, polynomial and basis records:
equality and hashing by fields, immutability, constructor checks and repr."""

import copy
import pickle
import re
from fractions import Fraction as Q

import pytest

from metaracah import (
    BasisFamily,
    Context,
    DegenerateParameters,
    Params,
    PreconditionViolated,
    RacahParams,
    RationalMatrix,
)
from metaracah.algebra import genericity_registry, heun_bidiagonal, validate_params
from metaracah.diffmodel import DiffOp, LaurentPoly, jacobi_poly
from metaracah.eigenbases import build_basis, eigenvalue
from metaracah.errors import Frozen, exact
from metaracah.hyper import (HypSeries, multi_pochhammer, pochhammer, series_table, series_terms,
                             terminating_hyp, whipple_check)
from metaracah.matrixreps import coeffs_V_on_f
from metaracah.rationalfns import (calU_general, calU_table, dual_hahn, dual_hahn_table,
                                   hahn_limit_check)
from metaracah.report import Check, VerificationReport


def _params(k):
    return Params(N=3, alpha=Q(1, 3), beta=Q(1, 5) + k, zeta=Q(1, 7))


def _poly(k):
    return LaurentPoly(-1, (Q(2), Q(0), Q(3) + k))


# name -> (value whose field `field` grows by k, field)
VALUES = {
    "Params": (_params, "beta"),
    "RacahParams": (lambda k: RacahParams(Q(1, 2), Q(1, 3) + k, Q(1, 5), 4), "beta_hat"),
    "HypSeries": (lambda k: HypSeries((-3, Q(1, 2)), (Q(1, 3),), Q(1) + k), "argument"),
    "LaurentPoly": (_poly, "coeffs"),
    "DiffOp": (lambda k: DiffOp(a2=_poly(0), a1=_poly(k), a0=_poly(1)), "a1"),
    "BasisFamily": (lambda k: BasisFamily(label="z", vectors=RationalMatrix.identity(2),
                                          eigenvalues=(Q(0), Q(1) + k)), "eigenvalues"),
    "Context": (lambda k: Context(_params(k), Q(1, 13)), "p"),
}


@pytest.mark.parametrize("name", VALUES)
def test_values_compare_and_hash_by_fields(name):
    make, _ = VALUES[name]
    a, b, other = make(0), make(0), make(1)
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a != other and not a == other


@pytest.mark.parametrize("name", VALUES)
def test_values_are_immutable(name):
    make, field = VALUES[name]
    value = make(0)
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.unlisted = 1
    assert value == make(0)


@pytest.mark.parametrize("name", VALUES)
def test_values_survive_copy_and_pickle(name):
    value = VALUES[name][0](0)
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert twin == value and hash(twin) == hash(value) and repr(twin) == repr(value)


def _twins(value):
    return copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))


@pytest.mark.parametrize("name", [*VALUES, "RationalMatrix"])
def test_copies_and_pickles_are_built_by_the_constructor(name, monkeypatch):
    # one construction path: a copy passes the checks a new value does
    value = (VALUES[name][0](0) if name in VALUES
             else RationalMatrix([[Q(1, 2), 0], [3, Q(-1, 3)]]) * RationalMatrix.identity(2))
    cls, init, calls = type(value), type(value).__init__, []

    def counting(self, *args, **kwargs):
        calls.append(type(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counting)
    for twin in _twins(value):
        assert twin == value and hash(twin) == hash(value) and repr(twin) == repr(value)
    assert calls == [cls] * 3


def test_a_tampered_pickle_meets_the_constructor_checks():
    p = Params(N=9, alpha=Q(1, 3), beta=Q(1, 5), zeta=Q(1, 7))
    data = pickle.dumps(p)
    assert data.count(b"K\x09") == 1  # N, as a one-byte int
    with pytest.raises(ValueError, match=r"^Params order N = 0 must be an int >= 1$"):
        pickle.loads(data.replace(b"K\x09", b"K\x00"))


def test_a_copied_context_keeps_its_own_store():
    ctx = Context(_params(0), Q(1, 13))
    ctx.basis("e")
    for twin in _twins(ctx):
        assert twin == ctx and twin._kept == {} and twin._kept is not ctx._kept
        assert twin.basis("e") == ctx.basis("e") and twin.basis("e") is not ctx.basis("e")


def test_matrix_forms_can_be_neither_assigned_nor_copied():
    # a matrix keeps its transpose and scaled forms; none can be replaced,
    # and copies and pickles carry the entries only, building their own
    m = RationalMatrix([[Q(1, 2), 0], [3, Q(-1, 3)]])
    fresh = RationalMatrix([[Q(1, 2), 0], [3, Q(-1, 3)]])
    t, square = m.transpose(), m * m
    for name in ("rows", "cols", "_e", "_t", "_row_scaled", "_col_scaled", "_sums", "unlisted"):
        for value in (m, square):
            with pytest.raises(AttributeError):
                setattr(value, name, t)
            with pytest.raises(AttributeError):
                delattr(value, name)
    assert m.transpose() is t and m * m == square == fresh * fresh
    assert pickle.dumps(m) == pickle.dumps(fresh)
    assert pickle.dumps(square * m) == pickle.dumps(RationalMatrix(square.to_strings()) * fresh)
    for value in (m, square, square * m):
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert twin == value and hash(twin) == hash(value) and repr(twin) == repr(value)
            assert twin.transpose() is not value.transpose()
            assert twin.transpose().transpose() is twin
            assert twin * twin == value * value and twin.transpose() == value.transpose()
    with pytest.raises(AttributeError, match="'RationalMatrix' object has no attribute 'x'"):
        m.x


def test_reprs_list_the_fields():
    p = _params(0)
    assert repr(p) == ("Params(N=3, alpha=Fraction(1, 3), beta=Fraction(1, 5), "
                       "zeta=Fraction(1, 7))")
    ctx = Context(p, Q(1, 13))
    assert repr(ctx) == f"Context(p={p!r}, rho=Fraction(1, 13))"
    assert repr(LaurentPoly(2, (1,))) == "LaurentPoly(min_exp=2, coeffs=(Fraction(1, 1),))"
    assert repr(HypSeries((-2,), ())) == ("HypSeries(upper=(Fraction(-2, 1),), lower=(), "
                                          "argument=Fraction(1, 1), termination_index=2)")


def test_constructors_coerce_to_fractions():
    p = Params(N=2, alpha=1, beta=0, zeta=-2)
    assert (p.alpha, p.beta, p.zeta) == (1, 0, -2)
    assert all(type(x) is Q for x in (p.alpha, p.beta, p.zeta, Context(_params(0), 3).rho))
    rp = RacahParams(alpha_hat=1, beta_hat=2, gamma_hat=3, N=2)
    assert all(type(x) is Q for x in (rp.alpha_hat, rp.beta_hat, rp.gamma_hat))
    series = HypSeries(upper=[-2, 1], lower=[3])
    assert series.upper == (-2, 1) and series.lower == (3,) and series.argument == 1
    assert all(type(x) is Q for x in series.upper + series.lower + (series.argument,))
    assert Params(2, 1, 0, -2) == p


# each builds a value from one float; 0.1 would be kept as its binary
# expansion, 3602879701896397/36028797018963968
FLOAT_BUILDS = {
    "exact": lambda: exact(0.1),
    "Params": lambda: Params(3, 0.1, Q(1, 5), Q(1, 7)),
    "Params-zeta": lambda: Params(3, Q(1, 3), Q(1, 5), 0.5),
    "Context": lambda: Context(_params(0), 0.1),
    "RationalMatrix": lambda: RationalMatrix([[0.1]]),
    "banded": lambda: RationalMatrix.banded(2, {0: [1, 0.5]}),
    "LaurentPoly": lambda: LaurentPoly(0, (0.1,)),
    "monomial": lambda: LaurentPoly.monomial(1, 0.5),
    "RacahParams": lambda: RacahParams(Q(1, 2), 0.1, Q(1, 5), 4),
    "HypSeries-upper": lambda: HypSeries((-2, 0.5), ()),
    "HypSeries-lower": lambda: HypSeries((-2,), (0.5,)),
    "HypSeries-argument": lambda: HypSeries((-2,), (), 0.5),
}


@pytest.mark.parametrize("name", FLOAT_BUILDS)
def test_constructors_refuse_a_float(name):
    with pytest.raises(TypeError, match=r"^0\.[15] is a float; give an exact value"):
        FLOAT_BUILDS[name]()


def test_constructors_read_ints_bools_strings_and_fractions_exactly():
    assert exact(True) == 1 and exact("-2/6") == Q(-1, 3) and exact(4) == 4
    assert all(type(exact(x)) is Q for x in (True, "-2/6", 4, Q(1, 2)))
    assert Params(3, "1/3", True, 0) == Params(3, Q(1, 3), Q(1), Q(0))
    assert Context(_params(0), "1/13") == Context(_params(0), Q(1, 13))
    assert RacahParams("1/2", 1, False, 4) == RacahParams(Q(1, 2), Q(1), Q(0), 4)
    assert HypSeries(("-2",), ("1/3",), True) == HypSeries((-2,), (Q(1, 3),), 1)
    assert LaurentPoly(0, ("1/2", True)) == LaurentPoly(0, (Q(1, 2), 1))
    assert RationalMatrix([["1/2", True]]) == RationalMatrix([[Q(1, 2), 1]])


# each public entry that reads a number, with one argument left open, and
# the exact values it is called with there
P = _params(0)
THIRD_AND_ONE = (Q(1, 3), Q(1))
OPEN_ENTRIES = {
    "pochhammer": (lambda x: pochhammer(x, 3), THIRD_AND_ONE),
    "multi_pochhammer": (lambda x: multi_pochhammer((Q(1, 5), x), 2), THIRD_AND_ONE),
    "series_terms-upper": (lambda x: series_terms((-2, x), (Q(1, 7),), 3), THIRD_AND_ONE),
    "series_terms-lower": (lambda x: series_terms((-2,), (x,), 3), THIRD_AND_ONE),
    "series_terms-head": (lambda x: series_terms((-2, Q(1, 5)), (), 3, head=x), THIRD_AND_ONE),
    "series_terms-argument": (lambda x: series_terms((-2,), (Q(1, 7),), 3, argument=x),
                              THIRD_AND_ONE),
    "series_table": (lambda x: series_table([((-1, x), (Q(1, 7),)), ((-2,), (x,))],
                                            [((-2,), ())]), THIRD_AND_ONE),
    "terminating_hyp": (lambda x: terminating_hyp((-2, Q(1, 5)), (Q(1, 7),), x), THIRD_AND_ONE),
    "whipple_check": (lambda x: whipple_check(1, x, Q(1, 3), Q(1, 5), x, Q(1, 3), Q(1, 5)),
                      THIRD_AND_ONE),
    "calU_general": (lambda x: calU_general(1, 2, x, Q(1, 5), Q(1, 7), 3), THIRD_AND_ONE),
    "calU_table": (lambda x: calU_table(x, Q(1, 5), Q(1, 7), 3, range(4)), THIRD_AND_ONE),
    "dual_hahn": (lambda x: dual_hahn(1, 2, (x, Q(1, 5), 3)), THIRD_AND_ONE),
    "dual_hahn_table": (lambda x: dual_hahn_table((Q(1, 5), x, 3)), THIRD_AND_ONE),
    # the series have the lower parameter a - 1, so a is not 1 here
    "hahn_limit_check-a": (lambda x: hahn_limit_check(1, 1, x, Q(1, 5), P, (10, 100)).as_dict(),
                           (Q(1, 3), Q(2))),
    # the report prints each t as read, so a t of True is printed as 1
    "hahn_limit_check-t": (
        lambda x: hahn_limit_check(1, 1, Q(1, 3), Q(1, 5), P, (10, x)).as_dict(),
        (Q(10**4), Q(1))),
    "jacobi_poly": (lambda x: jacobi_poly(2, x, Q(1, 5)), THIRD_AND_ONE),
    "heun_bidiagonal": (lambda x: heun_bidiagonal(P, x, Q(1, 5), 2), THIRD_AND_ONE),
    "genericity_registry": (lambda x: genericity_registry(P, x), THIRD_AND_ONE),
    "validate_params": (lambda x: validate_params(P, x), THIRD_AND_ONE),
    "eigenvalue": (lambda x: eigenvalue("f", P, x, 1), THIRD_AND_ONE),
    # rho = 1/3 is a pole of the f columns at P; d reads no rho, yet a
    # given rho is read as every other one is
    "build_basis-f": (lambda x: build_basis(P, x, "f"), (Q(1, 13), Q(1))),
    "build_basis-d": (lambda x: build_basis(P, x, "d"), (Q(1, 13), Q(1))),
    "RacahParams.from_params": (lambda x: RacahParams.from_params(P, x), THIRD_AND_ONE),
    "coeffs_V_on_f": (lambda x: coeffs_V_on_f(P, x), (Q(1, 13), Q(1))),
}


@pytest.mark.parametrize("name, value", [
    pytest.param(name, value, id=f"{name}-{value}")
    for name, (_, values) in OPEN_ENTRIES.items() for value in values])
def test_public_entries_refuse_a_float(name, value):
    # 1/3 would be read as its binary expansion; 1.0 is refused too, as the
    # constructors refuse it, though its expansion is exact
    entry, _ = OPEN_ENTRIES[name]
    with pytest.raises(TypeError, match="is a float; give an exact value"):
        entry(float(value))


@pytest.mark.parametrize("name", OPEN_ENTRIES)
def test_public_entries_read_ints_bools_strings_and_fractions_exactly(name):
    entry, values = OPEN_ENTRIES[name]
    for value in values:
        expected = entry(value)
        given = [str(value)] + [int(value)] * (value.denominator == 1) + [True] * (value == 1)
        assert all(entry(x) == expected for x in given), (value, given)


def test_coeffs_V_on_f_reads_its_rho_before_any_arithmetic():
    # read raw, 0.5 failed only on a float computed from it, and None
    # failed inside the first band
    with pytest.raises(TypeError, match=r"^0\.5 is a float"):
        coeffs_V_on_f(P, 0.5)
    with pytest.raises(TypeError) as excinfo:
        coeffs_V_on_f(P, None)
    frames = [entry.name for entry in excinfo.traceback]
    assert frames[frames.index("coeffs_V_on_f") + 1] == "exact", frames


# each per-point reference and grid that takes its order N bare, at N, and
# its value at N = 3
ORDER_ENTRIES = {
    "dual_hahn": (lambda N: dual_hahn(1, 1, (Q(1, 3), Q(1, 5), N)), Q(11, 30)),
    "calU_general": (lambda N: calU_general(1, 1, Q(1, 3), Q(1, 5), Q(1, 7), N), Q(1321, 1261)),
    "calU_table": (lambda N: calU_table(Q(1, 3), Q(1, 5), Q(1, 7), N, range(2))[1, 1],
                   Q(1321, 1261)),
    "dual_hahn_table": (lambda N: dual_hahn_table((Q(1, 3), Q(1, 5), N))[1, 1], Q(11, 30)),
}


@pytest.mark.parametrize("N", [3.0, True, Q(3), "3", 0], ids=repr)
@pytest.mark.parametrize("name", ORDER_ENTRIES)
def test_per_point_references_refuse_an_order_that_is_not_an_int_from_1(name, N):
    # as Params and RacahParams do; read bare, 3.0 and Q(3) would pass as 3,
    # True as 1 and 0 as an empty grid
    entry, at_three = ORDER_ENTRIES[name]
    with pytest.raises(PreconditionViolated,
                       match=re.escape(f"order N = {N!r} must be an int >= 1")):
        entry(N)
    assert entry(3) == at_three


@pytest.mark.parametrize("n", ["1", 1.0, True, Q(1), -1], ids=repr)
def test_whipple_check_refuses_an_order_pochhammer_refuses(n):
    # balanced at n = 1; read bare before pochhammer saw it, "1" failed on a
    # str, 1.0 put a float into the balance message, -1 failed the balance,
    # and True and Q(1) passed it as 1
    a, b, c, d, e = Q(1, 3), Q(1, 5), Q(1, 7), Q(2, 9), Q(3, 11)
    args = (a, b, c, d, e, a + b + c - d - e)
    with pytest.raises(PreconditionViolated,
                       match=re.escape(f"pochhammer order must be an int >= 0, got {n!r}")):
        whipple_check(n, *args)
    assert whipple_check(1, *args) is True


def test_degenerate_parameters_reads_one_offender_as_a_list():
    assert DegenerateParameters("x").offenders == ["x"]
    assert str(DegenerateParameters(["x", "y"])) == "x; y"


def test_a_value_leaves_equality_with_another_type_to_it():
    assert Params(2, 1, 2, 3).__eq__(3) is NotImplemented
    assert Params(2, 1, 2, 3) != 3


def test_a_context_sets_its_fields_through_frozen_init(monkeypatch):
    # as every other value does; only the store is set beside them
    p, init, calls = _params(0), Frozen.__init__, []

    def counting(self, *values):
        calls.append((type(self), values))
        init(self, *values)

    monkeypatch.setattr(Frozen, "__init__", counting)
    ctx = Context(p, 3)
    assert calls == [(Context, (p, Q(3)))] and type(ctx.rho) is Q and ctx._kept == {}


def test_constructor_errors_keep_type_and_message():
    # both orders are checked by errors.require_indices; its
    # PreconditionViolated is a ValueError, which Params raised before
    with pytest.raises(ValueError, match=r"^Params order N = 0 must be an int >= 1$"):
        Params(N=0, alpha=Q(1, 3), beta=Q(1, 5), zeta=Q(1, 7))
    with pytest.raises(PreconditionViolated, match=r"^Params order N = 2\.0 must be an int >= 1$"):
        Params(N=2.0, alpha=0, beta=0, zeta=0)
    with pytest.raises(PreconditionViolated,
                       match=r"^RacahParams order N = 0 must be an int >= 1$"):
        RacahParams(Q(1, 2), Q(1, 3), Q(1, 5), 0)
    # True == 1 and hashes like 1, yet a report would print "N": "True", so
    # two equal sets would serialize differently
    with pytest.raises(ValueError, match=r"^Params order N = True must be an int >= 1$"):
        Params(N=True, alpha=Q(1, 3), beta=Q(1, 5), zeta=Q(1, 7))
    with pytest.raises(PreconditionViolated,
                       match=r"^RacahParams order N = True must be an int >= 1$"):
        RacahParams(Q(1, 2), Q(1, 3), Q(1, 5), True)
    with pytest.raises(PreconditionViolated, match="does not terminate"):
        HypSeries((Q(1, 2),), ())
    with pytest.raises(DegenerateParameters) as exc:
        HypSeries((-3, Q(1, 2)), (-1,))
    assert exc.value.offenders == ["lower parameter -1 vanishes within summation range 0..3"]


def test_laurent_poly_trims_both_ends():
    f = LaurentPoly(-2, (0, 0, 1, Q(1, 2), 0))
    assert (f.min_exp, f.coeffs, f.max_exp) == (0, (1, Q(1, 2)), 1)
    assert all(type(c) is Q for c in f.coeffs)
    zero = LaurentPoly(5, (0, 0))
    assert (zero.min_exp, zero.coeffs) == (0, ()) and zero == LaurentPoly.zero()
    assert LaurentPoly(3, (Q(0), Q(7))) == LaurentPoly.monomial(4, 7)


@pytest.mark.parametrize("min_exp", [Q(1, 2), Q(3), 1.0, True, False, "1", None], ids=repr)
def test_laurent_poly_refuses_an_exponent_that_is_not_an_int(min_exp):
    # a Fraction exponent would be kept and fail later on a tuple index,
    # and True would print as an exponent
    with pytest.raises(PreconditionViolated, match="^min_exp must be an int, got "):
        LaurentPoly(min_exp, (1, 2))


def test_laurent_arithmetic_refuses_an_operand_that_is_not_a_polynomial():
    f = LaurentPoly(0, (1,))
    for other in (1, Q(1, 2), (1,)):
        with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for \+"):
            f + other
        with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for -"):
            f - other
    assert f + f == f * 2 and (f - f).is_zero


@pytest.mark.parametrize("scalar", [0.1, 0.5, "1/3", "a", None], ids=repr)
def test_laurent_scalar_products_refuse_what_is_not_an_int_or_a_fraction(scalar):
    # 0.1 would scale by its binary expansion, and "1/3" was parsed
    f = LaurentPoly(0, (1,))
    for product in (lambda: f * scalar, lambda: scalar * f):
        with pytest.raises(TypeError, match="unsupported operand|can't multiply"):
            product()
    g = LaurentPoly(-1, (Q(1, 2), 3))
    assert g * True == True * g == g and 2 * g == g * 2 == g + g
    assert g * Q(2, 3) == Q(2, 3) * g == LaurentPoly(-1, (Q(1, 3), 2))


def test_termination_index_is_the_smallest_cap():
    assert HypSeries((-3, -5, Q(1, 2)), (Q(1, 3),)).termination_index == 3
    assert HypSeries((-5, 0), (-7,)).termination_index == 0
    # a lower parameter beyond the summation range is harmless
    assert HypSeries((-2,), (-2,)).termination_index == 2


def test_reports_do_not_share_their_containers():
    a, b = VerificationReport("x"), VerificationReport("x")
    a.params["N"] = "3"
    a.add("c", "statement", True)
    assert b.params == {} and b.checks == []
    assert a.params is not b.params and a.checks is not b.checks
    assert VerificationReport("x", {"N": "1"}).params == {"N": "1"}
    assert Check("c", "s", "pass").detail == ""
    assert [c.as_dict() for c in a.checks] == [
        {"id": "c", "statement": "statement", "status": "pass", "detail": ""}]
