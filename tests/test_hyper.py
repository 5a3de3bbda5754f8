import re
from fractions import Fraction as Q

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from metaracah.errors import DegenerateParameters, PreconditionViolated
from metaracah.hyper import (
    HypSeries,
    hyp_sum,
    hyp_sum_reference,
    is_nonpositive_int,
    pochhammer,
    series_terms,
    terminating_hyp,
    whipple_check,
)

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
).filter(lambda q: not is_nonpositive_int(q))


def naive_pochhammer(a, n):
    # in-test oracle, written independently of the library routine
    out = Q(1)
    for k in range(n):
        out = out * (Q(a) + k)
    return out


def test_pochhammer_base_cases():
    assert pochhammer(Q(7, 3), 0) == 1
    assert pochhammer(Q(7, 3), 1) == Q(7, 3)
    assert pochhammer(3, 4) == 3 * 4 * 5 * 6
    assert pochhammer(-2, 3) == 0
    assert pochhammer(Q(-6, 2), 4) == 0
    assert pochhammer(-4, 4) == 24
    assert pochhammer(0, 0) == 1
    with pytest.raises(PreconditionViolated):
        pochhammer(Q(1, 2), -1)


@pytest.mark.parametrize("n", [1.5, True, Q(1), Q(1, 2)], ids=["1.5", "True", "1/1", "1/2"])
def test_pochhammer_refuses_an_order_that_is_no_int(n):
    # as errors.require_indices refuses an index, a bool included
    with pytest.raises(PreconditionViolated, match=re.escape(f"must be an int >= 0, got {n!r}")):
        pochhammer(Q(1, 2), n)


@given(a=st.fractions(min_value=-8, max_value=8, max_denominator=10),
       n=st.integers(min_value=0, max_value=12))
def test_pochhammer_matches_naive(a, n):
    assert pochhammer(a, n) == naive_pochhammer(a, n)


# the benchmark's draw range: numerators -40..40, denominators up to 23
bench_rationals = st.builds(
    Q, st.integers(min_value=-40, max_value=40), st.integers(min_value=1, max_value=23)
)


@given(a=bench_rationals, n=st.integers(min_value=0, max_value=32))
@settings(max_examples=200, deadline=None)
def test_pochhammer_matches_naive_on_long_products(a, n):
    assert pochhammer(a, n) == naive_pochhammer(a, n)


@given(a=bench_rationals, n=st.integers(min_value=0, max_value=32))
@settings(max_examples=200, deadline=None)
def test_pochhammer_vanishes_exactly_on_nonpositive_integers_in_range(a, n):
    # (a)_n = 0 iff a is an integer with -n < a <= 0
    assert (pochhammer(a, n) == 0) == (a.denominator == 1 and -n < a <= 0)


@given(a=st.fractions(min_value=-8, max_value=8, max_denominator=10),
       m=st.integers(min_value=0, max_value=6),
       n=st.integers(min_value=0, max_value=6))
def test_pochhammer_splits(a, m, n):
    # (a)_{m+n} = (a)_m (a+m)_n
    assert pochhammer(a, m + n) == pochhammer(a, m) * pochhammer(Q(a) + m, n)


def test_series_requires_termination():
    with pytest.raises(PreconditionViolated):
        HypSeries(upper=(Q(1, 2), Q(3, 2)), lower=(Q(5, 2),))


def test_series_rejects_lower_zero_in_range():
    # lower parameter -2 vanishes at k = 3 <= termination index 4
    with pytest.raises(DegenerateParameters):
        HypSeries(upper=(-4, Q(1, 2)), lower=(-2,))
    # but -6 is safely past the truncation at k = 4
    s = HypSeries(upper=(-4, Q(1, 2)), lower=(-6,))
    assert s.termination_index == 4


def test_termination_uses_smallest_cap():
    s = HypSeries(upper=(-7, -2, Q(1, 3)), lower=(Q(4, 5),))
    assert s.termination_index == 2


def two_loop_oracle(upper, lower, z):
    # completely separate evaluation: explicit factorials, no shared helpers
    total = Q(0)
    k = 0
    while True:
        if any(Q(u) + j == 0 for u in upper for j in range(k)):
            break
        term = Q(z) ** k
        for u in upper:
            for j in range(k):
                term *= Q(u) + j
        for l in lower:
            for j in range(k):
                term /= Q(l) + j
        for j in range(1, k + 1):
            term /= j
        total += term
        k += 1
        if k > 50:
            raise AssertionError("runaway series in oracle")
    return total


@given(
    n=st.integers(min_value=0, max_value=7),
    a=rationals, b=rationals, c=rationals,
)
@settings(max_examples=60, deadline=None)
def test_hyp_sum_against_naive_reference(n, a, b, c):
    s = HypSeries(upper=(-n, a, b), lower=(c, Q(17, 2)))
    assert hyp_sum(s) == hyp_sum_reference(s)


# lower parameters are never integers, so no lower Pochhammer vanishes
non_integers = st.fractions(min_value=-10, max_value=10, max_denominator=23).filter(
    lambda q: q.denominator > 1
)


@given(
    n=st.integers(min_value=0, max_value=12),
    upper=st.lists(rationals, min_size=0, max_size=3),
    lower=st.lists(non_integers, min_size=1, max_size=3,
                   unique_by=lambda q: q.denominator),
    z=st.fractions(min_value=-6, max_value=Q(-1, 23), max_denominator=23).filter(
        lambda q: q != -1
    ),
)
@settings(max_examples=100, deadline=None)
def test_hyp_sum_mixed_denominators_negative_argument(n, upper, lower, z):
    s = HypSeries(upper=(-n, *upper), lower=tuple(lower), argument=z)
    assert hyp_sum(s) == hyp_sum_reference(s)


def test_hyp_sum_against_two_loop_oracle():
    for n in range(6):
        got = terminating_hyp((-n, Q(1, 3), Q(2, 5)), (Q(3, 7), Q(9, 2)))
        assert got == two_loop_oracle((-n, Q(1, 3), Q(2, 5)), (Q(3, 7), Q(9, 2)), 1)


@given(n=st.integers(min_value=0, max_value=10), b=rationals)
@settings(max_examples=60, deadline=None)
def test_chu_vandermonde(n, b):
    # 2F1(-n, b; c; 1) = (c - b)_n / (c)_n
    c = Q(19, 2)
    lhs = terminating_hyp((-n, b), (c,))
    assert lhs == pochhammer(c - b, n) / pochhammer(c, n)


def balanced_f(n, a, b, c, d, e):
    return 1 - n + a + b + c - d - e


def test_whipple_balanced_examples():
    a, b, c, d, e = Q(1, 2), Q(1, 3), Q(1, 5), Q(2, 3), Q(3, 4)
    for n in (0, 3):
        assert whipple_check(n, a, b, c, d, e, balanced_f(n, a, b, c, d, e))


def test_whipple_rejects_unbalanced():
    with pytest.raises(PreconditionViolated):
        whipple_check(2, Q(1, 2), Q(1, 3), Q(1, 5), Q(2, 3), Q(3, 4), Q(4, 5))


@given(
    n=st.integers(min_value=0, max_value=8),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_whipple_random_balanced(n, data):
    a, b, c, d, e = (data.draw(rationals, label=s) for s in "abcde")
    f = balanced_f(n, a, b, c, d, e)
    try:
        ok = whipple_check(n, a, b, c, d, e, f)
    except DegenerateParameters:
        assume(False)
    assert ok


def test_argument_other_than_one():
    # 1F0(-n; ; z) = (1 - z)^n
    for n in range(6):
        assert terminating_hyp((-n,), (), Q(1, 2)) == (1 - Q(1, 2)) ** n


def reference_terms(upper, lower, count, head, argument):
    # per-term oracle: whole Pochhammer products for every k, no ratios
    out = []
    for k in range(count):
        num = Q(head) * Q(argument) ** k
        for u in upper:
            num *= pochhammer(u, k)
        den = pochhammer(1, k)
        for l in lower:
            den *= pochhammer(l, k)
        out.append(num / den)
    return out


ints_or_rationals = st.one_of(
    st.integers(min_value=-8, max_value=8),
    st.fractions(min_value=-8, max_value=8, max_denominator=12),
)


@given(
    upper=st.lists(ints_or_rationals, max_size=3),
    lower=st.lists(non_integers, max_size=2),
    count=st.integers(min_value=0, max_value=12),
    head=ints_or_rationals,
    argument=st.sampled_from([1, -1, Q(-1), Q(2, 3)]),
    cap=st.one_of(st.none(), st.integers(min_value=0, max_value=12)),
)
@example(upper=[], lower=[], count=1, head=Q(5, 3), argument=-1, cap=None)
@example(upper=[Q(1, 2)], lower=[Q(7, 3)], count=1, head=2, argument=1, cap=0)
@settings(max_examples=300, deadline=None)
def test_series_terms_against_per_term_reference(upper, lower, count, head, argument, cap):
    # cap adds a terminating upper parameter -cap; terms past it are zero
    upper = upper + ([] if cap is None else [-cap])
    got = series_terms(upper, lower, count, head=head, argument=argument)
    assert got == reference_terms(upper, lower, count, head, argument)
    assert len(got) == count and all(type(t) is Q for t in got)


@given(count=st.integers(min_value=1, max_value=10), a=ints_or_rationals,
       data=st.data())
@settings(max_examples=100, deadline=None)
def test_series_terms_never_forms_the_ratio_after_the_last_term(count, a, data):
    # lower parameter 1 - count: (l)_k != 0 for k < count, but the ratio
    # t_count / t_(count-1) would divide by l + count - 1 = 0
    lower = Q(1 - count, 1) if data.draw(st.booleans()) else 1 - count
    got = series_terms((a, -count), (lower,), count, argument=-1)
    assert got == reference_terms((a, -count), (lower,), count, 1, -1)
    with pytest.raises(ZeroDivisionError):
        series_terms((a, -count), (lower,), count + 1, argument=-1)


def test_series_terms_small_cases():
    assert series_terms((), (), 0) == []
    assert series_terms((-3,), (), 5, argument=-1) == [1, 3, 3, 1, 0]  # (1+x)^3
    assert series_terms((1,), (), 4, head=Q(1, 2), argument=2) == [Q(1, 2), 1, 2, 4]
