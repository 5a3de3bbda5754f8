"""Exact Pochhammer symbols and terminating hypergeometric sums.

Everything here is computed in exact rational arithmetic.  A terminating
series

    pFq(u_1,...,u_p; l_1,...,l_q; z) = sum_{k=0}^K
        [prod_i (u_i)_k / prod_j (l_j)_k] * z^k / k!

requires at least one upper parameter to be a nonpositive integer; the
truncation order K is the smallest absolute value among those.  Lower
parameters must not kill a denominator inside the summation range.

The kernels are fraction-free: writing each rational parameter as p/q,
every factor a + k becomes the integer p + k q over q, so ``pochhammer``
multiplies plain integer numerators and denominators and reduces once,
and ``series_terms`` forms each term ratio as one integer numerator over
one integer denominator.

``series_terms`` returns the terms of such a series.  It is the one
term-ratio loop: ``hyp_sum`` is the sum of its terms, and the closed-form
basis columns and the Laurent model families build their coefficient
lists with it.  ``hyp_sum_reference`` evaluates Fraction
by Fraction and stays the independent oracle for ``hyp_sum``.
``series_table`` sums a whole two-index family of series at once: when
each parameter belongs to the row index or to the column index, every
term is a row factor times a column factor, and the matrix of sums is one
product of two term tables.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf, prod
from typing import Iterable, Sequence

from .errors import DegenerateParameters, Frozen, PreconditionViolated, exact
from .matrices import RationalMatrix

Q = Fraction


def is_nonpositive_int(x: Fraction) -> bool:
    return x.denominator == 1 and x <= 0


def pochhammer(a, n: int) -> Fraction:
    """Rising factorial (a)_n = a (a+1) ... (a+n-1), with (a)_0 = 1.

    With a = p/q this is prod_k (p + k q) / q^n, one reduction in all.
    """
    if type(n) is not int or n < 0:
        raise PreconditionViolated(f"pochhammer order must be an int >= 0, got {n!r}")
    p, q = exact(a).as_integer_ratio()
    return Q(prod(range(p, p + n * q, q)), q**n)


def multi_pochhammer(params: Iterable, n: int) -> Fraction:
    """Product of (a)_n over all a in params."""
    out = Q(1)
    for a in params:
        out *= pochhammer(a, n)
    return out


def series_terms(upper: Sequence, lower: Sequence, count: int, head=1, argument=1) -> list:
    """The first count terms of head * pFq(upper; lower; argument):

        [head * prod(u)_k / (prod(l)_k k!) * argument^k for k = 0..count-1]

    built by term ratios, t_(k+1) = t_k * prod(u + k) z / (prod(l + k) (k + 1)),
    with each ratio kept as an integer numerator and denominator.  The
    ratio after the last term is never formed, so a lower parameter may
    vanish at l + count - 1.
    """
    upper = [exact(u) for u in upper]
    lower = [exact(l) for l in lower]
    z = exact(argument)
    num_const = z.numerator * prod(l.denominator for l in lower)
    den_const = z.denominator * prod(u.denominator for u in upper)
    terms = [exact(head)][:count]
    for k in range(count - 1):
        num = num_const * prod(u.numerator + k * u.denominator for u in upper)
        den = (k + 1) * den_const * prod(l.numerator + k * l.denominator for l in lower)
        terms.append(terms[-1] * Q(num, den))
    return terms


def _cap(params) -> int | float:
    """The smallest |u| over the nonpositive-integer u in params, inf if none."""
    return min((-int(u) for u in params if is_nonpositive_int(u)), default=inf)


def _require_terminating(k, lower) -> None:
    """The termination rule of a series summed over 0..k, k = _cap(upper):
    PreconditionViolated if k is inf, DegenerateParameters naming each lower
    parameter l that vanishes within the range, l + i = 0 at i = -l < k."""
    if k == inf:
        raise PreconditionViolated(
            "series does not terminate: no nonpositive-integer upper parameter"
        )
    bad = [l for l in lower if is_nonpositive_int(l) and -l < k]
    if bad:
        raise DegenerateParameters(
            [f"lower parameter {l} vanishes within summation range 0..{k}" for l in bad])


def series_table(rows: Sequence, cols: Sequence) -> RationalMatrix:
    """The matrix of terminating sums, one per (row, column) pair:

        entry (i, j) = pFq(u_i + v_j; l_i + w_j; 1)
                     = sum_k [prod(u_i)_k / (prod(l_i)_k k!)] * [prod(v_j)_k / prod(w_j)_k]

    for rows[i] = (u_i, l_i) and cols[j] = (v_j, w_j), the upper and lower
    parameters that depend on the row index and on the column index alone.
    Entry (i, j) terminates at min(c_i, c_j), as HypSeries computes it,
    with c_i the smallest |u| over the nonpositive-integer uppers of row i
    (constant caps included) and c_j that of column j.  Row i is the
    series_terms of (u_i; l_i) up to the largest index any of its entries
    reaches, column j that of (v_j, 1; w_j), the upper 1 cancelling the k!
    the row carries; both are padded with zeros, and the table is the one
    product A B^T, in its integer form.  No term past a row's or a
    column's own reach is formed.

    Raises DegenerateParameters where HypSeries would: at the first entry,
    row by row, with a lower parameter that vanishes within its summation
    range, naming the column's lower parameters before the row's.
    """
    rows = [([exact(u) for u in up], [exact(l) for l in lo]) for up, lo in rows]
    cols = [([exact(v) for v in up], [exact(w) for w in lo]) for up, lo in cols]
    row_caps = [_cap(up) for up, _ in rows]
    col_caps = [_cap(up) for up, _ in cols]
    top_row, top_col = max(row_caps), max(col_caps)
    # an entry without a cap stops the table before any lower parameter is read
    _require_terminating(min(top_row, top_col), ())
    # _cap of the lower parameters: the first index at which one vanishes
    row_poles = [_cap(lo) for _, lo in rows]
    col_poles = [_cap(lo) for _, lo in cols]
    for (_, lo), row_cap, row_pole in zip(rows, row_caps, row_poles):
        for (_, wo), col_cap, col_pole in zip(cols, col_caps, col_poles):
            k = min(row_cap, col_cap)
            if min(row_pole, col_pole) < k:
                _require_terminating(k, wo + lo)
    row_counts = [min(c, top_col) + 1 for c in row_caps]
    col_counts = [min(c, top_row) + 1 for c in col_caps]
    width = max(row_counts)
    A = RationalMatrix([series_terms(up, lo, n) + [Q(0)] * (width - n)
                        for (up, lo), n in zip(rows, row_counts)])
    Bt = RationalMatrix(list(zip(*(series_terms(up + [1], lo, n) + [Q(0)] * (width - n)
                                   for (up, lo), n in zip(cols, col_counts)))))
    return A * Bt


class HypSeries(Frozen):
    """A terminating hypergeometric sum with unit-normalized data.

    ``termination_index`` is derived on construction: the smallest |u| over
    nonpositive-integer upper parameters u.  Construction fails with
    DegenerateParameters if some lower parameter is a nonpositive integer
    >= -termination_index + 1, because then a denominator Pochhammer
    vanishes inside the summation range.
    """

    __slots__ = _fields = ("upper", "lower", "argument", "termination_index")

    def __init__(self, upper: tuple, lower: tuple, argument: Fraction = Q(1)):
        upper = tuple(exact(u) for u in upper)
        lower = tuple(exact(l) for l in lower)
        argument = exact(argument)
        k = _cap(upper)
        _require_terminating(k, lower)
        super().__init__(upper, lower, argument, k)

    def __reduce__(self):
        return HypSeries, (self.upper, self.lower, self.argument)


def hyp_sum(series: HypSeries) -> Fraction:
    """Evaluate a terminating sum as the sum of its series_terms."""
    return sum(series_terms(series.upper, series.lower, series.termination_index + 1,
                            argument=series.argument))


def hyp_sum_reference(series: HypSeries) -> Fraction:
    """Naive evaluation with full Pochhammer products per term.

    Slower than hyp_sum; kept as the independent oracle for it.
    """
    total = Q(0)
    for k in range(series.termination_index + 1):
        den = multi_pochhammer(series.lower, k) * pochhammer(1, k)
        total += multi_pochhammer(series.upper, k) * series.argument**k / den
    return total


def terminating_hyp(upper: Sequence, lower: Sequence, argument=1) -> Fraction:
    """Shorthand: build the HypSeries and evaluate it."""
    return hyp_sum(HypSeries(tuple(upper), tuple(lower), argument))


def whipple_check(n: int, a, b, c, d, e, f) -> bool:
    """Check the two-term transformation of a balanced terminating 4F3(1).

    Balance means 1 - n + a + b + c = d + e + f.  The transformation:

        4F3(-n, a, b, c; d, e, f; 1)
          = [(e-a)_n (f-a)_n / ((e)_n (f)_n)]
            * 4F3(-n, a, d-b, d-c; d, a+1-n-e, a+1-n-f; 1)

    Returns whether both sides agree exactly.
    """
    a, b, c, d, e, f = map(exact, (a, b, c, d, e, f))
    # pochhammer refuses an order n that is not an int >= 0 before the
    # balance reads it
    den = pochhammer(e, n) * pochhammer(f, n)
    if 1 - n + a + b + c != d + e + f:
        raise PreconditionViolated(
            "balance 1 - n + a + b + c = d + e + f fails: "
            f"{1 - n + a + b + c} != {d + e + f}"
        )
    if den == 0:
        raise DegenerateParameters([f"(e)_{n} (f)_{n} = 0 with e={e}, f={f}"])
    lhs = terminating_hyp((-n, a, b, c), (d, e, f))
    pref = pochhammer(e - a, n) * pochhammer(f - a, n) / den
    rhs = pref * terminating_hyp(
        (-n, a, d - b, d - c), (d, a + 1 - n - e, a + 1 - n - f)
    )
    return lhs == rhs
