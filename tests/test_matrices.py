import re
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings, strategies as st

from metaracah.matrices import RationalMatrix, dot, inverse, nullspace

# entries with mixed denominators, zero about half the time
entries = st.one_of(
    st.just(Q(0)),
    st.fractions(min_value=-9, max_value=9, max_denominator=23),
)


def rank(rows):
    # in-test oracle: plain Fraction row reduction, written independently
    a = [[Q(x) for x in row] for row in rows]
    r = 0
    for c in range(len(a[0]) if a else 0):
        pivot = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c] / a[r][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


@st.composite
def planted(draw):
    """A matrix with zero rows, zero columns and a planted kernel vector."""
    rows = draw(st.integers(min_value=1, max_value=6))
    cols = draw(st.integers(min_value=2, max_value=7))
    m = [[draw(entries) for _ in range(cols)] for _ in range(rows)]
    for i in draw(st.sets(st.integers(0, rows - 1), max_size=2)):
        m[i] = [Q(0)] * cols
    zero_cols = draw(st.sets(st.integers(0, cols - 1), max_size=2))
    for row in m:
        for j in zero_cols:
            row[j] = Q(0)
    # column c0 is a combination of the others: w = coef - e_c0 is in the kernel
    c0 = draw(st.integers(0, cols - 1))
    coef = [Q(0) if j == c0 else draw(entries) for j in range(cols)]
    for row in m:
        row[c0] = sum((coef[j] * row[j] for j in range(cols)), Q(0))
    w = [Q(-1) if j == c0 else coef[j] for j in range(cols)]
    units = [[Q(int(j == k)) for j in range(cols)] for k in zero_cols if k != c0]
    return m, [w] + units


@given(planted())
@settings(max_examples=150, deadline=None)
def test_nullspace_is_the_kernel(case):
    rows, known = case
    m = RationalMatrix(rows)
    kernel = nullspace(m)
    zero = tuple(Q(0) for _ in range(m.rows))
    for v in kernel:
        assert len(v) == m.cols
        assert m.apply(v) == zero
    assert len(kernel) == m.cols - rank(rows)
    assert rank(kernel) == len(kernel)
    # the planted vectors lie in the span of the returned basis
    assert rank(kernel + known) == len(kernel)
    # one vector per free column c, in increasing order, 1 at c and 0 at the
    # other free columns; c is free when it adds no rank to the columns before it
    free = [c for c in range(m.cols)
            if rank([r[:c + 1] for r in rows]) == rank([r[:c] for r in rows])]
    assert [[v[c] for c in free] for v in kernel] == [[int(c == f) for c in free] for f in free]


def test_nullspace_of_zero_and_full_rank():
    assert nullspace(RationalMatrix.zeros(2, 3)) == [
        (Q(1), Q(0), Q(0)), (Q(0), Q(1), Q(0)), (Q(0), Q(0), Q(1))
    ]
    assert nullspace(RationalMatrix.identity(3)) == []
    assert nullspace(RationalMatrix([[Q(1, 2), Q(1, 3)]])) == [(Q(-2, 3), Q(1))]


def banded(draw, n, width):
    return [
        [draw(entries) if abs(i - j) <= width else Q(0) for j in range(n)]
        for i in range(n)
    ]


@given(data=st.data(), n=st.integers(min_value=1, max_value=7),
       lam=st.one_of(st.integers(-5, 5), entries))
@settings(max_examples=100, deadline=None)
def test_pencil_arithmetic_matches_entrywise_reference(data, n, lam):
    a = banded(data.draw, n, 1)
    b = banded(data.draw, n, data.draw(st.integers(0, 1)))
    A, B = RationalMatrix(a), RationalMatrix(b)
    assert A - lam * B == RationalMatrix(
        [[a[i][j] - Q(lam) * b[i][j] for j in range(n)] for i in range(n)]
    )
    assert lam * A == RationalMatrix(
        [[Q(lam) * a[i][j] for j in range(n)] for i in range(n)]
    )
    assert A + B == RationalMatrix(
        [[a[i][j] + b[i][j] for j in range(n)] for i in range(n)]
    )
    for mat in (A - lam * B, lam * A, A + B):
        assert all(type(mat[i, j]) is Q for i in range(n) for j in range(n))


@st.composite
def product_case(draw):
    """A (rows x inner) and an (inner x cols) table with mixed denominators,
    plain ints, zero rows and zero columns."""
    mixed = st.one_of(entries, st.integers(-9, 9))
    rows = draw(st.integers(min_value=1, max_value=6))
    inner = draw(st.integers(min_value=1, max_value=7))
    cols = draw(st.integers(min_value=1, max_value=7))
    a = [[draw(mixed) for _ in range(inner)] for _ in range(rows)]
    b = [[draw(mixed) for _ in range(cols)] for _ in range(inner)]
    for i in draw(st.sets(st.integers(0, rows - 1), max_size=2)):
        a[i] = [0] * inner
    for j in draw(st.sets(st.integers(0, cols - 1), max_size=2)):
        for row in b:
            row[j] = 0
    return a, b


@given(product_case())
@example(([[Q(1, 6), Q(1, 10)]], [[Q(1, 4)], [Q(1, 9)]]))
@example(([[0, 0], [Q(-3, 7), 2]], [[0, Q(5, 3)], [0, Q(1, 2)]]))
@settings(max_examples=200, deadline=None)
def test_products_match_entrywise_reference(case):
    a, b = case
    rows, inner, cols = len(a), len(b), len(b[0])

    def ref(u, v):
        return sum((Q(x) * Q(y) for x, y in zip(u, v)), Q(0))

    bcols = [[b[k][j] for k in range(inner)] for j in range(cols)]
    expected = [[ref(a[i], bcols[j]) for j in range(cols)] for i in range(rows)]
    product = RationalMatrix(a) * RationalMatrix(b)
    assert product.shape == (rows, cols)
    assert [list(product.row(i)) for i in range(rows)] == expected
    pairings = [[dot(a[i], bcols[j]) for j in range(cols)] for i in range(rows)]
    assert pairings == expected
    applied = [RationalMatrix(a).apply(bcols[j]) for j in range(cols)]
    assert applied == [tuple(expected[i][j] for i in range(rows)) for j in range(cols)]
    for table in ([product.row(i) for i in range(rows)], pairings, applied):
        assert all(type(x) is Q for line in table for x in line)


def _reference_product(a, b):
    """Fraction-by-Fraction product of two row lists."""
    return [[sum((Q(a[i][k]) * Q(b[k][j]) for k in range(len(b))), Q(0))
             for j in range(len(b[0]))] for i in range(len(a))]


@st.composite
def reuse_case(draw):
    """An (r x k) table A and a (k x r) table B, with zero rows and columns."""
    r, k = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    a = [[draw(entries) for _ in range(k)] for _ in range(r)]
    b = [[draw(entries) for _ in range(r)] for _ in range(k)]
    for i in draw(st.sets(st.integers(0, r - 1), max_size=2)):
        a[i] = [Q(0)] * k
    for j in draw(st.sets(st.integers(0, k - 1), max_size=2)):
        for row in a:
            row[j] = Q(0)
    return a, b


@given(reuse_case(), st.permutations(range(12)))
@example(([[Q(2, 3)]], [[Q(-5, 7)]]), list(range(12)))
@example(([[Q(0)]], [[Q(1, 2)]]), list(range(12))[::-1])
@example(([[Q(0), Q(0)], [Q(1, 6), Q(0)]], [[Q(1, 4), Q(3)], [Q(0), Q(-1, 9)]]),
         [1, 3, 0, 5, 7, 2, 6, 4, 11, 9, 8, 10])
@settings(max_examples=150, deadline=None)
def test_reused_factors_match_entrywise_reference(case, order):
    # one matrix as left factor, right factor and transposed, and one
    # product P = A B in further products, sums and scalar multiples, before
    # or after its entries are read, in any order, so each operation meets
    # the scaled and integer forms the others left behind; diagonal scalings
    # (a zero factor included), entrywise products and transposes of a
    # result keep the integer form too
    a, b = case
    A, B = RationalMatrix(a), RationalMatrix(b)
    P = A * B
    at = [list(col) for col in zip(*a)]
    ab = _reference_product(a, b)
    zero = [[Q(0)] * len(ab) for _ in ab]
    r = [Q(i - 1, i + 2) for i in range(len(ab))]
    c = [Q(2 * j + 1, j + 3) for j in range(len(ab))]
    rab_c = [[r[i] * x * c[j] for j, x in enumerate(row)] for i, row in enumerate(ab)]
    expected = {
        0: (lambda: A.transpose() * A, lambda: _reference_product(at, a)),
        1: (lambda: P * A, lambda: _reference_product(ab, a)),
        2: (lambda: A * (B * A), lambda: _reference_product(a, _reference_product(b, a))),
        3: (lambda: A * A.transpose(), lambda: _reference_product(a, at)),
        4: (lambda: B * P, lambda: _reference_product(b, ab)),
        5: (lambda: P, lambda: ab),
        6: (lambda: P - A * B, lambda: zero),
        7: (lambda: 2 * P - P * Q(1, 3) + (-RationalMatrix(ab)) - P.transpose().transpose(),
            lambda: [[x * Q(-1, 3) for x in row] for row in ab]),
        8: (lambda: P.scaled(r, c), lambda: rab_c),
        9: (lambda: A.scaled(r) * B.scaled(None, c), lambda: rab_c),
        10: (lambda: P.hadamard(P), lambda: [[x * x for x in row] for row in ab]),
        11: (lambda: (-P).transpose(), lambda: [[-x for x in col] for col in zip(*ab)]),
    }
    if len(a) == len(a[0]):
        assert A * A == RationalMatrix(_reference_product(a, a))
    for i in order:
        got, ref = expected[i]
        result, rows = got(), ref()
        assert list(result.nonzeros()) == [(i, j) for i, row in enumerate(rows)
                                           for j, x in enumerate(row) if x != 0]
        assert result.is_zero() == all(x == 0 for row in rows for x in row)
        assert [list(result.row(r)) for r in range(result.rows)] == rows
        assert all(type(x) is Q for r in range(result.rows) for x in result.row(r))
    assert A == RationalMatrix(a) and A.transpose() == RationalMatrix(at)
    assert A.transpose().transpose() is A and P.transpose().transpose() is P


def _written(m):
    """Whether m holds its Fraction entries, read past __getattr__, which
    would write them."""
    try:
        RationalMatrix.__dict__["_e"].__get__(m)
    except AttributeError:
        return False
    return True


@st.composite
def band_case(draw):
    """A size n and some of its bands, each with its n - |k| entries."""
    n = draw(st.integers(1, 5))
    ks = draw(st.sets(st.integers(-(n - 1), n - 1), max_size=n))
    return n, {k: [draw(entries) for _ in range(n - abs(k))] for k in ks}


@given(band_case())
@example((1, {}))
@example((1, {0: [Q(-3, 4)]}))
@example((3, {-2: [Q(5)], 1: [Q(0), Q(1, 6)]}))
@settings(max_examples=100, deadline=None)
def test_banded_matches_entrywise_reference(case):
    # entry (i, j) lies on band k = j - i, at place min(i, j) of that band
    n, bands = case
    m = RationalMatrix.banded(n, bands)
    assert [list(m.row(i)) for i in range(n)] == [
        [bands[j - i][min(i, j)] if j - i in bands else 0 for j in range(n)] for i in range(n)]
    assert all(list(m.band(k)) == bands[k] for k in bands)


def test_banded_refuses_a_band_of_the_wrong_length():
    for n, bands in ((3, {0: [1, 2]}), (3, {1: [1, 2, 3]}), (2, {-1: []}), (1, {1: [1]})):
        with pytest.raises(ValueError):
            RationalMatrix.banded(n, bands)
    assert RationalMatrix.banded(1, {1: [], -3: []}) == RationalMatrix([[0]])


@given(reuse_case())
@example(([[Q(0)]], [[Q(0)]]))
@example(([[Q(2, 3)]], [[Q(-5, 7)]]))
@example(([[Q(1, 2), Q(0), Q(0)]], [[Q(0)], [Q(3)], [Q(0)]]))
@settings(max_examples=100, deadline=None)
def test_bands_match_entrywise_reference(case):
    # in_band and every band(k), on matrices in entry form and on results in
    # integer form (product, sum, scaling, transpose), zero and non-square
    # ones included; a result's bands and shape are read without writing
    # out its entries
    a, b = case
    A, B = RationalMatrix(a), RationalMatrix(b)
    r = [Q(i + 1, i + 3) for i in range(len(a))]
    entry_form = [(m, False) for m in (A, B, RationalMatrix.zeros(len(a), len(b)))]
    integer_form = [(m, True) for m in (A * B, A + A.scaled(r), A - A,
                                        B.scaled(None, r).transpose(), (B * A).transpose())]
    for m, integer in entry_form + integer_form:
        bands = {k: m.band(k) for k in range(-m.rows - 1, m.cols + 2)}
        shapes = {(lo, up): m.in_band(lo, up)
                  for lo in range(-1, m.rows + 1) for up in range(-1, m.cols + 1)}
        assert _written(m) is not integer
        rows = [list(m.row(i)) for i in range(m.rows)]
        assert all(type(x) is Q for band in bands.values() for x in band)
        assert bands == {k: tuple(rows[i][i + k] for i in range(m.rows) if 0 <= i + k < m.cols)
                         for k in bands}
        assert shapes == {(lo, up): all(-lo <= j - i <= up for i, row in enumerate(rows)
                                        for j, x in enumerate(row) if x)
                          for lo, up in shapes}


def test_transpose_is_built_once():
    m = RationalMatrix([[1, Q(1, 2), 0], [0, 3, Q(-2, 5)]])
    t = m.transpose()
    assert t.transpose() is m and m.transpose() is t
    assert t.shape == (3, 2) and [list(t.row(i)) for i in range(3)] == [
        [1, 0], [Q(1, 2), 3], [0, Q(-2, 5)]]
    one = RationalMatrix([[Q(7, 3)]])
    assert one.transpose().transpose() is one and one.transpose() == one


@pytest.mark.parametrize("r, c, message", [
    ([1], None, "1 row factors for 2 rows"), ([1] * 3, None, "3 row factors for 2 rows"),
    (None, [1] * 2, "2 column factors for 3 columns"),
    (None, [1] * 4, "4 column factors for 3 columns"),
    ([1] * 2, [1] * 2, "2 column factors for 3 columns")])
def test_scaled_refuses_factors_that_do_not_fit_the_shape(r, c, message):
    # zipped with the rows or columns, a short list would drop some and a
    # long one be cut, so a residual built on it could pass on what is left
    m = RationalMatrix([[1, Q(1, 2), 0], [0, 3, Q(-2, 5)]])
    for form in (m, m + m):
        with pytest.raises(ValueError, match=message):
            form.scaled(r, c)


@pytest.mark.parametrize("columns, message", [
    ([[1], [2, 3]], "ragged rows"), ([[1, 2], [3]], "ragged rows"),
    ([], "at least one row and column")])
def test_from_columns_refuses_ragged_or_empty_columns(columns, message):
    # read row by row off the first column, a longer later column would be
    # cut and a shorter one fail on a bare index
    with pytest.raises(ValueError, match=message):
        RationalMatrix.from_columns(columns)
    assert RationalMatrix.from_columns([[1, 2], [3, 4]]) == RationalMatrix([[1, 3], [2, 4]])


@pytest.mark.parametrize("accessor, index, message", [
    ("column", -1, "column index -1"), ("column", 2, "column index 2"),
    ("row", -1, "row index -1"), ("row", 2, "row index 2"), ("row", True, "row index True"),
    ("__getitem__", (-1, -1), "row index -1"), ("__getitem__", (2, 0), "row index 2"),
    ("__getitem__", (0, 1.0), "column index 1.0"),
    ("__getitem__", (0, False), "column index False")])
def test_accessors_refuse_an_index_outside_the_shape(accessor, index, message):
    # a negative index would read the last row or column as if it were
    # asked for, and a bad one fail on a bare tuple index
    m = RationalMatrix([[1, 2], [3, 4]])
    for form in (m, m + m):
        with pytest.raises(IndexError, match=f"^{message} out of range for a 2 x 2 matrix$"):
            getattr(form, accessor)(index)
    assert (m.row(1), m.column(0), m[1, 0]) == ((3, 4), (1, 3), 3)


def test_arithmetic_refuses_an_operand_that_is_not_a_matrix():
    m = RationalMatrix([[1]])
    for other in (1, Q(1, 2), [[1]]):
        with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for \+"):
            m + other
        with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for -"):
            m - other
        with pytest.raises(TypeError, match="hadamard needs a RationalMatrix"):
            m.hadamard(other)


@pytest.mark.parametrize("combine", [
    pytest.param(lambda a, b: a + b, id="add"), pytest.param(lambda a, b: a - b, id="sub"),
    pytest.param(lambda a, b: a.hadamard(b), id="hadamard")])
def test_entrywise_operations_refuse_operands_of_another_shape(combine):
    # zipped row by row, a 2 x 3 and a 3 x 2 operand would make a 2 x 2
    # result out of part of each
    m, t = RationalMatrix([[1, Q(1, 2), 0], [0, 3, Q(-2, 5)]]), RationalMatrix([[1, 2]] * 3)
    for a, b in ((m, t), (m + m, t * 2), (t, m)):
        with pytest.raises(ValueError, match=re.escape(f"shape mismatch {a.shape} vs {b.shape}")):
            combine(a, b)


def test_products_refuse_factors_whose_inner_sizes_differ():
    m = RationalMatrix([[1, Q(1, 2), 0], [0, 3, Q(-2, 5)]])
    for a in (m, m + m):
        with pytest.raises(ValueError, match=r"^cannot multiply \(2, 3\) by \(2, 3\)$"):
            a * a
    assert (m * m.transpose()).shape == (2, 2)


def test_apply_refuses_a_vector_of_another_length():
    m = RationalMatrix([[1, Q(1, 2), 0], [0, 3, Q(-2, 5)]])
    for vector in ([1, 2], [1, 2, 3, 4]):
        with pytest.raises(ValueError, match="^vector length mismatch$"):
            m.apply(vector)
    assert m.apply([2, 2, 5]) == (3, 4)


def test_dot_refuses_vectors_of_different_lengths():
    for u, v in (([1, 2], [Q(1, 3)]), ([Q(1, 2)], [1, 2])):
        with pytest.raises(ValueError, match="^length mismatch$"):
            dot(u, v)
    assert dot([Q(1, 2), 3], [4, Q(1, 3)]) == 3


def test_dot_and_apply_refuse_a_float_entry():
    # each entry is read by errors.exact, as a constructor's and a scaling
    # factor's are, not by its as_integer_ratio, which a float also has
    m = RationalMatrix([[1, 2], [3, 4]])
    for call in (lambda: dot([0.5], [2]), lambda: dot([Q(1, 2)], [0.25]),
                 lambda: m.apply([0.5, 1])):
        with pytest.raises(TypeError, match="is a float"):
            call()


@pytest.mark.parametrize("scalar", [0.1, 0.5, "a", "1/3", None], ids=repr)
def test_scalar_products_refuse_what_is_not_an_int_or_a_fraction(scalar):
    # 0.1 would scale by its binary expansion, not by 1/10, and a string
    # failed on a missing as_integer_ratio instead of a TypeError
    m = RationalMatrix([[1, 2], [3, 4]])
    for form in (m, m + m):
        with pytest.raises(TypeError, match="unsupported operand|can't multiply"):
            form * scalar
        with pytest.raises(TypeError, match="unsupported operand|can't multiply"):
            scalar * form
    assert m * True == True * m == m and m * Q(1, 2) == Q(1, 2) * m == m.scaled([Q(1, 2)] * 2)


@pytest.mark.parametrize("r, c", [([0.5, 1], None), (None, [1, 0.5]), ([Q(1, 2), 1.0], [1, 1])])
def test_scaled_refuses_a_float_factor(r, c):
    m = RationalMatrix([[1, 2], [3, 4]])
    for form in (m, m + m):
        with pytest.raises(TypeError, match="is a float"):
            form.scaled(r, c)
    assert m.scaled([True, "1/2"], [Q(1, 3), 2]) == RationalMatrix([[Q(1, 3), 4], [Q(1, 2), 4]])


def test_int_entries_become_fractions():
    m = RationalMatrix([[1, 0], [-3, True]])
    assert m.to_strings() == [["1", "0"], ["-3", "1"]]
    ident = RationalMatrix.identity(3)
    for mat in (m, ident, RationalMatrix.zeros(2, 3)):
        assert all(type(x) is Q for i in range(mat.rows) for x in mat.row(i))



@st.composite
def square(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    return [[draw(entries) for _ in range(n)] for _ in range(n)]


# a lower bidiagonal matrix as Z is, and one whose middle column is the sum
# of the outer two
@given(square())
@example([[Q(1, 3), Q(0)], [Q(1), Q(-2, 3)]])
@example([[Q(1), Q(3), Q(2)], [Q(0), Q(1, 2), Q(1, 2)], [Q(5, 7), Q(5, 7), Q(0)]])
@settings(max_examples=200, deadline=None)
def test_inverse_is_the_two_sided_inverse(rows):
    m = RationalMatrix(rows)
    n = m.rows
    if rank(rows) < n:
        with pytest.raises(ValueError, match="singular"):
            inverse(m)
        return
    inv = inverse(m)
    assert m * inv == RationalMatrix.identity(n)
    assert inv * m == RationalMatrix.identity(n)


def test_inverse_rejects_singular_and_non_square():
    with pytest.raises(ValueError, match="singular"):
        inverse(RationalMatrix([[Q(1, 2), Q(1, 3)], [Q(3, 2), Q(1)]]))
    with pytest.raises(ValueError, match="singular"):
        inverse(RationalMatrix.zeros(3))
    with pytest.raises(ValueError, match="square"):
        inverse(RationalMatrix([[Q(1), Q(2)]]))
