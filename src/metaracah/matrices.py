"""Dense exact rational matrices and the small linear-algebra kernels we need.

Operator matrices follow the column-action convention: column n holds the
expansion coefficients of (operator applied to basis vector n) over the
standard basis, so composition reads left to right as matrix product.
Band k of a matrix is its entries (i, i + k): RationalMatrix.banded builds
a matrix from its bands, in_band tests its shape and band reads one band.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import Frozen

Q = Fraction
_ZERO = Q(0)


class RationalMatrix(Frozen):
    """Immutable dense matrix over Fraction.

    The result of a product, sum, difference, scaling (``scaled``, which
    scalar multiples use), entrywise product or transpose keeps its integer
    form: integer rows with a scale d_i per row and e_j per column, entry
    (i, j) being rows[i][j] / (d_i e_j).  It writes its Fraction entries
    only when one is first read, so a chain of products, or a residual
    that is only checked for zero or for its nonzero points, stays on
    integers.  Every matrix keeps, from first use, its transpose and the
    integer-scaled forms a product reads of its factors; as no attribute
    can be assigned, none goes stale.  Copies and pickles carry the
    entries only.
    """

    __slots__ = ("rows", "cols", "_e", "_sums", "_t", "_row_scaled", "_col_scaled")
    _fields = ("rows", "cols", "_e")

    def __init__(self, entries):
        rows = tuple(tuple(x if type(x) is Q else Q(x) for x in row) for row in entries)
        if not rows or not rows[0]:
            raise ValueError("matrix must have at least one row and column")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        self._set(len(rows), width, rows, None)

    @classmethod
    def _of(cls, rows: int, cols: int, entries=None, sums=None):
        """The rows x cols result of an operation, unchecked: its entries, a
        tuple of rows as tuples of Fractions, or its integer form
        (integer rows, row scales, column scales)."""
        m = object.__new__(cls)
        m._set(rows, cols, entries, sums)
        return m

    def _set(self, rows, cols, entries, sums):
        # past __setattr__; an integer form leaves _e unset until it is read
        fill = object.__setattr__
        fill(self, "rows", rows)
        fill(self, "cols", cols)
        if entries is not None:
            fill(self, "_e", entries)
        fill(self, "_sums", sums)
        for name in ("_t", "_row_scaled", "_col_scaled"):
            fill(self, name, None)

    def __getattr__(self, name):
        # only an integer form lacks _e: entry (i, j) is sums[i][j] / (d_i e_j)
        if name != "_e":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        sums, ds, es = self._sums
        e = tuple(tuple(Q(s, d * f) if s else _ZERO for s, f in zip(row, es))
                  for d, row in zip(ds, sums))
        object.__setattr__(self, "_e", e)
        return e

    def __getstate__(self):
        return (None, {name: getattr(self, name) for name in self._fields})

    def __setstate__(self, state):
        super().__setstate__(state)
        self._set(self.rows, self.cols, self._e, None)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int | None = None):
        cols = rows if cols is None else cols
        return cls([[0] * cols for _ in range(rows)])

    @classmethod
    def banded(cls, n: int, bands: dict):
        """The n x n matrix whose band k, the entries (i, i + k), holds the
        values bands[k] in order of i, and which is zero off those bands.
        ValueError unless each band has its n - |k| values."""
        rows = [[_ZERO] * n for _ in range(n)]
        for k, values in bands.items():
            values, size = list(values), max(n - abs(k), 0)
            if len(values) != size:
                raise ValueError(f"band {k} of a {n} x {n} matrix needs {size} values,"
                                 f" not {len(values)}")
            for i, x in enumerate(values, max(0, -k)):
                rows[i][i + k] = x
        return cls(rows)

    @classmethod
    def identity(cls, n: int):
        return cls.banded(n, {0: [1] * n})

    @classmethod
    def diagonal(cls, values):
        values = list(values)
        return cls.banded(len(values), {0: values})

    @classmethod
    def from_columns(cls, columns):
        columns = [list(c) for c in columns]
        return cls([[columns[j][i] for j in range(len(columns))] for i in range(len(columns[0]))])

    # -- access ------------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self._e[i][j]

    def row(self, i):
        return self._e[i]

    def column(self, j):
        return tuple(self._e[i][j] for i in range(self.rows))

    @property
    def shape(self):
        return (self.rows, self.cols)

    def to_strings(self):
        """Row-major entries as canonical 'p/q' strings."""
        return [[str(x) for x in row] for row in self._e]

    def reduced(self):
        """This matrix held as its reduced entries alone: a product then
        scales those, not the integer form, whose integers carry the lcm
        of its scales."""
        return self if self._sums is None else RationalMatrix._of(self.rows, self.cols, self._e)

    # -- structure tests ----------------------------------------------------

    def nonzeros(self):
        """(i, j) of each nonzero entry in row-major order, read off the
        integer form where there is one, so no entry is written out."""
        rows = self._e if self._sums is None else self._sums[0]
        return ((i, j) for i, row in enumerate(rows) for j, x in enumerate(row) if x)

    def is_zero(self) -> bool:
        return next(self.nonzeros(), None) is None

    def first_nonzero(self):
        """(i, j, value) of the first nonzero entry in row-major order, or None."""
        for i, j in self.nonzeros():
            return (i, j, self[i, j])
        return None

    def in_band(self, lower: int, upper: int) -> bool:
        """Whether every nonzero entry (i, j) lies on a band k = j - i with
        -lower <= k <= upper: in_band(0, 0) is diagonal, in_band(1, 0) lower
        bidiagonal, in_band(1, 1) tridiagonal.  Read off nonzeros()."""
        return all(-lower <= j - i <= upper for i, j in self.nonzeros())

    def band(self, k: int) -> tuple:
        """Band k, the entries (i, i + k) in order of i; an integer form
        writes out only these entries."""
        span = range(max(0, -k), min(self.rows, self.cols - k))
        if self._sums is None:
            return tuple(self._e[i][i + k] for i in span)
        sums, ds, es = self._sums
        return tuple(Q(s, ds[i] * es[i + k]) if (s := sums[i][i + k]) else _ZERO for i in span)

    # -- arithmetic ----------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, RationalMatrix)
            and self.shape == other.shape
            and self._e == other._e
        )

    def __hash__(self):
        return hash(self._e)

    def __neg__(self):
        return self.scaled([-1] * self.rows)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def _combine(self, other, sign):
        """self + sign * other over the lcm of the two scales of each row
        and of each column."""
        self._check_shape(other)
        (s, d1, e1), (t, d2, e2) = self._form(), other._form()
        ds = [a if a == b else lcm(a, b) for a, b in zip(d1, d2)]
        es = [a if a == b else lcm(a, b) for a, b in zip(e1, e2)]
        g1 = [e // a for e, a in zip(es, e1)]
        g2 = [sign * (e // b) for e, b in zip(es, e2)]
        rows = []
        for d, a, b, ra, rb in zip(ds, d1, d2, s, t):
            f1, f2 = d // a, d // b
            rows.append([x * f1 * p + y * f2 * q if y else x * f1 * p
                         for x, y, p, q in zip(ra, rb, g1, g2)])
        return RationalMatrix._of(self.rows, self.cols, sums=(rows, ds, es))

    def _form(self):
        """The integer form (rows, row scales, column scales): that of a
        result, or else the rows as _scaled gives them, with unit columns."""
        if self._sums is not None:
            return self._sums
        left = self._left()
        return [r for _, r in left], [d for d, _ in left], [1] * self.cols

    def _check_shape(self, other):
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")

    def __mul__(self, other):
        """Matrix product, or entrywise product with a scalar.

        Left rows and right columns are scaled to integers over the lcm of
        their denominators; entry (i, j) is an integer sum over the nonzeros
        of both factors over the two scales, kept as such until an entry is
        read.  Each factor keeps its scaled form, so a matrix is scaled once
        per side, and a result's scaled forms are read off its integer form.
        """
        if isinstance(other, RationalMatrix):
            if self.cols != other.rows:
                raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
            scales, right = other._right()
            left = self._left()
            sums = []
            for _, row in left:
                acc = [0] * other.cols
                for a, nonzeros in zip(row, right):
                    if a:
                        for j, x in nonzeros:
                            acc[j] += a * x
                sums.append(acc)
            return RationalMatrix._of(self.rows, other.cols,
                                      sums=(sums, [d for d, _ in left], scales))
        return self.scaled([other] * self.rows)

    def __rmul__(self, scalar):
        return self.scaled([scalar] * self.rows)

    def scaled(self, r=None, c=None):
        """diag(r) self diag(c), for row factors r and column factors c (None
        for ones), without a product: each factor's numerator multiplies
        the integers of the integer form and its denominator the scale of
        its row or column."""
        s, ds, es = self._form()
        if r is not None:
            r = [x.as_integer_ratio() for x in r]
            s = [[num * x for x in row] for (num, _), row in zip(r, s)]
            ds = [d * den for (_, den), d in zip(r, ds)]
        if c is not None:
            c = [x.as_integer_ratio() for x in c]
            s = [[x * num for x, (num, _) in zip(row, c)] for row in s]
            es = [e * den for (_, den), e in zip(c, es)]
        return RationalMatrix._of(self.rows, self.cols, sums=(s, ds, es))

    def hadamard(self, other):
        """The entrywise product, on the integer forms."""
        self._check_shape(other)
        (s, d1, e1), (t, d2, e2) = self._form(), other._form()
        return RationalMatrix._of(self.rows, self.cols, sums=(
            [[x * y for x, y in zip(a, b)] for a, b in zip(s, t)],
            [a * b for a, b in zip(d1, d2)], [a * b for a, b in zip(e1, e2)]))

    def _left(self):
        """Each row as (d, integers) over a common denominator d, for
        products with self on the left: the rows as _scaled gives them, or
        the integer form's rows over the lcm E of its column scales."""
        if self._row_scaled is None:
            if self._sums is None:
                left = _scaled(self._e)
            else:
                sums, ds, es = self._sums
                E = lcm(*es)
                fs = [E // e for e in es]
                left = [(d * E, [s * f for s, f in zip(row, fs)]) for d, row in zip(ds, sums)]
            object.__setattr__(self, "_row_scaled", left)
        return self._row_scaled

    def _right(self):
        """(column scales, row k as its (j, integer) nonzeros) of the
        column-scaled matrix, for products with self on the right: the
        scaled rows of the transpose, or the integer form's rows over the
        lcm D of its row scales."""
        if self._col_scaled is None:
            if self._sums is None:
                cols = self.transpose()._left()
                right = ([e for e, _ in cols], [[(j, x) for j, x in enumerate(r) if x]
                                                for r in zip(*(c for _, c in cols))])
            else:
                sums, ds, es = self._sums
                D = lcm(*ds)
                right = ([e * D for e in es], [[(j, s * (D // d)) for j, s in enumerate(row) if s]
                                               for d, row in zip(ds, sums)])
            object.__setattr__(self, "_col_scaled", right)
        return self._col_scaled

    def transpose(self):
        """The transpose, built once and in the form this matrix has; its
        transpose is this matrix."""
        if self._t is None:
            if self._sums is None:
                t = RationalMatrix._of(self.cols, self.rows, tuple(zip(*self._e)))
            else:
                sums, ds, es = self._sums
                t = RationalMatrix._of(self.cols, self.rows, sums=(list(zip(*sums)), es, ds))
            object.__setattr__(self, "_t", t)
            object.__setattr__(t, "_t", self)
        return self._t

    def apply(self, vector):
        """Matrix-vector product, vector given as a sequence."""
        vector = list(vector)
        if len(vector) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(dot(row, vector) for row in self._e)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self._e)
        return f"RationalMatrix([{body}])"


def commutator(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    return a * b - b * a


def anticommutator(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    return a * b + b * a


def brackets(a: RationalMatrix, b: RationalMatrix) -> tuple:
    """([a, b], {a, b}) from one product a b and one b a."""
    ab, ba = a * b, b * a
    return ab - ba, ab + ba


def dot(u, v) -> Fraction:
    """Plain bilinear pairing sum_i u_i v_i (no conjugation), as one integer
    inner product over the lcm scales of u and v."""
    (d, a), (e, b) = _scaled((u, v))
    if len(a) != len(b):
        raise ValueError("length mismatch")
    return Q(sum(x * y for x, y in zip(a, b) if y), d * e)


def _scaled(vectors):
    """Each vector v as (d, [d * x for x in v]) with d the lcm of its denominators,
    so the list holds integers: what products, pairings and Bareiss work on."""
    out = []
    for v in vectors:
        ratios = [x.as_integer_ratio() for x in v]
        d = lcm(*(q for _, q in ratios))
        out.append((d, [p * (d // q) for p, q in ratios]))
    return out


# -- elimination kernels -----------------------------------------------------


def nullspace(m: RationalMatrix):
    """Basis of the right kernel, via fraction-free (Bareiss) elimination.

    No suite or command reaches it: the eigenbasis oracle solves each
    kernel along the band.  It stays, with inverse, as the tests' dense
    reference and as a name the benchmark tracer wraps.

    Each row is first scaled to integers by the lcm of its denominators
    (integer numerators, no Fraction arithmetic), then reduced with the
    two-step division-free pivoting rule.  Back substitution runs over
    Fraction and skips the zero entries of each pivot row, which for a
    banded matrix are nearly all of them.  Returns a list of tuples, one
    per free column.
    """
    a = [row for _, row in _scaled(m._e)]
    rows, cols = len(a), len(a[0])
    pivots = []  # (row, col) in echelon order
    prev = 1
    r = 0
    for c in range(cols):
        pivot_row = None
        for i in range(r, rows):
            if a[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                num = a[r][c] * a[i][j] - a[i][c] * a[r][j]
                q, rem = divmod(num, prev)
                if rem:  # Bareiss guarantees exact division
                    raise ArithmeticError("fraction-free elimination lost exactness")
                a[i][j] = q
            a[i][c] = 0
        prev = a[r][c]
        pivots.append((r, c))
        r += 1
        if r == rows:
            break
    pivot_cols = [c for (_, c) in pivots]
    free_cols = [c for c in range(cols) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        v = [Q(0)] * cols
        v[fc] = Q(1)
        for (pr, pc) in reversed(pivots):
            row = a[pr]
            s = sum((row[j] * v[j] for j in range(pc + 1, cols) if row[j]), Q(0))
            v[pc] = -s / row[pc]
        basis.append(tuple(v))
    return basis


def right_divide_lower_bidiagonal(x: RationalMatrix, z: RationalMatrix) -> RationalMatrix:
    """x z^-1 for a lower-bidiagonal z, by back substitution along each row:
    the row y of the result solves y z = row of x, so
    y_j = (x_j - y_(j+1) z_(j+1, j)) / z_jj from j = N down.  ValueError
    when z is not lower bidiagonal or is singular."""
    if z.shape != (x.cols, x.cols) or not z.in_band(1, 0):
        raise ValueError("right division needs a lower-bidiagonal divisor of matching size")
    diag, off = z.band(0), z.band(-1)
    if any(d == 0 for d in diag):
        raise ValueError("matrix is singular")
    out = []
    for row in x._e:
        y = [_ZERO] * len(row)
        y[-1] = row[-1] / diag[-1]
        for j in range(len(row) - 2, -1, -1):
            y[j] = (row[j] - y[j + 1] * off[j]) / diag[j]
        out.append(tuple(y))
    return RationalMatrix._of(x.rows, x.cols, tuple(out))


def inverse(m: RationalMatrix) -> RationalMatrix:
    """Exact inverse, read from the right kernel of [m | -I].

    The kernel vector whose -I block is e_j is (column j of m^-1, e_j).
    When m is singular, one of m's own columns is free in the elimination
    and the -I blocks of the kernel basis are not the identity: ValueError.
    """
    if m.rows != m.cols:
        raise ValueError("inverse needs a square matrix")
    n = m.rows
    kernel = nullspace(RationalMatrix(
        [list(row) + [-1 if i == j else 0 for j in range(n)] for i, row in enumerate(m._e)]
    ))
    if [v[n:] for v in kernel] != [tuple(Q(int(i == j)) for j in range(n)) for i in range(n)]:
        raise ValueError("matrix is singular")
    return RationalMatrix.from_columns(v[:n] for v in kernel)
