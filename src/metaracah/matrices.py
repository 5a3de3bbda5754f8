"""Dense exact rational matrices and the small linear-algebra kernels we need.

Operator matrices follow the column-action convention: column n holds the
expansion coefficients of (operator applied to basis vector n) over the
standard basis, so composition reads left to right as matrix product.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

Q = Fraction
_ZERO = Q(0)


class RationalMatrix:
    """Immutable dense matrix over Fraction."""

    __slots__ = ("rows", "cols", "_e")

    def __init__(self, entries):
        rows = tuple(tuple(x if type(x) is Q else Q(x) for x in row) for row in entries)
        if not rows or not rows[0]:
            raise ValueError("matrix must have at least one row and column")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "_e", rows)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int | None = None):
        cols = rows if cols is None else cols
        return cls([[0] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, values):
        values = list(values)
        n = len(values)
        return cls([[values[i] if i == j else 0 for j in range(n)] for i in range(n)])

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

    # -- structure tests ----------------------------------------------------

    def is_zero(self) -> bool:
        return all(x == 0 for row in self._e for x in row)

    def first_nonzero(self):
        """(i, j, value) of the first nonzero entry in row-major order, or None."""
        for i, row in enumerate(self._e):
            for j, x in enumerate(row):
                if x != 0:
                    return (i, j, x)
        return None

    def is_diagonal(self) -> bool:
        return all(x == 0 for i, row in enumerate(self._e) for j, x in enumerate(row) if i != j)

    def is_tridiagonal(self) -> bool:
        return all(
            x == 0 for i, row in enumerate(self._e) for j, x in enumerate(row) if abs(i - j) > 1
        )

    def is_lower_bidiagonal(self) -> bool:
        """Nonzero entries confined to the diagonal and the first subdiagonal."""
        return all(
            x == 0 for i, row in enumerate(self._e) for j, x in enumerate(row) if i - j not in (0, 1)
        )

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
        return RationalMatrix([[-x for x in row] for row in self._e])

    def __add__(self, other):
        self._check_shape(other)
        return RationalMatrix(
            [[a + b if b else a for a, b in zip(ra, rb)] for ra, rb in zip(self._e, other._e)]
        )

    def __sub__(self, other):
        self._check_shape(other)
        return RationalMatrix(
            [[a - b if b else a for a, b in zip(ra, rb)] for ra, rb in zip(self._e, other._e)]
        )

    def _check_shape(self, other):
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")

    def __mul__(self, other):
        """Matrix product, or entrywise product with a scalar.

        Left rows and right columns are scaled to integers over the lcm of
        their denominators; entry (i, j) is an integer sum over the nonzeros
        of both factors over the two scales, one Fraction per nonzero entry.
        """
        if isinstance(other, RationalMatrix):
            if self.cols != other.rows:
                raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
            cols = _scaled(zip(*other._e))
            # row k of the column-scaled right factor, as its (j, integer) nonzeros
            right = [[(j, x) for j, x in enumerate(r) if x] for r in zip(*(c for _, c in cols))]
            out = []
            for d, row in _scaled(self._e):
                acc = [0] * other.cols
                for a, nonzeros in zip(row, right):
                    if a:
                        for j, x in nonzeros:
                            acc[j] += a * x
                out.append([Q(s, d * e) if s else _ZERO for s, (e, _) in zip(acc, cols)])
            return RationalMatrix(out)
        return RationalMatrix([[x * other for x in row] for row in self._e])

    def __rmul__(self, scalar):
        return RationalMatrix([[scalar * x if x else x for x in row] for row in self._e])

    def transpose(self):
        return RationalMatrix(list(zip(*self._e)))

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


def bidiagonal_bands(m: RationalMatrix, lower: bool):
    """(diag, off) of a square m whose nonzero entries lie on the diagonal
    and the subdiagonal (lower) or the superdiagonal, else None.  off[j] is
    entry (j+1, j) when lower and entry (j, j+1) otherwise."""
    side = 1 if lower else -1
    if m.rows != m.cols or any(x != 0 for i, row in enumerate(m._e)
                               for j, x in enumerate(row) if i - j not in (0, side)):
        return None
    e = m._e
    return ([e[j][j] for j in range(m.rows)],
            [e[j + 1][j] if lower else e[j][j + 1] for j in range(m.rows - 1)])


def bidiagonal_kernel(diag, off, lower: bool):
    """The kernel vector of the bidiagonal matrix with bands (diag, off), as
    bidiagonal_bands reads them, when exactly one diagonal entry vanishes;
    None when none or several do.

    With diag[n] = 0 alone, deleting row n and column n leaves a triangular
    matrix with nonzero diagonal, so the kernel is one-dimensional: v_n = 1,
    zero on the side of n that the recurrence leaves behind, and away from
    n along the band, v_j = -off v_(j-1) / diag[j] (lower) or
    v_j = -off v_(j+1) / diag[j] (upper).  O(N) operations, where an
    elimination takes O(N^3).
    """
    zeros = [j for j, x in enumerate(diag) if x == 0]
    if len(zeros) != 1:
        return None
    n = zeros[0]
    v = [_ZERO] * len(diag)
    v[n] = Q(1)
    for j in (range(n + 1, len(diag)) if lower else range(n - 1, -1, -1)):
        prev = j - 1 if lower else j + 1
        v[j] = -off[min(j, prev)] * v[prev] / diag[j]
    return tuple(v)


def right_divide_lower_bidiagonal(x: RationalMatrix, z: RationalMatrix) -> RationalMatrix:
    """x z^-1 for a lower-bidiagonal z, by back substitution along each row:
    the row y of the result solves y z = row of x, so
    y_j = (x_j - y_(j+1) z_(j+1, j)) / z_jj from j = N down.  ValueError
    when z is not lower bidiagonal or is singular."""
    bands = bidiagonal_bands(z, lower=True)
    if bands is None or x.cols != z.rows:
        raise ValueError("right division needs a lower-bidiagonal divisor of matching size")
    diag, off = bands
    if any(d == 0 for d in diag):
        raise ValueError("matrix is singular")
    out = []
    for row in x._e:
        y = [_ZERO] * len(row)
        y[-1] = row[-1] / diag[-1]
        for j in range(len(row) - 2, -1, -1):
            y[j] = (row[j] - y[j + 1] * off[j]) / diag[j]
        out.append(y)
    return RationalMatrix(out)


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
