"""Exact dense linear algebra over the coefficient fields.

A ``Matrix`` holds payloads, and every result is payloads
(``kernel_basis`` lists of them).  Rank, rref and kernel bases come from
one forward pass per payload representation, whose pivots the
descriptor's ``det`` kernel also reads beyond its closed forms.  Over Q
it is fraction-free (Bareiss recurrence on integer-scaled rows) to keep
entries at determinant size; rows that are all ints, as the Riemann-Roch
constraint rows over Q are, go in as they are, and only Fraction rows
are scaled row by row; over finite fields it is ordinary elimination
below each pivot.  rref and kernel bases share one back-substitution to
the reduced form, which is unique, so the choice of forward pass never
shows in their results.  Pivoting is deterministic: the first row with
a nonzero entry, scanning columns left to right, so results are
reproducible across runs.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InputError
from .fields import FieldDescriptor, Rationals


class Matrix:
    """Immutable row-major matrix of payloads over one descriptor."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: FieldDescriptor, rows, ncols: int | None = None):
        data = []
        width = ncols
        for row in rows:
            r = [field.coerce(v) for v in row]
            if width is None:
                width = len(r)
            elif len(r) != width:
                raise InputError("ragged matrix rows")
            data.append(tuple(r))
        self.field = field
        self.rows = tuple(data)
        self.nrows = len(data)
        self.ncols = width if width is not None else 0

    @classmethod
    def _trusted(cls, field: FieldDescriptor, rows, ncols: int) -> "Matrix":
        """Matrix of rows the caller already holds as payloads of field,
        each ncols long: nothing is coerced or checked."""
        mat = cls.__new__(cls)
        mat.field = field
        mat.rows = tuple(map(tuple, rows))
        mat.nrows = len(mat.rows)
        mat.ncols = ncols
        return mat

    def __eq__(self, other):
        return (isinstance(other, Matrix) and other.field == self.field
                and other.rows == self.rows and other.ncols == self.ncols)

    def __hash__(self):
        return hash((self.field, self.rows, self.ncols))

    def __repr__(self):
        return f"Matrix({self.field!r}, {self.nrows}x{self.ncols})"


def _scale_rows_to_int(rows):
    """Clear denominators row by row; preserves rank and kernel.  A row
    of ints, as the Riemann-Roch constraint rows over Q are, is copied
    as it is.

    Returns the integer rows and the product of the row scales, by which
    the determinant grows."""
    out = []
    scale = 1
    for row in rows:
        if all(type(v) is int for v in row):
            out.append(list(row))
            continue
        den = math.lcm(*(v.denominator for v in row))
        scale *= den
        out.append([v.numerator * (den // v.denominator) for v in row])
    return out, scale


def _bareiss_forward(rows):
    """In-place fraction-free elimination on integer rows.

    Returns (pivots, sign, last) where pivots is a list of (row, col) in
    order and last is the last pivot, which is sign * det when the rows
    are square and of full rank.
    """
    n = len(rows)
    m = len(rows[0]) if n else 0
    pivots = []
    sign = 1
    prev = 1
    r = 0
    for c in range(m):
        pr = None
        for i in range(r, n):
            if rows[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            sign = -sign
        piv = rows[r][c]
        for i in range(r + 1, n):
            fi = rows[i]
            fr = rows[r]
            t = fi[c]
            for j in range(c, m):
                fi[j] = (fi[j] * piv - t * fr[j]) // prev
        prev = piv
        pivots.append((r, c))
        r += 1
        if r == n:
            break
    return pivots, sign, prev


def _field_forward(F, rows):
    """In-place elimination below each pivot over a finite field.

    Returns (pivots, product) where product is the signed product of the
    pivots, which is det when the rows are square and of full rank.
    """
    n = len(rows)
    m = len(rows[0]) if n else 0
    pivots = []
    prod = F.pone
    r = 0
    for c in range(m):
        pr = None
        for i in range(r, n):
            if not F.is_zero(rows[i][c]):
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            prod = F.neg(prod)
        piv = rows[r][c]
        prod = F.mul(prod, piv)
        inv = F.inv(piv)
        tail = rows[r][c:]       # rows at and below r are zero left of c
        for i in range(r + 1, n):
            row = rows[i]
            if not F.is_zero(row[c]):
                t = F.mul(row[c], inv)
                row[c:] = F.axpy(row[c:], t, tail)
        pivots.append((r, c))
        r += 1
        if r == n:
            break
    return pivots, prod


def _forward(F, rows):
    """The forward pass for F on a copy of the payload rows.

    Returns (rows, pivots, d): echelon rows (integers over Q), the pivot
    positions in order, and d, the determinant as a payload when the
    rows are square and of full rank.
    """
    if isinstance(F, Rationals):
        rows, scale = _scale_rows_to_int(rows)
        pivots, sign, last = _bareiss_forward(rows)
        return rows, pivots, Fraction(sign * last, scale)
    rows = [list(r) for r in rows]
    pivots, d = _field_forward(F, rows)
    return rows, pivots, d


def _echelon(F, rows):
    """Reduced row echelon form of payload rows with exact arithmetic: the
    forward pass, then back-substitution to unit pivots with zeros above
    them.  Returns (rows, pivots); the rows past the pivots are zero."""
    rows, pivots, _ = _forward(F, rows)
    if isinstance(F, Rationals):
        rows = [[Fraction(v) for v in row] for row in rows]
    for r, c in reversed(pivots):
        inv = F.inv(rows[r][c])
        rows[r][c:] = tail = [F.mul(v, inv) for v in rows[r][c:]]
        for i in range(r):
            row = rows[i]
            t = row[c]
            if not F.is_zero(t):
                row[c:] = F.axpy(row[c:], t, tail)
    return rows, pivots


def rank(mat: Matrix) -> int:
    return len(_forward(mat.field, mat.rows)[1])


def kernel_basis(mat: Matrix):
    """Basis of the right kernel, one vector per free column, in column order.

    The vector for free column j has coordinate 1 at j, zeros at the
    other free columns, and nonzeros only at pivot columns left of j.
    Read right to left, the vectors are therefore the reduced row
    echelon form of the kernel with the columns reversed; rr_basis
    takes its normal form from this.
    """
    F = mat.field
    rows, pivots = _echelon(F, mat.rows)
    pivot_cols = {c for _, c in pivots}
    basis = []
    for j in range(mat.ncols):
        if j in pivot_cols:
            continue
        v = [F.pzero] * mat.ncols
        v[j] = F.pone
        for r, c in pivots:
            v[c] = F.neg(rows[r][j])
        basis.append(v)
    return basis


def rref(mat: Matrix) -> Matrix:
    """Reduced row echelon form with zero rows dropped.

    Unit pivots, zeros above and below each pivot, pivot columns strictly
    increasing down the rows; deterministic for a given input.
    """
    rows, pivots = _echelon(mat.field, mat.rows)
    return Matrix._trusted(mat.field, [rows[r] for r, _ in pivots], mat.ncols)


def linear_combination(F: FieldDescriptor, coeffs, vectors, width: int):
    """sum_i coeffs[i] * vectors[i] over F, as a list of width payloads:
    one inner product per column."""
    if not vectors:
        return [F.pzero] * width
    return [F.dot(coeffs, col) for col in zip(*vectors)]
