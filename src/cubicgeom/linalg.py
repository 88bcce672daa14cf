"""Exact matrices over the scalar types of field.py.

Elimination uses the first nonzero entry as pivot, so ranks, kernels and
reduced forms are bit-reproducible.
"""

from __future__ import annotations

from .field import rat, inverse


class ExactMatrix:
    """Dense rows-of-lists matrix of exact scalars."""

    def __init__(self, rows):
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for r in self.rows:
            if len(r) != self.ncols:
                raise ValueError("ragged rows")

    @classmethod
    def identity(cls, n):
        return cls([[rat(1) if i == j else rat(0) for j in range(n)] for i in range(n)])

    def transpose(self):
        return ExactMatrix(list(map(list, zip(*self.rows)))) if self.rows else ExactMatrix([])

    def mul_vec(self, v):
        return [sum((a * x for a, x in zip(row, v) if a and x), rat(0)) for row in self.rows]

    def rref(self):
        """(reduced rows, pivot column list); does not modify self."""
        rows = [list(r) for r in self.rows]
        pivots = []
        row = 0
        for col in range(self.ncols):
            pivot_row = next((r for r in range(row, self.nrows) if rows[r][col]), None)
            if pivot_row is None:
                continue
            rows[row], rows[pivot_row] = rows[pivot_row], rows[row]
            inv = inverse(rows[row][col])
            rows[row] = [x * inv for x in rows[row]]
            for r in range(self.nrows):
                if r != row and rows[r][col]:
                    factor = rows[r][col]
                    rows[r] = [x - factor * y for x, y in zip(rows[r], rows[row])]
            pivots.append(col)
            row += 1
            if row == self.nrows:
                break
        return rows, pivots

    def rank(self):
        return len(self.rref()[1])

    def kernel_basis(self):
        """Vectors spanning the null space, one per free column, in column order."""
        rows, pivots = self.rref()
        pivot_set = set(pivots)
        basis = []
        for free in range(self.ncols):
            if free in pivot_set:
                continue
            v = [rat(0)] * self.ncols
            v[free] = rat(1)
            for i, col in enumerate(pivots):
                v[col] = -rows[i][free]
            basis.append(v)
        return basis

    def det(self):
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        rows = [list(r) for r in self.rows]
        n = self.nrows
        det = rat(1)
        for col in range(n):
            pivot_row = next((r for r in range(col, n) if rows[r][col]), None)
            if pivot_row is None:
                return rat(0)
            if pivot_row != col:
                rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
                det = -det
            det = det * rows[col][col]
            inv = inverse(rows[col][col])
            for r in range(col + 1, n):
                if rows[r][col]:
                    factor = rows[r][col] * inv
                    rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
        return det

    def solve(self, b):
        """One solution of A x = b, or None if inconsistent."""
        aug = ExactMatrix([row + [bi] for row, bi in zip(self.rows, b)])
        rows, pivots = aug.rref()
        if self.ncols in pivots:
            return None
        x = [rat(0)] * self.ncols
        for i, col in enumerate(pivots):
            x[col] = rows[i][self.ncols]
        return x

    def __repr__(self):
        return f"ExactMatrix({self.nrows}x{self.ncols})"


def det3(rows):
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _minors(rows):
    """The 3x3 minors of a 3x4 matrix, without column 0, 1, 2, 3 in turn."""
    for k in range(4):
        yield det3([[row[c] for c in range(4) if c != k] for row in rows])


def signed_minors(rows):
    """v_k = (-1)^k * (the minor of a 3x4 matrix without column k): a vector
    every row annihilates, zero exactly when the rank is below 3.  Entries
    may be scalars or polynomials."""
    return [-m if k % 2 else m for k, m in enumerate(_minors(rows))]


def rank_below_3(rows):
    """Whether a 3x4 matrix has rank below 3, stopping at the first nonzero
    3x3 minor."""
    return not any(_minors(rows))


def det4(m):
    """The determinant of a 4x4 matrix by +, - and * alone: Laplace
    expansion along rows 0 and 1, each 2x2 minor of those rows times the
    complementary minor of rows 2 and 3."""
    total = 0
    for (a, b), (c, d) in _COMPLEMENTS:
        top = m[0][a] * m[1][b] - m[0][b] * m[1][a]
        if top:
            total = total + top * (m[2][c] * m[3][d] - m[2][d] * m[3][c])
    return total


# Column pairs of rows 0-1 with their complements, each complement ordered
# so that its minor carries the Laplace sign (-1)^(1 + a + b).
_COMPLEMENTS = [((0, 1), (2, 3)), ((0, 2), (3, 1)), ((0, 3), (1, 2)),
                ((1, 2), (0, 3)), ((1, 3), (2, 0)), ((2, 3), (0, 1))]


def integral_rank(rows):
    """The rank of a matrix by elimination with +, - and * alone, for
    integers or elements with denominator 1: a row r below the pivot row s
    becomes p*r - r[col]*s, p the pivot, so nothing is divided and no
    denominator appears."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        p = top[col]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            if f:
                rows[i] = [p * x - f * y for x, y in zip(rows[i], top)]
        rank += 1
    return rank


def cross3(u, v):
    return [u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0]]
