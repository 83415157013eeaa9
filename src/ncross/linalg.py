"""Matrices over a scalar ring and quasideterminants.

The quasideterminant |A|_pq = a_pq - r_p (A^pq)^-1 c_q replaces the
determinant over a noncommutative ring.  Elimination keeps every product
in its original left-to-right order and pivots on the entry of maximal
norm, the only pivoting strategy available without an order on the ring.
"""

from __future__ import annotations

from typing import Sequence

from .errors import DimensionMismatch, NotInvertible, SubmatrixNotInvertible, UndefinedExpression
from .scalars import Ring, Scalar


class RingMatrix:
    """Dense m x n matrix whose entries live in one scalar ring."""

    def __init__(self, entries: Sequence[Sequence[Scalar]]):
        self.entries = [list(row) for row in entries]
        self.rows = len(self.entries)
        if self.rows == 0:
            raise DimensionMismatch("empty matrix")
        self.cols = len(self.entries[0])
        if any(len(r) != self.cols for r in self.entries):
            raise DimensionMismatch("ragged rows")
        self.ring: Ring = self.entries[0][0].ring

    @classmethod
    def identity(cls, ring: Ring, n: int) -> "RingMatrix":
        return cls(
            [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)]
        )

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def column(self, j):
        return [self.entries[i][j] for i in range(self.rows)]

    def __matmul__(self, other: "RingMatrix") -> "RingMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch("matmul shape mismatch")
        z = self.ring.zero
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = z
                for k in range(self.cols):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            out.append(row)
        return RingMatrix(out)

    def transpose(self) -> "RingMatrix":
        return RingMatrix(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def submatrix(self, drop_row: int, drop_col: int) -> "RingMatrix":
        ents = [
            [e for j, e in enumerate(row) if j != drop_col]
            for i, row in enumerate(self.entries)
            if i != drop_row
        ]
        return RingMatrix(ents)

    def __repr__(self):
        return f"RingMatrix({self.rows}x{self.cols} over {self.ring.name})"


def solve_left(A: RingMatrix, b: Sequence[Scalar]) -> list[Scalar]:
    """Solve A x = b (x multiplied from the right by nothing: entries act on
    x from the left).  Gaussian elimination, max-norm partial pivoting."""
    n = A.rows
    if A.cols != n or len(b) != n:
        raise DimensionMismatch("solve_left needs square A and matching b")
    M = [list(row) for row in A.entries]
    rhs = list(b)
    for k in range(n):
        piv = max(range(k, n), key=lambda i: M[i][k].norm())
        if M[piv][k].norm() == 0.0:
            raise NotInvertible("zero pivot column")
        if piv != k:
            M[k], M[piv] = M[piv], M[k]
            rhs[k], rhs[piv] = rhs[piv], rhs[k]
        try:
            pinv = M[k][k].inv()
        except NotInvertible as e:
            raise NotInvertible(f"pivot not invertible: {e}") from e
        for i in range(k + 1, n):
            factor = M[i][k] * pinv
            for j in range(k, n):
                M[i][j] = M[i][j] - factor * M[k][j]
            rhs[i] = rhs[i] - factor * rhs[k]
    x: list[Scalar] = [A.ring.zero] * n
    for k in range(n - 1, -1, -1):
        acc = rhs[k]
        for j in range(k + 1, n):
            acc = acc - M[k][j] * x[j]
        x[k] = M[k][k].inv() * acc
    return x


def inverse(A: RingMatrix) -> RingMatrix:
    """Right-apply-able inverse: returns X with A @ X = I (and X @ A = I)."""
    n = A.rows
    cols = []
    I = RingMatrix.identity(A.ring, n)
    for j in range(n):
        cols.append(solve_left(A, I.column(j)))
    return RingMatrix([[cols[j][i] for j in range(n)] for i in range(n)])


def quasidet(A: RingMatrix, p: int, q: int) -> Scalar:
    """|A|_pq with 0-based row p and column q.

    For n = 1 the value is the single entry; for n >= 2 it is
    a_pq - r_p (A^pq)^-1 c_q, defined iff A^pq is invertible."""
    n = A.rows
    if A.cols != n:
        raise DimensionMismatch("quasideterminant requires a square matrix")
    if not (0 <= p < n and 0 <= q < n):
        raise IndexError(f"({p},{q}) out of range for {n}x{n}")
    if n == 1:
        return A[0, 0]
    sub = A.submatrix(p, q)
    r_p = [A[p, j] for j in range(n) if j != q]
    c_q = [A[i, q] for i in range(n) if i != p]
    try:
        x = solve_left(sub, c_q)  # x = (A^pq)^-1 c_q
    except NotInvertible as e:
        raise SubmatrixNotInvertible(str(e)) from e
    acc = A.ring.zero
    for rj, xj in zip(r_p, x):
        acc = acc + rj * xj
    return A[p, q] - acc


def quasidet_2x2_all(A: RingMatrix):
    """All four 2x2 quasideterminants; positions whose inversion fails map
    to the raised UndefinedExpression instead of a value."""
    if A.rows != 2 or A.cols != 2:
        raise DimensionMismatch("expected a 2x2 matrix")
    out = {}
    for p in range(2):
        for q in range(2):
            try:
                out[(p, q)] = quasidet(A, p, q)
            except UndefinedExpression as e:
                out[(p, q)] = e
    return out
