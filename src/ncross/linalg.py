"""Quasideterminants of matrices over a scalar ring.

A matrix is a sequence of equal-length rows of scalars of one ring.  The
quasideterminant |A|_pq = a_pq - r_p (A^pq)^-1 c_q replaces the
determinant over a noncommutative ring.  Elimination keeps every product
in its original left-to-right order and pivots on the entry of maximal
norm, the only pivoting strategy available without an order on the ring.
"""

from __future__ import annotations

from typing import Sequence

from .errors import DimensionMismatch, NotInvertible, SubmatrixNotInvertible
from .scalars import Scalar


def solve_left(A: Sequence[Sequence[Scalar]], b: Sequence[Scalar]) -> list[Scalar]:
    """Solve A x = b for the rows A (x multiplied from the right by nothing:
    entries act on x from the left).  Gaussian elimination, max-norm
    partial pivoting."""
    n = len(A)
    if any(len(row) != n for row in A) or len(b) != n:
        raise DimensionMismatch("solve_left needs square A and matching b")
    M = [list(row) for row in A]
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
    x = [None] * n
    for k in range(n - 1, -1, -1):
        acc = rhs[k]
        for j in range(k + 1, n):
            acc = acc - M[k][j] * x[j]
        x[k] = M[k][k].inv() * acc
    return x


def quasidet(A: Sequence[Sequence[Scalar]], p: int, q: int) -> Scalar:
    """|A|_pq of the square rows A, with 0-based row p and column q.

    For n = 1 the value is the single entry; for n >= 2 it is
    a_pq - r_p (A^pq)^-1 c_q, defined iff A^pq is invertible."""
    n = len(A)
    if any(len(row) != n for row in A):
        raise DimensionMismatch("quasideterminant requires a square matrix")
    if not (0 <= p < n and 0 <= q < n):
        raise IndexError(f"({p},{q}) out of range for {n}x{n}")
    if n == 1:
        return A[0][0]
    sub = [[e for j, e in enumerate(row) if j != q]
           for i, row in enumerate(A) if i != p]
    r_p = [e for j, e in enumerate(A[p]) if j != q]
    c_q = [row[q] for i, row in enumerate(A) if i != p]
    try:
        x = solve_left(sub, c_q)  # x = (A^pq)^-1 c_q
    except NotInvertible as e:
        raise SubmatrixNotInvertible(str(e)) from e
    acc = A[p][q].ring.zero
    for rj, xj in zip(r_p, x):
        acc = acc + rj * xj
    return A[p][q] - acc
