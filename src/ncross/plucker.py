"""Quasi-Plucker coordinates.

Left coordinates q^k_ij are attached to a 2 x n matrix (n >= 3 columns);
right coordinates to an n x 2 matrix.  Both admit two equivalent
evaluation forms (through row 1 or row 2, respectively column 1 or
column 2); every call evaluates both forms and cross-checks them, which
doubles as a cheap numerical health monitor.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .errors import RowFormMismatch, agreed
from .scalars import DEFAULT_ATOL, Scalar


class Vec2(NamedTuple):
    """Two ring entries: a column of a 2 x n matrix and an affine point
    (x1, x2) alike.  Points form a right module: ``v.scale(t)`` multiplies
    both entries on the right; ``u + v`` adds pointwise."""

    x1: Scalar
    x2: Scalar

    @property
    def ring(self):
        return self.x1.ring

    def __add__(self, other):
        return Vec2(self.x1 + other.x1, self.x2 + other.x2)

    def scale(self, t: Scalar) -> "Vec2":
        return Vec2(self.x1 * t, self.x2 * t)


def qp_left(columns: Sequence, i: int, j: int, k: int, tol: float = DEFAULT_ATOL) -> Scalar:
    """Left quasi-Plucker coordinate q^k_ij of a 2 x n column family.

    ``columns`` is any sequence of two-entry columns; indices are 0-based.
    i == j and j == k are legal (values 1 and 0); i == k is not."""
    if i == k:
        raise ValueError("qp_left requires i != k")
    a1i, a2i = columns[i]
    a1j, a2j = columns[j]
    a1k, a2k = columns[k]

    def form(top_i, bot_i, top_j, bot_j, top_k, bot_k):
        # boxed entries in the top row of the two 2x2 quasideterminants
        binv = bot_k.inv()
        left = top_i - top_k * (binv * bot_i)
        right = top_j - top_k * (binv * bot_j)
        return left.inv() * right

    return agreed((lambda: form(a1i, a2i, a1j, a2j, a1k, a2k),
                   lambda: form(a2i, a1i, a2j, a1j, a2k, a1k)),
                  tol, RowFormMismatch, f"qp_left k={k},i={i},j={j}")


def qp_right(rows: Sequence, i: int, j: int, k: int, tol: float = DEFAULT_ATOL) -> Scalar:
    """Right quasi-Plucker coordinate q^k_ij of an n x 2 row family.

    ``rows`` is a sequence of two-entry rows; 0-based indices.  The
    column-1 evaluation reads
    (B_i0 - B_i1 B_k1^-1 B_k0)(B_j0 - B_j1 B_k1^-1 B_k0)^-1,
    the transpose-dual of the left coordinate."""
    if i == k:
        raise ValueError("qp_right requires i != k")
    bi = rows[i]
    bj = rows[j]
    bk = rows[k]

    def form(c, d):
        pivot = bk[d].inv() * bk[c]
        left = bi[c] - bi[d] * pivot
        right = bj[c] - bj[d] * pivot
        return left * right.inv()

    return agreed((lambda: form(0, 1), lambda: form(1, 0)),
                  tol, RowFormMismatch, f"qp_right k={k},i={i},j={j}")


def plucker_minor(columns, i: int, k: int) -> Scalar:
    """Commutative Plucker coordinate p_ik = a_1i a_2k - a_1k a_2i."""
    a1i, a2i = columns[i]
    a1k, a2k = columns[k]
    return a1i * a2k - a1k * a2i
