"""Quasi-Plucker coordinates.

Left coordinates q^k_ij are attached to a 2 x n matrix (n >= 3 columns);
right coordinates to an n x 2 matrix.  Both admit two equivalent
evaluation forms (through row 1 or row 2, respectively column 1 or
column 2), which are evaluated and cross-checked; the check doubles as a
cheap numerical health monitor.

``qp_right`` evaluates both forms on every call.  ``qp_left`` does so on
the first call for a triple of ``Vec2`` columns and tolerance; repeats of
that triple are served from a memo keyed on the columns' identity, which
is sound because a ``Vec2`` of scalars is immutable.  Other column types
(lists, plain tuples) are evaluated on every call.
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


#: entries the qp_left memo may hold before it is cleared wholesale; one
#: trial of any suite needs at most 24
MEMO_CAP = 256

#: (id(ci), id(cj), id(ck), tol) -> (ci, cj, ck, value).  An entry holds
#: its columns, so their ids cannot be reused while it lives.
_memo: dict = {}


def qp_left(columns: Sequence, i: int, j: int, k: int, tol: float = DEFAULT_ATOL) -> Scalar:
    """Left quasi-Plucker coordinate q^k_ij of a 2 x n column family.

    ``columns`` is any sequence of two-entry columns; indices are 0-based.
    i == j and j == k are legal (values 1 and 0); i == k is not.  When all
    three columns are ``Vec2``, a successful value is memoised on their
    identity and ``tol``; a call that raises stores nothing."""
    if i == k:
        raise ValueError("qp_left requires i != k")
    ci, cj, ck = columns[i], columns[j], columns[k]
    key = None
    if type(ci) is Vec2 and type(cj) is Vec2 and type(ck) is Vec2:
        key = (id(ci), id(cj), id(ck), tol)
        hit = _memo.get(key)
        if hit is not None:
            return hit[3]
    a1i, a2i = ci
    a1j, a2j = cj
    a1k, a2k = ck

    def form(top_i, bot_i, top_j, bot_j, top_k, bot_k):
        # boxed entries in the top row of the two 2x2 quasideterminants
        binv = bot_k.inv()
        left = top_i - top_k * (binv * bot_i)
        right = top_j - top_k * (binv * bot_j)
        return left.inv() * right

    value = agreed((lambda: form(a1i, a2i, a1j, a2j, a1k, a2k),
                    lambda: form(a2i, a1i, a2j, a1j, a2k, a1k)),
                   tol, RowFormMismatch, f"qp_left k={k},i={i},j={j}")
    if key is not None:
        if len(_memo) >= MEMO_CAP:
            _memo.clear()
        _memo[key] = (ci, cj, ck, value)
    return value


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
