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

Every evaluation of ``qp_left`` goes through ``_evaluate``.  When all six
entries of the three columns are exactly ``Quaternion``, it runs both row
forms and the agreement test on plain floats (``_quaternion_rows``), in
the operation order of ``Quaternion.__mul__``, ``__sub__``, ``inv`` and
``norm``, so value, refusal and message are bit for bit those of the
generic path; no intermediate scalar is built.  A squared norm that
overflows there sends the whole call to the generic path, which alone
holds ``Quaternion.inv``'s scaled inverse.  Matrix, complex, rational and
mixed entries take the generic path: the ring operators under
``errors.agreed``.

The generic path, ``crossratio.nc_angle`` and the permutation suite build
their values from x-gaps (``x_gaps``), and one trial asks for the same gap
many times: q^k_ij and q^k_il share x_ki.  Each gap is memoised on the
identity of its four scalars, which is sound because every scalar is
immutable; an entry holds its scalars, so no id is reused while it lives.
The gap memo has the ``qp_left`` memo's cap and wholesale clear, and a gap
that raises stores nothing.  A shared matrix gap is also inverted once,
since ``MatScalar`` memoises its inverse.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .errors import (NotInvertible, RowFormMismatch, UndefinedExpression,
                     agree_norms, agreed)
from .scalars import DEFAULT_ATOL, INV_EPS, Quaternion, Scalar, _new


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


#: entries the qp_left memo, and the gap memo, may each hold before it is
#: cleared wholesale; one trial of any suite needs at most 24 coordinates,
#: and one trial of a benchmark suite at most 48 gaps
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
    value = _evaluate(ci, cj, ck, i, j, k, tol)
    if key is not None:
        if len(_memo) >= MEMO_CAP:
            _memo.clear()
        _memo[key] = (ci, cj, ck, value)
    return value


def clear_memos() -> None:
    """Empty the ``qp_left`` memo and the gap memo, releasing what they
    hold."""
    _memo.clear()
    _gap_memo.clear()


def _evaluate(ci, cj, ck, i: int, j: int, k: int, tol: float) -> Scalar:
    """q^k_ij of the columns ci, cj, ck through both row forms, which must
    agree: the one evaluation step of ``qp_left``, memo aside."""
    a1i, a2i = ci
    a1j, a2j = cj
    a1k, a2k = ck
    if (type(a1i) is type(a2i) is type(a1j) is type(a2j) is type(a1k)
            is type(a2k) is Quaternion):
        value = _quaternion_rows(a1i, a2i, a1j, a2j, a1k, a2k, i, j, k, tol)
        if value is not None:
            return value
    return _ring_rows(a1i, a2i, a1j, a2j, a1k, a2k, i, j, k, tol)


#: (id(a1), id(a2), id(b1), id(b2)) -> (a1, a2, b1, b2, x_ab), the gap
#: memo, under the same cap and wholesale clear as ``_memo``.  An entry
#: holds its scalars, so their ids cannot be reused while it lives.
_gap_memo: dict = {}


def x_gaps(a, *bs) -> list:
    """[x_ab for b in bs], x_ab = b_1 - a_1 a_2^-1 b_2 for two-entry
    columns a and b: the boxed top-row entry of the 2 x 2 quasideterminant
    with columns a, b.  Each gap is memoised on the identity of its four
    scalars, which is sound because every scalar is immutable; a_2 is
    inverted once, and only when some gap misses.  A gap that raises
    stores nothing."""
    a1, a2 = a
    gaps = []
    pivot = None
    for b1, b2 in bs:
        key = (id(a1), id(a2), id(b1), id(b2))
        hit = _gap_memo.get(key)
        if hit is None:
            if pivot is None:
                pivot = a2.inv()
            gap = b1 - a1 * (pivot * b2)
            if len(_gap_memo) >= MEMO_CAP:
                _gap_memo.clear()
            _gap_memo[key] = (a1, a2, b1, b2, gap)
        else:
            gap = hit[4]
        gaps.append(gap)
    return gaps


def _ring_rows(a1i, a2i, a1j, a2j, a1k, a2k, i, j, k, tol):
    """The generic evaluation: both row forms x_{k,i}^-1 x_{k,j} (see
    ``x_gaps``), the second with the rows swapped, in the ring's own
    operators, cross-checked by ``agreed``.  Each form inverts its pivot
    at most once, and not at all when both its gaps are memoised."""

    def form(ci, cj, ck):
        left, right = x_gaps(ck, ci, cj)
        return left.inv() * right

    return agreed((lambda: form((a1i, a2i), (a1j, a2j), (a1k, a2k)),
                   lambda: form((a2i, a1i), (a2j, a1j), (a2k, a1k))),
                  tol, RowFormMismatch, f"qp_left k={k},i={i},j={j}")


def _quaternion_rows(a1i, a2i, a1j, a2j, a1k, a2k, i, j, k, tol):
    """``agreed`` over the two row forms, for quaternion entries, on floats.

    Returns the first form's value, or None when a squared norm overflows
    (the caller then takes the generic path); raises what ``agreed`` would.
    """
    try:
        try:
            v1 = _quaternion_form(a1i, a2i, a1j, a2j, a1k, a2k)
        except NotInvertible as err:
            v1, e1 = None, err
        try:
            v2 = _quaternion_form(a2i, a1i, a2j, a1j, a2k, a1k)
        except NotInvertible as err:
            v2, e2 = None, err
    except OverflowError:
        return None
    if v1 is None:
        if v2 is None:
            raise UndefinedExpression(f"qp_left k={k},i={i},j={j}: "
                                      f"no route defined ({e1}; {e2})")
        return _new(Quaternion, v2)
    if v2 is not None:
        a, b, c, d = v1
        e, f, g, h = v2
        diff = Quaternion.norm((a - e, b - f, c - g, d - h))
        if not agree_norms(diff, Quaternion.norm(v1), Quaternion.norm(v2),
                           tol):
            raise RowFormMismatch(f"qp_left k={k},i={i},j={j}: "
                                  f"routes differ by {diff:.3g}")
    return _new(Quaternion, v1)


def _quaternion_form(top_i, bot_i, top_j, bot_j, top_k, bot_k) -> tuple:
    """(t_i - t_k b_k^-1 b_i)^-1 (t_j - t_k b_k^-1 b_j) of quaternion
    entries as a float 4-tuple: ``_ring_rows``'s ``form`` written out, each
    step in the operation order of its ``Quaternion`` method.  Raises
    ``Quaternion.inv``'s NotInvertible, and OverflowError where ``inv``
    would scale instead."""
    # binv = bot_k.inv()
    w, x, y, z = bot_k
    n2 = w ** 2 + x ** 2 + y ** 2 + z ** 2
    if n2 == math.inf:
        raise OverflowError
    if not math.sqrt(n2) >= INV_EPS:
        raise NotInvertible("quaternion norm below threshold")
    a, b, c, d = w / n2, -x / n2, -y / n2, -z / n2
    p, q, r, s = top_k
    # left = top_i - top_k * (binv * bot_i)
    e, f, g, h = bot_i
    m0 = a * e - b * f - c * g - d * h
    m1 = a * f + b * e + c * h - d * g
    m2 = a * g - b * h + c * e + d * f
    m3 = a * h + b * g - c * f + d * e
    w, x, y, z = top_i
    l0 = w - (p * m0 - q * m1 - r * m2 - s * m3)
    l1 = x - (p * m1 + q * m0 + r * m3 - s * m2)
    l2 = y - (p * m2 - q * m3 + r * m0 + s * m1)
    l3 = z - (p * m3 + q * m2 - r * m1 + s * m0)
    # right = top_j - top_k * (binv * bot_j)
    e, f, g, h = bot_j
    m0 = a * e - b * f - c * g - d * h
    m1 = a * f + b * e + c * h - d * g
    m2 = a * g - b * h + c * e + d * f
    m3 = a * h + b * g - c * f + d * e
    w, x, y, z = top_j
    e = w - (p * m0 - q * m1 - r * m2 - s * m3)
    f = x - (p * m1 + q * m0 + r * m3 - s * m2)
    g = y - (p * m2 - q * m3 + r * m0 + s * m1)
    h = z - (p * m3 + q * m2 - r * m1 + s * m0)
    # left.inv() * right
    n2 = l0 ** 2 + l1 ** 2 + l2 ** 2 + l3 ** 2
    if n2 == math.inf:
        raise OverflowError
    if not math.sqrt(n2) >= INV_EPS:
        raise NotInvertible("quaternion norm below threshold")
    a, b, c, d = l0 / n2, -l1 / n2, -l2 / n2, -l3 / n2
    return (a * e - b * f - c * g - d * h,
            a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f,
            a * h + b * g - c * f + d * e)


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
