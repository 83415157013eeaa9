"""Pentagramma mirificum: the classical five-term recurrence, its
noncommutative cross-ratio version with 5-antiperiodicity, multiplicative
five-vector relations, and the leapfrog compatibility predicate."""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .crossratio import cross_ratio, cross_ratio_conj_bar
from .errors import ConsecutiveCoincidence, UndefinedExpression
from .plucker import Vec2, qp_left
from .scalars import DEFAULT_ATOL, Scalar, similar


def classical_pentagram(points: Sequence[Scalar]):
    """Gauss's pentagram values for five affine points on a commutative
    line: y_i = ((p_{i+4}-p_{i+1})(p_{i+3}-p_{i+2})) /
    ((p_{i+4}-p_{i+3})(p_{i+2}-p_{i+1})), indices mod 5.

    Returns (y, residuals) with residuals r_i = |y_i y_{i+1} - 1 - y_{i+3}|;
    all residuals vanish for any admissible configuration."""
    p = list(points)
    if len(p) != 5:
        raise ValueError("need exactly five points")
    one = p[0].ring.one
    for i in range(5):
        if (p[i] - p[(i + 1) % 5]).is_zero(1e-12):
            raise ConsecutiveCoincidence(f"points {i} and {(i + 1) % 5} coincide")
    y = []
    for i in range(5):
        num = (p[(i + 4) % 5] - p[(i + 1) % 5]) * (p[(i + 3) % 5] - p[(i + 2) % 5])
        den = (p[(i + 4) % 5] - p[(i + 3) % 5]) * (p[(i + 2) % 5] - p[(i + 1) % 5])
        y.append(num * den.inv())
    res = tuple(
        (y[i] * y[(i + 1) % 5] - one - y[(i + 3) % 5]).norm() for i in range(5))
    return tuple(y), res


class Pentad(NamedTuple):
    v1: Vec2
    v2: Vec2
    v3: Vec2
    v4: Vec2
    v5: Vec2

    @property
    def ring(self):
        return self.v1.ring


def pentagram_invariants(p: Pentad, tol: float = DEFAULT_ATOL) -> tuple:
    """x_1 ... x_5, each minus a cross-ratio of four of the five vectors."""
    v = list(p)

    def k(a, b, c, d):
        return -cross_ratio(v[a - 1], v[b - 1], v[c - 1], v[d - 1], tol)

    return (k(1, 2, 3, 4), k(5, 2, 3, 1), k(5, 4, 2, 1),
            k(3, 4, 2, 5), k(3, 1, 4, 5))


class PentagramRelations(NamedTuple):
    x: tuple                       # x1..x7 with the double-swap continuation
    residuals: tuple               # five relation residuals
    printed_bar_residuals: tuple   # same relations with the single-swap bar


def pentagram_relations_check(p: Pentad, tol: float = DEFAULT_ATOL) -> PentagramRelations:
    """The five pentagram relations x_a q x_b q' = 1 + x_c.

    The sequence continues past x_5 by the anti-involution that swaps both
    argument pairs of the underlying cross-ratios (x_6, x_7); the residual
    report also carries the swap-first-pair-only reading for comparison —
    only the double swap closes the relations over a commutative ring."""
    v = list(p)
    one = p.ring.one

    def q(k, i, j):
        # labels are 1-based column names
        return qp_left(v, i - 1, j - 1, k - 1, tol)

    x = list(pentagram_invariants(p, tol))

    def kk(a, b, c, d):
        return -cross_ratio(v[a - 1], v[b - 1], v[c - 1], v[d - 1], tol)

    # continuation by the double-swap anti-involution
    x6, x7 = kk(2, 1, 4, 3), kk(2, 5, 1, 3)
    # continuation by swapping only the first pair (the inverse values)
    x6s, x7s = kk(2, 1, 3, 4), kk(2, 5, 3, 1)

    def rels(a6, a7):
        xx = x + [a6, a7]
        lhs = (
            xx[0] * q(1, 3, 2) * xx[2] * q(1, 2, 3),
            xx[3] * q(5, 2, 3) * xx[1] * q(5, 3, 2),
            xx[2] * q(5, 2, 4) * xx[4] * q(5, 4, 2),
            xx[5] * q(3, 4, 2) * xx[3] * q(3, 2, 4),
            xx[4] * q(3, 4, 1) * xx[6] * q(3, 1, 4),
        )
        rhs = (one + xx[1], one + xx[2], one + xx[3], one + xx[4], one + xx[5])
        return tuple((l - r).norm() for l, r in zip(lhs, rhs))

    main = rels(x6, x7)
    printed = rels(x6s, x7s)
    return PentagramRelations(tuple(x) + (x6, x7), main, printed)


class MultiplicativeRelations(NamedTuple):
    residuals: tuple  # the two displayed relations


def multiplicative_relations_check(i: Vec2, j: Vec2, k: Vec2, l: Vec2, m: Vec2,
                                   tol: float = DEFAULT_ATOL) -> MultiplicativeRelations:
    """Two five-vector relations mixing cross-ratios and quasi-Pluecker
    conjugators; redundant over a commutative ring, genuine constraints
    otherwise.  The bar is the double-swap anti-involution."""
    v = [i, j, k, l, m]
    I, J, K, L, M = range(5)

    def q(kk, ii, jj):
        return qp_left(v, ii, jj, kk, tol)

    def kap(a, b, c, d):
        return cross_ratio(v[a], v[b], v[c], v[d], tol)

    def bar(a, b, c, d):
        return cross_ratio_conj_bar(v[a], v[b], v[c], v[d], tol)

    lhs1 = kap(I, J, K, L) * q(I, K, M) * kap(I, K, M, L) * q(I, M, K)
    rhs1 = q(J, K, L) * bar(I, K, M, L) * bar(I, J, K, L) * q(J, L, K)

    lhs2 = (q(L, M, K) * kap(I, J, K, L) * q(L, K, I)
            * kap(L, K, I, M) * q(L, I, M))
    rhs2 = bar(L, K, I, M) * q(K, M, L) * bar(I, J, K, L) * q(K, L, M)

    return MultiplicativeRelations(((lhs1 - rhs1).norm(), (lhs2 - rhs2).norm()))


def leapfrog_compatible(s_prev: Scalar, s: Scalar, s_next: Scalar,
                        s_minus: Scalar, s_plus: Scalar,
                        tol: float = 1e-6) -> bool:
    """True when the two displayed cross-ratios are conjugate, i.e. some
    projective transformation maps (S_{i-1}, S_i, S_{i+1}, S_i^-) to
    (S_{i+1}, S_i, S_{i-1}, S_i^+) in this order."""
    try:
        left = ((s_next - s).inv() * (s_minus - s)
                * (s_minus - s_prev).inv() * (s_next - s_prev))
        right = ((s_prev - s).inv() * (s_plus - s)
                 * (s_plus - s_next).inv() * (s_prev - s_next))
    except UndefinedExpression as e:
        raise UndefinedExpression(f"leapfrog difference not invertible: {e}") from e
    return similar(left, right, tol)
