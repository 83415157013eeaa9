"""Noncommutative cross-ratio, angles, triple ratio and the operator
cross-ratio.

kappa(x, y, z, t) = q^y_zt * q^x_tz over the 2 x 4 matrix with columns
x, y, z, t.  Over a commutative ring this is the classical cross-ratio
((t-y)(z-x)) / ((z-y)(t-x)) of the four affine values.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import NotInvertible, PairMismatch, SymmetryViolation, agree
from .plucker import Vec2, qp_left, x_gaps
from .scalars import DEFAULT_ATOL, Scalar


def cross_ratio(x: Vec2, y: Vec2, z: Vec2, t: Vec2, tol: float = DEFAULT_ATOL) -> Scalar:
    cols = (x, y, z, t)
    # q^y_zt * q^x_tz with column labels x,y,z,t = 0,1,2,3
    return qp_left(cols, 2, 3, 1, tol) * qp_left(cols, 3, 2, 0, tol)


def cross_ratio_bar(x: Vec2, y: Vec2, z: Vec2, t: Vec2, tol: float = DEFAULT_ATOL) -> Scalar:
    """Swap of the first two arguments; equals cross_ratio(...)^-1."""
    return cross_ratio(y, x, z, t, tol)


def cross_ratio_conj_bar(x: Vec2, y: Vec2, z: Vec2, t: Vec2, tol: float = DEFAULT_ATOL) -> Scalar:
    """The anti-involution used by the five-vector relations: both pairs
    swapped, kappa(y, x, t, z).  It is a conjugate of kappa(x, y, z, t)
    and reduces to it in the commutative case."""
    return cross_ratio(y, x, t, z, tol)


def affine_vec2(v: Scalar) -> Vec2:
    """Lift an affine ring value to homogeneous (v, 1)."""
    return Vec2(v, v.ring.one)


# ---------------------------------------------------------------------------
# noncommutative angles


def nc_angle(ai: Vec2, aj: Vec2, ak: Vec2, tol: float = DEFAULT_ATOL) -> Scalar:
    """Noncommutative angle (lambda-length) T_i^jk = x_ji^-1 x_jk x_ik^-1.

    The two argument orders are negatives of each other, T_i^jk = -T_i^kj
    (the commutative reduction makes this exact); both are evaluated and a
    violation of that antisymmetry raises SymmetryViolation."""

    def one(j, k, x_ik):
        x_ji, x_jk = x_gaps(j, ai, k)
        return x_ji.inv() * x_jk * x_ik.inv()

    x_ik, x_ij = x_gaps(ai, ak, aj)
    t1 = one(aj, ak, x_ik)
    t2 = one(ak, aj, x_ij)
    if not agree(t1, -t2, tol):
        raise SymmetryViolation(
            f"angle orders fail antisymmetry by {(t1 + t2).norm():.3g}")
    return t1


# ---------------------------------------------------------------------------
# triple ratio


class TripleRatio(NamedTuple):
    value: Scalar            # closed-form word, exact in any division ring
    paired: Scalar           # p1 p2^-1 a2 a1^-1 from the intersection formulas
    residual: float          # |value - paired|
    naive: Scalar            # closed form valid only over commutative rings
    naive_residual: float    # |naive - paired|


def triple_ratio(x: Scalar, y: Scalar, a1: Scalar, b: Scalar, c: Scalar,
                 tol: float = DEFAULT_ATOL) -> TripleRatio:
    """Triple ratio of the triangle O(0,0), X(x,0), Y(0,y) with A on XY,
    B(b,0), C(0,c).

    ``value`` is a closed-form word for p1 p2^-1 a2 a1^-1 (P the intersection
    of XC and YB); the two must agree in any ring.  ``naive`` is the shorter
    word obtained by commuting factors -- it matches only when the ring is
    commutative, so its residual is reported rather than enforced."""
    one = x.ring.one
    # A on XY: x^-1 a1 + y^-1 a2 = 1
    a2 = y * (one - x.inv() * a1)
    w = y * b.inv() - c * x.inv()
    p1 = (y - c) * w.inv()
    p2 = (x - b) * (b * y.inv() - x * c.inv()).inv()
    paired = p1 * p2.inv() * a2 * a1.inv()
    # w^-1 u = -(1-al)^-1 b y^-1 (1-al) x c^-1 with al = b y^-1 c x^-1,
    # and a2 a1^-1 = y x^-1 (x - a1) a1^-1
    al = b * y.inv() * c * x.inv()
    value = -(
        (y - c) * (one - al).inv() * b * y.inv() * (one - al) * x * c.inv()
        * (x - b).inv() * y * x.inv() * (x - a1) * a1.inv()
    )
    naive = -(
        (y - c) * w.inv() * (x - b).inv() * x * c.inv() * w * b * x.inv()
        * (x - a1) * a1.inv()
    )
    residual = (value - paired).norm()
    if not agree(value, paired, tol):
        raise PairMismatch(f"triple ratio routes differ by {residual:.3g}")
    naive_residual = (naive - paired).norm()
    return TripleRatio(value, paired, residual, naive, naive_residual)


# ---------------------------------------------------------------------------
# operator cross-ratio


class PolarizationQuad(NamedTuple):
    """Graph operators of two polarizing pairs; P1-P2 and Q1-Q2 must be
    invertible (transversality)."""

    P1: Scalar
    P2: Scalar
    Q1: Scalar
    Q2: Scalar


def dv(quad: PolarizationQuad) -> Scalar:
    """Operator cross-ratio (P1-P2)^-1 (P2-Q1) (Q1-Q2)^-1 (Q2-P1)."""
    p1, p2, q1, q2 = quad
    try:
        return (p1 - p2).inv() * (p2 - q1) * (q1 - q2).inv() * (q2 - p1)
    except NotInvertible as e:
        raise NotInvertible(f"transversality failure: {e}") from e

