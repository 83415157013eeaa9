from fractions import Fraction

import pytest

from ncross.errors import UndefinedExpression
from ncross.plucker import Vec2, plucker_minor, qp_left, qp_right
from ncross.scalars import (COMPLEX, QUATERNION, RATIONAL, RationalScalar,
                            Seed, sample)


def qvecs(n, seed=0):
    return [Vec2(sample(QUATERNION, Seed(seed, 2 * k)),
                 sample(QUATERNION, Seed(seed, 2 * k + 1))) for k in range(n)]


def rvec(a, b):
    return Vec2(RationalScalar(Fraction(a)), RationalScalar(Fraction(b)))


def test_property_3_specializations():
    a, b, c = qvecs(3, seed=11)
    # j = k -> 0 ; j = i -> 1
    assert qp_left([a, b, c], 0, 1, 1).norm() < 1e-12
    assert (qp_left([a, b, c], 0, 0, 2) - QUATERNION.one).norm() < 1e-12


def test_property_4_inverse_pair():
    a, b, c = qvecs(3, seed=12)
    prod = qp_left([a, b, c], 0, 1, 2) * qp_left([a, b, c], 1, 0, 2)
    assert (prod - QUATERNION.one).norm() < 1e-12


def test_commutative_reduction_to_minor_ratio():
    # q^k_ij = p_jk / p_ik with p the 2x2 minors
    cols = [rvec(1, 2), rvec(3, 5), rvec(7, 11), rvec(2, 9)]
    q = qp_left(cols, 0, 1, 2)
    p_jk = plucker_minor(cols, 1, 2)
    p_ik = plucker_minor(cols, 0, 2)
    assert q.approx_eq(p_jk * p_ik.inv())


def test_right_coordinates_inverse_pair():
    cols = qvecs(3, seed=13)
    rows = [(c.x1, c.x2) for c in cols]
    prod = qp_right(rows, 0, 1, 2) * qp_right(rows, 1, 0, 2)
    assert (prod - QUATERNION.one).norm() < 1e-12


def test_skew_symmetry_in_lower_indices():
    cols = qvecs(3, seed=14)
    q_ij = qp_left(cols, 0, 1, 2)
    q_ji = qp_left(cols, 1, 0, 2)
    assert (q_ij * q_ji - QUATERNION.one).norm() < 1e-12


def test_skew_symmetry_three_cycle():
    cols = qvecs(3, seed=16)
    prod = (qp_left(cols, 0, 1, 2) * qp_left(cols, 1, 2, 0)
            * qp_left(cols, 2, 0, 1))
    assert (prod + QUATERNION.one).norm() < 1e-12


def test_plucker_identity_quaternion():
    cols = qvecs(4, seed=15)
    i, j, k, l = 0, 1, 2, 3
    lhs = (qp_left(cols, i, j, k) * qp_left(cols, j, i, l)
           + qp_left(cols, i, l, k) * qp_left(cols, l, i, j))
    assert (lhs - QUATERNION.one).norm() < 1e-12


def test_degenerate_pair_raises():
    # columns i and k proportional: the boxed entry vanishes in both forms
    with pytest.raises(UndefinedExpression):
        qp_left([rvec(1, 2), rvec(3, 4), rvec(2, 4)], 0, 1, 2)


def test_qp_right_sin_cos_rows():
    import math
    t0 = math.pi / 6
    f1 = (math.sin(t0), math.cos(t0), -math.sin(t0))
    f2 = (math.cos(t0), -math.sin(t0), -math.cos(t0))
    rows = [(COMPLEX.from_real(a), COMPLEX.from_real(b))
            for a, b in zip(f1, f2)]
    a = -qp_right(rows, 2, 1, 0)
    b = -qp_right(rows, 2, 0, 1)
    assert a.norm() < 1e-12
    assert (b - COMPLEX.one).norm() < 1e-12
