from fractions import Fraction

import pytest

from ncross.errors import UndefinedExpression
from ncross.geometry import (barycentric, barycentric_collinear_report,
                             barycentric_reconstruct, ceva_commutative,
                             collinear, collinear_defect, konopelchenko,
                             menelaus_commutative, menelaus_nc, segment_point)
from ncross.plucker import Vec2
from ncross.scalars import (QUATERNION, RATIONAL, RationalScalar, Seed, sample)


def rp(a, b):
    return Vec2(RationalScalar(Fraction(a)), RationalScalar(Fraction(b)))


def qp(seed, k):
    return Vec2(sample(QUATERNION, Seed(seed, 2 * k)),
                  sample(QUATERNION, Seed(seed, 2 * k + 1)))


def test_collinear_basic():
    assert collinear(rp(1, 2), rp(3, 4), rp(2, 3))
    assert not collinear(rp(1, 2), rp(3, 4), rp(0, 5))


def test_collinear_quaternion_construction():
    x, y = qp(1, 0), qp(1, 1)
    lam = sample(QUATERNION, Seed(2, 0))
    one = QUATERNION.one
    z = Vec2(x.x1 * lam + y.x1 * (one - lam), x.x2 * lam + y.x2 * (one - lam))
    assert collinear(x, y, z, tol=1e-8)
    assert collinear_defect(x, y, z).norm() < 1e-10


def test_menelaus_transversal_is_one():
    # triangle (0,0), (4,0), (0,4); transversal cutting the three side lines
    a, b, c = rp(0, 0), rp(4, 0), rp(0, 4)
    # line y = x - 1 meets BC (x+y=4) at (5/2,3/2), CA (x=0) at (0,-1),
    # AB (y=0) at (1,0); feet ordered opposite their vertices
    d, e, f = rp(Fraction(5, 2), Fraction(3, 2)), rp(0, -1), rp(1, 0)
    val = menelaus_commutative(a, b, c, d, e, f)
    assert val.approx_eq(RATIONAL.one)


def test_menelaus_medial_is_minus_one():
    a, b, c = rp(0, 0), rp(4, 0), rp(0, 4)
    d, e, f = rp(2, 2), rp(0, 2), rp(2, 0)  # midpoints, not collinear
    val = menelaus_commutative(a, b, c, d, e, f)
    assert val.approx_eq(RATIONAL.from_real(-1))


def test_menelaus_degenerate_raises():
    a = rp(0, 0)
    with pytest.raises(UndefinedExpression):
        menelaus_commutative(a, rp(4, 0), rp(0, 4), rp(2, 2), rp(0, 2), a)


def test_ceva_medians():
    a, b, c = rp(0, 0), rp(4, 0), rp(0, 4)
    d, e, f = rp(2, 2), rp(0, 2), rp(2, 0)
    assert ceva_commutative(a, b, c, d, e, f).approx_eq(RATIONAL.from_real(-1))


def test_ceva_non_concurrent():
    a, b, c = rp(0, 0), rp(4, 0), rp(0, 4)
    d, e, f = rp(3, 1), rp(0, 2), rp(2, 0)
    assert not ceva_commutative(a, b, c, d, e, f).approx_eq(RATIONAL.from_real(-1))


def test_barycentric_roundtrip():
    a, b, c = rp(0, 0), rp(4, 0), rp(0, 4)
    p = rp(1, 2)
    w = barycentric(p, a, b, c)
    assert (w.t + w.u + w.v).approx_eq(RATIONAL.one)
    rec = barycentric_reconstruct(w, a, b, c)
    assert rec.x1.approx_eq(p.x1) and rec.x2.approx_eq(p.x2)
    wa = barycentric(a, a, b, c)
    assert wa.t.approx_eq(RATIONAL.one) and wa.u.norm() == 0.0


def test_barycentric_centroid():
    a, b, c = rp(0, 0), rp(3, 0), rp(0, 3)
    w = barycentric(rp(1, 1), a, b, c)
    third = RationalScalar(Fraction(1, 3))
    assert w.t.approx_eq(third) and w.u.approx_eq(third) and w.v.approx_eq(third)


def test_barycentric_collinear_detects_lines():
    a, b, c = rp(0, 0), rp(4, 0), rp(0, 4)
    p1, p2, p3 = rp(1, 2), rp(2, 3), rp(3, 4)
    ws = [tuple(barycentric(p, a, b, c)) for p in (p1, p2, p3)]
    assert barycentric_collinear_report(*ws, frame=(a, b, c)).verdict
    w_off = tuple(barycentric(rp(1, 1), a, b, c))
    assert not barycentric_collinear_report(ws[0], ws[1], w_off,
                                            frame=(a, b, c)).verdict


def test_menelaus_nc_collinear_product():
    # quaternion triangle with P, Q, R forced collinear by solving for v
    from ncross.linalg import solve_left
    one = QUATERNION.one
    for trial in range(5):
        a, b, c = (qp(10 + trial, k) for k in range(3))
        t, u = (sample(QUATERNION, Seed(20 + trial, k)) for k in range(2))
        p = segment_point(b, c, t)
        q = segment_point(c, a, u)
        m = [[b.x1 - a.x1, -(q.x1 - p.x1)],
             [b.x2 - a.x2, -(q.x2 - p.x2)]]
        v, _ = solve_left(m, [p.x1 - a.x1, p.x2 - a.x2])
        rep = menelaus_nc(a, b, c, t, u, v)
        assert rep.residual < 1e-8
        assert (rep.parameter_form + one).norm() < 1e-8


def test_menelaus_nc_midpoints_commutative():
    a, b, c = rp(0, 0), rp(4, 0), rp(0, 4)
    half = RationalScalar(Fraction(1, 2))
    rep = menelaus_nc(a, b, c, half, half, half)
    assert rep.parameter_form.approx_eq(RATIONAL.one)


def test_konopelchenko_theta():
    one = RATIONAL.one
    f1, f2, f3 = rp(0, 0), rp(1, 0), rp(0, 1)
    rep = konopelchenko(f1, f2, f3, one, one, RationalScalar(Fraction(-1, 2)))
    assert rep.theta.norm() == 0.0
    assert rep.theta_zero and rep.points_collinear
    rep2 = konopelchenko(f1, f2, f3, one, one, one)
    assert rep2.theta.approx_eq(RATIONAL.from_real(3))
    assert not (rep2.theta_zero or rep2.points_collinear)


def test_segment_point_endpoints():
    u, v = rp(1, 2), rp(5, 6)
    zero, one = RATIONAL.zero, RATIONAL.one
    assert segment_point(u, v, zero).x1.approx_eq(u.x1)
    assert segment_point(u, v, one).x2.approx_eq(v.x2)


def test_one_pair_type_for_columns_and_points():
    u, v = rp(1, 2), rp(5, 6)
    with pytest.raises(AttributeError):
        u.x1 = RATIONAL.one
    assert u + v == rp(6, 8)
    assert u.scale(RationalScalar(3)) == rp(3, 6)
    assert type(segment_point(u, v, RationalScalar(Fraction(1, 4)))) is Vec2
    a, b, c = rp(0, 0), rp(4, 0), rp(0, 4)
    rec = barycentric_reconstruct(barycentric(rp(1, 2), a, b, c), a, b, c)
    assert type(rec) is Vec2 and rec == rp(1, 2)
    one = RATIONAL.one
    rep = konopelchenko(a, b, c, one, one, RationalScalar(Fraction(-1, 2)))
    assert all(type(p) is Vec2 for p in rep.derived_points)
