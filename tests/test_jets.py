import math

import pytest
from hypothesis import given, settings, strategies as st

from ncross.jets import (Jet, cos_jet, exp_jet, jet_from_function, moebius_jet,
                         sin_jet, tan_jet)
from ncross.scalars import COMPLEX, QUATERNION, RATIONAL, Seed, sample


def qjet(seed, order=4):
    ring = QUATERNION
    return Jet([sample(ring, Seed(seed, k)) for k in range(order + 1)], ring)


def test_constant():
    c = Jet.constant(RATIONAL.from_real(3), 3)
    assert c[0].approx_eq(RATIONAL.from_real(3))
    assert all(v.norm() == 0.0 for v in c.coeffs[1:])


def test_leibniz_product_derivative():
    f, g = qjet(1), qjet(2)
    lhs = (f * g).derivative()
    rhs = f.derivative() * g.truncate(3) + f.truncate(3) * g.derivative()
    for u, v in zip(lhs.coeffs, rhs.coeffs):
        assert (u - v).norm() < 1e-12


def test_inverse_jet():
    f = qjet(3)
    prod = f * f.inv()
    assert (prod[0] - QUATERNION.one).norm() < 1e-12
    assert all(c.norm() < 1e-10 for c in prod.coeffs[1:])


def test_inverse_second_derivative_word():
    # (f^-1)'' = -f^-1 f'' f^-1 + 2 f^-1 f' f^-1 f' f^-1
    f = qjet(4)
    g = f.inv()
    fi = f[0].inv()
    word = -fi * f[2] * fi + 2 * (fi * f[1] * fi * f[1] * fi)
    assert (g[2] - word).norm() < 1e-11


def test_constant_jet_inverse():
    c = QUATERNION.from_real(4.0)
    j = Jet.constant(c, 4).inv()
    assert (j[0] - c.inv()).norm() < 1e-15
    assert all(v.norm() == 0.0 for v in j.coeffs[1:])


def test_named_jets():
    s, c, t = sin_jet(COMPLEX), cos_jet(COMPLEX), tan_jet(COMPLEX)
    assert [round(v.v.real, 10) for v in s.coeffs[:4]] == [0, 1, 0, -1]
    assert [round(v.v.real, 10) for v in c.coeffs[:4]] == [1, 0, -1, 0]
    assert [round(v.v.real, 10) for v in t.coeffs[:4]] == [0, 1, 0, 2]


def test_eval_matches_taylor():
    e = exp_jet(COMPLEX.one, order=8)
    assert abs(e.eval(0.5).v - math.e ** 0.5) < 1e-6


def test_eval_exact_on_rationals():
    from fractions import Fraction
    f = Jet([RATIONAL.from_real(v) for v in (1, 2, 6)], RATIONAL)
    # 1 + 2s + 3s^2 at s = 1/2 -> 1 + 1 + 3/4
    got = f.eval(Fraction(1, 2))
    assert got.approx_eq(RATIONAL.from_real(Fraction(11, 4)))


def test_moebius_identity_and_composition():
    z = qjet(5)
    one, zero = QUATERNION.one, QUATERNION.zero
    m = moebius_jet(one, zero, zero, one, z)
    for u, v in zip(m.coeffs, z.coeffs):
        assert (u - v).norm() < 1e-12


@given(st.integers(0, 30), st.integers(0, 30))
@settings(max_examples=40, deadline=None)
def test_product_associative(s1, s2):
    f, g, h = qjet(s1, 3), qjet(s2, 3), qjet(s1 + s2 + 7, 3)
    lhs = (f * g) * h
    rhs = f * (g * h)
    for u, v in zip(lhs.coeffs, rhs.coeffs):
        assert (u - v).norm() < 1e-9 * (1 + v.norm())
