import math

import pytest
from hypothesis import given, settings, strategies as st

from ncross.errors import DimensionMismatch
from ncross.scalars import (COMPLEX, QUATERNION, RATIONAL, MatScalar,
                            Quaternion, RationalScalar, Seed, conjugate_by,
                            matrix_ring, ring_by_name, sample,
                            scalar_from_json, scalar_to_json, similar)

RINGS = [QUATERNION, matrix_ring(3), COMPLEX, RATIONAL]


def test_quaternion_inverse_units():
    one = Quaternion(1, 0, 0, 0)
    i = Quaternion(0, 1, 0, 0)
    assert one.inv().approx_eq(one)
    assert i.inv().approx_eq(Quaternion(0, -1, 0, 0))


def test_matscalar_inverse_2x2():
    a = MatScalar([[1, 2], [3, 4]])
    inv = a.inv()
    expect = MatScalar([[-2, 1], [1.5, -0.5]])
    assert (inv - expect).norm() < 1e-12
    assert (a * inv - MatScalar([[1, 0], [0, 1]])).norm() < 1e-12


def test_conjugation():
    i = Quaternion(0, 1, 0, 0)
    j = Quaternion(0, 0, 1, 0)
    assert conjugate_by(j, QUATERNION.one).approx_eq(j)
    # i j i^-1 = -j
    assert conjugate_by(j, i).approx_eq(Quaternion(0, 0, -1, 0))
    five = RATIONAL.from_real(5)
    assert conjugate_by(five, RATIONAL.from_real(3)).approx_eq(five)


def test_similar():
    i = Quaternion(0, 1, 0, 0)
    j = Quaternion(0, 0, 1, 0)
    assert similar(i, j)
    assert not similar(RATIONAL.from_real(2), RATIONAL.from_real(3))
    mu = sample(QUATERNION, Seed(7, 0))
    b = sample(QUATERNION, Seed(7, 1))
    assert similar(conjugate_by(b, mu), b)


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_sampling_deterministic(ring):
    a = sample(ring, Seed(123, 5))
    b = sample(ring, Seed(123, 5))
    c = sample(ring, Seed(123, 6))
    assert (a - b).norm() == 0.0
    assert (a - c).norm() > 0.0


def test_matrix_sample_condition_bounded():
    import numpy as np
    ring = matrix_ring(3)
    for k in range(50):
        m = sample(ring, Seed(0, k))
        assert np.linalg.cond(m.a) <= 1e4


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_json_roundtrip(ring):
    a = sample(ring, Seed(9, 3))
    b = scalar_from_json(scalar_to_json(a))
    assert (a - b).norm() == 0.0


def test_ring_by_name():
    assert ring_by_name("matrix", 4).dim == 4
    with pytest.raises(ValueError):
        ring_by_name("octonion")


def test_ring_by_name_matrix_dim():
    assert ring_by_name("matrix").dim == 3
    for dim in (0, -1):
        with pytest.raises(DimensionMismatch):
            ring_by_name("matrix", dim)


@pytest.mark.parametrize("obj", [
    {"ring": "quaternion", "coeffs": [1.0, float("nan"), 0.0, 0.0]},
    {"ring": "quaternion", "coeffs": ["inf"]},
    {"ring": "complex", "re": float("-inf")},
    {"ring": "matrix", "entries": [[1.0, {"re": 0.0, "im": float("nan")}],
                                   [0.0, 1.0]]},
])
def test_scalar_from_json_rejects_non_finite(obj):
    with pytest.raises(ValueError, match="non-finite"):
        scalar_from_json(obj)


fracs = st.fractions(min_value=-50, max_value=50, max_denominator=50)


@given(fracs, fracs, fracs)
@settings(max_examples=100, deadline=None)
def test_rational_field_axioms(x, y, z):
    a, b, c = (RationalScalar(v) for v in (x, y, z))
    assert ((a + b) * c).approx_eq(a * c + b * c)
    assert (a * b).approx_eq(b * a)
    if x != 0:
        assert (a * a.inv()).approx_eq(RATIONAL.one)


@given(st.integers(-20, 20), st.integers(-20, 20))
@settings(max_examples=50, deadline=None)
def test_quaternion_norm_multiplicative(p, q):
    a = sample(QUATERNION, Seed(max(p + 21, 0), 0))
    b = sample(QUATERNION, Seed(max(q + 21, 0), 1))
    assert math.isclose((a * b).norm(), a.norm() * b.norm(), rel_tol=1e-12)


def test_scalar_number_coercion():
    a = sample(QUATERNION, Seed(1, 1))
    assert ((3 / 2) * a - a * 1.5).norm() < 1e-15
    r = RATIONAL.from_real(3)
    assert (2 * r).approx_eq(RATIONAL.from_real(6))


def test_mixed_ring_arithmetic_rejected():
    with pytest.raises((DimensionMismatch, TypeError)):
        Quaternion(1) + MatScalar([[1.0]])
