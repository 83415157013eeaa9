from fractions import Fraction

import pytest

from ncross.errors import DimensionMismatch, NotInvertible, SubmatrixNotInvertible
from ncross.linalg import quasidet, solve_left
from ncross.scalars import (QUATERNION, RATIONAL, Quaternion, RationalScalar,
                            Seed, sample)


def rmat(rows):
    return [[RationalScalar(Fraction(v)) for v in r] for r in rows]


def test_quasidet_identity():
    assert quasidet(rmat([[1, 0], [0, 1]]), 1, 1).approx_eq(RATIONAL.one)


def test_quasidet_rational_2x2():
    # 1 - 2 * (1/4) * 3 = -1/2 = det/det of the complementary minor
    d = quasidet(rmat([[1, 2], [3, 4]]), 0, 0)
    assert d.approx_eq(RationalScalar(Fraction(-1, 2)))


def test_quasidet_quaternion_cancellation():
    i = Quaternion(0, 1, 0, 0)
    j = Quaternion(0, 0, 1, 0)
    k = Quaternion(0, 0, 0, 1)
    one = QUATERNION.one
    a = [[i, j], [k, one]]
    assert quasidet(a, 0, 0).norm() < 1e-15  # i - j k = 0


def test_quasidet_2x2_all():
    m = rmat([[2, 3], [5, 7]])
    expect = {(0, 0): Fraction(2) - Fraction(3 * 5, 7),
              (0, 1): Fraction(3) - Fraction(2 * 7, 5),
              (1, 0): Fraction(5) - Fraction(7 * 2, 3),
              (1, 1): Fraction(7) - Fraction(5 * 3, 2)}
    for (p, q), want in expect.items():
        assert quasidet(m, p, q).approx_eq(RationalScalar(want))


def test_quasidet_2x2_identity_offdiagonal_fails():
    m = rmat([[1, 0], [0, 1]])
    assert quasidet(m, 0, 0).approx_eq(RATIONAL.one)
    assert quasidet(m, 1, 1).approx_eq(RATIONAL.one)
    for p, q in ((0, 1), (1, 0)):
        with pytest.raises((NotInvertible, SubmatrixNotInvertible)):
            quasidet(m, p, q)


def test_quasidet_commutative_det_ratio():
    # |A|_pq = (-1)^(p+q) det A / det A^pq on a rational 3x3
    import numpy as np
    a = [[2, 3, 5], [7, 11, 13], [17, 19, 23]]
    m = rmat(a)
    an = np.array(a, dtype=float)
    for p in range(3):
        for q in range(3):
            minor = np.delete(np.delete(an, p, axis=0), q, axis=1)
            want = (-1) ** (p + q) * np.linalg.det(an) / np.linalg.det(minor)
            got = quasidet(m, p, q)
            assert abs(float(got.v) - want) < 1e-9


def test_quasidet_heredity_quaternion():
    # expanding the same box after a row/col permutation gives the same value
    rows = [[sample(QUATERNION, Seed(3, 10 * r + c)) for c in range(3)]
            for r in range(3)]
    d = quasidet(rows, 1, 1)
    perm = [rows[0], rows[2], rows[1]]
    # the boxed entry moved to position (2,1)
    d2 = quasidet(perm, 2, 1)
    assert (d - d2).norm() < 1e-12


def test_solve_left_roundtrip():
    rows = [[sample(QUATERNION, Seed(5, 10 * r + c)) for c in range(3)]
            for r in range(3)]
    rhs = [sample(QUATERNION, Seed(6, c)) for c in range(3)]
    x = solve_left(rows, rhs)
    for r in range(3):
        acc = QUATERNION.zero
        for c in range(3):
            acc = acc + rows[r][c] * x[c]
        assert (acc - rhs[r]).norm() < 1e-10


def test_singular_quasidet_raises():
    with pytest.raises((NotInvertible, SubmatrixNotInvertible)):
        quasidet(rmat([[1, 2], [3, 0]]), 0, 0)


@pytest.mark.parametrize("rows", [[[1, 2, 3], [4, 5, 6]], [[1, 2], [3]],
                                  [[1], [2]]])
def test_non_square_refused(rows):
    m = rmat(rows)
    with pytest.raises(DimensionMismatch,
                       match="quasideterminant requires a square matrix"):
        quasidet(m, 0, 0)
    with pytest.raises(DimensionMismatch, match="solve_left needs square A"):
        solve_left(m, [RATIONAL.one] * len(rows))


def test_solve_left_refuses_mismatched_rhs():
    with pytest.raises(DimensionMismatch, match="matching b"):
        solve_left(rmat([[1, 2], [3, 4]]), [RATIONAL.one])
