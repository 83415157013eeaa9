from fractions import Fraction

import pytest

from ncross.errors import ConsecutiveCoincidence, UndefinedExpression
from ncross.pentagram import (Pentad, classical_pentagram, leapfrog_compatible,
                              multiplicative_relations_check,
                              pentagram_invariants, pentagram_relations_check)
from ncross.plucker import Vec2
from ncross.scalars import (QUATERNION, RATIONAL, RationalScalar, Seed, sample)


def rs(v):
    return RationalScalar(Fraction(v))


def qvec(seed, k):
    return Vec2(sample(QUATERNION, Seed(seed, 2 * k)),
                sample(QUATERNION, Seed(seed, 2 * k + 1)))


def qpentad(seed):
    return Pentad(*(qvec(seed, k) for k in range(5)))


def test_classical_5_points():
    y, res = classical_pentagram([rs(v) for v in range(5)])
    expect = [3, Fraction(1, 2), 8, Fraction(1, 2), 3]
    for got, want in zip(y, expect):
        assert got.approx_eq(rs(want))
    assert all(r == 0.0 for r in res)


def test_classical_recurrence_random_rational():
    pts = [rs(v) for v in (0, 2, 5, 11, 17)]
    y, res = classical_pentagram(pts)
    one = RATIONAL.one
    for i in range(5):
        assert (y[i] * y[(i + 1) % 5] - one - y[(i + 3) % 5]).norm() == 0.0


def test_classical_coincidence_raises():
    with pytest.raises(ConsecutiveCoincidence):
        classical_pentagram([rs(v) for v in (0, 1, 1, 3, 4)])


def test_invariants_defined_on_generic_pentad():
    xs = pentagram_invariants(qpentad(1))
    assert len(xs) == 5
    assert all(x.norm() > 0 for x in xs)


def test_invariants_degenerate_pentad():
    p = qpentad(2)
    bad = Pentad(p.v1, p.v2, p.v2, p.v4, p.v5)
    with pytest.raises(UndefinedExpression):
        pentagram_invariants(bad)


def test_five_relations_quaternion():
    rep = pentagram_relations_check(qpentad(3))
    assert max(rep.residuals) < 1e-10
    # the printed single-swap continuation genuinely fails past relation 3
    assert max(rep.printed_bar_residuals[3:]) > 1e-3


def test_five_relations_exact_rational():
    import itertools
    vals = [(1, 2), (3, 5), (7, 11), (2, 9), (5, 3)]
    p = Pentad(*(Vec2(rs(a), rs(b)) for a, b in vals))
    rep = pentagram_relations_check(p)
    assert max(rep.residuals) == 0.0


def test_odd_relations_imply_even():
    # relations 1,3,5 holding forces 2,4 (they all hold on generic pentads)
    rep = pentagram_relations_check(qpentad(4))
    odd = (rep.residuals[0], rep.residuals[2], rep.residuals[4])
    even = (rep.residuals[1], rep.residuals[3])
    assert max(odd) < 1e-10
    assert max(even) < 1e-9


def test_multiplicative_relations():
    vs = [qvec(5, k) for k in range(5)]
    rep = multiplicative_relations_check(*vs)
    assert max(rep.residuals) < 1e-10


def test_leapfrog_rational_compatible_pair():
    # symmetric rational data: s_i^- = s_i^+ works when the configuration
    # is mirror-symmetric about s_i
    sm1, s, sp1 = rs(-1), rs(0), rs(1)
    sminus = rs(3)
    # solve for the compatible s_plus on the rational line:
    # cross-ratio equality pins  s_plus = -3
    assert leapfrog_compatible(sm1, s, sp1, sminus, rs(-3))
    assert not leapfrog_compatible(sm1, s, sp1, sminus, rs(4))


def test_leapfrog_degenerate():
    # s_minus coincides with s_prev: the left word inverts zero
    with pytest.raises(UndefinedExpression):
        leapfrog_compatible(rs(-1), rs(0), rs(1), rs(-1), rs(2))


def test_relations_evaluate_each_conjugator_once(monkeypatch):
    import hashlib

    from ncross import plucker
    evaluated = []
    evaluate = plucker._evaluate

    def counting(ci, cj, ck, i, j, k, tol):
        # an evaluation of qp_left: it got past the memo
        evaluated.append((id(ci), id(cj), id(ck), tol))
        return evaluate(ci, cj, ck, i, j, k, tol)

    monkeypatch.setattr(plucker, "_evaluate", counting)
    digest = hashlib.sha256()
    for seed in range(40):
        plucker._memo.clear()
        evaluated.clear()
        rep = pentagram_relations_check(qpentad(seed))
        # 9 cross-ratios ask for 14 distinct coordinates (x6 and x7 share
        # theirs with x1 and x2), the 10 conjugators for 10 others
        assert len(evaluated) == len(set(evaluated)) == 24
        digest.update(repr([r.hex() for r in rep.residuals
                            + rep.printed_bar_residuals]).encode())
    # the residual bits of the version that evaluated every conjugator twice
    assert digest.hexdigest()[:16] == "15519d1bba498888"
