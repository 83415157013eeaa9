import json
import sys
from fractions import Fraction

import pytest

from ncross import errors, plucker, suites
from ncross.errors import RowFormMismatch, UndefinedExpression
from ncross.plucker import Vec2, plucker_minor, qp_left, qp_right
from ncross.scalars import (COMPLEX, QUATERNION, RATIONAL, RationalScalar,
                            Seed, matrix_ring, sample, scalar_from_json,
                            scalar_to_json)
from ncross.suites import SuiteConfig, run_suite


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


# ---------------------------------------------------------------------------
# the qp_left memo

MEMO_RINGS = [QUATERNION, matrix_ring(3)]


def ring_vecs(ring, n, seed):
    return [Vec2(sample(ring, Seed(seed, 2 * k)),
                 sample(ring, Seed(seed, 2 * k + 1))) for k in range(n)]


def bits(s):
    return json.dumps(scalar_to_json(s))


def rebuilt(v):
    """A new Vec2 of new scalars with the same bits."""
    return Vec2(*(scalar_from_json(scalar_to_json(x)) for x in v))


def raised(call):
    with pytest.raises(errors.NCError) as info:
        call()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("ring", MEMO_RINGS, ids=lambda r: r.name)
def test_memo_hit_is_the_fresh_value(ring):
    cols = ring_vecs(ring, 3, seed=21)
    first = qp_left(cols, 0, 1, 2)
    assert qp_left(cols, 0, 1, 2) is first
    assert qp_left(tuple(cols), 0, 1, 2) is first  # keyed on the columns
    fresh = qp_left([rebuilt(c) for c in cols], 0, 1, 2)
    assert fresh is not first
    assert bits(fresh) == bits(first)


@pytest.mark.parametrize("ring", MEMO_RINGS, ids=lambda r: r.name)
def test_list_columns_are_evaluated_every_call(ring):
    cols = [list(c) for c in ring_vecs(ring, 3, seed=22)]
    before = qp_left(cols, 0, 1, 2)
    cols[1][0] = cols[1][0] + ring.one
    after = qp_left(cols, 0, 1, 2)
    assert bits(after) != bits(before)
    assert bits(after) == bits(qp_left([Vec2(*c) for c in cols], 0, 1, 2))


@pytest.mark.parametrize("ring", MEMO_RINGS, ids=lambda r: r.name)
def test_raising_calls_are_not_stored(ring):
    a, b = ring_vecs(ring, 2, seed=23)
    zero = Vec2(ring.zero, ring.zero)  # q^k_ij needs entries of column k inverted
    degenerate = raised(lambda: qp_left([a, b, zero], 0, 1, 2))
    assert issubclass(degenerate[0], UndefinedExpression)
    assert raised(lambda: qp_left([a, b, zero], 0, 1, 2)) == degenerate
    # below rounding, the two row forms cannot agree
    cols = ring_vecs(ring, 3, seed=24)
    mismatch = raised(lambda: qp_left(cols, 0, 1, 2, 1e-300))
    assert mismatch[0] is RowFormMismatch
    assert raised(lambda: qp_left(cols, 0, 1, 2, 1e-300)) == mismatch


@pytest.mark.parametrize("ring", MEMO_RINGS, ids=lambda r: r.name)
def test_loose_tol_hit_does_not_hide_tight_mismatch(ring):
    cols = ring_vecs(ring, 3, seed=25)
    loose = qp_left(cols, 0, 1, 2, 1e-9)
    with pytest.raises(RowFormMismatch):
        qp_left(cols, 0, 1, 2, 1e-300)
    assert qp_left(cols, 0, 1, 2, 1e-9) is loose


@pytest.mark.parametrize("ring", MEMO_RINGS, ids=lambda r: r.name)
def test_memo_stays_within_its_cap(ring):
    a, b, c = ring_vecs(ring, 3, seed=26)
    sizes = []
    for _ in range(1000):
        qp_left((Vec2(*a), b, c), 0, 1, 2)  # a new first column each call
        sizes.append(len(plucker._memo))
    assert max(sizes) == plucker.MEMO_CAP


#: the quat-projective benchmark suites that call qp_left (its seventh,
#: konopelchenko, makes no call)
QP_SUITES = ["plucker-properties", "crossratio-cocycles",
             "crossratio-permutations", "pentagram-nc",
             "multiplicative-relations", "menelaus"]


@pytest.mark.parametrize("suite", QP_SUITES)
def test_each_triple_is_evaluated_once_per_trial(suite, monkeypatch):
    """Work count of the memo: qp_left reaches its row forms (``agreed``)
    once per distinct (column identity, tol) triple a trial asks for."""
    asked, alive = set(), []
    evaluations = trial = 0
    run_trial = suites._run_trial

    def one_trial(*args):
        nonlocal trial
        trial += 1
        plucker._memo.clear()  # so no clear at the cap lands inside a trial
        return run_trial(*args)

    qp_code, agreed_code = plucker.qp_left.__code__, errors.agreed.__code__

    def profile(frame, event, arg):
        nonlocal evaluations
        if event != "call":
            return
        if frame.f_code is qp_code:
            f = frame.f_locals
            cols = f["columns"]
            alive.append(cols)  # no id is reused within the count
            asked.add((trial, id(cols[f["i"]]), id(cols[f["j"]]),
                       id(cols[f["k"]]), f["tol"]))
        elif frame.f_code is agreed_code and frame.f_back.f_code is qp_code:
            evaluations += 1

    monkeypatch.setattr(suites, "_run_trial", one_trial)
    sys.setprofile(profile)
    try:
        run_suite(SuiteConfig(suite, "quaternion", trials=20, seed=0))
    finally:
        sys.setprofile(None)
    assert trial == 20
    assert evaluations == len(asked) > 0


@pytest.mark.parametrize("ring", ["quaternion", "complex", "rational"])
def test_menelaus_leaves_the_memo_empty(ring):
    """menelaus lifts its points into fresh columns on every call, which
    could never hit the memo; as plain tuples they store nothing there."""
    plucker._memo.clear()
    report = run_suite(SuiteConfig("menelaus", ring, trials=5, seed=0))
    assert report.trials_run > 0
    assert plucker._memo == {}
