import contextlib
import io
import itertools
import json
import math
import random
import struct
import sys
from fractions import Fraction

import pytest

from ncross import crossratio, errors, plucker, suites
from ncross.errors import RowFormMismatch, UndefinedExpression
from ncross.plucker import Vec2, plucker_minor, qp_left, qp_right
from ncross.cli import main
from ncross.scalars import (COMPLEX, QUATERNION, RATIONAL, Quaternion,
                            RationalScalar, Seed, matrix_ring, sample,
                            scalar_from_json, scalar_to_json)
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
    """Work count of the memo: qp_left reaches its evaluation step
    (``_evaluate``) once per distinct (column identity, tol) triple a trial
    asks for."""
    asked, alive = set(), []
    evaluations = trial = 0
    run_trial = suites._run_trial

    def one_trial(*args):
        nonlocal trial
        trial += 1
        plucker._memo.clear()  # so no clear at the cap lands inside a trial
        return run_trial(*args)

    qp_code, evaluate_code = plucker.qp_left.__code__, plucker._evaluate.__code__

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
        elif frame.f_code is evaluate_code and frame.f_back.f_code is qp_code:
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


# ---------------------------------------------------------------------------
# the quaternion kernel

def outcome(call):
    """The type and IEEE bytes of a call's value, or the class and message
    it raised."""
    try:
        value = call()
    except errors.NCError as e:
        return type(e), str(e)
    if value is None:
        return None
    return type(value), struct.pack("<4d", *value)


def kernel_and_generic(cols, i, j, k, tol):
    """Outcomes of the float kernel and of the generic ``agreed`` route on
    the same entries."""
    args = (*cols[i], *cols[j], *cols[k], i, j, k, tol)
    return (outcome(lambda: plucker._quaternion_rows(*args)),
            outcome(lambda: plucker._ring_rows(*args)))


def random_quaternion(rng):
    scale = 10.0 ** rng.randint(-3, 3)
    return Quaternion(*(scale * rng.uniform(-1.0, 1.0) for _ in range(4)))


def random_columns(rng):
    cols = [Vec2(random_quaternion(rng), random_quaternion(rng))
            for _ in range(3)]
    if rng.random() < 0.2:
        # column k close to column i times a quaternion: the boxed entries
        # nearly vanish, so routes drop out or drift apart
        t, eps = random_quaternion(rng), 10.0 ** -rng.randint(6, 16)
        cols[2] = Vec2(cols[0].x1 * t + random_quaternion(rng).scale(eps),
                       cols[0].x2 * t)
    return cols


def test_kernel_keeps_every_bit_of_the_generic_route():
    rng = random.Random(19)
    seen = set()
    for n in range(2400):
        cols = random_columns(rng)
        i, j, k = ((0, 1, 2), (0, 0, 2), (0, 2, 2), (1, 0, 2))[n % 4]
        tol = rng.choice((1e-9, 1e-12, 1e-15))
        kernel, generic = kernel_and_generic(cols, i, j, k, tol)
        assert kernel == generic, (n, cols, i, j, k, tol)
        seen.add(kernel[0])
    # values, refusals with no route left, and disagreeing routes all occur
    assert {Quaternion, UndefinedExpression, RowFormMismatch} <= seen


q = Quaternion

_A, _B = q(0.3, -0.5, 0.7, 0.2), q(-0.8, 0.1, 0.4, -0.6)
_C, _D = q(0.9, 0.2, -0.3, 0.5), q(0.25, -0.75, 0.5, 0.125)
_NAN, _INF = math.nan, math.inf

#: name -> (columns, tol, whether a squared norm overflows in the kernel)
EDGES = {
    "zero bottom of k": ([(_A, _B), (_C, _D), (_B, q(0.0))], 1e-9, False),
    "zero column k": ([(_A, _B), (_C, _D), (q(0.0), q(0.0))], 1e-9, False),
    "1e-13 bottom of k": ([(_A, _B), (_C, _D), (_C, q(1e-13))], 1e-9, False),
    "1e-13 column k": ([(_A, _B), (_C, _D), (q(1e-13), q(0, 1e-13))],
                       1e-9, False),
    "column k equals column i": ([(_A, _B), (_C, _D), (_A, _B)], 1e-9, False),
    "1e200 in column k": ([(_A, _B), (_C, _D), (_C, q(1e200, 1.0))],
                          1e-9, True),
    "1e200 in column i": ([(q(1e200, 2e200), _B), (_C, _D), (_A, _C)],
                          1e-9, True),
    "1e-160 columns": ([(_A.scale(1e-160), _B.scale(1e-160)),
                        (_C.scale(1e-160), _D.scale(1e-160)),
                        (_B.scale(1e-160), _C.scale(1e-160))], 1e-9, False),
    "1e-160 column j": ([(_A, _B), (_C.scale(1e-160), _D.scale(1e-160)),
                         (_B, _C)], 1e-9, False),
    "NaN in column j": ([(_A, _B), (q(_NAN, 0.1), _D), (_B, _C)], 1e-9, False),
    "NaN bottom of k": ([(_A, _B), (_C, _D), (_B, q(0.2, _NAN))], 1e-9, False),
    "inf bottom of k": ([(_A, _B), (_C, _D), (_B, q(_INF, 0.5))], 1e-9, True),
    # the second form drops out on a NaN, so only the first overflows
    "inf bottom of k, NaN in the other form": (
        [(q(1.0), _A), (_C, _D), (q(1.0), q(_INF, 0.5))], 1e-9, True),
    # each square is finite, their sum is not
    "squares sum past the float range": (
        [(_A, _B), (_C, _D), (_B, q(1e154, 1e154, 1e154, 1e154))], 1e-9, True),
    "-inf in column j": ([(_A, _B), (_C, q(0.1, -_INF)), (_B, _C)],
                         1e-9, False),
    "forced mismatch": ([(_A, _B), (_C, _D), (_B, _C)], 1e-300, False),
}


@pytest.mark.parametrize("name", sorted(EDGES))
def test_edge_columns_keep_the_generic_outcome(name):
    cols, tol, overflows = EDGES[name]
    cols = [Vec2(*c) for c in cols]
    for i, j, k in ((0, 1, 2), (1, 0, 2), (0, 2, 2), (1, 1, 0)):
        if i == k:
            continue
        args = (cols[i], cols[j], cols[k], i, j, k, tol)
        kernel, generic = kernel_and_generic(cols, i, j, k, tol)
        assert outcome(lambda: plucker._evaluate(*args)) == generic
        if kernel is None:
            # the whole call went to the generic path: only a huge entry of
            # a column that is inverted can overflow a squared norm
            assert any(math.isinf(c) or abs(c) > 1e150
                       for entry in (*cols[i], *cols[k]) for c in entry)
            continue
        assert kernel == generic, (i, j, k)
    if overflows:
        assert kernel_and_generic(cols, 0, 1, 2, tol)[0] is None
    if name == "forced mismatch":
        assert generic[0] is RowFormMismatch


def test_kernel_squares_as_quaternion_inv_does():
    """``x ** 2`` and ``x * x`` differ in the last bit for some floats, and
    the kernel must square as ``Quaternion.inv`` does.  With a zero bottom
    entry in column i the first form's boxed entry is column i's top entry
    itself, so such floats reach both of its inverses unchanged."""
    rng = random.Random(3)
    odd = []
    while len(odd) < 16 * 20:
        x = rng.uniform(-1.0, 1.0)
        if x ** 2 != x * x:
            odd.append(x)
    for n in range(20):
        t = [Quaternion(*odd[16 * n + 4 * m:16 * n + 4 * m + 4])
             for m in range(4)]
        cols = [Vec2(t[0], QUATERNION.zero), Vec2(t[1], t[2]),
                Vec2(t[2], t[3])]
        kernel, generic = kernel_and_generic(cols, 0, 1, 2, 1e-9)
        assert kernel == generic and kernel[0] is Quaternion


def test_edge_outcomes_cover_each_branch():
    """The edges reach a dropped route, two dropped routes, a disagreement
    and the overflow hand-off."""
    got = {name: kernel_and_generic([Vec2(*c) for c in cols], 0, 1, 2, tol)
           for name, (cols, tol, _) in EDGES.items()}
    assert got["zero bottom of k"][0][0] is Quaternion
    assert got["zero column k"][0] == (
        UndefinedExpression, "qp_left k=2,i=0,j=1: no route defined "
        "(quaternion norm below threshold; quaternion norm below threshold)")
    assert got["1e-13 column k"][0][0] is UndefinedExpression
    assert got["forced mismatch"][0][0] is RowFormMismatch
    assert got["NaN in column j"][0][0] is RowFormMismatch
    kernel, generic = got["1e200 in column k"]
    assert kernel is None and generic[0] is Quaternion


def test_fresh_quaternion_coordinates_build_no_products(monkeypatch):
    """A memo miss over quaternion entries runs on floats: no
    ``Quaternion.__mul__`` and no ``Quaternion.inv``, for ``Vec2`` and for
    plain tuple columns (a fallback would show up here)."""
    calls = {"__mul__": 0, "inv": 0}
    for name in calls:
        method = getattr(Quaternion, name)

        def counting(*args, name=name, method=method):
            calls[name] += 1
            return method(*args)

        monkeypatch.setattr(Quaternion, name, counting)
    cols = qvecs(5, seed=31)
    plucker._memo.clear()
    values = [qp_left(family, i, j, k)
              for family in (cols, [tuple(c) for c in cols])
              for i, j, k in itertools.permutations(range(5), 3)]
    assert len(values) == 120 and len(plucker._memo) == 60
    assert calls == {"__mul__": 0, "inv": 0}
    plucker._ring_rows(*cols[0], *cols[1], *cols[2], 0, 1, 2, 1e-9)
    assert calls["__mul__"] > 0 and calls["inv"] > 0  # the wrappers count


def compute_qp_left(tmp_path, payload):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["compute", "--op", "qp_left", "--input", str(path)])
    return code, out.getvalue(), err.getvalue()


def test_compute_qp_left_prints_the_generic_bytes(tmp_path, monkeypatch):
    s = [sample(QUATERNION, Seed(19, n)) for n in range(8)]
    zero = scalar_to_json(QUATERNION.zero)
    payloads = [{"matrix": {"entries": [[scalar_to_json(v) for v in s[:4]],
                                        [scalar_to_json(v) for v in s[4:]]]},
                 "i": i, "j": j, "k": k}
                for i, j, k in ((3, 0, 1), (0, 1, 2), (2, 2, 0), (1, 3, 3))]
    payloads.append({"matrix": {"entries": [[scalar_to_json(s[0]), zero,
                                             scalar_to_json(s[1])],
                                            [scalar_to_json(s[2]), zero,
                                             scalar_to_json(s[3])]]},
                     "i": 0, "j": 2, "k": 1})
    fast = [compute_qp_left(tmp_path, p) for p in payloads]
    monkeypatch.setattr(plucker, "_quaternion_rows", lambda *args: None)
    generic = [compute_qp_left(tmp_path, p) for p in payloads]
    assert fast == generic
    assert [code for code, _, _ in fast] == [0, 0, 0, 0, 1]


# ---------------------------------------------------------------------------
# one pivot inverse per row form

def _parent_ring_rows(a1i, a2i, a1j, a2j, a1k, a2k, i, j, k, tol):
    """``_ring_rows`` as it was written when each x-gap inverted its own
    pivot: the reference for the bits of the one-inverse form."""

    def gap(a, b):
        return b[0] - a[0] * (a[1].inv() * b[1])

    def form(ci, cj, ck):
        return gap(ck, ci).inv() * gap(ck, cj)

    return errors.agreed((lambda: form((a1i, a2i), (a1j, a2j), (a1k, a2k)),
                          lambda: form((a2i, a1i), (a2j, a1j), (a2k, a1k))),
                         tol, RowFormMismatch, f"qp_left k={k},i={i},j={j}")


def _outcome_bits(call):
    try:
        return bits(call())
    except errors.NCError as e:
        return type(e), str(e)


PIVOT_RINGS = [COMPLEX, RATIONAL, QUATERNION, matrix_ring(3)]


@pytest.mark.parametrize("ring", PIVOT_RINGS, ids=lambda r: r.name)
def test_one_pivot_inverse_keeps_the_bits(ring):
    zero = ring.zero
    outcomes = set()
    for n in range(200):
        cols = ring_vecs(ring, 3, seed=500 + n)
        if n % 25 == 0:  # a zero pivot in the first row form
            cols[2] = Vec2(cols[2].x1, zero)
        if n % 25 == 1:  # column k a multiple of column i: no gap survives
            cols[2] = Vec2(cols[0].x1 * cols[1].x1, cols[0].x2 * cols[1].x1)
        args = (*cols[0], *cols[1], *cols[2], 0, 1, 2, 1e-9)
        new = _outcome_bits(lambda: plucker._ring_rows(*args))
        assert new == _outcome_bits(lambda: _parent_ring_rows(*args)), n
        outcomes.add(type(new))
    assert str in outcomes and tuple in outcomes


@pytest.mark.parametrize("cls, ring", [("ComplexScalar", COMPLEX),
                                       ("RationalScalar", RATIONAL)])
def test_each_row_form_inverts_its_pivot_once(cls, ring, monkeypatch):
    """Two row forms, each one pivot and one gap inverse: 4 inverses per
    evaluation, where inverting the pivot in each x-gap took 6."""
    from ncross import scalars
    owner = getattr(scalars, cls)
    calls = []
    inv = owner.inv

    def counting(self):
        calls.append(self)
        return inv(self)

    monkeypatch.setattr(owner, "inv", counting)
    for seed in range(10):
        cols = ring_vecs(ring, 3, seed=600 + seed)
        del calls[:]
        plucker._ring_rows(*cols[0], *cols[1], *cols[2], 0, 1, 2, 1e-9)
        assert len(calls) == 4
        del calls[:]
        plucker._gap_memo.clear()  # or the gaps of the first call would hit
        qp_left(cols, 0, 1, 2)  # fresh columns: a memo miss
        assert len(calls) == 4


# ---------------------------------------------------------------------------
# the gap memo

GAP_RINGS = [QUATERNION, matrix_ring(3), COMPLEX, RATIONAL]


def _cold(call):
    """A call's outcome bits with both memos emptied first."""
    plucker._memo.clear()
    plucker._gap_memo.clear()
    return _outcome_bits(call)


@pytest.mark.parametrize("ring", GAP_RINGS, ids=lambda r: r.name)
def test_memoised_gaps_keep_the_cold_bits(ring):
    """Coordinates, angles and gaps that share x-gaps through the memo give
    the bits of a memo-cleared evaluation, and the gaps those of the
    unmemoised formula."""
    for seed in range(5):
        cols = ring_vecs(ring, 4, seed=700 + seed)
        calls = [lambda t=t: qp_left(cols, *t)
                 for t in itertools.permutations(range(4), 3)]
        calls += [lambda t=t: crossratio.nc_angle(*(cols[n] for n in t))
                  for t in itertools.permutations(range(4), 3)]
        calls += [lambda a=a, b=b: plucker.x_gaps(a, b)[0]
                  for a, b in itertools.permutations(cols, 2)]
        cold = [_cold(call) for call in calls]
        plucker._gap_memo.clear()
        for _ in range(2):  # the second pass is served by the memos
            assert [_outcome_bits(call) for call in calls] == cold, seed
        assert cold[-12:] == [
            bits(b[0] - a[0] * (a[1].inv() * b[1]))
            for a, b in itertools.permutations(cols, 2)]


@pytest.mark.parametrize("cls, ring", [("ComplexScalar", COMPLEX),
                                       ("RationalScalar", RATIONAL)])
def test_gap_hit_returns_the_stored_object(cls, ring, monkeypatch):
    """A hit is keyed on the four scalars, whatever holds them, returns the
    stored gap, and inverts no pivot."""
    from ncross import scalars
    owner = getattr(scalars, cls)
    calls = []
    inv = owner.inv

    def counting(self):
        calls.append(self)
        return inv(self)

    monkeypatch.setattr(owner, "inv", counting)
    a, b, c = ring_vecs(ring, 3, seed=710)
    plucker._gap_memo.clear()
    x_ab, x_ac = plucker.x_gaps(a, b, c)
    assert calls == [a.x2]  # one pivot for both misses
    entry = plucker._gap_memo[id(a.x1), id(a.x2), id(b.x1), id(b.x2)]
    assert entry == (a.x1, a.x2, b.x1, b.x2, x_ab) and entry[4] is x_ab
    del calls[:]
    again = plucker.x_gaps(tuple(a), list(c), Vec2(*b))
    assert again[0] is x_ac and again[1] is x_ab
    assert calls == []
    assert plucker.x_gaps(a, c)[0] is x_ac and calls == []
    plucker.x_gaps(b, a, c)
    assert calls == [b.x2]  # a miss inverts its pivot


@pytest.mark.parametrize("ring", GAP_RINGS, ids=lambda r: r.name)
def test_raising_pivot_stores_no_gap(ring):
    a, b, c = ring_vecs(ring, 3, seed=720)
    plucker._gap_memo.clear()
    plucker.x_gaps(c, b)
    stored = dict(plucker._gap_memo)
    singular = Vec2(a.x1, ring.zero)
    first = raised(lambda: plucker.x_gaps(singular, b, c))
    assert raised(lambda: plucker.x_gaps(singular, b, c)) == first
    assert plucker._gap_memo == stored


@pytest.mark.parametrize("ring", GAP_RINGS, ids=lambda r: r.name)
def test_gap_memo_stays_within_its_cap(ring):
    a, b = ring_vecs(ring, 2, seed=730)
    sizes = []
    for _ in range(1000):
        plucker.x_gaps(a, Vec2(b.x1 + ring.one, b.x2))  # a new gap each call
        sizes.append(len(plucker._gap_memo))
    assert max(sizes) == plucker.MEMO_CAP


#: LAPACK inverses, single SVDs and matrix results of matrix(3)
#: plucker-properties, seeds 0-4, 100 trials each, from a cold draw pool and
#: empty memos, with every trial on the scalar path (``suites._run_trial``).
#: Before the gap memo each x-gap was computed afresh: 20,545 inverses and
#: 156,894 results.  Before the Frobenius bound every inverse without a
#: sampled condition number ran an SVD: 20,064 SVDs, and 16,557 inverses,
#: one fewer, since a matrix refused by its condition number is now
#: inverted before the SVD refuses it.
_MATRIX_WORK = {"inv": 16558, "_mat": 125831, "svd": 8007}

#: the same five calls through ``run_suite``, which runs them as lanes:
#: stacked LAPACK inverse calls, the lanes they invert, and the single
#: inverses of the trials replayed on the scalar path; stacked SVD calls,
#: one per lanes draw and one per lanes inverse that leaves an unmasked
#: lane outside the Frobenius bound, and the single SVDs of rejected
#: candidates and of replayed trials' draws and open inverses.  Before the
#: stacked sampling guard every draw ran its own SVD: 8,030 single and 120
#: stacked; before the bound every lanes inverse without sampled condition
#: numbers ran one: 36 single, 32 single inverses and 200 stacked.
_LANES_WORK = {"stacked": 165, "lanes": 16500, "inv": 33, "svd": 13,
               "svd_stacked": 81}


def _counting_lapack(monkeypatch, count):
    """Count the LAPACK inverse and SVD calls of ``ncross.matrix`` into
    ``count``: a single matrix's inverse under "inv", a stack's under
    "stacked" with its lanes under "lanes"; a single matrix's SVD under
    "svd", a stack's under "svd_stacked"."""
    from ncross import matrix
    lapack = matrix._umath_linalg
    svd = matrix._svd

    class CountingLapack:
        def __getattr__(self, name):
            return getattr(lapack, name)

        def inv(self, a, *args, **kwargs):
            if a.ndim == 3:
                count["stacked"] += 1
                count["lanes"] += len(a)
            else:
                count["inv"] += 1
            return lapack.inv(a, *args, **kwargs)

    def counting_svd(a, *args, **kwargs):
        count["svd_stacked" if a.ndim == 3 else "svd"] += 1
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(matrix, "_umath_linalg", CountingLapack())
    monkeypatch.setattr(matrix, "_svd", counting_svd)


def _plucker_matrix_calls():
    return [SuiteConfig("plucker-properties", "matrix", dim=3, trials=100,
                        seed=seed, tol=1e-9) for seed in range(5)]


def test_shared_gaps_cut_the_matrix_work(monkeypatch):
    from ncross import matrix
    count = {"inv": 0, "_mat": 0, "stacked": 0, "lanes": 0, "svd": 0,
             "svd_stacked": 0}
    mat = matrix._mat

    def counting_mat(a):
        count["_mat"] += 1
        return mat(a)

    _counting_lapack(monkeypatch, count)
    monkeypatch.setattr(matrix, "_mat", counting_mat)
    suites.clear_draw_pool()
    plucker.clear_memos()
    spec = suites.SUITES["plucker-properties"]
    ring = matrix_ring(3)
    for cfg in _plucker_matrix_calls():
        for idx in range(cfg.trials):
            suites._run_trial(spec, ring, cfg, idx)
    suites.clear_draw_pool()
    assert count == {**_MATRIX_WORK, "stacked": 0, "lanes": 0,
                     "svd_stacked": 0}


def test_lanes_cut_the_matrix_lapack_calls(monkeypatch):
    count = {"inv": 0, "stacked": 0, "lanes": 0, "svd": 0, "svd_stacked": 0}
    _counting_lapack(monkeypatch, count)
    suites.clear_draw_pool()
    plucker.clear_memos()
    for cfg in _plucker_matrix_calls():
        run_suite(cfg)
    suites.clear_draw_pool()
    assert count == _LANES_WORK
