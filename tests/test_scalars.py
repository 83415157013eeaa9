import math
import operator
import random
import struct
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncross._stream import Stream
from ncross.matrix import _cond, _set_cond
from ncross.errors import DimensionMismatch, NotInvertible
from ncross.scalars import (COMPLEX, QUATERNION, RATIONAL, ComplexScalar,
                            MatScalar, Quaternion, RationalScalar, Seed,
                            conjugate_by, matrix_ring, ring_by_name, sample,
                            scalar_from_json, scalar_to_json, similar)
from ncross.suites import _STRIDE

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


@pytest.mark.parametrize("kind, obj", [
    ("quaternion", {"coeffs": [1.0, 0.0, float("inf"), 0.0]}),
    ("complex", {"re": float("nan"), "im": 0.0}),
    ("rational", {"num": float("nan"), "den": 2}),
    ("rational", {"num": 1, "den": float("-inf")}),
    ("matrix", {"entries": [[1.0, 0.0], [float("inf"), 1.0]]}),
    ("matrix", {"entries": [[{"re": 1.0, "im": float("nan")}]]}),
])
def test_non_finite_entry_names_its_ring(kind, obj):
    with pytest.raises(ValueError) as e:
        scalar_from_json({"ring": kind, **obj})
    assert str(e.value) == f"non-finite entry in a {kind} scalar"


@pytest.mark.parametrize("obj", [
    {"num": 1.5}, {"num": 1, "den": 2.9}, {"num": -0.5, "den": 3},
    {"num": 2.0, "den": 0.5},
])
def test_rational_refuses_non_integral_float(obj):
    with pytest.raises(ValueError) as e:
        scalar_from_json({"ring": "rational", **obj})
    assert str(e.value) == "non-integral entry in a rational scalar"


def test_rational_accepts_ints_and_integral_floats():
    want = RationalScalar(-3, 4)
    for num, den in ((-3, 4), (-3.0, 4), (-3, 4.0), (-6.0, 8.0)):
        got = scalar_from_json({"ring": "rational", "num": num, "den": den})
        assert got == want
    assert scalar_from_json({"ring": "rational", "num": 5.0}) == RationalScalar(5)


def test_similar_refuses_mixed_rings_and_dims():
    pairs = [(Quaternion(1), MatScalar([[1.0]])),
             (ComplexScalar(1), RationalScalar(1)),
             (MatScalar([[1.0]]), Quaternion(1))]
    for a, b in pairs:
        with pytest.raises(DimensionMismatch) as e:
            similar(a, b)
        assert str(e.value) == "similar: scalars from different rings"
    with pytest.raises(DimensionMismatch) as e:
        similar(MatScalar(np.eye(2)), MatScalar(np.eye(3)))
    assert str(e.value) == "similar: matrix dims differ"


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
    c, r = ComplexScalar(1), RationalScalar(1)
    for op in (operator.add, operator.sub, operator.mul):
        for a, b in ((c, r), (r, c)):
            with pytest.raises(TypeError):
                op(a, b)


def test_quaternion_inv_refuses_nan():
    with pytest.raises(NotInvertible):
        Quaternion(float("nan"), 1.0, 0.0, 0.0).inv()


def test_complex_inv_refuses_nan():
    with pytest.raises(NotInvertible):
        ComplexScalar(complex(float("nan"), 1.0)).inv()


def test_quaternion_sub_is_add_neg():
    zeros = (0.0, -0.0)
    for a in (Quaternion(*zeros, *zeros), Quaternion(*zeros[::-1], *zeros),
              sample(QUATERNION, Seed(3, 0))):
        for b in (Quaternion(*zeros, *zeros[::-1]),
                  Quaternion(*zeros[::-1], *zeros[::-1]),
                  sample(QUATERNION, Seed(3, 1))):
            d, e = a - b, a + (-b)
            parts = [(d.w, e.w), (d.x, e.x), (d.y, e.y), (d.z, e.z)]
            assert all(u == v and math.copysign(1, u) == math.copysign(1, v)
                       for u, v in parts)


def test_number_sub_is_add_neg():
    zeros = [complex(u, v) for u in (0.0, -0.0) for v in (0.0, -0.0)]
    for a in zeros + [sample(COMPLEX, Seed(3, 0)).v]:
        for b in zeros + [sample(COMPLEX, Seed(3, 1)).v]:
            d = ComplexScalar(a) - ComplexScalar(b)
            e = ComplexScalar(a) + (-ComplexScalar(b))
            # == cannot tell signed zeros apart; compare their signs too
            assert d == e and all(
                math.copysign(1, u) == math.copysign(1, v)
                for u, v in ((d.v.real, e.v.real), (d.v.imag, e.v.imag)))
    r, s = sample(RATIONAL, Seed(3, 0)), sample(RATIONAL, Seed(3, 1))
    for a, b in ((r, s), (s, r), (r, r)):
        d = a - b
        assert type(d) is RationalScalar and d == a + (-b)


@pytest.mark.parametrize("ring", [COMPLEX, RATIONAL], ids=lambda r: r.name)
def test_number_equality_is_by_value(ring):
    a, b = sample(ring, Seed(9, 0)), sample(ring, Seed(9, 1))
    for x in (a, b, a * b, ring.one):
        twin = type(x)(x.v)
        assert twin is not x and twin == x and not twin != x
        assert hash(twin) == hash(x)
        assert scalar_from_json(scalar_to_json(x)) == x
    assert a != b and a + b == b + a
    assert len({a, type(a)(a.v), b}) == 2


def test_complex_and_rational_never_equal():
    c, r = ComplexScalar(1), RationalScalar(1)
    assert c == ComplexScalar(1.0) and r == RationalScalar(1)
    assert c != r and r != c and not c == r
    assert c != 1 and r != 1


#: one slot of each scalar class
_SLOT = {Quaternion: "w", MatScalar: "a", ComplexScalar: "v",
         RationalScalar: "v"}


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_scalars_have_no_dict_and_refuse_new_attributes(ring):
    a, b = sample(ring, Seed(6, 0)), sample(ring, Seed(6, 1))
    for r in (a, b, a + b, a - b, -a, a * b, 2 * a, a.inv(), ring.one,
              scalar_from_json(scalar_to_json(a))):
        name = type(r).__name__
        assert not hasattr(r, "__dict__")
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            r.foo = 1
        with pytest.raises(AttributeError):
            object.__setattr__(r, "foo", 1)
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            setattr(r, _SLOT[type(r)], getattr(r, _SLOT[type(r)]))
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            delattr(r, _SLOT[type(r)])


def test_quaternion_results_are_plain_floats_and_immutable():
    q = Quaternion(1, 2, 3, 4)
    assert type(q.w) is float
    for r in (q * q, q + q, q - q, -q, q.inv(), q.conj(), 2 * q,
              sample(QUATERNION, Seed(0, 0))):
        assert type(r) is Quaternion
        assert all(type(v) is float for v in (r.w, r.x, r.y, r.z))
        with pytest.raises(AttributeError):
            r.w = 0.0


def test_quaternion_api_lock():
    """A Quaternion keeps the API of a scalar, whatever stores its floats."""
    q = Quaternion(1, 2, 3, 4)
    t = (1.0, 2.0, 3.0, 4.0)
    for a, b in ((q, t), (t, q), (q, [1.0, 2.0, 3.0, 4.0]), (q, 1.0)):
        assert not a == b and a != b
    assert q == Quaternion(1.0, 2.0, 3.0, 4.0) and not q != Quaternion(1, 2, 3, 4)
    assert q != Quaternion(1, 2, 3, 5) and not q == Quaternion(1, 2, 3, 5)
    for op in (operator.lt, operator.le, operator.gt, operator.ge):
        for a, b in ((q, q), (q, t), (t, q)):
            with pytest.raises(TypeError):
                op(a, b)
    with pytest.raises(TypeError):
        sorted([q, -q])
    for a, b in ((q, t), (t, q), (q, 1), (1, q)):
        with pytest.raises(TypeError):
            a + b
    for name in "wxyz":
        with pytest.raises(AttributeError):
            setattr(q, name, 0.0)
        with pytest.raises(AttributeError):
            object.__setattr__(q, name, 0.0)
    assert (q.w, q.x, q.y, q.z) == t
    assert q.to_json() == {"ring": "quaternion", "coeffs": [1.0, 2.0, 3.0, 4.0]}
    assert all(type(v) is float for v in q.to_json()["coeffs"])
    assert hash(q) == hash(t)
    assert repr(q) == "Quaternion(1, 2, 3, 4)"


# ---------------------------------------------------------------------------
# the sampling stream against numpy, its definition


def _rng(seed, counter):
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(counter,))
    return np.random.Generator(np.random.PCG64(ss))


def test_stream_matches_numpy():
    r = random.Random(20190503)
    cases = [(r.randrange(2 ** 31), r.randrange(2 ** 31)) for _ in range(300)]
    cases += [(7, 2 ** 32), (7, 2 ** 40 + 3), (2 ** 32, 5),
              (2 ** 70 + 1, 2 ** 33 + 9), (2 ** 200, 0)]
    # the written-out first counter word and the words past it
    cases += [(0, 2 ** 32 - 1), (7, 2 ** 32 - 1), (0, 2 ** 32),
              (3, 2 ** 64 - 1), (3, 2 ** 64)]
    # a seed of four words exactly fills the pool, a fifth is mixed in
    cases += [(2 ** 128 - 1, 0), (2 ** 128 - 1, 2 ** 32 - 1),
              (2 ** 128, 0), (2 ** 128, 2 ** 32 + 5)]
    # seeds of 16 and 40 words: their counter's hash steps lie past the
    # 64 tabulated ones, so _HASH_A grows
    cases += [(2 ** 512 - 1, 11), (2 ** 1279 + 2 ** 600 + 1, 2 ** 64 + 1)]
    for seed, counter in cases:
        ref, got = _rng(seed, counter), Stream(seed, counter)
        assert got.uniform(4) == ref.uniform(-1.0, 1.0, size=4).tolist()
        assert got.uniform(9) == ref.uniform(-1.0, 1.0, size=(3, 3)).ravel(
        ).tolist()
        assert ([got.integers(-256, 257) for _ in range(7)]
                == [int(ref.integers(-256, 257)) for _ in range(7)])


def test_stream_rejects_negative_seed_and_counter():
    for seed, counter in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError):
            Stream(seed, counter)


#: each ring's draw built on numpy's Generator: the definition that
#: ``Ring.sample`` must reproduce
_NUMPY_DRAW = {
    "quaternion": lambda rng: Quaternion(*rng.uniform(-1.0, 1.0, size=4)),
    "matrix(3)": lambda rng: MatScalar(rng.uniform(-1.0, 1.0, size=(3, 3))),
    "complex": lambda rng: ComplexScalar(
        complex(*rng.uniform(-1.0, 1.0, size=2))),
    "rational": lambda rng: RationalScalar(int(rng.integers(-256, 257)), 256),
}

#: counters at seed 5 whose first candidate fails the ring's guard (found by
#: a search over counters 0..20000): ill-conditioned matrices (cond > 1e4),
#: complex draws of modulus below 0.1, rationals k/256 with |k| < 26
_REJECTED_FIRST = {"matrix(3)": (4388, 5004, 7868),
                   "complex": (315, 450, 499), "rational": (1, 11, 15)}


def _numpy_sample(ring, seed):
    rng = _rng(seed.seed, seed.counter)
    while True:
        cand = _NUMPY_DRAW[ring.name](rng)
        if ring._guard(cand):
            return cand


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_sample_matches_numpy_path(ring):
    seeds = [Seed(s, c) for s in (0, 1, 2 ** 33) for c in range(40)]
    # the counters a suite draws from, trial * _STRIDE + k, up to and past
    # the first counter word (2**32 falls between trials 42949 and 42950)
    seeds += [Seed(s, trial * _STRIDE + k) for s in (0, 9)
              for trial in (1, 999, 42949, 42950) for k in range(12)]
    rejected = _REJECTED_FIRST.get(ring.name, ())
    for c in rejected:
        first = _NUMPY_DRAW[ring.name](_rng(5, c))
        assert not ring._guard(first)
        seeds.append(Seed(5, c))
    for seed in seeds:
        assert (scalar_to_json(sample(ring, seed))
                == scalar_to_json(_numpy_sample(ring, seed)))


# ---------------------------------------------------------------------------
# MatScalar.inv: the memoised inverse against the cond + solve + residual
# formula it replaced


def _old_inv(m, cond_max=1e8, tol=1e-6):
    """The inverse as computed before memoisation: ``np.linalg.cond``,
    ``solve`` against the identity, then the residual check."""
    try:
        cond = np.linalg.cond(m.a)
    except np.linalg.LinAlgError:
        raise NotInvertible("condition estimate failed")
    if not np.isfinite(cond) or cond > cond_max:
        raise NotInvertible(f"condition {cond:.3g} exceeds {cond_max:.3g}")
    x = np.linalg.solve(m.a, np.eye(m.dim))
    resid = np.linalg.norm(m.a @ x - np.eye(m.dim))
    if resid > tol:
        raise NotInvertible(f"solve residual {resid:.3g}")
    return x


def _outcome(fn, *args):
    """The result's bytes, or the exception's class and message."""
    try:
        r = fn(*args)
    except Exception as e:  # noqa: BLE001 - the class is what is compared
        return type(e), str(e)
    return r.a.tobytes() if isinstance(r, MatScalar) else r.tobytes()


def _assert_inv_matches_old(m):
    old = _outcome(_old_inv, m)
    assert _outcome(m.inv) == old
    assert _outcome(m.inv) == old  # again, from the memo


def test_matscalar_inv_matches_old_formula_on_samples():
    ring = matrix_ring(3)
    ms = [sample(ring, Seed(s, c)) for s in (0, 11) for c in range(1000)]
    for m in ms:
        assert m._cond == np.linalg.cond(m.a)  # the guard's, kept
        _assert_inv_matches_old(m)


def test_matscalar_inv_matches_old_formula_on_derived():
    ring = matrix_ring(3)
    xs = [sample(ring, Seed(23, c)) for c in range(1000)]
    derived = []
    for a, b in zip(xs, xs[1:] + xs[:1]):
        derived += [a - b, a * b, a + b, -a, a - a, a * (a - a),
                    MatScalar(a.a.real)]
    assert len(derived) >= 2000
    for m in derived:
        _assert_inv_matches_old(m)


def test_matscalar_inv_matches_old_formula_inside_qp_left(monkeypatch):
    from ncross.errors import UndefinedExpression
    from ncross.plucker import Vec2, qp_left
    seen = []
    inv = MatScalar.inv

    def recording(self, *args, **kwargs):
        seen.append(self)
        return inv(self, *args, **kwargs)

    monkeypatch.setattr(MatScalar, "inv", recording)
    ring = matrix_ring(3)
    for c in range(0, 2000, 8):
        cols = [Vec2(sample(ring, Seed(31, c + 2 * j)),
                     sample(ring, Seed(31, c + 2 * j + 1))) for j in range(4)]
        for i, j, k in ((0, 1, 2), (1, 3, 0), (2, 2, 1)):
            try:
                qp_left(cols, i, j, k)
            except UndefinedExpression:
                pass
    monkeypatch.undo()
    assert len(seen) >= 2000
    for m in seen:
        _assert_inv_matches_old(m)


#: matrices that ``inv()`` refuses, by name
_REFUSED = {
    "zero": [[0.0, 0.0], [0.0, 0.0]],
    "signed-zero": [[-0.0, 0.0], [0.0, -0.0]],
    "rank-1": [[1.0, 2.0], [2.0, 4.0]],
    "cond-1e9": [[1.0, 0.0], [0.0, 1e-9]],
    "cond-overflow": [[1e300, 0.0], [0.0, 1e-300]],
    "nan-entry": [[1.0, 0.0], [0.0, float("nan")]],
    "all-nan": [[float("nan")] * 2] * 2,
    "inf-entry": [[float("inf"), 0.0], [0.0, 1.0]],
    "minus-inf": [[1.0, float("-inf")], [0.0, 1.0]],
    "empty": np.zeros((0, 0)),
}


@pytest.mark.parametrize("entries", _REFUSED.values(), ids=_REFUSED.keys())
def test_matscalar_inv_refusals_match_old_formula(entries):
    m = MatScalar(entries)
    old = _outcome(_old_inv, m)
    assert old[0] is NotInvertible
    _assert_inv_matches_old(m)


def test_matscalar_inv_is_memoised():
    m = sample(matrix_ring(3), Seed(4, 0))
    assert m.inv() is m.inv()
    d = m - sample(matrix_ring(3), Seed(4, 1))
    assert d.inv() is d.inv()
    assert m.inv().inv() is not m  # no back-reference


def test_matscalar_slots_refuse_setattr():
    m = sample(matrix_ring(3), Seed(4, 4))
    m.inv()
    for name, value in (("a", np.eye(3)), ("_inv", m), ("_cond", 1.0)):
        with pytest.raises(AttributeError):
            setattr(m, name, value)


def test_matscalar_results_are_read_only():
    ring = matrix_ring(3)
    a, b = sample(ring, Seed(8, 0)), sample(ring, Seed(8, 1))
    for r in (a + b, a - b, -a, a * b, 2 * a, a * 2.5, a.inv(),
              ring.one, MatScalar([[1, 2], [3, 4]])):
        assert type(r) is MatScalar and r.a.dtype == complex
        assert not r.a.flags.writeable
        with pytest.raises(ValueError):
            r.a[0, 0] = 7.0


def test_matscalar_copies_its_entries():
    arr = np.eye(2, dtype=complex)
    m = MatScalar(arr)
    assert arr.flags.writeable and m.a is not arr
    arr[0, 0] = 5.0
    assert m.a[0, 0] == 1.0


def test_matscalar_sub_is_add_neg():
    z = MatScalar([[0.0, -0.0], [complex(-0.0, 0.0), complex(0.0, -0.0)]])
    w = MatScalar([[-0.0, 0.0], [complex(0.0, -0.0), complex(-0.0, -0.0)]])
    s = sample(matrix_ring(2), Seed(2, 0))
    for a in (z, w, s):
        for b in (z, w, s):
            assert (a - b).a.tobytes() == (a + (-b)).a.tobytes()


def test_matrix_guard_propagates_svd_failure():
    with pytest.raises(np.linalg.LinAlgError):
        matrix_ring(2)._guard(MatScalar([[float("nan"), 0.0], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# the ring's direct LAPACK calls against numpy's public functions, bit for bit

#: the refused matrices, a huge and a tiny invertible one, signed-zero
#: imaginary parts and three 1 x 1 matrices
_EDGES = [MatScalar(e) for e in _REFUSED.values()] + [
    MatScalar(e) for e in (
        [[1e300, 1e300], [0.0, 1e300]],
        [[1e-300, 0.0], [-1e-300, 1e-300]],
        [[complex(1.0, -0.0), complex(-0.0, 2.0)], [0.0, 1.0]],
        [[2.0]], [[complex(0.0, -3.0)]], [[-0.0]])]


#: inf, NaN and 1e300 entries make numpy's own matmul, subtract and dot
#: warn; the comparisons below make the same calls on both sides
_numpy_warns_too = pytest.mark.filterwarnings(
    "ignore:.*encountered in:RuntimeWarning")

def _lean_corpus():
    """1000 sampled matrix(3) scalars, 5000 derived from them (products,
    differences, ``a - a``, real parts, transposes), then the edge
    matrices."""
    ring = matrix_ring(3)
    xs = [sample(ring, Seed(37, c)) for c in range(1000)]
    derived = []
    for a, b in zip(xs, xs[1:] + xs[:1]):
        derived += [a * b, a - b, a - a, MatScalar(a.a.real), MatScalar(a.a.T)]
    return xs + derived + _EDGES


def _float_outcome(fn, *args):
    """The float result's IEEE bytes, or the exception's class and
    message."""
    try:
        r = float(fn(*args))
    except Exception as e:  # noqa: BLE001 - the class is what is compared
        return type(e), str(e)
    return struct.pack("<d", r)


def _forged(m):
    """A fresh copy of ``m`` whose condition number reads 1, so that
    ``inv()`` goes on to invert it whatever it is."""
    f = MatScalar(m.a)
    _set_cond(f, 1.0)
    return f


def _np_inv_past_the_guard(m):
    """``inv()`` after its condition check, by numpy's public functions."""
    x = np.linalg.inv(m.a)
    resid = np.linalg.norm(m.a @ x - np.eye(m.dim))
    if resid > 1e-6:
        raise NotInvertible(f"solve residual {resid:.3g}")
    return x


def _parts(m):
    """The real and imaginary parts of every entry, as Python floats."""
    return [p for v in m.a.ravel().tolist() for p in (v.real, v.imag)]


@_numpy_warns_too
def test_lean_norm_matches_numpy():
    """Bit for bit numpy's norm while the sum of squares is a normal float;
    past the float range or below its normal range (the 1e300 and 1e-300
    edges, where numpy reads inf or 0.0) the rescaled sum is hypot's value
    to an ulp or two."""
    rescaled = 0
    for m in _lean_corpus():
        s = math.fsum(p * p for p in _parts(m))
        if s == math.inf or s < sys.float_info.min:
            rescaled += 1
            assert m.norm() == pytest.approx(math.hypot(*_parts(m)),
                                             rel=1e-15, abs=0.0)
        else:
            assert (_float_outcome(m.norm)
                    == _float_outcome(np.linalg.norm, m.a, "fro"))
    assert rescaled >= 3


def test_lean_cond_matches_numpy():
    for m in _lean_corpus():
        assert (_float_outcome(_cond, m.a)
                == _float_outcome(np.linalg.cond, m.a))


@_numpy_warns_too
def test_lean_inverse_matches_numpy_past_the_guard():
    for m in _lean_corpus()[::5] + _EDGES:
        m = _forged(m)
        assert _outcome(m.inv) == _outcome(_np_inv_past_the_guard, m)


@_numpy_warns_too
def test_lean_arithmetic_matches_numpy():
    ms = _lean_corpus()
    pairs = list(zip(ms, ms[1:] + ms[:1]))
    pairs += [(a, b) for a in _EDGES for b in _EDGES if a.dim == b.dim]
    for a, b in pairs:
        if a.dim != b.dim:
            continue
        for got, want in ((a + b, a.a + b.a), (a - b, a.a - b.a),
                          (a * b, a.a @ b.a)):
            assert got.a.tobytes() == want.tobytes()
        if not a.dim:
            continue
        # a real number scales each real and imaginary part; against the
        # complex product with 2.5 + 0i (numpy's ``a * 2.5``) and the
        # product with 2.5 * I only the sign of a zero and NaN/inf
        # propagation move
        want = (a.a.view(float) * 2.5).view(complex)
        assert (a * 2.5).a.tobytes() == want.tobytes()
        assert (2.5 * a).a.tobytes() == want.tobytes()
        if np.isfinite(a.a).all():
            c = (2.5 * np.eye(a.dim)).astype(complex)
            assert np.array_equal(want, a.a * 2.5)
            assert np.array_equal(want, a.a @ c)
            assert np.array_equal(want, c @ a.a)


def test_scale_keeps_each_part_of_an_infinite_entry():
    """``scale`` multiplies the real and imaginary parts separately, as
    ``Quaternion.scale`` multiplies each component: an infinite part stays
    infinite and its partner stays finite, where the complex product with
    r + 0i gives ``inf+nanj``."""
    inf = float("inf")
    m = MatScalar([[inf, 0.0], [complex(0.0, -inf), 1.0]])
    got = m.scale(2.5).a
    assert got.tobytes() == np.array(
        [[complex(inf, 0.0), 0.0], [complex(0.0, -inf), 2.5]]).tobytes()
    assert not np.isnan(got).any()
    assert (m * 2.5).a.tobytes() == got.tobytes()
    assert (2.5 * m).a.tobytes() == got.tobytes()
    assert tuple(Quaternion(inf, 0.0, 1.0, -inf).scale(2.5)) == (
        inf, 0.0, 2.5, -inf)
    # the complex product with 2.5 + 0i is what scale no longer computes
    with np.errstate(invalid="ignore"):
        assert np.isnan((m.a * 2.5)[0, 0].imag)


def test_lean_calls_raise_and_never_warn():
    """The gufuncs run under ``np.linalg``'s error state: a NaN, infinite
    or singular matrix is refused or raises ``LinAlgError`` as numpy's
    functions do, and no ``RuntimeWarning`` leaks out.  The error state
    each call sets is undone when it returns or raises, whatever state the
    caller had set."""
    for outer in ({}, {"all": "raise"}, {"all": "warn"}):
        with warnings.catch_warnings(), np.errstate(**outer):
            warnings.simplefilter("error")
            _lean_calls_raise(outer)


def _lean_calls_raise(outer):
    state = np.geterr(), np.geterrcall()

    def unchanged():
        return (np.geterr(), np.geterrcall()) == state

    for name in ("zero", "signed-zero", "rank-1", "nan-entry", "all-nan",
                 "empty"):
        MatScalar(_REFUSED[name]).norm()
    for entries in _REFUSED.values():
        with pytest.raises(NotInvertible):
            MatScalar(entries).inv()
        assert unchanged(), outer
    with pytest.raises(np.linalg.LinAlgError,
                       match="^SVD did not converge$"):
        _cond(MatScalar(_REFUSED["all-nan"]).a)
    assert unchanged(), outer
    with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
        _forged(MatScalar(_REFUSED["zero"])).inv()
    assert unchanged(), outer
    with pytest.raises(np.linalg.LinAlgError,
                       match="^cond is not defined on empty arrays$"):
        _cond(MatScalar(_REFUSED["empty"]).a)
    assert unchanged(), outer
    _cond(MatScalar(_REFUSED["rank-1"]).a)
    sample(matrix_ring(3), Seed(5, 0)).inv()
    assert unchanged(), outer


def test_matrix_norm_is_overflow_safe():
    """Entries of 1e200 and 1e-200 square past the float range or below its
    normal range; the norm rescales them, with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for big in (1e200, -1e200, 1e-200, complex(0.0, 1e-200)):
            m = MatScalar([[big, 0], [0, 1]])
            assert m.norm() == math.hypot(1.0, abs(big))
            m = MatScalar([[big, big], [0, big]])
            assert m.norm() == pytest.approx(math.sqrt(3) * abs(big),
                                             rel=1e-15, abs=0.0)
            assert (m - m).norm() == 0.0
        assert MatScalar([[1e308, 1e308], [1e308, 1e308]]).norm() == math.inf
        assert math.isnan(MatScalar([[1e200, 0], [0, math.nan]]).norm())


def test_column_major_input_norms_like_row_major():
    """A transposed view is copied row-major, so its norm has the bits of
    the same entries built row-major and of its JSON round trip."""
    ring = matrix_ring(3)
    for c in range(1000):
        a = sample(ring, Seed(41, c)).a
        t = MatScalar(a.T)
        assert t.a.flags.c_contiguous
        want = _float_outcome(MatScalar(np.ascontiguousarray(a.T)).norm)
        assert _float_outcome(t.norm) == want
        assert _float_outcome(scalar_from_json(t.to_json()).norm) == want


def test_matscalar_operand_checks():
    m2 = sample(matrix_ring(2), Seed(3, 0))
    m3 = sample(matrix_ring(3), Seed(3, 1))
    for op in (operator.add, operator.sub, operator.mul):
        for a, b in ((m2, m3), (m3, m2)):
            with pytest.raises(DimensionMismatch):
                op(a, b)
    for other in (Quaternion(1), ComplexScalar(1), RationalScalar(1), "x",
                  None, [[1.0]], np.eye(3), True):
        assert m3.__add__(other) is NotImplemented
        assert m3.__sub__(other) is NotImplemented
        assert m3.__mul__(other) is NotImplemented
    for x in (2, 2.5, Fraction(1, 3)):
        assert m3.__add__(x) is NotImplemented
        assert m3.__sub__(x) is NotImplemented
        want = m3.a @ (float(x) * np.eye(3)).astype(complex)
        assert (m3 * x).a.tobytes() == want.tobytes()

    class Sub(MatScalar):
        __slots__ = ()

    s3 = Sub(m3.a)
    assert (m3 + s3).a.tobytes() == (m3.a + m3.a).tobytes()
    assert (m3 * s3).a.tobytes() == (m3.a @ m3.a).tobytes()
    with pytest.raises(DimensionMismatch):
        m2 - s3


# ---------------------------------------------------------------------------
# quaternion and complex inverses at the ends of the float range


def test_quaternion_inv_and_norm_finite_path_unchanged():
    for c in range(2000):
        q = sample(QUATERNION, Seed(17, c))
        n2 = q.w ** 2 + q.x ** 2 + q.y ** 2 + q.z ** 2
        r = q.inv()
        assert (r.w, r.x, r.y, r.z) == (q.w / n2, -q.x / n2, -q.y / n2,
                                        -q.z / n2)
        assert q.norm() == math.sqrt(n2)
        # the same draw scaled below the squared range takes hypot's path
        parts = (q.w * 1e-160, q.x * 1e-160, q.y * 1e-160, q.z * 1e-160)
        assert Quaternion(*parts).norm() == math.hypot(*parts)


@pytest.mark.parametrize("q, norm", [
    (Quaternion(0.0, 0.0, 2.9e-309, -2.9e-309), math.hypot(2.9e-309,
                                                           2.9e-309)),
    (Quaternion(0.0, 0.0, 1e-160, 0.0), 1e-160),
    (Quaternion(-3e-200, 4e-200, 0.0, 0.0), 5e-200),
    (Quaternion(5e-324, 0.0, 0.0, 0.0), 5e-324),
])
def test_quaternion_norm_below_squared_range(q, norm):
    assert math.isclose(q.norm(), norm, rel_tol=1e-15)
    assert not q.is_zero(tol=0.0)


@pytest.mark.parametrize("q", [
    Quaternion(1e200, 0.0, 0.0, 0.0),
    Quaternion(-3e250, 2e250, 1.0, -5e249),
    Quaternion(1.2e154, 1.2e154, 0.0, 0.0),  # squares finite, sum is not
    Quaternion(0.0, 0.0, -1.7e308, 1.7e308),
])
def test_quaternion_inv_and_norm_beyond_squared_range(q):
    parts = (q.w, q.x, q.y, q.z)
    assert q.norm() == math.hypot(*parts)
    r = q.inv()
    assert any((r.w, r.x, r.y, r.z))
    assert (q * r).approx_eq(QUATERNION.one, atol=1e-15, rtol=0.0)
    assert (r * q).approx_eq(QUATERNION.one, atol=1e-15, rtol=0.0)


@pytest.mark.parametrize("q", [
    Quaternion(float("inf"), 1.0, 0.0, 0.0),
    Quaternion(0.0, 0.0, float("-inf"), 0.0),
    Quaternion(float("inf"), float("nan"), 0.0, 0.0),
])
def test_quaternion_inv_refuses_infinity(q):
    with pytest.raises(NotInvertible):
        q.inv()


@pytest.mark.parametrize("v", [complex(float("inf"), 1.0),
                               complex(0.0, float("-inf")),
                               complex(float("nan"), float("inf"))])
def test_complex_inv_refuses_infinity(v):
    with pytest.raises(NotInvertible):
        ComplexScalar(v).inv()


@pytest.mark.parametrize("v", [complex(1.2e308, 1.2e308),
                               complex(1.7e308, -1.7e308),
                               complex(-1e308, 3.0)])
def test_complex_inv_and_norm_near_overflow(v):
    c = ComplexScalar(v)
    assert c.norm() > 1e307
    assert abs(c.inv().v * v - 1.0) < 1e-15


def test_complex_inv_finite_path_unchanged():
    for k in range(2000):
        c = sample(COMPLEX, Seed(19, k))
        assert c.inv().v == 1.0 / c.v
