import math
import random
import struct
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ncross import jets, schwarzian
from ncross.errors import NotInvertible
from ncross.jets import (Jet, cos_jet, jet_from_function, moebius_jet, sin_jet,
                         tan_jet)
from ncross.scalars import (COMPLEX, QUATERNION, RATIONAL, Quaternion,
                            QuaternionRing, Seed, matrix_ring, sample)
from ncross.suites import SuiteConfig, run_suite


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
    e = Jet([COMPLEX.one] * 9, COMPLEX)  # exp(s): every derivative is 1
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


# ---------------------------------------------------------------------------
# the cached constant tables against the formulas they replace


def _old_mul(f, g):
    out = []
    for m in range(len(f)):
        acc = f.ring.from_real(0)
        for k in range(m + 1):
            acc = acc + f[k] * g[m - k] * f.ring.from_real(math.comb(m, k))
        out.append(acc)
    return out


def _old_inv(f):
    g0 = f[0].inv()
    out = [g0]
    for n in range(1, len(f)):
        acc = f.ring.from_real(0)
        for k in range(1, n + 1):
            acc = acc + f[k] * out[n - k] * f.ring.from_real(math.comb(n, k))
        out.append(-(g0 * acc))
    return out


def _old_eval(f, s):
    exact = isinstance(s, (int, Fraction))
    acc = f.ring.from_real(0)
    for k, c in enumerate(f.coeffs):
        w = (Fraction(s) ** k / math.factorial(k) if exact
             else s ** k / math.factorial(k))
        acc = acc + c * f.ring.from_real(w)
    return acc


def _old_propagate_left(a, b, f0, f1, order):
    c = f0.ring.from_real
    out = [f0, f1]
    for n in range(order - 1):
        acc = c(0)
        for k in range(n + 1):
            acc = acc + c(math.comb(n, k)) * (a[k] * out[n + 1 - k]
                                              + b[k] * out[n - k])
        out.append(-acc)
    return out


def _old_propagate_right(r, f0, f1, order):
    c = f0.ring.from_real
    out = [f0, f1]
    for n in range(order - 1):
        acc = c(0)
        for k in range(n + 1):
            acc = acc + c(math.comb(n, k)) * (out[k] * r[n - k])
        out.append(acc)
    return out


def _old_propagate_gauge(a):
    c = a.ring.from_real
    out = [c(1)]
    for n in range(a.order + 1):
        acc = c(0)
        for k in range(n + 1):
            acc = acc + c(math.comb(n, k)) * (out[k] * a[n - k])
        out.append(c(Fraction(1, 2)) * acc)
    return out


def _old_nc_schwarzian(z):
    w = z[1].inv()
    u = w * z[2]
    return w * z[3] - z.ring.from_real(Fraction(3, 2)) * (u * u)


def _bits(x):
    """Every bit of a scalar: float hex for the float rings, the raw array
    for matrices, the exact value for rationals."""
    if hasattr(x, "a"):
        return x.a.tobytes()
    if x.ring is COMPLEX:
        return x.v.real.hex(), x.v.imag.hex()
    if x.ring is RATIONAL:
        return x.v
    return tuple(map(float.hex, x))


_BIT_RINGS = [QUATERNION, COMPLEX, RATIONAL, matrix_ring(2)]


@pytest.mark.parametrize("ring", _BIT_RINGS, ids=lambda r: r.name)
def test_constant_tables_keep_every_bit(ring):
    for seed in range(6):
        f = Jet([sample(ring, Seed(40 + seed, k)) for k in range(7)], ring)
        g = Jet([sample(ring, Seed(80 + seed, k)) for k in range(7)], ring)
        assert list(map(_bits, (f * g).coeffs)) == list(map(_bits, _old_mul(f, g)))
        assert list(map(_bits, f.inv().coeffs)) == list(map(_bits, _old_inv(f)))
        for s in (Fraction(1, 3), 1 / 3, 2, Fraction(0.1), 0.1, 0):
            if ring is RATIONAL and isinstance(s, float):
                with pytest.raises(ValueError):
                    f.eval(s)
                with pytest.raises(ValueError):
                    _old_eval(f, s)
                continue
            assert _bits(f.eval(s)) == _bits(_old_eval(f, s))


def _drawn_jet(ring, seed, order=6):
    return Jet([sample(ring, Seed(seed, k)) for k in range(order + 1)], ring)


@pytest.mark.parametrize("ring", _BIT_RINGS, ids=lambda r: r.name)
def test_real_factors_scale_and_bools_are_refused(ring):
    """A jet times a real number is each coefficient times it, bit for bit;
    a bool is no real factor, as it is none for a scalar."""
    f = _drawn_jet(ring, 260)
    for r in (2, 0.5, Fraction(1, 2)):
        if ring is RATIONAL and isinstance(r, float):
            with pytest.raises(ValueError):
                r * f
            continue
        want = [_bits(c * r) for c in f.coeffs]
        assert list(map(_bits, (f * r).coeffs)) == want
        assert list(map(_bits, (r * f).coeffs)) == want
    with pytest.raises(TypeError):
        f * True
    with pytest.raises(TypeError):
        True * f


@pytest.mark.parametrize("ring", _BIT_RINGS, ids=lambda r: r.name)
def test_scaled_constant_sites_keep_every_bit(ring):
    """The ODE propagations and the Schwarzian scale by real constants;
    each equals, bit for bit, the same formula with the constants as ring
    scalars.  The expansion check's constants are checked against its
    Fraction route (tests/test_schwarzian.py)."""
    for seed in range(6):
        a, b = _drawn_jet(ring, 120 + seed, 4), _drawn_jet(ring, 140 + seed, 4)
        z = _drawn_jet(ring, 160 + seed)
        f0, f1 = sample(ring, Seed(180 + seed, 0)), sample(ring, Seed(180 + seed, 1))
        got = schwarzian.propagate_left(a, b, f0, f1, 6).coeffs
        assert list(map(_bits, got)) == list(map(
            _bits, _old_propagate_left(a, b, f0, f1, 6)))
        got = schwarzian.propagate_right(a, f0, f1, 6).coeffs
        assert list(map(_bits, got)) == list(map(
            _bits, _old_propagate_right(a, f0, f1, 6)))
        got = schwarzian.propagate_gauge(a).coeffs
        assert list(map(_bits, got)) == list(map(_bits, _old_propagate_gauge(a)))
        assert (_bits(schwarzian.nc_schwarzian(z))
                == _bits(_old_nc_schwarzian(z)))


@pytest.mark.parametrize("ring", _BIT_RINGS, ids=lambda r: r.name)
def test_truncation_keeps_every_bit(ring):
    """Order m of a product or an inverse reads only orders up to m, so
    truncating before or after multiplying gives the same bits."""
    for seed in range(4):
        f, g = _drawn_jet(ring, 200 + seed), _drawn_jet(ring, 220 + seed)
        fg, fi = f * g, f.inv()
        for k in range(7):
            ft, gt = f.truncate(k), g.truncate(k)
            assert (list(map(_bits, fg.truncate(k).coeffs))
                    == list(map(_bits, (ft * gt).coeffs)))
            assert (list(map(_bits, fi.truncate(k).coeffs))
                    == list(map(_bits, ft.inv().coeffs)))


def test_eval_cache_keeps_the_type_of_s():
    # equal and hashing alike, yet the exact path and the float path differ
    assert Fraction(0.1) == 0.1 and hash(Fraction(0.1)) == hash(0.1)
    f = Jet([sample(QUATERNION, Seed(3, k)) for k in range(7)], QUATERNION)
    for s in (Fraction(0.1), 0.1, Fraction(0.1)):
        assert _bits(f.eval(s)) == _bits(_old_eval(f, s))
    # 0.1 ** 3 / 3! rounds twice, the exact weight once
    assert (jets._taylor_weights(QUATERNION, Fraction(0.1), 6)
            != jets._taylor_weights(QUATERNION, 0.1, 6))
    r = Jet([RATIONAL.from_real(v) for v in (1, 2, 6)], RATIONAL)
    assert r.eval(Fraction(1, 8)) == RATIONAL.from_real(Fraction(83, 64))
    with pytest.raises(ValueError):  # a float weight is refused exactly
        r.eval(0.125)


#: the suites of the jets-schwarzian benchmark workload
_JET_SUITES = ("schwarzian-expansion", "ode-roundtrip", "gauge-theorem",
               "schwarzian-equation", "ceva-infinitesimal")


def test_jet_products_build_no_constants(monkeypatch):
    """After one warm-up trial, no ring constant is built under a jet
    product, inverse, evaluation or ODE propagation."""
    hot = {fn.__code__ for fn in (
        Jet.__mul__, Jet.inv, Jet.eval, schwarzian.propagate_left,
        schwarzian.propagate_right, schwarzian.propagate_gauge)}
    from_real = QuaternionRing.from_real
    built = []

    def counting(ring, x):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code not in hot:
            frame = frame.f_back
        if frame is not None:
            built.append(frame.f_code.co_name)
        return from_real(ring, x)

    for suite in _JET_SUITES:
        run_suite(SuiteConfig(suite=suite, trials=1, seed=0))
        with monkeypatch.context() as m:
            m.setattr(QuaternionRing, "from_real", counting)
            report = run_suite(SuiteConfig(suite=suite, trials=20, seed=1))
        assert report.trials_run + report.trials_skipped == 20
    assert built == []


#: full quaternion products (both operands quaternions) in one 20-trial
#: call at seed 0 of each jets-schwarzian suite.  Before real constants
#: acted by scaling and the checks truncated their jets to the orders they
#: read, the counts were 3800, 4500, 10780, 4440 and 0 (23,520 in all);
#: ode-roundtrip read 2020 while it still propagated its solutions to
#: order 6, gauge-theorem 5600 while it built f1~ to order 5, and
#: schwarzian-expansion 600 while it evaluated the curve at four points
#: for each of five steps (21 products a trial now; ``Jet.inv`` and ``*``
#: for its quotients would take 31).
_FULL_PRODUCTS = {"schwarzian-expansion": 420, "ode-roundtrip": 900,
                  "gauge-theorem": 5480, "schwarzian-equation": 640,
                  "ceva-infinitesimal": 0}


def test_full_quaternion_products_do_not_grow(monkeypatch):
    """A constant multiplied through a full Hamilton product again, or a jet
    built to orders nobody reads, raises these counts.  The counts are
    exact: products the float kernel of ``jets.leibniz`` forms are counted
    as well as those through ``Quaternion.__mul__``, so a product the count
    stops seeing lowers it and fails here too."""
    mul = Quaternion.__mul__
    leibniz = jets.leibniz
    count = [0]

    def counting(p, q):
        if isinstance(q, Quaternion):
            count[0] += 1
        return mul(p, q)

    def counting_leibniz(x, y, n, row, zero, start=0, u=None, v=None):
        pairs = [(x[k], y[n - k]) for k in range(start, n + 1)]
        if u is not None:
            pairs += [(u[k], v[n - k]) for k in range(start, n + 1)]
        if type(zero) is Quaternion and all(
                type(p) is type(q) is Quaternion for p, q in pairs):
            count[0] += len(pairs)  # formed on floats by the kernel
        return leibniz(x, y, n, row, zero, start, u, v)

    monkeypatch.setattr(Quaternion, "__mul__", counting)
    monkeypatch.setattr(jets, "leibniz", counting_leibniz)
    monkeypatch.setattr(schwarzian, "leibniz", counting_leibniz)
    got = {}
    for suite in _JET_SUITES:
        count[0] = 0
        run_suite(SuiteConfig(suite=suite, trials=20, seed=0))
        got[suite] = count[0]
    assert got == _FULL_PRODUCTS


# ---------------------------------------------------------------------------
# the quaternion float kernel of jets.leibniz against the ring operators


def _ring_leibniz(x, y, n, row, zero, start=0, u=None, v=None):
    """The Leibniz sum in the ring's own operators, as ``jets.leibniz``
    computed it before its float kernel."""
    def term(k):
        t = x[k] * y[n - k]
        return t if u is None else t + u[k] * v[n - k]

    acc = zero if start else zero + term(0)
    for k in range(1, n):
        acc = acc + term(k).scale(row[k])
    if n:
        acc = acc + term(n)
    return acc


def _generic_mul(f, g):
    rows = jets.binomials(f.ring, f.order)
    return [_ring_leibniz(f, g, m, rows[m], f.ring.zero)
            for m in range(len(f))]


def _generic_inv(f):
    try:
        g0 = f[0].inv()
    except NotInvertible as e:
        raise NotInvertible(f"jet value not invertible: {e}") from e
    rows = jets.binomials(f.ring, f.order)
    out = [g0]
    for n in range(1, len(f)):
        out.append(-(g0 * _ring_leibniz(f, out, n, rows[n], f.ring.zero,
                                         start=1)))
    return out


def _generic_ldiv(a, b):
    a0inv = a[0].inv()
    rows = jets.binomials(a.ring, a.order)
    q = []
    for n in range(len(a)):
        q.append(a0inv * (b[n] - _ring_leibniz(a, q, n, rows[n], a.ring.zero,
                                               start=1)))
    return q


def _generic_propagate_left(a, b, f0, f1, order):
    rows = jets.binomials(f0.ring, order)
    c = [f0, f1]
    for n in range(order - 1):
        row = rows[n]
        acc = f0.ring.zero + (a[0] * c[n + 1] + b[0] * c[n])
        for k in range(1, n):
            acc = acc + (a[k] * c[n + 1 - k] + b[k] * c[n - k]).scale(row[k])
        if n:
            acc = acc + (a[n] * c[1] + b[n] * c[0])
        c.append(-acc)
    return c


def _generic_propagate_right(r, f0, f1, order):
    rows = jets.binomials(f0.ring, order)
    c = [f0, f1]
    for n in range(order - 1):
        c.append(_ring_leibniz(c, r, n, rows[n], f0.ring.zero))
    return c


def _generic_propagate_gauge(a):
    rows = jets.binomials(a.ring, a.order)
    half = a.ring.real(Fraction(1, 2))
    c = [a.ring.one]
    for n, row in enumerate(rows):
        c.append(_ring_leibniz(c, a, n, row, a.ring.zero).scale(half))
    return c


def _raw(x):
    """Every bit of a quaternion or a float, NaN sign and payload included,
    or the value itself for anything else."""
    if type(x) is Quaternion:
        return struct.pack("<4d", *x)
    if type(x) is float:
        return struct.pack("<d", x)
    return x


def _outcome(fn, *args):
    """The bits of ``fn(*args)`` (a scalar, or a sequence or jet of
    them), or the type and message of what it raised."""
    try:
        got = fn(*args)
    except Exception as e:  # compared, not swallowed
        return type(e), str(e)
    if isinstance(got, Jet):
        got = got.coeffs
    if isinstance(got, (list, tuple)) and type(got) is not Quaternion:
        return [_raw(c) for c in got]
    return _raw(got)


#: components the special jets mix with drawn ones
_SPECIAL = (0.0, -0.0, math.inf, -math.inf, math.nan, 1e300, -1e300, 1e-300,
            -1e-300, 5e-324, -2.5e-320, 2.2e-308)


def _special_jet(seed, order=6):
    """A drawn quaternion jet in which about half of the components are
    replaced by ``_SPECIAL`` values, chosen by a seeded generator."""
    rnd = random.Random(seed)
    coeffs = []
    for k in range(order + 1):
        q = list(sample(QUATERNION, Seed(seed, k)))
        for i in range(4):
            if rnd.random() < 0.5:
                q[i] = rnd.choice(_SPECIAL)
        coeffs.append(Quaternion(*q))
    return Jet(coeffs, QUATERNION)


def _kernel_cases():
    """Pairs of quaternion jets of order 6: drawn, then with special
    components, then a drawn value with special derivatives (so that
    ``inv`` and the quotients are defined)."""
    for seed in range(12):
        yield _drawn_jet(QUATERNION, 300 + seed), _drawn_jet(QUATERNION,
                                                             320 + seed)
    for seed in range(40):
        yield _special_jet(340 + seed), _special_jet(400 + seed)
    for seed in range(20):
        f, g = _special_jet(460 + seed), _special_jet(500 + seed)
        yield (Jet((sample(QUATERNION, Seed(seed, 99)),) + f.coeffs[1:]),
               Jet((sample(QUATERNION, Seed(seed, 98)),) + g.coeffs[1:]))


def _kernel_results(f, g):
    """Each caller of ``jets.leibniz`` on the jets f and g."""
    f0, f1 = g[0], g[1]
    a, b = f.truncate(4), g.truncate(4)
    return {
        "mul": _outcome(Jet.__mul__, f, g),
        "inv": _outcome(Jet.inv, f),
        "ldiv": _outcome(schwarzian._ldiv, f, g),
        "expansion": _outcome(schwarzian.expansion_check, f),
        "left": _outcome(schwarzian.propagate_left, a, b, f0, f1, 6),
        "right": _outcome(schwarzian.propagate_right, a, f0, f1, 6),
        "gauge": _outcome(schwarzian.propagate_gauge, a),
    }


def _generic_results(f, g):
    f0, f1 = g[0], g[1]
    a, b = f.truncate(4), g.truncate(4)
    return {
        "mul": _outcome(_generic_mul, f, g),
        "inv": _outcome(_generic_inv, f),
        "ldiv": _outcome(_generic_ldiv, f, g),
        "left": _outcome(_generic_propagate_left, a, b, f0, f1, 6),
        "right": _outcome(_generic_propagate_right, a, f0, f1, 6),
        "gauge": _outcome(_generic_propagate_gauge, a),
    }


def test_quaternion_kernel_keeps_every_bit(monkeypatch):
    """Every caller of ``jets.leibniz`` gives, bit for bit and NaN for NaN,
    the value or the exception of the sum in Quaternion operators, on
    drawn jets and on jets with signed zeros, infinities, NaN, huge, tiny
    and subnormal components.  ``expansion_check``'s residuals (through
    ``_ldiv`` and a jet product) are compared with the same check run with
    ``leibniz`` replaced by the operator sum."""
    cases = list(_kernel_cases())
    got = [_kernel_results(f, g) for f, g in cases]
    with monkeypatch.context() as m:
        m.setattr(jets, "leibniz", _ring_leibniz)
        m.setattr(schwarzian, "leibniz", _ring_leibniz)
        want_expansion = [_outcome(schwarzian.expansion_check, f)
                          for f, _ in cases]
    outcomes = set()
    for (f, g), res, exp in zip(cases, got, want_expansion):
        want = _generic_results(f, g)
        want["expansion"] = exp
        assert res == want
        outcomes.update((k, isinstance(v, tuple)) for k, v in res.items())
    # the cases reach both values and refusals of inv, _ldiv and the check
    assert {("inv", True), ("inv", False), ("ldiv", True), ("ldiv", False),
            ("expansion", True), ("expansion", False)} <= outcomes


def test_quaternion_kernel_forms_no_quaternion_products(monkeypatch):
    """On exact quaternion entries the sum runs on floats: no Quaternion is
    multiplied, so the comparison above is the kernel's."""
    f, g = _drawn_jet(QUATERNION, 300), _drawn_jet(QUATERNION, 320)
    calls = []
    mul = Quaternion.__mul__

    def counting(p, q):
        calls.append(q)
        return mul(p, q)

    monkeypatch.setattr(Quaternion, "__mul__", counting)
    f * g
    schwarzian.propagate_left(f, g, g[0], g[1], 6)
    schwarzian.propagate_right(f, g[0], g[1], 6)
    schwarzian.propagate_gauge(f)
    assert calls == []
    f.inv()  # multiplies each order's sum by f(0)^-1 in the ring
    assert len(calls) == f.order


class _Marked(Quaternion):
    """A Quaternion subclass: its entries must take the ring operators."""

    __slots__ = ()


def _with_entry(f, k, value):
    coeffs = list(f.coeffs)
    coeffs[k] = value
    return Jet(coeffs, f.ring)


@pytest.mark.parametrize("entry", [1.5, 2, "marked"], ids=["float", "int",
                                                           "subclass"])
def test_other_entries_take_the_ring_operators(entry, monkeypatch):
    """A jet holding a float, an int or a Quaternion subclass is summed by
    the ring operators, with the value or the exception they give."""
    mul = Quaternion.__mul__
    marked = []

    def watching(p, q):
        if type(p) is _Marked or type(q) is _Marked:
            marked.append((p, q))
        return mul(p, q)

    monkeypatch.setattr(Quaternion, "__mul__", watching)
    f, g = _drawn_jet(QUATERNION, 540), _drawn_jet(QUATERNION, 560)
    for k in (0, 2, 6):
        value = _Marked(*f[k]) if entry == "marked" else entry
        for fk, gk in ((_with_entry(f, k, value), g),
                       (f, _with_entry(g, k, value))):
            got = _kernel_results(fk, gk)
            del got["expansion"]
            assert got == _generic_results(fk, gk)
    if entry == "marked":
        assert marked  # the subclass's entries reached Quaternion.__mul__
