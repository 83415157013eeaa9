import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from ncross.errors import (NonPositiveKappa, NotInvertible,
                           QuadratureFailure, UndefinedExpression,
                           relative_residual)
from ncross.jets import Jet, cos_jet, sin_jet, tan_jet
from ncross.scalars import (COMPLEX, QUATERNION, RATIONAL, Seed, matrix_ring,
                            sample)
from ncross import schwarzian
from ncross.schwarzian import (KAPPA_FIELDS, KappaField, VectorFieldPair,
                               expansion_check,
                               gauge_theorem_check, gauge_transform_a,
                               infinitesimal_ceva, kappa_field, nc_schwarzian,
                               propagate_gauge, propagate_left,
                               recover_ode_coeffs, schwarzian_equation_check)


def qjet(seed, order=4):
    return Jet([sample(QUATERNION, Seed(seed, k)) for k in range(order + 1)],
               QUATERNION)


def test_schwarzian_of_tan_is_two():
    val = nc_schwarzian(tan_jet(COMPLEX))
    assert abs(val.v - 2.0) < 1e-12


def test_schwarzian_of_affine_is_zero():
    z = Jet([COMPLEX.from_real(3), COMPLEX.from_real(2),
             COMPLEX.zero, COMPLEX.zero], COMPLEX)
    assert nc_schwarzian(z).norm() == 0.0


def test_expansion_third_order_decay():
    """The gap between the curve's cross-ratio and its expansion starts at
    eps^3: orders 0, 1 and 2 of the identity hold to rounding."""
    for seed in range(1, 6):
        assert max(expansion_check(qjet(seed, order=6))) <= 1e-14
    assert max(expansion_check(tan_jet(COMPLEX))) <= 1e-15


def test_recover_sin_cos():
    t0 = math.pi / 6
    def shift(f, n):  # nth derivative of f at t0 for f'' = -f
        return [f, None]
    s, c = math.sin(t0), math.cos(t0)
    f1 = Jet([COMPLEX.from_real(v) for v in (s, c, -s, -c)], COMPLEX)
    f2 = Jet([COMPLEX.from_real(v) for v in (c, -s, -c, s)], COMPLEX)
    a, b = recover_ode_coeffs(f1, f2)
    assert a.norm() < 1e-12
    assert (b - COMPLEX.one).norm() < 1e-12


def test_ode_roundtrip_quaternion():
    a, b = qjet(2), qjet(3)
    f1 = propagate_left(a, b, sample(QUATERNION, Seed(4, 0)),
                        sample(QUATERNION, Seed(4, 1)), 6)
    f2 = propagate_left(a, b, sample(QUATERNION, Seed(4, 2)),
                        sample(QUATERNION, Seed(4, 3)), 6)
    ar, br = recover_ode_coeffs(f1, f2)
    assert (ar - a[0]).norm() < 1e-10
    assert (br - b[0]).norm() < 1e-10


def test_recover_degenerate_pair():
    f = qjet(5)
    with pytest.raises(UndefinedExpression):
        recover_ode_coeffs(f, f)


def test_gauge_constant_h_keeps_a():
    a = qjet(6)
    h = Jet.constant(QUATERNION.one, a.order)
    at = gauge_transform_a(a, h)
    for u, v in zip(at.coeffs, a.coeffs):
        assert (u - v).norm() < 1e-13


def test_gauge_propagation_kills_a():
    a = qjet(7)
    h = propagate_gauge(a)
    at = gauge_transform_a(a, h)
    assert max(c.norm() for c in at.coeffs[:-1]) < 1e-12


def test_gauge_theorem_square_winner():
    a, b = qjet(8), qjet(9)
    f1 = propagate_left(a, b, sample(QUATERNION, Seed(10, 0)),
                        sample(QUATERNION, Seed(10, 1)), 6)
    f2 = propagate_left(a, b, sample(QUATERNION, Seed(10, 2)),
                        sample(QUATERNION, Seed(10, 3)), 6)
    rep = gauge_theorem_check(f1, f2, a, b)
    assert rep.winner == "square"
    assert rep.a_tilde_residual < 1e-10
    assert rep.prop_residual < 1e-10


def test_gauge_commutative_winner_is_classical_schwarzian():
    # with a = 0, h = 1: b~ = b_direct must equal -(1/2) Sch-type reading,
    # i.e. the square candidate evaluated on phi = f1^-1 f2
    a = Jet.constant(COMPLEX.zero, 4)
    b = Jet([COMPLEX.from_real(v) for v in
             (0.3, -0.2, 0.11, 0.05, -0.07)], COMPLEX)
    f1 = propagate_left(a, b, COMPLEX.from_real(1.0), COMPLEX.from_real(0.2), 6)
    f2 = propagate_left(a, b, COMPLEX.from_real(0.4), COMPLEX.from_real(1.1), 6)
    rep = gauge_theorem_check(f1, f2, a, b)
    assert rep.winner == "square"
    # classical identity: with a = 0, b = (1/2) S(phi), phi = f1^-1 f2
    phi = f1.inv() * f2
    sch = nc_schwarzian(phi)
    assert (rep.b_direct - 0.5 * sch).norm() < 1e-9
    assert (rep.b_direct - b[0]).norm() < 1e-9


def test_schwarzian_equation_tan_instance():
    g = cos_jet(COMPLEX, order=6)
    rep = schwarzian_equation_check(g, COMPLEX.zero, COMPLEX.one)
    # h = sin/cos = tan: NCSch(h) = 2, F = g''g^-1 = -1, residual ~ 0
    assert rep.residual < 1e-12
    assert abs(rep.ncsch_value.v - 2.0) < 1e-12
    assert (rep.F + COMPLEX.one).norm() < 1e-12


def test_schwarzian_equation_random():
    for seed in range(5):
        g = qjet(20 + seed, order=6)
        rep = schwarzian_equation_check(g, sample(QUATERNION, Seed(30, seed)),
                                        sample(QUATERNION, Seed(31, seed)))
        assert rep.residual < 1e-9


def test_infinitesimal_ceva_flat():
    vf = VectorFieldPair(np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                         kappa_field("const1"))
    rep = infinitesimal_ceva(vf, np.array([0.0, 0.0]), 1e-2)
    assert abs(rep.c_minus_1) < 1e-12
    assert rep.s3 == 0.0


def test_infinitesimal_ceva_exp_s3():
    # log kappa = y is linear, so the Ceva product is exactly 1 at every eps
    for xi, eta in (((1.0, 0.0), (0.0, 1.0)), ((1.5, 0.3), (-0.5, 2.0))):
        vf = VectorFieldPair(np.array(xi), np.array(eta), kappa_field("exp_y"))
        for k in range(3, 8):
            rep = infinitesimal_ceva(vf, np.array([0.0, 0.0]), 2.0 ** -k)
            assert rep.s3 == 0.0
            assert abs(rep.c_minus_1) <= 1e-15


@pytest.mark.parametrize("name", ["const1", "exp_y", "gauss", "poly"])
def test_infinitesimal_ceva_degenerate_s3_is_zero(name):
    """For xi = eta the sides are xi, 0 and -xi, whose terms cancel
    exactly: ceva-infinitesimal reports |s3| of that triangle as 0."""
    for xi in ((1.0, 1.0), (1.5, 0.3), (-0.5, 2.0)):
        vf = VectorFieldPair(xi, xi, kappa_field(name))
        for base in ((0.0, 0.0), (0.3, -0.2), (0.1, 0.7), (-1.3, 0.45)):
            assert infinitesimal_ceva(vf, base, 0.05).s3 == 0.0


@pytest.mark.parametrize("name", ["const1", "exp_y", "gauss", "poly"])
def test_kappa_field_derivatives_match_differences(name):
    """Central differences along axis and skewed directions u: of
    log kappa against l_u, and of each order of ``log_along`` against the
    next."""
    f = kappa_field(name)
    x, y, h = 0.3, -0.2, 1e-5
    for u in ((1.0, 0.0), (0.0, 1.0), (1.5, 0.3), (-0.5, 2.0)):

        def diff(g):  # central difference of g along u at (x, y)
            return np.subtract(g(x + h * u[0], y + h * u[1]),
                               g(x - h * u[0], y - h * u[1])) / (2 * h)

        l_u, l_uu, l_uuu = f.log_along(x, y, u)
        assert np.allclose(diff(lambda x, y: math.log(f.value(x, y))), l_u,
                           atol=1e-8)
        assert np.allclose(diff(lambda x, y: f.log_along(x, y, u)[:2]),
                           (l_uu, l_uuu), atol=1e-8)


def richardson_c_over_eps3(vf, x, eps):
    """Richardson-extrapolated limit of (c-1)/eps^3 using eps and eps/2."""
    r1 = infinitesimal_ceva(vf, x, eps).c_minus_1 / eps ** 3
    r2 = infinitesimal_ceva(vf, x, eps / 2).c_minus_1 / (eps / 2) ** 3
    return 2.0 * r2 - r1


@pytest.mark.parametrize("name", ["gauss", "poly"])
def test_infinitesimal_ceva_skewed_pair(name):
    # the closed form holds for any pair of fields, not just the axes
    vf = VectorFieldPair((1.5, 0.3), (-0.5, 2.0), kappa_field(name))
    base, eps = (0.3, -0.2), 2.0 ** -6
    s3 = infinitesimal_ceva(vf, base, eps).s3
    assert s3 != 0.0
    assert abs(richardson_c_over_eps3(vf, base, eps) - s3) <= 0.01 * abs(s3)


@pytest.mark.parametrize("xi, eta", [
    ((1, 0), (0, 1)),
    ((Fraction(3, 2), Fraction(3, 10)), (Fraction(-1, 2), 2)),
])
def test_infinitesimal_ceva_series(xi, eta):
    """Expand the six segment integrals of a general cubic kappa in eps:
    the eps and eps^2 coefficients of log c vanish and the eps^3
    coefficient is (1/12) sum_u (l_uuu - l_u l_uu) with l = log kappa."""
    sp = pytest.importorskip("sympy")
    X, Y, e, s = sp.symbols("X Y eps s")
    k0 = sp.Symbol("k0", positive=True)
    monos = [X, Y, X**2, X*Y, Y**2, X**3, X**2*Y, X*Y**2, Y**3]
    kappa = k0 + sum(c * m for c, m in zip(sp.symbols("a1:10"), monos))
    xi, eta = sp.Matrix(xi), sp.Matrix(eta)

    def log_length(p, q):  # log of int_0^1 kappa(p + s(q-p)) ds through eps^3
        pt = p + s * (q - p)
        val = sp.integrate(sp.expand(kappa.subs({X: pt[0], Y: pt[1]})),
                           (s, 0, 1))
        z = sp.expand(val / k0 - 1)  # O(eps): three terms of log(1+z) suffice
        series = sp.expand(z - z**2 / 2 + z**3 / 3)
        return sum(series.coeff(e, n) * e**n for n in range(1, 4))

    A, B, C = sp.zeros(2, 1), 2 * e * xi, 2 * e * eta
    K, L, M = e * xi, B + e * (eta - xi), e * eta
    log_c = sp.expand(log_length(A, K) - log_length(K, B)
                      + log_length(B, L) - log_length(L, C)
                      + log_length(C, M) - log_length(M, A))

    ell = sp.log(kappa)

    def term(u):
        d = lambda f: u[0] * sp.diff(f, X) + u[1] * sp.diff(f, Y)
        l1 = d(ell)
        l2 = d(l1)
        return (d(l2) - l1 * l2).subs({X: 0, Y: 0})

    s3 = sum(term(u) for u in (xi, eta - xi, -eta)) / 12
    assert sp.cancel(log_c.coeff(e, 1)) == 0
    assert sp.cancel(log_c.coeff(e, 2)) == 0
    assert sp.cancel(log_c.coeff(e, 3) - s3) == 0


# ---------------------------------------------------------------------------
# the 21-point Gauss-Kronrod rule behind infinitesimal_ceva

PAIRS = {"axes": ((1.0, 0.0), (0.0, 1.0)), "diagonal": ((1.0, 1.0), (1.0, 1.0))}

#: c_minus_1 of the ceva-infinitesimal suite's configurations, recorded
#: with scipy's quad(epsabs=1e-12, epsrel=1e-12); (field, pair) -> values
#: at eps 0.05 and 0.025
CEVA_GOLDEN = {
    ("const1", "axes"): (0.0, 0.0),
    ("const1", "diagonal"): (0.0, 0.0),
    ("exp_y", "axes"): (0.0, 0.0),
    ("exp_y", "diagonal"): (0.0, 0.0),
    ("gauss", "axes"): (5.206955562719884e-06, 6.509983294655797e-07),
    ("gauss", "diagonal"): (0.0, 0.0),
    ("poly", "axes"): (8.743749298867343e-05, 1.0617039581051202e-05),
    ("poly", "diagonal"): (0.0, 0.0),
}


@pytest.mark.parametrize("name, pair", sorted(CEVA_GOLDEN))
def test_infinitesimal_ceva_golden(name, pair):
    base = (0.0, 0.0) if name in ("const1", "exp_y") else (0.3, -0.2)
    vf = VectorFieldPair(*PAIRS[pair], kappa_field(name))
    got = tuple(infinitesimal_ceva(vf, base, eps).c_minus_1
                for eps in (0.05, 0.025))
    assert got == CEVA_GOLDEN[name, pair]


def _ceva_segments():
    """The six sides of infinitesimal_ceva's triangle over a grid of fields,
    field pairs, base points and eps."""
    pairs = (*PAIRS.values(), ((1.5, 0.3), (-0.5, 2.0)))
    bases = ((0.0, 0.0), (0.3, -0.2), (0.1, 0.7))
    epss = (0.2, 0.1, 0.05, 0.025, 1e-2) + tuple(2.0 ** -k for k in range(3, 8))
    for field in KAPPA_FIELDS.values():
        for xi, eta in pairs:
            xi, eta = np.asarray(xi), np.asarray(eta)
            for x in bases:
                x = np.asarray(x)
                for eps in epss:
                    B, C = x + 2 * eps * xi, x + 2 * eps * eta
                    K, L, M = x + eps * xi, B + eps * (eta - xi), x + eps * eta
                    for p, q in ((x, K), (K, B), (B, L), (L, C), (C, M), (M, x)):
                        yield field, p, q


def test_seg_length_matches_scipy_quad():
    quad = pytest.importorskip("scipy.integrate").quad
    n = 0
    for field, p, q in _ceva_segments():
        ref, _ = quad(lambda s: field.value(*(p + s * (q - p))), 0.0, 1.0,
                      epsabs=1e-12, epsrel=1e-12, limit=200)
        assert schwarzian._seg_length(field, p, q) == ref
        n += 1
    assert n == 2160


def _field(value):
    return KappaField("test", value, None)


def test_seg_length_rejects_non_positive_kappa():
    with pytest.raises(NonPositiveKappa):
        schwarzian._seg_length(_field(lambda x, y: 1.0 - x),
                               np.zeros(2), np.array([2.0, 0.0]))


def test_seg_length_reports_quadrature_failure():
    step = _field(lambda x, y: 1.0 if x < 0.37 else 2.0)
    with pytest.raises(QuadratureFailure):
        schwarzian._seg_length(step, np.zeros(2), np.array([1.0, 0.0]))


def test_cli_imports_without_scipy():
    code = ("import sys; sys.modules['scipy'] = None; import ncross.cli; "
            "from ncross import schwarzian as s; "
            "f = s.kappa_field('poly'); "
            "s.infinitesimal_ceva(s.VectorFieldPair((1, 0), (0, 1), f), "
            "(0.3, -0.2), 0.05)")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})


# ---------------------------------------------------------------------------
# expansion_check: the exact identity of jets in eps


def _fraction_route(z):
    """expansion_check with every real constant worked out per call as a
    Fraction from ``schwarzian.s`` and applied as a ring scalar, and its
    quotients written out; expansion_check scales by the reals of a
    per-ring table instead."""
    c = z.ring.from_real
    s = schwarzian.s
    pref = Fraction((s[1] - s[0]) * (s[3] - s[2]), (s[2] - s[1]) * (s[0] - s[3]))
    gap = (s[2] - s[0]) * (s[3] - s[1])

    def quotient(p, q):  # G_p^-1 G_q for index pairs p, q of s
        a, b = ([c(Fraction(s[j] ** (n + 1) - s[i] ** (n + 1), n + 1))
                 * z[n + 1] for n in range(3)] for i, j in (p, q))
        a0inv = a[0].inv()
        out = []
        for n in range(3):
            acc = c(0)
            for k in range(1, n + 1):
                acc = acc + a[k] * out[n - k] * c(math.comb(n, k))
            out.append(a0inv * (b[n] - acc))
        return out

    f, g = quotient((1, 2), (0, 1)), quotient((3, 0), (2, 3))
    lhs = [sum((f[k] * g[m - k] * c(math.comb(m, k)) for k in range(m + 1)),
               c(0)) for m in range(3)]
    w = z[1].inv()
    u = w * z[2]
    kernel = c(Fraction(1, 6)) * (w * z[3]) - c(Fraction(1, 4)) * (u * u)
    return (relative_residual(lhs[0], c(pref)),
            relative_residual(lhs[1], c(0)),
            relative_residual(lhs[2], c(2 * pref * gap) * kernel))


@pytest.mark.parametrize("ring", [QUATERNION, COMPLEX, RATIONAL,
                                  matrix_ring(2)], ids=lambda r: r.name)
def test_expansion_check_keeps_the_fraction_route_bits(ring):
    """The three residuals equal those of the Fraction route bit for bit,
    on the first call over a ring and on later ones.  Scaling by a real
    and multiplying by it as a ring scalar differ only in the sign of an
    exact zero, which the residuals, being norms, do not show."""
    for seed in range(3):
        z = Jet([sample(ring, Seed(300 + seed, k)) for k in range(7)], ring)
        want = [r.hex() for r in _fraction_route(z)]
        for _ in range(2):
            assert [r.hex() for r in expansion_check(z)] == want


@pytest.mark.parametrize("order", [3, 6])
def test_expansion_orders_vanish_exactly_on_rationals(order):
    for seed in range(20):
        z = Jet([sample(RATIONAL, Seed(320 + seed, k))
                 for k in range(order + 1)], RATIONAL)
        assert expansion_check(z) == (0.0, 0.0, 0.0)


def test_expansion_refusals_are_raised_on_every_call():
    """A jet of order below 3 raises ValueError and a singular z' raises
    NotInvertible, afresh on every call, also after a jet of the same ring
    succeeded."""
    z = Jet([sample(QUATERNION, Seed(312, k)) for k in range(4)], QUATERNION)
    singular = Jet([z[0], QUATERNION.zero, z[2], z[3]], QUATERNION)
    for _ in range(3):
        expansion_check(z)
        with pytest.raises(ValueError, match="^need a jet of order >= 3$"):
            expansion_check(z.truncate(2))
        with pytest.raises(NotInvertible):
            expansion_check(singular)
