"""Noncommutative Schwarzian derivative, second-order ODE gauge theory,
and the distorted-Ceva functional for a conformal factor on the plane.

Everything here works on truncated jets (module jets); derivatives are
exact jet shifts, so the only floating-point noise comes from ring
arithmetic — except infinitesimal_ceva, which integrates a real scalar
field along segments with a 21-point Gauss-Kronrod rule.  For its midpoint
construction the distortion c - 1 starts at order eps^3 with a closed
form in the derivatives of log kappa along the three sides; the eps^2
coefficient is identically zero.  Each kappa field gives those directional
derivatives in closed form.  Points and directions there are plain tuples
of floats with the 2-vector arithmetic written out, so the module needs no
numpy.

Real constants (binomials, 1/2, 3/2, ...) act on ring scalars by
``Scalar.scale``, and each check builds its jets only to the orders it
reads; both keep every bit of the results (module jets).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple

from .errors import (BREAKDOWN_FACTOR, DegeneratePair, NonPositiveKappa,
                     NotInvertible, QuadratureFailure, UndefinedExpression,
                     relative_residual)
from .jets import DEFAULT_ORDER, Jet, binomials, leibniz
from .plucker import qp_right
from .scalars import DEFAULT_ATOL, Scalar


def nc_schwarzian(z: Jet) -> Scalar:
    """S(z) = (z')^-1 z''' - (3/2)((z')^-1 z'')^2 at the base point."""
    if z.order < 3:
        raise ValueError("need a jet of order >= 3")
    w = z[1].inv()
    u = w * z[2]
    return w * z[3] - Fraction(3, 2) * (u * u)


#: parameters of expansion_check's four curve points, t_i = s_i eps
s = (0, 1, 2, 3)


@lru_cache(maxsize=16)
def _kernel_weights(ring) -> tuple:
    """The reals of ``ring`` (``Ring.real``) that expansion_check scales
    by: for each gap G_ab of its product, in product order, the weights
    (s_b^(n+1) - s_a^(n+1))/(n+1) of orders n = 0..2; then 1/6 and 1/4 of
    the kernel, pref and 2 pref gap."""
    pref = Fraction((s[1] - s[0]) * (s[3] - s[2]),
                    (s[2] - s[1]) * (s[0] - s[3]))
    gap = (s[2] - s[0]) * (s[3] - s[1])
    gaps = tuple(tuple(ring.real(Fraction(s[b] ** m - s[a] ** m, m))
                       for m in (1, 2, 3))
                 for a, b in ((1, 2), (0, 1), (3, 0), (2, 3)))
    return gaps + tuple(map(ring.real, (Fraction(1, 6), Fraction(1, 4),
                                        pref, 2 * pref * gap)))


def _ldiv(a: Jet, b: Jet) -> Jet:
    """The jet of a^-1 b, by the Leibniz recursion
    q_n = a_0^-1 (b_n - sum_{k=1..n} C(n,k) a_k q_{n-k})."""
    a0inv = a[0].inv()
    ring = a.ring
    q = []
    for n, row in enumerate(binomials(ring, a.order)):
        q.append(a0inv * (b[n] - leibniz(a, q, n, row, ring.zero, start=1)))
    return Jet(q, ring)


def expansion_check(z: Jet) -> tuple:
    """Relative residuals of orders 0, 1 and 2 of the cross-ratio expansion
    of a curve, as an exact identity of jets in eps.

    With t_i = s_i eps, each gap G_ab = (z(t_b) - z(t_a))/eps is a jet in
    eps whose raw coefficient n is z_{n+1} (s_b^(n+1) - s_a^(n+1))/(n+1).
    The four-point cross-ratio

        G_12^-1 G_01 G_30^-1 G_23 = pref (1 + gap eps^2 K) + O(eps^3)

    where pref is the classical cross-ratio of s (-1/3), gap is
    (s_2 - s_0)(s_3 - s_1) (4) and K is the kernel
    (1/6)(z')^-1 z''' - (1/4)((z')^-1 z'')^2.  So the product's raw
    coefficients of orders 0, 1 and 2 are pref, 0 and 2 pref gap K."""
    if z.order < 3:
        raise ValueError("need a jet of order >= 3")
    ring = z.ring
    *weights, sixth, quarter, pref, curv = _kernel_weights(ring)
    g12, g01, g30, g23 = (Jet([z[n + 1].scale(ws[n]) for n in range(3)], ring)
                          for ws in weights)
    lhs = _ldiv(g12, g01) * _ldiv(g30, g23)

    w = z[1].inv()
    u = w * z[2]
    kernel = (w * z[3]).scale(sixth) - (u * u).scale(quarter)
    return (relative_residual(lhs[0], ring.one.scale(pref)),
            relative_residual(lhs[1], ring.zero),
            relative_residual(lhs[2], kernel.scale(curv)))


# ---------------------------------------------------------------------------
# second-order ODEs with left coefficients: f'' + a f' + b f = 0


def propagate_left(a: Jet, b: Jet, f0: Scalar, f1: Scalar,
                   order: int = DEFAULT_ORDER) -> Jet:
    """Jet of the solution of f'' + a f' + b f = 0 (coefficients acting
    from the left) with f(0) = f0, f'(0) = f1."""
    c = [f0, f1]
    ring = f0.ring
    rows = binomials(ring, order)
    for n in range(order - 1):
        row = rows[n]
        # C(n, 0) = C(n, n) = 1: the two end terms are not scaled
        acc = ring.zero + (a[0] * c[n + 1] + b[0] * c[n])
        for k in range(1, n):
            acc = acc + (a[k] * c[n + 1 - k] + b[k] * c[n - k]).scale(row[k])
        if n:
            acc = acc + (a[n] * c[1] + b[n] * c[0])
        c.append(-acc)
    return Jet(c, ring)


def propagate_right(r: Jet, f0: Scalar, f1: Scalar,
                    order: int = DEFAULT_ORDER) -> Jet:
    """Jet of the solution of f'' = f r (coefficient on the right)."""
    c = [f0, f1]
    ring = f0.ring
    rows = binomials(ring, order)
    for n in range(order - 1):
        c.append(leibniz(c, r, n, rows[n], ring.zero))
    return Jet(c, ring)


def recover_ode_coeffs(f1: Jet, f2: Jet, tol: float = DEFAULT_ATOL) -> tuple:
    """From two solutions of f'' + a f' + b f = 0, recover (a, b) as minus
    the right quasi-Pluecker coordinates of the 3 x 2 Wronskian-style
    matrix with rows (f1, f2), (f1', f2'), (f1'', f2'')."""
    rows = [(f1[0], f2[0]), (f1[1], f2[1]), (f1[2], f2[2])]
    a = -qp_right(rows, 2, 1, 0, tol)
    b = -qp_right(rows, 2, 0, 1, tol)
    scale = 1.0 + max(x.norm() for r in rows for x in r)
    for f in (f1, f2):
        res = (f[2] + a * f[1] + b * f[0]).norm()
        if res > BREAKDOWN_FACTOR * tol * scale * (1.0 + a.norm() + b.norm()):
            raise DegeneratePair(
                f"recovered coefficients do not annihilate the pair "
                f"(residual {res:.3g}); solutions dependent?")
    return a, b


def gauge_transform_a(a: Jet, h: Jet) -> Jet:
    """Gauge action on the first coefficient: -2 h' h^-1 + h a h^-1."""
    k = min(h.order - 1, a.order)
    hk = h.truncate(k)
    hinv = hk.inv()
    return (-2.0) * (h.derivative().truncate(k) * hinv) + hk * a.truncate(k) * hinv


def propagate_gauge(a: Jet) -> Jet:
    """h with h' = (1/2) h a and h(0) = 1, to one order above a; this
    gauge kills the first coefficient of the ODE."""
    ring = a.ring
    rows = binomials(ring, a.order)
    half = ring.real(Fraction(1, 2))
    c = [ring.one]
    for n, row in enumerate(rows):
        c.append(leibniz(c, a, n, row, ring.zero).scale(half))
    return Jet(c, ring)


class GaugeReport(NamedTuple):
    a_tilde_residual: float       # how close the gauged first coefficient is to 0
    prop_residual: float          # | f1~' + (f1~/2) theta |
    b_direct: Scalar              # recovered from the gauged solution pair
    b_candidate_linear: Scalar    # (1/2) f1~ (theta' - theta/2) f1~^-1
    b_candidate_square: Scalar    # (1/2) f1~ (theta' - theta^2/2) f1~^-1
    winner: str                   # "linear" | "square" | "both" | "neither"


def gauge_theorem_check(f1: Jet, f2: Jet, a: Jet, b: Jet,
                        tol: float = DEFAULT_ATOL) -> GaugeReport:
    """Gauge away the first ODE coefficient and test the two readings of
    the transformed second coefficient against the recovery oracle.

    theta = phi'' (phi')^-1 with phi = f1^-1 f2.  The "square" candidate
    (1/2) f1~ (theta' - theta^2/2) f1~^-1 reduces to half the classical
    Schwarzian of phi in the commutative case; the "linear" one replaces
    theta^2 by theta."""
    h = propagate_gauge(a)
    k = min(h.order, f1.order)
    m = f1.order - 2
    # f1~ is read to order m (its derivative to m - 1) and to order 2 by
    # recover_ode_coeffs, which reads f2~ to order 2 only
    k1 = min(k, max(m, 2))
    f1t = h.truncate(k1) * f1.truncate(k1)
    k2 = min(k, 2)
    f2t = h.truncate(k2) * f2.truncate(k2)

    a_tilde = gauge_transform_a(a, h)
    scale = 1.0 + max(c.norm() for c in a.coeffs)
    a_res = max(c.norm() for c in a_tilde.coeffs[: max(1, a_tilde.order)]) / scale

    phi = f1.inv() * f2
    pd = phi.derivative()
    if f1.ring.name != "rational":
        # theta inverts phi'; past this conditioning that inverse is not
        # trustworthy and the candidate gap is pure rounding noise
        kappa = pd[0].norm() * pd[0].inv().norm()
        if kappa > 1e4:
            raise NotInvertible(
                f"phi' conditioning {kappa:.3g} too large for theta")
    theta = pd.derivative().truncate(m) * pd.truncate(m).inv()
    # transformed f1 satisfies f1~' = -(f1~/2) theta
    lhs = f1t.derivative().truncate(m - 1)
    rhs = Fraction(-1, 2) * (f1t.truncate(m - 1) * theta.truncate(m - 1))
    # forward error is relative to the size of the jets entering the
    # product; theta coefficients dominate on ill-conditioned draws
    prop_scale = 1.0 + max(max(v.norm() for v in rhs.coeffs),
                           max(v.norm() for v in theta.coeffs))
    prop_res = max((u - v).norm() for u, v in zip(lhs.coeffs, rhs.coeffs)) \
        / prop_scale

    _, b_direct = recover_ode_coeffs(f1t, f2t, tol)
    g = f1t[0]
    ginv = g.inv()
    th, thp = theta[0], theta[1]
    cand_lin = Fraction(1, 2) * (g * (thp - Fraction(1, 2) * th) * ginv)
    cand_sq = Fraction(1, 2) * (g * (thp - Fraction(1, 2) * (th * th)) * ginv)

    # a candidate wins through either an absolute match or a clear
    # separation from its rival (robust when rounding inflates both gaps)
    gap_lin = (cand_lin - b_direct).norm()
    gap_sq = (cand_sq - b_direct).norm()
    mtol = 1e-8 * (1.0 + b_direct.norm())
    lin_ok = gap_lin <= mtol or gap_lin <= 1e-6 * gap_sq
    sq_ok = gap_sq <= mtol or gap_sq <= 1e-6 * gap_lin
    winner = {(True, False): "linear", (False, True): "square",
              (True, True): "both", (False, False): "neither"}[(lin_ok, sq_ok)]
    return GaugeReport(a_res, prop_res, b_direct, cand_lin, cand_sq, winner)


class SchwarzianEquationReport(NamedTuple):
    residual: float      # | h''' - (3/2) h'' (h')^-1 h'' + 2 h' F |
    ncsch_value: Scalar
    F: Scalar


def schwarzian_equation_check(g: Jet, f0: Scalar, f1: Scalar,
                              tol: float = DEFAULT_ATOL) -> SchwarzianEquationReport:
    """Build h = f g^-1 from two solutions of the same right-coefficient
    equation u'' = u r (r = g^-1 g'') and verify the Schwarzian equation
    h''' - (3/2) h'' (h')^-1 h'' = -2 h' F with F = g'' g^-1."""
    if g.order < 3:
        raise ValueError("need a jet of order >= 3")
    # only h[1..3] are read, and they need g to order 3 alone
    g = g.truncate(3)
    gi = g.inv()
    r = gi.truncate(1) * g.derivative().derivative()
    f = propagate_right(r, f0, f1, 3)
    h = f * gi
    F = g[2] * gi[0]
    try:
        core = h[3] - Fraction(3, 2) * (h[2] * h[1].inv() * h[2])
    except NotInvertible as e:
        raise UndefinedExpression(f"h' not invertible: {e}") from e
    rhs = (-2) * (h[1] * F)
    return SchwarzianEquationReport(relative_residual(core, rhs),
                                    nc_schwarzian(h), F)


# ---------------------------------------------------------------------------
# infinitesimal Ceva for a conformal factor on the plane


class KappaField(NamedTuple):
    """A positive conformal factor kappa on the plane.  ``log_along(x, y,
    u)`` gives, in closed form, the first three derivatives of
    l = log kappa at (x, y) along the direction u: (l_u, l_uu, l_uuu)."""
    name: str
    value: Callable[[float, float], float]
    log_along: Callable[[float, float, tuple], tuple]


def _gauss(x, y):
    return math.exp(-(x * x + y * y) / 2)


def _poly_log_along(x, y, u):
    # kappa = 1 + x^2 + 2 y^2 is quadratic, so kappa_uuu = 0; with
    # a = kappa_u / kappa and b = kappa_uu / kappa, l_uu = b - a^2 and
    # l_uuu = 2 a^3 - 3 a b
    k = 1.0 + x * x + 2.0 * y * y
    a = (2.0 * x * u[0] + 4.0 * y * u[1]) / k
    b = (2.0 * u[0] * u[0] + 4.0 * u[1] * u[1]) / k
    return a, b - a * a, 2.0 * a * a * a - 3.0 * a * b


#: log kappa is 0, y, -(x^2 + y^2)/2 and log(1 + x^2 + 2 y^2)
KAPPA_FIELDS = {
    "const1": KappaField(
        "const1", lambda x, y: 1.0,
        lambda x, y, u: (0.0, 0.0, 0.0)),
    "exp_y": KappaField(
        "exp_y", lambda x, y: math.exp(y),
        lambda x, y, u: (u[1], 0.0, 0.0)),
    "gauss": KappaField(
        "gauss", _gauss,
        lambda x, y, u: (-(x * u[0] + y * u[1]), -(u[0] * u[0] + u[1] * u[1]),
                         0.0)),
    "poly": KappaField(
        "poly", lambda x, y: 1.0 + x * x + 2.0 * y * y, _poly_log_along),
}


class VectorFieldPair(NamedTuple):
    xi: tuple
    eta: tuple
    kappa: KappaField


def kappa_field(name: str) -> KappaField:
    try:
        return KAPPA_FIELDS[name]
    except KeyError:
        raise KeyError(
            f"unknown kappa field {name!r}; have {sorted(KAPPA_FIELDS)}") from None


#: QUADPACK's 21-point Gauss-Kronrod rule (qk21; Piessens et al., QUADPACK,
#: Springer 1983) on [-1, 1]: the positive Kronrod nodes, largest first,
#: then the centre; the odd positions are the 10-point Gauss nodes, whose
#: Gauss weights are _WG.
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
        0.0)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077548868208986, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)


def _step(p, d, s):
    """The point p + s d of the plane, one IEEE operation per component."""
    return (p[0] + s * d[0], p[1] + s * d[1])


def _minus(p, q):
    return (p[0] - q[0], p[1] - q[1])


def _seg_length(field: KappaField, p, q) -> float:
    """Time-integral of kappa along the straight segment p -> q traversed
    at unit parameter speed, by one qk21 pass on [0, 1].

    The sum runs in QUADPACK's order (centre, Gauss-node pairs, Kronrod-only
    pairs), so the value is bit-identical to the one scipy's ``quad`` returns
    when it stops after that pass, as it does for these smooth fields; the
    embedded 10-point Gauss sum gives the error estimate."""

    d = _minus(q, p)

    def integrand(s):
        pt = _step(p, d, s)
        v = field.value(pt[0], pt[1])
        if v <= 0.0:
            raise NonPositiveKappa(f"kappa({pt[0]:.3g},{pt[1]:.3g}) = {v:.3g}")
        return v

    resk = _WGK[10] * integrand(0.5)
    resg = 0.0
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):
        absc = 0.5 * _XGK[j]
        fsum = integrand(0.5 - absc) + integrand(0.5 + absc)
        resk = resk + _WGK[j] * fsum
        if j % 2:
            resg = resg + _WG[j // 2] * fsum
    val = resk * 0.5
    err = abs((resk - resg) * 0.5)
    if err > 1e-9 * (1.0 + abs(val)):
        raise QuadratureFailure(f"estimated error {err:.3g}")
    return float(val)


class CevaInfinitesimal(NamedTuple):
    c_minus_1: float
    s3: float        # closed-form eps^3 coefficient of c_minus_1


def _ceva_s3(field: KappaField, x, sides) -> float:
    """(1/12) sum over side directions u of l_uuu - l_u l_uu at x, for
    l = log kappa."""
    total = 0.0
    for u in sides:
        l_u, l_uu, l_uuu = field.log_along(x[0], x[1], u)
        total += l_uuu - l_u * l_uu
    return total / 12


def infinitesimal_ceva(vf: VectorFieldPair, x, eps: float) -> CevaInfinitesimal:
    """Distorted Ceva product for the triangle spanned by two constant
    fields.

    Vertices A = x, B = x + 2 eps xi, C = x + 2 eps eta; K, L, M sit at
    the parameter midpoints of AB, BC, CA.  Each side piece's "length" is
    the time-integral of kappa along it; c_minus_1 is the Ceva product
    (AK/KB)(BL/LC)(CM/MA) of the six pieces minus 1.

    With l = log kappa, the log-ratio of the two halves of a side P -> Q
    with midpoint m and d = Q - P is odd in d:
    -(1/2) l_d(m) - (1/96)(l_d l_dd + l_ddd)(m) + O(|d|^5).  The midpoint
    rule is exact for quadratic l, so the order-eps^2 part of the sum is
    the closed integral of grad l, which is 0, and

        log c = (eps^3/12) sum_u (l_uuu - l_u l_uu)(x) + O(eps^4),
        u in (xi, eta - xi, -eta).

    s3 is that eps^3 coefficient.  The eps and eps^2 coefficients of c - 1
    vanish identically, for every kappa, x, xi and eta; when l is linear
    (exp_y) c = 1 at every eps.  Whether the coefficient 5/6 quoted for
    this functional (arXiv 1905.01366) belongs to another placement of K,
    L, M is not settled here: the paper's text is not in the repository."""
    x, xi, eta = (tuple(map(float, v)) for v in (x, vf.xi, vf.eta))
    field = vf.kappa

    A = x
    B = _step(x, xi, 2 * eps)
    C = _step(x, eta, 2 * eps)
    K = _step(x, xi, eps)
    L = _step(B, _minus(eta, xi), eps)
    M = _step(x, eta, eps)

    ak = _seg_length(field, A, K)
    kb = _seg_length(field, K, B)
    bl = _seg_length(field, B, L)
    lc = _seg_length(field, L, C)
    cm = _seg_length(field, C, M)
    ma = _seg_length(field, M, A)
    c = (ak / kb) * (bl / lc) * (cm / ma)

    s3 = _ceva_s3(field, x, (xi, _minus(eta, xi), (-eta[0], -eta[1])))
    return CevaInfinitesimal(c - 1.0, s3)
