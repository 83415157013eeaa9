"""Noncommutative Schwarzian derivative, second-order ODE gauge theory,
and the distorted-Ceva functional for a conformal factor on the plane.

Everything here works on truncated jets (module jets); derivatives are
exact jet shifts, so the only floating-point noise comes from ring
arithmetic — except infinitesimal_ceva, which integrates a real scalar
field along segments with a 21-point Gauss-Kronrod rule.  For its midpoint
construction the distortion c - 1 starts at order eps^3 with a closed
form in the derivatives of log kappa; the eps^2 coefficient is
identically zero.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .errors import (BREAKDOWN_FACTOR, DegeneratePair, NonPositiveKappa,
                     NotInvertible, NumericalBreakdown, PointsTooClose,
                     QuadratureFailure, UndefinedExpression)
from .jets import DEFAULT_ORDER, Jet
from .plucker import qp_right
from .scalars import DEFAULT_ATOL, Ring, Scalar


def nc_schwarzian(z: Jet) -> Scalar:
    """S(z) = (z')^-1 z''' - (3/2)((z')^-1 z'')^2 at the base point."""
    if z.order < 3:
        raise ValueError("need a jet of order >= 3")
    w = z[1].inv()
    u = w * z[2]
    return w * z[3] - Fraction(3, 2) * (u * u)


class ExpansionCheck(NamedTuple):
    lhs: Scalar
    rhs: Scalar
    residual: float


def expansion_check(z: Jet, t: float, t1: float, t2: float, t3: float,
                    min_gap: float = 1e-12) -> ExpansionCheck:
    """Compare the four-point cross-ratio of a curve with its second-order
    expansion.

    lhs = (z(t2)-z(t1))^-1 (z(t1)-z(t)) (z(t)-z(t3))^-1 (z(t3)-z(t2));
    rhs = [classical cross-ratio of the parameters] * (1 + (t2-t)(t3-t1) K)
    with kernel K = (1/6)(z')^-1 z''' - (1/4)((z')^-1 z'')^2.  The gap is
    O(eps^3) when the parameters scale like eps."""
    pts = (t, t1, t2, t3)
    for a in range(4):
        for b in range(a + 1, 4):
            if abs(pts[a] - pts[b]) < min_gap:
                raise PointsTooClose(f"parameters {a},{b} closer than {min_gap}")
    if z.order < 3:
        raise ValueError("need a jet of order >= 3")
    zv = [z.eval(s) for s in pts]
    lhs = ((zv[2] - zv[1]).inv() * (zv[1] - zv[0])
           * (zv[0] - zv[3]).inv() * (zv[3] - zv[2]))

    w = z[1].inv()
    u = w * z[2]
    kernel = Fraction(1, 6) * (w * z[3]) - Fraction(1, 4) * (u * u)
    pref = ((t1 - t) * (t3 - t2)) / ((t2 - t1) * (t - t3))
    one = z.ring.one
    rhs = z.ring.from_real(pref) * (one + ((t2 - t) * (t3 - t1)) * kernel)
    return ExpansionCheck(lhs, rhs, (lhs - rhs).norm())


# ---------------------------------------------------------------------------
# second-order ODEs with left coefficients: f'' + a f' + b f = 0


def propagate_left(a: Jet, b: Jet, f0: Scalar, f1: Scalar,
                   order: int = DEFAULT_ORDER) -> Jet:
    """Jet of the solution of f'' + a f' + b f = 0 (coefficients acting
    from the left) with f(0) = f0, f'(0) = f1."""
    c = [f0, f1]
    ring = f0.ring
    for n in range(order - 1):
        acc = ring.zero
        for k in range(n + 1):
            cnk = math.comb(n, k)
            acc = acc + cnk * (a[k] * c[n + 1 - k] + b[k] * c[n - k])
        c.append(-acc)
    return Jet(c, ring)


def propagate_right(r: Jet, f0: Scalar, f1: Scalar,
                    order: int = DEFAULT_ORDER) -> Jet:
    """Jet of the solution of f'' = f r (coefficient on the right)."""
    c = [f0, f1]
    ring = f0.ring
    for n in range(order - 1):
        acc = ring.zero
        for k in range(n + 1):
            acc = acc + math.comb(n, k) * (c[k] * r[n - k])
        c.append(acc)
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


def propagate_gauge(a: Jet, order: int | None = None) -> Jet:
    """h with h' = (1/2) h a and h(0) = 1; this gauge kills the first
    coefficient of the ODE."""
    if order is None:
        order = a.order + 1
    ring = a.ring
    c = [ring.one]
    for n in range(order):
        acc = ring.zero
        for k in range(n + 1):
            acc = acc + math.comb(n, k) * (c[k] * a[n - k])
        c.append(Fraction(1, 2) * acc)
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
    f1t = h.truncate(k) * f1.truncate(k)
    f2t = h.truncate(k) * f2.truncate(k)

    a_tilde = gauge_transform_a(a, h)
    scale = 1.0 + max(c.norm() for c in a.coeffs)
    a_res = max(c.norm() for c in a_tilde.coeffs[: max(1, a_tilde.order)]) / scale

    m = f1.order - 2
    phi = f1.inv() * f2
    pd0 = phi.derivative()[0]
    if f1.ring.name != "rational":
        # theta inverts phi'; past this conditioning the candidate gap is
        # pure rounding noise, so the draw is reported as a breakdown
        kappa = pd0.norm() * pd0.inv().norm()
        if kappa > 1e4:
            raise NumericalBreakdown(
                f"phi' conditioning {kappa:.3g} too large for theta")
    theta = phi.derivative().derivative().truncate(m) * \
        phi.derivative().truncate(m).inv()
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
    r = g.inv().truncate(g.order - 2) * g.derivative().derivative()
    f = propagate_right(r, f0, f1, g.order)
    h = f * g.inv()
    F = g[2] * g[0].inv()
    try:
        core = h[3] - Fraction(3, 2) * (h[2] * h[1].inv() * h[2])
    except NotInvertible as e:
        raise UndefinedExpression(f"h' not invertible: {e}") from e
    rhs = (-2) * (h[1] * F)
    res = (core - rhs).norm() / (1.0 + max(core.norm(), rhs.norm()))
    return SchwarzianEquationReport(res, nc_schwarzian(h), F)


# ---------------------------------------------------------------------------
# infinitesimal Ceva for a conformal factor on the plane


class KappaField(NamedTuple):
    """A positive conformal factor kappa on the plane with closed-form
    derivatives: gradient (2,), hessian (2, 2) and the symmetric tensor of
    third derivatives (2, 2, 2)."""
    name: str
    value: Callable[[float, float], float]
    gradient: Callable[[float, float], np.ndarray]
    hessian: Callable[[float, float], np.ndarray]
    third: Callable[[float, float], np.ndarray]


def _gauss(x, y):
    return math.exp(-(x * x + y * y) / 2)


def _gauss_third(x, y):
    # d_ijk kappa = kappa (d_ij x_k + d_ik x_j + d_jk x_i - x_i x_j x_k)
    xxy, xyy = y - x * x * y, x - x * y * y
    return _gauss(x, y) * np.array(
        [[[3.0 * x - x ** 3, xxy], [xxy, xyy]],
         [[xxy, xyy], [xyy, 3.0 * y - y ** 3]]])


def _exp_y_third(x, y):
    t = np.zeros((2, 2, 2))
    t[1, 1, 1] = math.exp(y)
    return t


KAPPA_FIELDS = {
    "const1": KappaField(
        "const1", lambda x, y: 1.0,
        lambda x, y: np.zeros(2),
        lambda x, y: np.zeros((2, 2)),
        lambda x, y: np.zeros((2, 2, 2))),
    "exp_y": KappaField(
        "exp_y", lambda x, y: math.exp(y),
        lambda x, y: np.array([0.0, math.exp(y)]),
        lambda x, y: np.array([[0.0, 0.0], [0.0, math.exp(y)]]),
        _exp_y_third),
    "gauss": KappaField(
        "gauss", _gauss,
        lambda x, y: -_gauss(x, y) * np.array([x, y]),
        lambda x, y: _gauss(x, y) * np.array(
            [[x * x - 1.0, x * y], [x * y, y * y - 1.0]]),
        _gauss_third),
    "poly": KappaField(
        "poly", lambda x, y: 1.0 + x * x + 2.0 * y * y,
        lambda x, y: np.array([2.0 * x, 4.0 * y]),
        lambda x, y: np.array([[2.0, 0.0], [0.0, 4.0]]),
        lambda x, y: np.zeros((2, 2, 2))),
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


def _seg_length(field: KappaField, p: np.ndarray, q: np.ndarray) -> float:
    """Time-integral of kappa along the straight segment p -> q traversed
    at unit parameter speed, by one qk21 pass on [0, 1].

    The sum runs in QUADPACK's order (centre, Gauss-node pairs, Kronrod-only
    pairs), so the value is bit-identical to the one scipy's ``quad`` returns
    when it stops after that pass, as it does for these smooth fields; the
    embedded 10-point Gauss sum gives the error estimate."""

    def integrand(s):
        pt = p + s * (q - p)
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


def _ceva_s3(field: KappaField, x: np.ndarray, sides) -> float:
    """(1/12) sum over side directions u of l_uuu - l_u l_uu at x, for
    l = log kappa, from kappa's closed-form derivatives."""
    k = float(field.value(x[0], x[1]))
    grad = field.gradient(x[0], x[1]) / k
    hess = field.hessian(x[0], x[1]) / k
    third = field.third(x[0], x[1]) / k
    total = 0.0
    for u in sides:
        g = float(grad @ u)
        h = float(u @ hess @ u)
        t = float(u @ (u @ (third @ u)))
        l_uu = h - g * g
        l_uuu = t - 3.0 * g * h + 2.0 * g * g * g
        total += l_uuu - g * l_uu
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
    x = np.asarray(x, dtype=float)
    xi = np.asarray(vf.xi, dtype=float)
    eta = np.asarray(vf.eta, dtype=float)
    field = vf.kappa

    A = x
    B = x + 2 * eps * xi
    C = x + 2 * eps * eta
    K = x + eps * xi
    L = B + eps * (eta - xi)
    M = x + eps * eta

    ak = _seg_length(field, A, K)
    kb = _seg_length(field, K, B)
    bl = _seg_length(field, B, L)
    lc = _seg_length(field, L, C)
    cm = _seg_length(field, C, M)
    ma = _seg_length(field, M, A)
    c = (ak / kb) * (bl / lc) * (cm / ma)

    s3 = _ceva_s3(field, x, (xi, eta - xi, -eta))
    return CevaInfinitesimal(c - 1.0, s3)


def richardson_c_over_eps3(vf: VectorFieldPair, x, eps: float) -> float:
    """Richardson-extrapolated limit of (c-1)/eps^3 using eps and eps/2."""
    r1 = infinitesimal_ceva(vf, x, eps).c_minus_1 / eps ** 3
    r2 = infinitesimal_ceva(vf, x, eps / 2).c_minus_1 / (eps / 2) ** 3
    return 2.0 * r2 - r1
