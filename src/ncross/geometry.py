"""Affine incidence geometry over a noncommutative ring.

Points are pairs (x1, x2) of ring scalars forming a right module: a point
times a scalar multiplies both coordinates on the right.  Collinearity is
decided by a boxed 3x3 quasideterminant and cross-checked against the
ratio criterion (y1-x1)^-1(z1-x1) = (y2-x2)^-1(z2-x2)."""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .errors import (DegeneratePair, CollinearFrame, PairMismatch,
                     UndefinedExpression, agreed)
from .linalg import RingMatrix, quasidet, solve_left
from .plucker import Vec2, qp_left
from .scalars import DEFAULT_ATOL, Scalar


class Point2(NamedTuple):
    x1: Scalar
    x2: Scalar

    @property
    def ring(self):
        return self.x1.ring

    def __add__(self, other):
        return Point2(self.x1 + other.x1, self.x2 + other.x2)

    def scale(self, t: Scalar) -> "Point2":
        return Point2(self.x1 * t, self.x2 * t)


def as_point(p) -> Point2:
    if isinstance(p, Point2):
        return p
    return Point2(p[0], p[1])


def incidence_matrix(x: Point2, y: Point2, z: Point2) -> RingMatrix:
    one = x.ring.one
    return RingMatrix([
        [x.x1, y.x1, z.x1],
        [x.x2, y.x2, z.x2],
        [one, one, one],
    ])


def collinear_defect(x: Point2, y: Point2, z: Point2) -> Scalar:
    """Boxed quasideterminant of the incidence matrix; zero iff collinear."""
    return quasidet(incidence_matrix(as_point(x), as_point(y), as_point(z)), 2, 2)


def collinear(x, y, z, tol: float = DEFAULT_ATOL) -> bool:
    """True iff x, y, z lie on one line.

    Requires x, y in generic position (their 2x2 coordinate matrix
    invertible).  Evaluates both the boxed quasideterminant and the ratio
    criterion; a disagreement between the two raises PairMismatch."""
    x, y, z = as_point(x), as_point(y), as_point(z)
    m2 = RingMatrix([[x.x1, y.x1], [x.x2, y.x2]])
    try:
        m2_inv_ok = quasidet(m2, 0, 0)
        m2_inv_ok.inv()
    except UndefinedExpression as e:
        raise DegeneratePair(f"first two points not generic: {e}") from e

    verdicts = []
    try:
        d = quasidet(incidence_matrix(x, y, z), 2, 2)
        scale = 1.0 + max(c.norm() for c in (x.x1, x.x2, y.x1, y.x2, z.x1, z.x2))
        verdicts.append(d.norm() <= tol * scale)
    except UndefinedExpression:
        pass
    try:
        r1 = (y.x1 - x.x1).inv() * (z.x1 - x.x1)
        r2 = (y.x2 - x.x2).inv() * (z.x2 - x.x2)
        verdicts.append((r1 - r2).norm() <= tol * (1.0 + r1.norm() + r2.norm()))
    except UndefinedExpression:
        pass
    if not verdicts:
        raise UndefinedExpression("both collinearity criteria undefined")
    if len(verdicts) == 2 and verdicts[0] != verdicts[1]:
        raise PairMismatch("quasideterminant and ratio criteria disagree")
    return verdicts[0]


def _division_ratio(u, w, v, tol: float) -> Scalar:
    """(u - w)^-1 (v - w) on whichever coordinate admits it; when both do
    they must agree (true exactly when w lies on line uv)."""
    return agreed([lambda c=c: (u[c] - w[c]).inv() * (v[c] - w[c])
                   for c in range(2)],
                  tol, PairMismatch, "coordinate division ratios")


def _coord_word(pairs, tol: float) -> Scalar:
    acc = None
    for u, w, v in pairs:
        f = _division_ratio(u, w, v, tol)
        acc = f if acc is None else acc * f
    return acc


def menelaus_commutative(a, b, c, d, e, f, tol: float = DEFAULT_ATOL) -> Scalar:
    """(a-f)^-1(b-f) (c-e)^-1(a-e) (b-d)^-1(c-d), per coordinate, for
    F on line AB, E on line CA, D on line BC.  Equals 1 exactly when
    D, E, F are collinear (Menelaus)."""
    pts = [as_point(p) for p in (a, b, c, d, e, f)]
    a, b, c, d, e, f = pts
    return _coord_word(((a, f, b), (c, e, a), (b, d, c)), tol)


def ceva_commutative(a, b, c, d, e, f, tol: float = DEFAULT_ATOL) -> Scalar:
    """(e-a)^-1(e-c) (f-b)^-1(f-a) (d-c)^-1(d-b), per coordinate, for
    D on BC, E on CA, F on AB.  Equals -1 iff the cevians AD, BE, CF are
    concurrent."""
    pts = [as_point(p) for p in (a, b, c, d, e, f)]
    a, b, c, d, e, f = pts
    # (e-a)^-1(e-c) = (a-e)^-1(c-e), and likewise for the other factors
    return _coord_word(((a, e, c), (b, f, a), (c, d, b)), tol)


class Barycentric(NamedTuple):
    t: Scalar
    u: Scalar
    v: Scalar


def barycentric(p, a, b, c, tol: float = DEFAULT_ATOL) -> Barycentric:
    """Right-module weights: p = a*t + b*u + c*v with t + u + v = 1."""
    p, a, b, c = as_point(p), as_point(a), as_point(b), as_point(c)
    one = a.ring.one
    m = RingMatrix([[a.x1, b.x1, c.x1], [a.x2, b.x2, c.x2], [one, one, one]])
    try:
        t, u, v = solve_left(m, [p.x1, p.x2, one])
    except UndefinedExpression as e:
        raise CollinearFrame(f"reference triangle degenerate: {e}") from e
    return Barycentric(t, u, v)


def barycentric_reconstruct(w: Barycentric, a, b, c) -> Point2:
    a, b, c = as_point(a), as_point(b), as_point(c)
    return a.scale(w.t) + b.scale(w.u) + c.scale(w.v)


class BarycentricCollinearity(NamedTuple):
    verdict: bool
    criterion: str  # "quasideterminant" | "reconstructed"


def barycentric_collinear_report(w1: Sequence[Scalar], w2: Sequence[Scalar],
                                 w3: Sequence[Scalar], frame=None,
                                 tol: float = DEFAULT_ATOL) -> BarycentricCollinearity:
    """Points given by weight triples (rows) are collinear iff the weight
    matrix's quasideterminant boxed at the third point's first weight
    vanishes.  When that box is undefined and a reference triangle is
    supplied, fall back to collinear() on the reconstructed points."""
    # columns are the points, rows the weight components; box = third
    # point's first weight
    m = RingMatrix([list(w1), list(w2), list(w3)]).transpose()
    try:
        d = quasidet(m, 0, 2)
        scale = 1.0 + max(x.norm() for x in (*w1, *w2, *w3))
        return BarycentricCollinearity(d.norm() <= tol * scale, "quasideterminant")
    except UndefinedExpression:
        if frame is None:
            raise
        pts = [barycentric_reconstruct(Barycentric(*w), *frame) for w in (w1, w2, w3)]
        return BarycentricCollinearity(collinear(*pts, tol=tol), "reconstructed")


def barycentric_collinear(w1, w2, w3, frame=None, tol: float = DEFAULT_ATOL) -> bool:
    return barycentric_collinear_report(w1, w2, w3, frame, tol).verdict


def segment_point(u, v, t: Scalar) -> Point2:
    """u(1-t) + v t, the parameter acting on the right."""
    u, v = as_point(u), as_point(v)
    one = t.ring.one
    return u.scale(one - t) + v.scale(t)


class MenelausNCReport(NamedTuple):
    product: Scalar          # q^Q_AC q^P_CB q^R_BA
    parameter_form: Scalar   # u(1-u)^-1 t(1-t)^-1 v(1-v)^-1
    residual: float          # |product - 1|
    identity_residual: float  # |t(1-t)^-1 + q^P_CB|


def _qp_affine(u: Point2, v: Point2, w: Point2, tol: float) -> Scalar:
    """Left quasi-Pluecker q^w_uv of the per-coordinate lifts (value, 1);
    the two coordinates must agree when w is on line uv."""
    one = u.ring.one
    return agreed([lambda c=c: qp_left((Vec2(u[c], one), Vec2(v[c], one),
                                        Vec2(w[c], one)), 0, 1, 2, tol)
                   for c in range(2)],
                  tol, PairMismatch, "quasi-Pluecker axis ratios")


def menelaus_nc(a, b, c, t: Scalar, u: Scalar, v: Scalar,
                tol: float = DEFAULT_ATOL) -> MenelausNCReport:
    """Quasi-Pluecker Menelaus.  P = B(1-t)+Ct, Q = C(1-u)+Au,
    R = A(1-v)+Bv; the product q^Q_AC q^P_CB q^R_BA equals 1 iff P, Q, R
    are collinear, and the parameter form u(1-u)^-1 t(1-t)^-1 v(1-v)^-1
    equals -1 in that case."""
    a, b, c = as_point(a), as_point(b), as_point(c)
    one = t.ring.one
    p = segment_point(b, c, t)
    q = segment_point(c, a, u)
    r = segment_point(a, b, v)

    q_q = _qp_affine(a, c, q, tol)
    q_p = _qp_affine(c, b, p, tol)
    q_r = _qp_affine(b, a, r, tol)
    prod = q_q * q_p * q_r

    param = (u * (one - u).inv()) * (t * (one - t).inv()) * (v * (one - v).inv())
    ident = (t * (one - t).inv() + q_p).norm()
    return MenelausNCReport(prod, param, (prod - one).norm(), ident)


class KonopelchenkoReport(NamedTuple):
    theta: Scalar
    theta_zero: bool
    points_collinear: bool
    derived_points: tuple


def konopelchenko(f1, f2, f3, f12: Scalar, f23: Scalar, f31: Scalar,
                  tol: float = DEFAULT_ATOL) -> KonopelchenkoReport:
    """Lattice-triangle angle condition: theta = f12^-1 + f23^-1 + f31^-1
    vanishes iff the derived points F_ij = ((xj-xi)f_ij, (yj-yi)f_ij) are
    collinear."""
    f1, f2, f3 = as_point(f1), as_point(f2), as_point(f3)

    def derived(pi: Point2, pj: Point2, fij: Scalar) -> Point2:
        return Point2((pj.x1 - pi.x1) * fij, (pj.x2 - pi.x2) * fij)

    p12 = derived(f1, f2, f12)
    p23 = derived(f2, f3, f23)
    p31 = derived(f3, f1, f31)
    theta = f12.inv() + f23.inv() + f31.inv()
    scale = 1.0 + max(x.inv().norm() for x in (f12, f23, f31))
    theta_zero = theta.norm() <= tol * scale
    try:
        coll = collinear(p12, p23, p31, tol)
    except DegeneratePair:
        coll = collinear(p23, p12, p31, tol)
    return KonopelchenkoReport(theta, theta_zero, coll, (p12, p23, p31))
