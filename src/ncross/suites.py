"""Named verification suites.

Every suite draws its trial data deterministically from (seed, trial
index) and evaluates a bundle of identities.  Its trial body returns their
residuals as a list; ``run_suite`` alone reduces it to the trial's worst,
and a NaN anywhere in it fails the trial.  Degenerate draws
(UndefinedExpression) are skipped and counted; a suite only fails when a
residual exceeds the tolerance on a well-defined trial, or when the
skipped fraction exceeds the ceiling.

Every suite draws trial t's k-th scalar from the same counter,
t * ``_STRIDE`` + k, so suites run at one seed in one process draw mostly
the same scalars, and a failing trial's ``Draw.inputs`` re-draws its own.
``Draw`` serves those repeats from a draw pool: per ring, the scalars it
has drawn at its latest seed, keyed by counter, at most ``POOL_CAP`` of
them.  A ``Draw`` at another seed replaces its ring's pool, and
``clear_draw_pool`` empties every pool.  Every scalar is immutable, so a
pooled scalar is the value, to the bit, that ``Ring.sample`` would draw
again; a pooled matrix also keeps its memoised condition number and
inverse.

On the matrix ring, plucker-properties, dv-equivalence and dv-cocycle run
their unchanged trial bodies on lanes: one call per chunk of up to
``LANES`` trials, each scalar a stack of one matrix per trial
(``LanesDraw``, ``ncross.matrix.MatLanes``).  A lanes draw samples the
chunk's draws missing from the pool together, their streams computed
together with ``Stream``'s bits and one stacked guard
(``MatrixRing.sample_stack``), and every one of them is the scalar
``Ring.sample`` draws for its counter.  A lane that passes keeps its
residual; every other lane is replayed on the scalar path
(``run_suite``), so the report is the scalar path's, bit for bit."""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

from . import crossratio, geometry, pentagram, schwarzian
from .errors import (DrawBudgetExceeded, NumericalBreakdown,
                     UndefinedExpression, UnknownSuite,
                     UnsupportedRingForSuite, relative_norm,
                     relative_residual)
from .jets import Jet
from .linalg import solve_left
from .plucker import (Vec2, clear_memos, qp_left, qp_right, plucker_minor,
                      x_gaps)
from .scalars import (Ring, Seed, Scalar, conjugate_by, ring_by_name,
                      scalar_to_json, similar)

SKIP_CEILING = 0.05

#: stride separating the draw counters of consecutive trials; a trial may
#: not draw more scalars than this (they draw a few dozen), or it would
#: reuse the next trial's stream
_STRIDE = 100003

#: scalars the draw pool keeps per ring.  A 100-trial benchmark round draws
#: at most 2,000 distinct counters of one ring, which all fit; a one-off
#: ``verify`` never repeats a draw, so whatever it pools is held for nothing
POOL_CAP = 2048

#: trials a lanes chunk holds at most (see ``run_suite``).  A lanes value
#: of matrix(d) holds 16 LANES d^2 bytes, 18 kB at d = 3, and a chunk of
#: plucker-properties, the largest body, keeps about 100 of them alive:
#: its tracemalloc peak is about 1.3 MB above the scalar path's at d = 3
#: and 12 MB at d = 8.  Every value is released when the chunk ends.
LANES = 128

#: ring -> (seed, {counter: scalar}), the draw pool; first-come, not LRU:
#: it holds no earlier seed's draws, and a round past the cap still hits
#: on the draws it holds
_pool: dict = {}


def clear_draw_pool() -> None:
    """Empty the draw pool of every ring, releasing its scalars."""
    _pool.clear()


class Draw:
    """Deterministic scalar source for one trial; it counts its draws.

    A draw missing from the ring's draw pool is ``ring.sample(Seed(seed,
    counter))``, stored while the pool holds fewer than ``POOL_CAP``
    scalars; a draw in the pool is the stored scalar, the same value and
    bits.  Draws hit when several suites run at one seed in one process,
    and when a failing trial's inputs are logged; the other draws of one
    suite call at a fresh seed draw each counter once."""

    def __init__(self, ring: Ring, seed: int, trial: int):
        self.ring = ring
        self.seed = seed
        self.trial = trial
        self.k = 0
        entry = _pool.get(ring)
        if entry is None or entry[0] != seed:
            entry = _pool[ring] = (seed, {})
        self._drawn = entry[1]

    def _counter(self) -> int:
        """The counter of the trial's next draw, within its budget."""
        if self.k >= _STRIDE:
            raise DrawBudgetExceeded(
                f"trial {self.trial} drew more than {_STRIDE} scalars")
        return self.trial * _STRIDE + self.k

    def scalar(self) -> Scalar:
        counter = self._counter()
        drawn = self._drawn
        s = drawn.get(counter)
        if s is None:
            s = self.ring.sample(Seed(self.seed, counter))
            if len(drawn) < POOL_CAP:
                drawn[counter] = s
        self.k += 1
        return s

    def inputs(self) -> list:
        """The JSON of the scalars drawn so far, re-drawn through the draw
        pool, which holds the trial's draws unless it was full: pooled
        draws are the very scalars drawn, the others are sampled again
        from the stream, to the same bits."""
        replay = Draw(self.ring, self.seed, self.trial)
        return [scalar_to_json(replay.scalar()) for _ in range(self.k)]

    def vec2(self) -> Vec2:
        return Vec2(self.scalar(), self.scalar())

    def jet(self, order: int) -> Jet:
        return Jet([self.scalar() for _ in range(order + 1)])


class LanesDraw(Draw):
    """Draws for trials ``trial .. trial + n - 1`` at once: draw k is the
    k-th scalar of every one of those trials, as one lanes scalar.  Each
    trial keeps its own ``Draw``, which counts its draws against its
    budget.  The ring's ``sample_stack`` takes the draws the pool holds
    and samples the others together, to ``Ring.sample``'s bits; they join
    the pool in trial order, as each trial's ``Draw.scalar`` would add
    them.  Every draw shares the lane mask of the first, ``lanes``."""

    def __init__(self, ring: Ring, seed: int, trial: int, n: int):
        super().__init__(ring, seed, trial)
        self.draws = [Draw(ring, seed, t) for t in range(trial, trial + n)]
        self.lanes = None

    def scalar(self) -> Scalar:
        drawn = self._drawn
        s, fresh = self.ring.sample_stack(
            self.seed, [d._counter() for d in self.draws], drawn, self.lanes)
        for counter, x in fresh.items():
            if len(drawn) >= POOL_CAP:
                break
            drawn[counter] = x
        for d in self.draws:
            d.k += 1
        if self.lanes is None:
            self.lanes = s
        self.k += 1
        return s


@dataclass(frozen=True)
class SuiteConfig:
    suite: str
    ring: str = "quaternion"
    dim: int = 3
    trials: int = 1000
    seed: int = 0
    tol: float = 1e-9
    skip_policy: str = "count"  # or "fail"

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if not self.tol > 0:  # also rejects NaN
            raise ValueError("tol must be positive")
        if self.skip_policy not in ("count", "fail"):
            raise ValueError("skip_policy must be 'count' or 'fail'")


class Failure(NamedTuple):
    counter: int
    #: None for a trial skipped under skip_policy "fail"; a non-finite
    #: residual is kept here and reported as null
    residual: float | None
    inputs: list


@dataclass
class Report:
    suite: str
    ring: str
    trials_run: int
    trials_skipped: int
    max_residual: float
    failures: list
    passed: bool
    wall_time: float
    notes: str = ""

    def to_json(self):
        return {
            "suite": self.suite,
            "ring": self.ring,
            "trials_run": self.trials_run,
            "trials_skipped": self.trials_skipped,
            "max_residual": self.max_residual,
            "failures": [
                {"counter": f.counter,
                 "residual": (f.residual if f.residual is not None
                              and math.isfinite(f.residual) else None),
                 "inputs": f.inputs}
                for f in self.failures
            ],
            "pass": self.passed,
            "wall_time": self.wall_time,
            "notes": self.notes,
        }


# ---------------------------------------------------------------------------
# trial bodies; each returns the residuals of all its identities as a list


def _t_plucker(d: Draw, tol: float) -> list:
    ring = d.ring
    one = ring.one
    cols = [d.vec2() for _ in range(4)]
    i, j, k, l = 0, 1, 2, 3
    res = []
    # boundary values: q^k_ik = 1, q^k_kj = 0
    res.append((qp_left(cols, i, i, k, tol) - one).norm())
    res.append(qp_left(cols, i, k, k, tol).norm())
    # P1: left GL2 action invariance
    g = [[d.scalar() for _ in range(2)] for _ in range(2)]
    gcols = [Vec2(g[0][0] * c.x1 + g[0][1] * c.x2,
                  g[1][0] * c.x1 + g[1][1] * c.x2) for c in cols]
    res.append(relative_residual(qp_left(gcols, i, j, k, tol),
                                 qp_left(cols, i, j, k, tol)))
    # P2: right diagonal scaling
    lam = [d.scalar() for _ in range(4)]
    scols = [Vec2(c.x1 * m, c.x2 * m) for c, m in zip(cols, lam)]
    res.append(relative_residual(
        qp_left(scols, i, j, k, tol),
        lam[i].inv() * qp_left(cols, i, j, k, tol) * lam[j]))
    # P4: inverse pair and chain
    res.append((qp_left(cols, i, j, k, tol) * qp_left(cols, j, i, k, tol) - one).norm())
    res.append(relative_residual(
        qp_left(cols, i, j, k, tol) * qp_left(cols, j, l, k, tol),
        qp_left(cols, i, l, k, tol)))
    # P5: skew-symmetry
    res.append((qp_left(cols, i, j, k, tol) * qp_left(cols, j, k, i, tol)
                * qp_left(cols, k, i, j, tol) + one).norm())
    # P6: Pluecker identity (normalized by the cancelling term scale)
    t1 = qp_left(cols, i, j, k, tol) * qp_left(cols, j, i, l, tol)
    t2 = qp_left(cols, i, l, k, tol) * qp_left(cols, l, i, j, tol)
    res.append(relative_norm((t1 + t2 - one).norm(), t1.norm(), t2.norm()))
    # right coordinates against the left ones on the transpose
    rows = [(c.x1, c.x2) for c in cols[:3]]
    res.append((qp_right(rows, 0, 1, 2, tol) * qp_right(rows, 1, 0, 2, tol)
                - one).norm())
    if ring.commutative:
        # minor-ratio reduction
        q = qp_left(cols, i, j, k, tol)
        res.append(relative_residual(q * plucker_minor(cols, i, k),
                                     plucker_minor(cols, j, k)))
    return res


def _t_crossratio_cocycles(d: Draw, tol: float) -> list:
    one = d.ring.one
    K = crossratio.cross_ratio
    x, y, z, t, w = (d.vec2() for _ in range(5))
    res = []
    k0 = K(x, y, z, t, tol)
    # covariance under the full group action, explicit witness
    g = [[d.scalar() for _ in range(2)] for _ in range(2)]
    lam = [d.scalar() for _ in range(4)]

    def act(v, m):
        return Vec2((g[0][0] * v.x1 + g[0][1] * v.x2) * m,
                    (g[1][0] * v.x1 + g[1][1] * v.x2) * m)

    k1 = K(act(x, lam[0]), act(y, lam[1]), act(z, lam[2]), act(t, lam[3]), tol)
    res.append((k1 - conjugate_by(k0, lam[2].inv())).norm())
    if not similar(k0, k1, 1e-6):
        res.append(1.0)
    # cocycles
    res.append((k0 - K(w, y, z, t, tol) * K(x, w, z, t, tol)).norm())
    res.append((k0 - (one - K(t, y, z, x, tol))).norm())
    # chain for four midpoints and the unit case
    x1, x2, x3, x4 = x, y, w, d.vec2()
    res.append((K(x3, x4, z, t, tol) * K(x2, x3, z, t, tol) * K(x1, x2, z, t, tol)
                - K(x1, x4, z, t, tol)).norm())
    res.append((K(x, x, z, t, tol) - one).norm())
    # inversion
    res.append((k0 * crossratio.cross_ratio_bar(x, y, z, t, tol) - one).norm())
    return res


def _t_crossratio_permutations(d: Draw, tol: float) -> list:
    K = crossratio.cross_ratio
    x, y, z, t = (d.vec2() for _ in range(4))
    cols = (x, y, z, t)

    def q(k, i, j):
        return qp_left(cols, i, j, k, tol)

    X, Y, Z, T = 0, 1, 2, 3
    k0 = K(x, y, z, t, tol)
    res = []
    # swap both pairs, both conjugators
    r1 = K(y, x, t, z, tol)
    res.append((q(X, T, Z) * k0 * q(X, Z, T) - r1).norm())
    res.append((q(Y, T, Z) * k0 * q(Y, Z, T) - r1).norm())
    # rotate pairs, both conjugators
    r2 = K(z, t, x, y, tol)
    res.append((q(Y, X, Z) * k0 * q(Y, Z, X) - r2).norm())
    res.append((q(T, X, Z) * k0 * q(T, Z, X) - r2).norm())
    # third display; the closing relation is kappa(t,z,y,x) (swapping both
    # pairs of the mirrored ordering), which the commutative reduction fixes
    r3 = K(t, z, y, x, tol)
    res.append((q(X, Y, Z) * k0 * q(X, Z, Y) - r3).norm())
    res.append((q(T, Y, Z) * k0 * q(T, Z, Y) - r3).norm())
    # inversion law
    res.append((K(y, x, z, t, tol) - k0.inv()).norm())
    # angles: antisymmetry-corrected ratio identities
    a1, a2, a3, a4 = x, y, z, t
    T4_23 = crossratio.nc_angle(a4, a2, a3, tol)
    T4_31 = crossratio.nc_angle(a4, a3, a1, tol)
    x43, = x_gaps(a4, a3)
    res.append((K(a1, a2, a3, a4, tol)
                + x43.inv() * T4_23.inv() * T4_31 * x43).norm())
    Tjk = crossratio.nc_angle(a1, a2, a3, tol)
    Tmk = crossratio.nc_angle(a1, a4, a3, tol)
    res.append((Tjk * Tmk.inv()
                - qp_left(cols, 0, 2, 1, tol) * qp_left(cols, 2, 0, 3, tol)).norm())
    # triple ratio two-route agreement
    tr = crossratio.triple_ratio(*(d.scalar() for _ in range(5)), tol=tol)
    res.append(tr.residual)
    if d.ring.commutative:
        # the short commuted word only matches when factors commute
        res.append(tr.naive_residual)
    return res


def _t_dv_equivalence(d: Draw, tol: float) -> list:
    one = d.ring.one
    P1, P2, Q1, Q2 = (d.scalar() for _ in range(4))
    lhs = crossratio.dv(crossratio.PolarizationQuad(Q2, P2, Q1, P1))
    vecs = [Vec2(one, op) for op in (P1, P2, Q1, Q2)]
    rhs = crossratio.cross_ratio(vecs[0], vecs[1], vecs[3], vecs[2], tol)
    return [(lhs - rhs).norm()]


def _t_dv_cocycle(d: Draw, tol: float) -> list:
    one = d.ring.one
    A, B, X, Y, Z = (d.scalar() for _ in range(5))

    def DV(a, b, c, e):
        return crossratio.dv(crossratio.PolarizationQuad(a, b, c, e))

    chain = DV(A, X, B, Y) * DV(A, Y, B, Z)
    return [
        (chain - DV(A, X, B, Z)).norm(),
        (chain * DV(A, Z, B, X) - one).norm(),
    ]


def _t_geometry_collinear(d: Draw, tol: float) -> list:
    one = d.ring.one
    a, b = d.vec2(), d.vec2()
    lam = d.scalar()
    z = geometry.segment_point(a, b, lam)
    res = []
    res.append(0.0 if geometry.collinear(a, b, z, tol=1e-7) else 1.0)
    w = d.vec2()
    res.append(1.0 if geometry.collinear(a, b, w, tol=1e-7) else 0.0)
    # the two criteria agree through collinear() already; also check the
    # raw quasideterminant defect on the constructed point
    res.append(geometry.collinear_defect(a, b, z).norm())
    # barycentric roundtrip
    c = d.vec2()
    wts = geometry.barycentric(w, a, b, c, tol)
    rec = geometry.barycentric_reconstruct(wts, a, b, c)
    res.append((rec.x1 - w.x1).norm() + (rec.x2 - w.x2).norm())
    res.append((wts.t + wts.u + wts.v - one).norm())
    # weight-space collinearity matches point collinearity
    u, v = d.vec2(), d.vec2()
    on_line = [geometry.segment_point(u, v, d.scalar()) for _ in range(3)]
    ws = [geometry.barycentric(p, a, b, c, tol) for p in on_line]
    r1 = geometry.barycentric_collinear_report(*ws, frame=(a, b, c), tol=1e-7)
    res.append(0.0 if r1.verdict else 1.0)
    ws[2] = geometry.barycentric(w, a, b, c, tol)
    r2 = geometry.barycentric_collinear_report(*ws, frame=(a, b, c), tol=1e-7)
    res.append(1.0 if r2.verdict else 0.0)
    return res


def _meet_param(p1: Vec2, p2: Vec2, p3: Vec2, p4: Vec2) -> Scalar:
    """The parameter s at which line p1p2, as p1 + (p2 - p1)s, meets line
    p3p4."""
    m = [[p2.x1 - p1.x1, -(p4.x1 - p3.x1)],
         [p2.x2 - p1.x2, -(p4.x2 - p3.x2)]]
    s, _ = solve_left(m, [p3.x1 - p1.x1, p3.x2 - p1.x2])
    return s


def _t_menelaus(d: Draw, tol: float) -> list:
    ring = d.ring
    one = ring.one
    a, b, c = d.vec2(), d.vec2(), d.vec2()
    t_, u_ = d.scalar(), d.scalar()
    p = geometry.segment_point(b, c, t_)
    q = geometry.segment_point(c, a, u_)
    # choose v so that R = A(1-v)+Bv lands on line PQ
    v_ = _meet_param(a, b, p, q)
    rep = geometry.menelaus_nc(a, b, c, t_, u_, v_, tol)
    res = [rep.residual, (rep.parameter_form + one).norm(), rep.identity_residual]
    if ring.commutative:
        r = geometry.segment_point(a, b, v_)
        word = geometry.menelaus_commutative(a, b, c, p, q, r, tol)
        res.append((word - one).norm())
    # non-collinear control: perturb v
    rep2 = geometry.menelaus_nc(a, b, c, t_, u_, v_ + one, tol)
    res.append(0.0 if rep2.residual > 1e-6 else 1.0)
    return res


def _t_ceva(d: Draw, tol: float) -> list:
    one = d.ring.one
    a, b, c = d.vec2(), d.vec2(), d.vec2()
    # cevians through an interior point p: feet are line intersections
    wt, wu = d.scalar(), d.scalar()
    p = Vec2(a.x1 + (b.x1 - a.x1) * wt + (c.x1 - a.x1) * wu,
             a.x2 + (b.x2 - a.x2) * wt + (c.x2 - a.x2) * wu)

    def meet(p1, p2, p3, p4):
        # line p1p2 with line p3p4
        s = _meet_param(p1, p2, p3, p4)
        return Vec2(p1.x1 + (p2.x1 - p1.x1) * s, p1.x2 + (p2.x2 - p1.x2) * s)

    dd = meet(a, p, b, c)
    e = meet(b, p, c, a)
    f = meet(c, p, a, b)
    val = geometry.ceva_commutative(a, b, c, dd, e, f, tol)
    res = [(val + one).norm()]
    # menelaus word on the same feet must not be 1 (they are not collinear
    # for generic cevians), and medial-style non-concurrent feet differ from -1
    g = meet(a, geometry.segment_point(b, c, d.scalar()), b, c)
    val2 = geometry.ceva_commutative(a, b, c, g, e, f, tol)
    res.append(0.0 if (val2 + one).norm() > 1e-6 else 1.0)
    return res


def _t_konopelchenko(d: Draw, tol: float) -> list:
    f1, f2, f3 = d.vec2(), d.vec2(), d.vec2()
    f12, f23 = d.scalar(), d.scalar()
    f31 = -((f12.inv() + f23.inv()).inv())
    rep = geometry.konopelchenko(f1, f2, f3, f12, f23, f31, tol=1e-7)
    res = [rep.theta.norm()]
    res.append(0.0 if (rep.theta_zero and rep.points_collinear) else 1.0)
    rep2 = geometry.konopelchenko(f1, f2, f3, f12, f23, d.scalar(), tol=1e-7)
    res.append(0.0 if (rep2.theta_zero == rep2.points_collinear) else 1.0)
    return res


def _t_schwarzian_expansion(d: Draw, tol: float) -> list:
    return list(schwarzian.expansion_check(d.jet(3)))


def _t_schwarzian_moebius(d: Draw, tol: float) -> list:
    z = d.jet(3)
    return list(schwarzian.moebius_check(z, *(d.scalar() for _ in range(4))))


def _ode_pair(d: Draw, order: int):
    """Coefficient jets a, b of f'' + a f' + b f = 0 and two solutions
    f1, f2 propagated to ``order`` from drawn initial values.  Order m of
    a solution reads only lower orders, so it has the same bits at every
    propagation order that reaches it."""
    a, b = d.jet(4), d.jet(4)
    f1 = schwarzian.propagate_left(a, b, d.scalar(), d.scalar(), order)
    f2 = schwarzian.propagate_left(a, b, d.scalar(), d.scalar(), order)
    return a, b, f1, f2


def _t_ode_roundtrip(d: Draw, tol: float) -> list:
    # every check below reads the solutions to order 2 only
    a, b, f1, f2 = _ode_pair(d, 2)
    ar, br = schwarzian.recover_ode_coeffs(f1, f2, tol)
    res = [(ar - a[0]).norm(), (br - b[0]).norm()]
    # internal identity: -b = a f' f^-1 + f'' f^-1 for both solutions
    for f in (f1, f2):
        fi = f[0].inv()
        res.append((b[0] + a[0] * f[1] * fi + f[2] * fi).norm())
    # second-coefficient identity through phi
    f1i = f1[0].inv()
    phi = f1.inv() * f2  # phi[1], phi[2] are read
    res.append((a[0] + 2.0 * (f1[1] * f1i)
                + f1[0] * phi[2] * phi[1].inv() * f1i).norm())
    return res


def _t_gauge_theorem(d: Draw, tol: float) -> list:
    a, b, f1, f2 = _ode_pair(d, 6)
    rep = schwarzian.gauge_theorem_check(f1, f2, a, b, tol)
    res = [rep.a_tilde_residual, rep.prop_residual,
           (rep.b_candidate_square - rep.b_direct).norm()
           / (1.0 + rep.b_direct.norm())]
    if rep.winner != "square":
        res.append(1.0)
    return res


def _t_schwarzian_equation(d: Draw, tol: float) -> list:
    g = d.jet(6)
    return [schwarzian.schwarzian_equation_check(g, d.scalar(), d.scalar(), tol).residual]


_CEVA_FIELDS = ("const1", "exp_y", "gauss", "poly")


def _t_ceva_infinitesimal(d: Draw, tol: float) -> list:
    return list(_ceva_case(_CEVA_FIELDS[d.trial % len(_CEVA_FIELDS)]))


@lru_cache(maxsize=len(_CEVA_FIELDS))
def _ceva_case(name: str) -> tuple:
    """The residuals of ceva-infinitesimal for one kappa field: the suite
    draws no scalar, so a trial's residuals depend on its field alone."""
    vf = schwarzian.VectorFieldPair((1.0, 0.0), (0.0, 1.0),
                                    schwarzian.kappa_field(name))
    base = (0.0, 0.0) if name in ("const1", "exp_y") else (0.3, -0.2)
    eps = 0.05
    r1 = schwarzian.infinitesimal_ceva(vf, base, eps)
    r2 = schwarzian.infinitesimal_ceva(vf, base, eps / 2)
    if name in ("const1", "exp_y"):
        # exact cancellation cases
        return (abs(r1.c_minus_1),)
    # distortion decays at third order: halving eps divides c-1 by ~8
    slope = math.log2(abs(r1.c_minus_1) / max(abs(r2.c_minus_1), 1e-300))
    res = [0.0 if slope >= 2.7 else 2.7 - slope]
    # equal fields span a degenerate triangle: c = 1 and s3 = 0 exactly
    vf2 = schwarzian.VectorFieldPair((1.0, 1.0), (1.0, 1.0),
                                     schwarzian.kappa_field(name))
    r3 = schwarzian.infinitesimal_ceva(vf2, base, eps)
    res.append(abs(r3.s3))
    res.append(abs(r3.c_minus_1) / eps ** 2)
    return tuple(res)


def _t_pentagram_classical(d: Draw, tol: float) -> list:
    one = d.ring.one
    pts = [d.scalar() for _ in range(5)]
    y, resids = pentagram.classical_pentagram(pts)
    res = list(resids)
    # the renamed sequence satisfies the pentagon recurrence
    x = [y[i] for i in (0, 3, 1, 4, 2)]
    for i in range(5):
        res.append((x[(i - 1) % 5] * x[(i + 1) % 5] - one - x[i]).norm())
    # bridge to the cross-ratio bracket: y_i = (kappa_i - 1)^-1 on lifts
    lifts = [crossratio.affine_vec2(p) for p in pts]
    for i in range(5):
        kap = crossratio.cross_ratio(lifts[(i + 1) % 5], lifts[(i + 2) % 5],
                                     lifts[(i + 3) % 5], lifts[(i + 4) % 5], tol)
        res.append((y[i] - (kap - one).inv()).norm())
    return res


def _t_pentagram_nc(d: Draw, tol: float) -> list:
    p = pentagram.Pentad(*(d.vec2() for _ in range(5)))
    rep = pentagram.pentagram_relations_check(p, tol)
    res = list(rep.residuals)
    # odd relations holding must force the even ones
    odd = max(rep.residuals[0::2])
    even = max(rep.residuals[1::2])
    if odd <= tol and even > 100.0 * (odd + tol):
        res.append(even)
    return res


def _t_multiplicative(d: Draw, tol: float) -> list:
    rep = pentagram.multiplicative_relations_check(
        *(d.vec2() for _ in range(5)), tol=tol)
    return list(rep.residuals)


def _t_leapfrog(d: Draw, tol: float) -> list:
    one = d.ring.one
    sm1, s, sp1, sminus = (d.scalar() for _ in range(4))
    L = ((sp1 - s).inv() * (sminus - s) * (sminus - sm1).inv() * (sp1 - sm1))
    lam = d.scalar()
    target = lam.inv() * L * lam
    w = (sm1 - s) * target * (sm1 - sp1).inv()
    splus = (one - w).inv() * (s - w * sp1)
    res = []
    res.append(0.0 if pentagram.leapfrog_compatible(sm1, s, sp1, sminus, splus)
               else 1.0)
    res.append(1.0 if pentagram.leapfrog_compatible(sm1, s, sp1, sminus,
                                                    splus + one + one) else 0.0)
    return res


@dataclass(frozen=True)
class SuiteSpec:
    name: str
    trial: Callable
    description: str
    rings: tuple = ("quaternion", "matrix", "complex", "rational")
    #: the trial body runs unchanged on lanes (``run_suite``): every value
    #: it reads goes through ring operators, ``inv``, ``norm`` and
    #: ``errors.agree``/``relative_norm``, never through Python control flow
    lanes: bool = False


SUITES = {
    s.name: s for s in [
        SuiteSpec("plucker-properties", _t_plucker,
                  "quasi-Pluecker coordinate properties 1-6 and duals",
                  lanes=True),
        SuiteSpec("crossratio-cocycles", _t_crossratio_cocycles,
                  "cross-ratio covariance, conjugacy and cocycle laws"),
        SuiteSpec("crossratio-permutations", _t_crossratio_permutations,
                  "permutation conjugation laws, angles, triple ratio"),
        SuiteSpec("dv-equivalence", _t_dv_equivalence,
                  "operator cross-ratio equals the vector cross-ratio",
                  lanes=True),
        SuiteSpec("dv-cocycle", _t_dv_cocycle,
                  "operator cross-ratio chain and closed-triple laws",
                  lanes=True),
        SuiteSpec("geometry-collinear", _t_geometry_collinear,
                  "collinearity criteria and barycentric coordinates"),
        SuiteSpec("menelaus", _t_menelaus,
                  "quasi-Pluecker Menelaus product on constructed transversals"),
        SuiteSpec("ceva", _t_ceva,
                  "commutative Ceva product equals -1 for concurrent cevians",
                  rings=("complex", "rational")),
        SuiteSpec("konopelchenko", _t_konopelchenko,
                  "inverse-sum angle condition vs collinearity"),
        SuiteSpec("schwarzian-expansion", _t_schwarzian_expansion,
                  "cross-ratio of a curve's four points matches its "
                  "Schwarzian expansion at orders 0-2 in eps"),
        SuiteSpec("schwarzian-moebius", _t_schwarzian_moebius,
                  "S((a z + b)(c z + d)^-1) = g S(z) g^-1, g = c z(0) + d, "
                  "and the affine case S(a z + b) = S(z)"),
        SuiteSpec("ode-roundtrip", _t_ode_roundtrip,
                  "recover left ODE coefficients from propagated solutions"),
        SuiteSpec("gauge-theorem", _t_gauge_theorem,
                  "gauge removal of the first coefficient; transformed second "
                  "coefficient matches the theta-square reading"),
        SuiteSpec("schwarzian-equation", _t_schwarzian_equation,
                  "h''' = (3/2) h'' (h')^-1 h'' - 2 h' F for solution ratios"),
        SuiteSpec("ceva-infinitesimal", _t_ceva_infinitesimal,
                  "distorted Ceva product decays at third order in eps; "
                  "deterministic in trial % 4",
                  rings=("rational", "complex", "quaternion", "matrix")),
        SuiteSpec("pentagram-classical", _t_pentagram_classical,
                  "Gauss pentagram recurrence, renaming, bracket bridge",
                  rings=("complex", "rational")),
        SuiteSpec("pentagram-nc", _t_pentagram_nc,
                  "five pentagram relations with the double-swap continuation"),
        SuiteSpec("multiplicative-relations", _t_multiplicative,
                  "two five-vector multiplicative cross-ratio relations"),
        SuiteSpec("leapfrog", _t_leapfrog,
                  "leapfrog compatibility as conjugacy of two cross-ratios"),
    ]
}


def list_suites():
    return [(s.name, s.description, s.rings) for s in SUITES.values()]


def _worst(res: list) -> float:
    """A trial's residual from its list: the worst, or NaN when any is
    NaN."""
    return math.nan if any(r != r for r in res) else max(res)


def _run_trial(spec: SuiteSpec, ring: Ring, cfg: SuiteConfig, idx: int):
    """(worst residual, the trial's Draw); the residual is None for a
    skipped trial and NaN when any of the trial's residuals is NaN."""
    d = Draw(ring, cfg.seed, idx)
    try:
        res = spec.trial(d, cfg.tol)
    except (UndefinedExpression, NumericalBreakdown):
        return None, d
    return _worst(res), d


def _run_lanes(spec: SuiteSpec, ring: Ring, cfg: SuiteConfig, start: int,
               stop: int) -> list:
    """Trials ``start .. stop - 1`` as the lanes of one trial body call:
    per trial, its worst residual when that is finite and within ``tol``,
    else None, and the trial is to be replayed on ``_run_trial``.  None
    for every trial when the body raised.  The memos are emptied after the
    call, so no lanes value outlives its chunk."""
    d = LanesDraw(ring, cfg.seed, start, stop - start)
    try:
        res = spec.trial(d, cfg.tol)
    except (UndefinedExpression, NumericalBreakdown):
        return [None] * (stop - start)
    finally:
        clear_memos()
    worst = []
    for row in d.lanes.rows(res):
        r = None if row is None else _worst(row)
        worst.append(r if r is not None and math.isfinite(r) and r <= cfg.tol
                     else None)
    return worst


def run_suite(cfg: SuiteConfig, workers: int = 1) -> Report:
    """Run the configured suite.  ``workers`` is accepted for compatibility
    and has no effect: trials run in one thread, in order.

    A suite marked ``lanes`` (plucker-properties, dv-equivalence and
    dv-cocycle) on a ring with lanes (the matrix ring) runs its trial body
    once per chunk of at most ``LANES`` trials, on lanes scalars that
    stack one value per trial (``ncross.matrix.MatLanes``).  A lane whose
    residual is finite and within ``tol`` passes with that residual, which
    is the one ``_run_trial`` gives it.  Every other trial is replayed on
    ``_run_trial``, so its skip, its NaN and its failure ``inputs`` come
    from the scalar path: a lane masked where a scalar would have raised,
    a NaN, infinite or above-``tol`` residual, and every trial of a chunk
    whose body raised."""
    if cfg.suite not in SUITES:
        raise UnknownSuite(cfg.suite)
    spec = SUITES[cfg.suite]
    if cfg.ring not in spec.rings:
        raise UnsupportedRingForSuite(
            f"suite {cfg.suite} supports rings {spec.rings}, not {cfg.ring!r}")
    ring = ring_by_name(cfg.ring, cfg.dim)
    lanes = spec.lanes and ring.lanes
    step = LANES if lanes else cfg.trials
    start = time.perf_counter()
    skipped = 0
    max_res = 0.0
    failures = []
    for first in range(0, cfg.trials, step):
        stop = min(first + step, cfg.trials)
        worst = (_run_lanes(spec, ring, cfg, first, stop) if lanes
                 else [None] * (stop - first))
        for idx, residual in zip(range(first, stop), worst):
            if residual is None:  # no lanes, or a lane to replay
                residual, d = _run_trial(spec, ring, cfg, idx)
            if residual is None:
                skipped += 1
                if cfg.skip_policy == "fail":
                    failures.append(Failure(idx, None, d.inputs()))
                continue
            if math.isfinite(residual):  # NaN would slip past max and > tol
                max_res = max(max_res, residual)
                if residual <= cfg.tol:
                    continue
            failures.append(Failure(idx, residual, d.inputs()))

    notes = ""
    passed = not failures
    if cfg.skip_policy == "count" and skipped > SKIP_CEILING * cfg.trials:
        passed = False
        notes = (f"skipped fraction {skipped / cfg.trials:.3f} exceeds "
                 f"ceiling {SKIP_CEILING}")
    return Report(cfg.suite, ring.name, cfg.trials - skipped, skipped,
                  max_res, failures, passed, time.perf_counter() - start, notes)
