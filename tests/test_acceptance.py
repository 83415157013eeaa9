"""Acceptance gate.

Each test covers one numbered acceptance criterion end to end, at the
stated trial counts and tolerances, and prints a single PASS/FAIL line.
Criterion 10 compares the leading distortion of the Ceva product with its
closed form in kappa's derivatives; for the midpoint construction that
leading term is of order eps^3 (see schwarzian.infinitesimal_ceva).
"""

import math

import numpy as np
import pytest

from ncross.jets import Jet, cos_jet, sin_jet, tan_jet
from ncross.pentagram import classical_pentagram
from ncross.scalars import COMPLEX, QUATERNION, Seed, sample
from ncross.schwarzian import (VectorFieldPair, gauge_theorem_check,
                               infinitesimal_ceva, kappa_field, nc_schwarzian,
                               propagate_left, recover_ode_coeffs,
                               schwarzian_equation_check)
from ncross.errors import NotInvertible, NumericalBreakdown
from ncross.scalars import RationalScalar, ring_by_name
from ncross import suites
from ncross.suites import Draw, SuiteConfig, run_suite
from fractions import Fraction

#: draw pool cap for this module: the 1,000-trial calls at seed 0 draw up
#: to about 20,000 counters of one ring, and a pool that keeps them serves
#: the later calls at that seed (one-off runs keep ``suites.POOL_CAP``)
GATE_POOL_CAP = 32768


@pytest.fixture(scope="module", autouse=True)
def gate_pool_cap():
    """Raise ``suites.POOL_CAP`` for the gate, then restore it and release
    the pooled scalars.  The cap decides only which draws are served from
    the pool, never their bits."""
    cap = suites.POOL_CAP
    suites.clear_draw_pool()
    suites.POOL_CAP = GATE_POOL_CAP
    yield
    suites.POOL_CAP = cap
    suites.clear_draw_pool()


def crit(n, desc, ok):
    line = f"criterion {n:2d} [{'PASS' if ok else 'FAIL'}] {desc}"
    print(line)
    assert ok, line


def suite_ok(name, ring, trials, tol, seed=0, dim=3, max_skip_frac=0.05,
             workers=1):
    rep = run_suite(SuiteConfig(suite=name, ring=ring, dim=dim, trials=trials,
                                seed=seed, tol=tol), workers=workers)
    skip_ok = rep.trials_skipped <= max_skip_frac * trials
    return rep.passed and skip_ok, rep


def test_criterion_1_plucker_properties():
    okq, rq = suite_ok("plucker-properties", "quaternion", 1000, 1e-9)
    okm, rm = suite_ok("plucker-properties", "matrix", 1000, 1e-9, dim=3)
    crit(1, f"plucker properties 1e-9: quaternion max {rq.max_residual:.2e} "
            f"skip {rq.trials_skipped}, matrix(3) max {rm.max_residual:.2e} "
            f"skip {rm.trials_skipped}", okq and okm)


def test_criterion_2_commutative_reductions():
    oks, worst = [], 0.0
    for name in ("plucker-properties", "crossratio-cocycles", "dv-equivalence"):
        okc, rc = suite_ok(name, "complex", 300, 1e-10)
        okr, rr = suite_ok(name, "rational", 300, 1e-10)
        oks += [okc, okr, rr.max_residual == 0.0]
        worst = max(worst, rc.max_residual)
    crit(2, f"commutative reductions: complex <= 1e-10 (max {worst:.2e}), "
            f"rational exact", all(oks))


def test_criterion_3_cross_ratio_laws():
    oks, detail = [], []
    for name in ("crossratio-cocycles", "crossratio-permutations", "dv-cocycle"):
        ok, rep = suite_ok(name, "quaternion", 1000, 1e-9)
        oks.append(ok)
        detail.append(f"{name} {rep.max_residual:.2e}")
    crit(3, "cross-ratio covariance/cocycle/permutation laws, quaternion "
            "1e-9: " + ", ".join(detail), all(oks))


def test_criterion_4_dv_equals_kappa_matrix():
    ok1, r1 = suite_ok("dv-equivalence", "matrix", 1000, 1e-8, dim=3)
    ok2, r2 = suite_ok("dv-cocycle", "matrix", 1000, 1e-8, dim=3)
    crit(4, f"operator cross-ratio on matrix(3) 1e-8: equivalence "
            f"{r1.max_residual:.2e}, chain {r2.max_residual:.2e}", ok1 and ok2)


def test_criterion_5_menelaus_ceva_konopelchenko():
    okm, rm = suite_ok("menelaus", "quaternion", 1000, 1e-9)
    okr, rr = suite_ok("menelaus", "rational", 300, 1e-9)
    okc, rc = suite_ok("ceva", "rational", 300, 1e-12)
    okk, rk = suite_ok("konopelchenko", "quaternion", 1000, 1e-9)
    crit(5, f"menelaus~1 (quat {rm.max_residual:.2e}, rational exact "
            f"{rr.max_residual:.1e}), ceva=-1 rational, konopelchenko "
            f"{rk.max_residual:.2e}",
         okm and okr and okc and okk and rr.max_residual == 0.0
         and rc.max_residual == 0.0)


def test_criterion_6_expansion_order():
    ok_suite, rep = suite_ok("schwarzian-expansion", "quaternion", 100, 1e-9)
    ok_exact, rr = suite_ok("schwarzian-expansion", "rational", 100, 1e-10)
    tan_val = nc_schwarzian(tan_jet(COMPLEX))
    two = COMPLEX.one + COMPLEX.one
    ok_tan = (tan_val - two).norm() <= 1e-12
    crit(6, f"expansion orders 0-2 <= 1e-9 relative on 100 quaternion jets "
            f"(worst {rep.max_residual:.2e}), exactly 0 on rational "
            f"({rr.max_residual:.2e}); Sch(tan) = 2 within 1e-12",
         ok_suite and ok_exact and rr.max_residual == 0.0 and ok_tan)


def test_criterion_7_ode_roundtrip():
    ok_suite, rep = suite_ok("ode-roundtrip", "quaternion", 1000, 1e-9)
    t0 = math.pi / 6
    s, c = math.sin(t0), math.cos(t0)
    f1 = Jet([COMPLEX.from_real(v) for v in (s, c, -s, -c)], COMPLEX)
    f2 = Jet([COMPLEX.from_real(v) for v in (c, -s, -c, s)], COMPLEX)
    a, b = recover_ode_coeffs(f1, f2)
    ok_sc = a.norm() <= 1e-12 and (b - COMPLEX.one).norm() <= 1e-12
    crit(7, f"ODE coefficient roundtrip quaternion 1e-9 (max "
            f"{rep.max_residual:.2e}); sin/cos -> (0, 1) within 1e-12",
         ok_suite and ok_sc)


def _gauge_reports(ring_name, n=100, dim=3):
    ring = ring_by_name(ring_name, dim) if ring_name == "matrix" \
        else ring_by_name(ring_name)
    reps, skipped = [], 0
    for t in range(n):
        d = Draw(ring, 0, t)
        a, b = d.jet(4), d.jet(4)
        f1 = propagate_left(a, b, d.scalar(), d.scalar(), 6)
        f2 = propagate_left(a, b, d.scalar(), d.scalar(), 6)
        try:
            reps.append(gauge_theorem_check(f1, f2, a, b))
        except (NotInvertible, NumericalBreakdown):
            skipped += 1
    return reps, skipped


def test_criterion_8_gauge_theorem():
    oks = []
    for ring_name in ("quaternion", "matrix", "complex"):
        reps, skipped = _gauge_reports(ring_name)
        a_ok = all(r.a_tilde_residual <= 1e-9 for r in reps)
        match = sum(
            (r.b_candidate_square - r.b_direct).norm()
            <= 1e-8 * (1.0 + r.b_direct.norm()) for r in reps)
        unique = all(r.winner == "square" for r in reps)
        oks.append(a_ok and skipped <= 5
                   and match >= int(0.99 * len(reps)) and unique)
    # commutative sanity: the winning candidate is the classical value
    rep = _gauge_reports("complex", n=20)[0][0]
    oks.append((rep.b_candidate_square - rep.b_direct).norm() <= 1e-10)
    crit(8, "gauge theorem: a~ <= 1e-9, unique square-candidate match on "
            ">= 99/100 seeds per ring, commutative winner classical",
         all(oks))


def test_criterion_9_schwarzian_equation():
    ok_suite, rep = suite_ok("schwarzian-equation", "quaternion", 1000, 1e-9)
    g = cos_jet(COMPLEX, 6)
    r = schwarzian_equation_check(g, COMPLEX.zero, COMPLEX.one)
    two = COMPLEX.one + COMPLEX.one
    ok_tan = (r.residual <= 1e-12
              and (r.ncsch_value - two).norm() <= 1e-12
              and (r.F + COMPLEX.one).norm() <= 1e-12)
    crit(9, f"Schwarzian equation quaternion 1e-9 (max "
            f"{rep.max_residual:.2e}); tan instance exact to 1e-12",
         ok_suite and ok_tan)


def richardson_c_over_eps3(vf, x, eps):
    """Richardson-extrapolated limit of (c-1)/eps^3 using eps and eps/2."""
    r1 = infinitesimal_ceva(vf, x, eps).c_minus_1 / eps ** 3
    r2 = infinitesimal_ceva(vf, x, eps / 2).c_minus_1 / (eps / 2) ** 3
    return 2.0 * r2 - r1


def test_criterion_10_infinitesimal_ceva():
    x = np.array([0.0, 0.0])
    flat = VectorFieldPair((1.0, 0.0), (0.0, 1.0), kappa_field("const1"))
    ok_flat = abs(infinitesimal_ceva(flat, x, 1e-2).c_minus_1) <= 1e-12
    # log kappa linear: the half-side log-ratios telescope, c = 1 at any eps
    lin = VectorFieldPair((1.0, 0.0), (0.0, 1.0), kappa_field("exp_y"))
    reps = [infinitesimal_ceva(lin, x, 2.0 ** -k) for k in range(3, 7)]
    ok_lin = all(abs(r.c_minus_1) <= 1e-15 and r.s3 == 0.0 for r in reps)
    base = np.array([0.3, -0.2])
    oks, detail = [], []
    for name in ("poly", "gauss"):
        vf = VectorFieldPair((1.0, 0.0), (0.0, 1.0), kappa_field(name))
        s3 = infinitesimal_ceva(vf, base, 2.0 ** -4).s3
        limit = richardson_c_over_eps3(vf, base, 2.0 ** -4)
        oks.append(s3 != 0 and abs(limit - s3) <= 0.01 * abs(s3))
        detail.append(f"{name} s3 = {s3:.5f} (extrapolated {limit:.5f})")
    crit(10, "infinitesimal Ceva: flat kappa exact; exp_y exact; "
             "(c-1)/eps^3 -> s3 within 1%: " + ", ".join(detail),
         ok_flat and ok_lin and all(oks))


def test_criterion_11_pentagram():
    pts = [RationalScalar(Fraction(v)) for v in range(5)]
    y, res = classical_pentagram(pts)
    want = [Fraction(3), Fraction(1, 2), Fraction(8), Fraction(1, 2),
            Fraction(3)]
    ok_classical = (all((yi - RationalScalar(w)).norm() == 0.0
                        for yi, w in zip(y, want))
                    and all(r == 0.0 for r in res))
    ok_suite_c, _ = suite_ok("pentagram-classical", "rational", 300, 1e-12)
    ok_nc, rn = suite_ok("pentagram-nc", "quaternion", 1000, 1e-9)
    ok_mult, _ = suite_ok("multiplicative-relations", "quaternion", 1000, 1e-9)
    crit(11, f"pentagram: classical exact (3, 1/2, 8, 1/2, 3); NC relations "
             f"quaternion {rn.max_residual:.2e}; multiplicative relations",
         ok_classical and ok_suite_c and ok_nc and ok_mult)


def test_criterion_12_determinism_and_parallel():
    def snap(workers):
        rep = run_suite(SuiteConfig(suite="crossratio-cocycles",
                                    ring="quaternion", dim=3, trials=200,
                                    seed=5, tol=1e-9), workers=workers)
        doc = rep.to_json()
        doc.pop("wall_time")
        return doc
    a, b = snap(1), snap(1)
    c = snap(4)
    crit(12, "determinism: repeated serial runs identical; 4 workers == "
             "serial", a == b and a == c)
