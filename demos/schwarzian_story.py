"""The noncommutative Schwarzian, three ways.

1. as the eps^2 coefficient of the cross-ratio of four points of a curve;
2. as the gauge-invariant second coefficient of a left ODE;
3. as the right-hand side of the Schwarzian equation for ratios of
   solutions.
"""

from ncross import QUATERNION, Seed, sample
from ncross.jets import Jet, cos_jet, tan_jet
from ncross.schwarzian import (expansion_check, gauge_theorem_check,
                               moebius_check, nc_schwarzian, propagate_left,
                               schwarzian_equation_check)
from ncross.scalars import COMPLEX

# --- 1: the expansion ---------------------------------------------------

z = tan_jet(COMPLEX)
print("Sch(tan) =", nc_schwarzian(z), " (classically 2)")

# with t_i = s_i eps, s = (0, 1, 2, 3), the cross-ratio of z(t_0), ..., z(t_3)
# is a jet in eps whose orders 0, 1, 2 are -1/3, 0 and -(8/3) K, where the
# kernel K = (1/6)(z')^-1 z''' - (1/4)((z')^-1 z'')^2 is Sch(z)/6
print("expansion residuals at orders 0, 1, 2:",
      ["%.1e" % r for r in expansion_check(z)])
q = Jet([sample(QUATERNION, Seed(0, k)) for k in range(4)])
print("and on a quaternion curve:", ["%.1e" % r for r in expansion_check(q)])
# a Moebius map conjugates it: Sch((a q + b)(c q + d)^-1) = g Sch(q) g^-1,
# g = c q(0) + d; an affine map (c = 0, d = 1) leaves it unchanged
abcd = [sample(QUATERNION, Seed(4, k)) for k in range(4)]
print("Moebius covariance residuals, general and affine:",
      ["%.1e" % r for r in moebius_check(q, *abcd)])

# --- 2: the gauge picture ----------------------------------------------


def qjet(tag, order=4):
    return Jet([sample(QUATERNION, Seed(tag, k)) for k in range(order + 1)])


a, b = qjet(1), qjet(2)
f1 = propagate_left(a, b, sample(QUATERNION, Seed(3, 0)),
                    sample(QUATERNION, Seed(3, 1)), 6)
f2 = propagate_left(a, b, sample(QUATERNION, Seed(3, 2)),
                    sample(QUATERNION, Seed(3, 3)), 6)
rep = gauge_theorem_check(f1, f2, a, b)
print("gauged first coefficient residual:", rep.a_tilde_residual)
print("which reading of b~ wins:", rep.winner,
      " (theta' - theta^2/2, not theta' - theta/2)")

# --- 3: the equation ----------------------------------------------------

eq = schwarzian_equation_check(cos_jet(COMPLEX, 6), COMPLEX.zero, COMPLEX.one)
print("h = tan satisfies the Schwarzian equation, residual:", eq.residual)
print("NCSch(h) =", eq.ncsch_value, " F =", eq.F)
