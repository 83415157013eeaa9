"""Exception taxonomy shared by all modules.

Degenerate configurations (a required inverse does not exist) raise
subclasses of :class:`UndefinedExpression`; randomized suites catch and
count those.  Numerical-breakdown errors signal that two algebraically
equal evaluation routes disagreed far beyond tolerance, which points at
conditioning problems rather than at a degenerate input.
"""


class NCError(Exception):
    pass


class UndefinedExpression(NCError):
    """The expression is not defined for these inputs."""


class NotInvertible(UndefinedExpression):
    """A required element has no (numerically trustworthy) inverse."""


class SubmatrixNotInvertible(UndefinedExpression):
    """The quasideterminant's complementary submatrix is singular."""


class DegeneratePair(UndefinedExpression):
    """Two points fail the generic-position requirement."""


class CollinearFrame(UndefinedExpression):
    """Barycentric frame points are collinear."""


class DimensionMismatch(NCError):
    pass


class ResampleLimitExceeded(NCError):
    pass


class DrawBudgetExceeded(NCError):
    """A trial drew more scalars than its share of the seed's stream."""


class NumericalBreakdown(NCError):
    """Two evaluation routes of equal expressions disagree badly."""


#: two algebraically equal routes may drift apart by conditioning; beyond
#: this multiple of the tolerance we call it a breakdown, not a value.
BREAKDOWN_FACTOR = 100.0


def agree(a, b, tol: float) -> bool:
    """|a - b| <= BREAKDOWN_FACTOR tol (1 + max(|a|, |b|)); symmetric."""
    return agree_norms((a - b).norm(), a.norm(), b.norm(), tol)


def agree_norms(diff: float, norm_a: float, norm_b: float, tol: float) -> bool:
    """``agree``'s test on the three norms it reads: |a - b|, |a|, |b|."""
    return diff <= BREAKDOWN_FACTOR * tol * (1.0 + max(norm_a, norm_b))


def relative_residual(lhs, rhs) -> float:
    """|lhs - rhs| / (1 + max(|lhs|, |rhs|)): the forward error at the
    scale of the compared values."""
    return (lhs - rhs).norm() / (1.0 + max(lhs.norm(), rhs.norm()))


def agreed(routes, tol: float, mismatch: type, what: str):
    """The value of the routes (zero-argument callables) that are defined.

    A route raising UndefinedExpression is dropped; with none left the
    expression is undefined.  The others must agree with the first, whose
    value is returned, or ``mismatch`` (a NumericalBreakdown) is raised."""
    vals, errs = [], []
    for route in routes:
        try:
            vals.append(route())
        except UndefinedExpression as e:
            errs.append(str(e))
    if not vals:
        raise UndefinedExpression(f"{what}: no route defined ({'; '.join(errs)})")
    first = vals[0]
    for v in vals[1:]:
        if not agree(first, v, tol):
            raise mismatch(f"{what}: routes differ by {(first - v).norm():.3g}")
    return first


class RowFormMismatch(NumericalBreakdown):
    pass


class SymmetryViolation(NumericalBreakdown):
    pass


class PairMismatch(NumericalBreakdown):
    pass


class ConsecutiveCoincidence(UndefinedExpression):
    """Cyclically consecutive points of a pentad coincide."""


class NonPositiveKappa(NCError):
    """A conformal factor must stay positive along the segment."""


class QuadratureFailure(NCError):
    """Numerical integration did not reach the requested accuracy."""


class UnknownSuite(NCError):
    pass


class UnsupportedRingForSuite(NCError):
    pass
