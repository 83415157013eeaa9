"""Computational noncommutative cross-ratios and projective invariants."""

__version__ = "0.1.0"

from .scalars import (QUATERNION, COMPLEX, RATIONAL, ring_by_name,
                      Seed, Quaternion, ComplexScalar, RationalScalar,
                      sample, similar, conjugate_by)
from .linalg import quasidet
from .plucker import Vec2, qp_left, qp_right
from .crossratio import cross_ratio, cross_ratio_bar, nc_angle, triple_ratio, dv, PolarizationQuad
from .jets import Jet
from .schwarzian import nc_schwarzian
from . import scalars


def __getattr__(name):
    """``MatScalar``, ``MatrixRing`` and ``matrix_ring``, forwarded like
    ``ncross.scalars`` forwards them: :mod:`ncross.matrix`, which imports
    numpy, loads on first use."""
    if name in scalars._MATRIX_NAMES:
        return getattr(scalars, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
