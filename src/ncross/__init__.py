"""Computational noncommutative cross-ratios and projective invariants."""

__version__ = "0.1.0"

from .scalars import (QUATERNION, COMPLEX, RATIONAL, matrix_ring, ring_by_name,
                      Seed, Quaternion, MatScalar, ComplexScalar, RationalScalar,
                      sample, similar, conjugate_by)
from .linalg import RingMatrix, quasidet
from .plucker import Vec2, qp_left, qp_right
from .crossratio import cross_ratio, cross_ratio_bar, nc_angle, triple_ratio, dv, PolarizationQuad
from .jets import Jet
from .schwarzian import nc_schwarzian
