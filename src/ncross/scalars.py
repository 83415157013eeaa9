"""Scalar rings: the common :class:`Scalar` and :class:`Ring` bases, and
the pure-Python rings of quaternions, complex and rational numbers.

Every scalar is immutable, carries a reference to its ring, and supports
``+ - * neg``, ``scale()``, ``inv()``, ``norm()``, ``approx_eq()``,
``similar()`` and ``to_json()``.  Immutability is enforced once, in the
:class:`Scalar` base: every class declares ``__slots__``, so no scalar has
an instance ``__dict__``, and the base refuses every attribute write or
deletion (constructors fill the slots directly).

The fourth ring, d x d complex matrices, lives in :mod:`ncross.matrix`,
the only module that imports numpy.  It is loaded on first use:
``ring_by_name("matrix")``, a matrix in ``scalar_from_json``, or one of
the names ``MatScalar``, ``MatrixRing`` and ``matrix_ring``, which this
module forwards.  Matrices are a noncommutative ring with zero divisors
rather than a division ring, so ``inv()`` may raise
:class:`NotInvertible`; callers treat that as "the expression is
undefined here" and move on.

A real number acts on a scalar by ``scale(r)``, which multiplies every
component by ``r``, the real in its ring's own type (``Ring.real``: a
float, or an int or ``Fraction`` for the rationals).  ``x * 2``,
``Fraction(3, 2) * x`` and the like go there rather than through a ring
product with ``from_real(r)``.  The two agree bit for bit except in the
sign of an exact-zero component and in NaN/inf propagation, which the
product's extra ``x * 0`` terms affect.

Sampling contract: ``sample(ring, Seed(s, c))`` is the draw numpy's
``Generator(PCG64(SeedSequence(s, spawn_key=(c,))))`` makes for that ring
(``uniform(-1, 1)`` entries, or ``integers(-256, 257)`` over 256 for the
rationals), repeated on the same stream until the ring's guard passes.
The stream itself is computed in :mod:`ncross._stream`, so reports do not
depend on numpy's ``Generator`` algorithms.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import itemgetter

from ._stream import Stream
from .errors import (
    DimensionMismatch,
    NotInvertible,
    ResampleLimitExceeded,
)

DEFAULT_ATOL = 1e-9
DEFAULT_RTOL = 1e-9

#: sampling guards
MIN_SAMPLE_NORM = 0.1
MAX_SAMPLE_COND = 1e4
RESAMPLE_LIMIT = 1000

#: below this a sum of squares has lost digits to underflow
_MIN_NORMAL = sys.float_info.min

#: MatScalar.inv refuses a condition number above INV_COND_MAX or a
#: residual |a x - 1| above INV_TOL; quaternion and complex inv() refuse a
#: norm below INV_EPS
INV_COND_MAX = 1e8
INV_TOL = 1e-6
INV_EPS = 1e-12


@dataclass(frozen=True)
class Seed:
    """Deterministic sampling state: identical (seed, counter) pairs always
    produce identical scalars."""

    seed: int
    counter: int = 0


def _real(ring, x):
    """x as a real coefficient of ``ring`` (``Ring.real``); None when x is
    not a number."""
    if isinstance(x, (int, float, Fraction)) and not isinstance(x, bool):
        return ring.real(x)
    return None


class Scalar:
    """Common behaviour for all ring elements."""

    __slots__ = ()
    ring: "Ring"

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __rmul__(self, other):
        r = _real(self.ring, other)
        if r is None:
            return NotImplemented
        return self.scale(r)

    def scale(self, r):
        """This scalar times the real ``r``, a value of ``Ring.real``."""
        raise NotImplementedError

    def inv(self):
        raise NotImplementedError

    def norm(self) -> float:
        raise NotImplementedError

    def approx_eq(self, other, atol=DEFAULT_ATOL, rtol=DEFAULT_RTOL) -> bool:
        d = (self - other).norm()
        return d <= atol + rtol * max(self.norm(), other.norm())

    def is_zero(self, tol=DEFAULT_ATOL) -> bool:
        return self.norm() <= tol

    def similar(self, b, tol) -> bool:
        """Conjugacy to ``b``, a scalar of the same class, within ``tol``.
        In a commutative ring that is equality."""
        return self.approx_eq(b, atol=tol, rtol=tol)

    def to_json(self):
        """The scalar's JSON object (``scalar_to_json``)."""
        raise NotImplementedError


class Quaternion(Scalar, tuple):
    """Hamilton quaternion w + xi + yj + zk over the reals, stored as the
    immutable float 4-tuple (w, x, y, z).

    The tuple is storage only: a quaternion is never equal to a plain
    tuple, does not order, and adds and multiplies as a quaternion."""

    __slots__ = ()

    def __new__(cls, w, x=0.0, y=0.0, z=0.0):
        return _new(cls, (float(w), float(x), float(y), float(z)))

    w = property(itemgetter(0))
    x = property(itemgetter(1))
    y = property(itemgetter(2))
    z = property(itemgetter(3))

    @property
    def ring(self):
        return QUATERNION

    def __add__(self, q):
        if not isinstance(q, Quaternion):
            return NotImplemented
        a, b, c, d = self
        e, f, g, h = q
        return _new(Quaternion, (a + e, b + f, c + g, d + h))

    def __radd__(self, q):
        # refuses the concatenation tuple + Quaternion would fall back to
        raise TypeError(f"unsupported operand type(s) for +: "
                        f"'{type(q).__name__}' and 'Quaternion'")

    def __sub__(self, q):
        if not isinstance(q, Quaternion):
            return NotImplemented
        a, b, c, d = self
        e, f, g, h = q
        return _new(Quaternion, (a - e, b - f, c - g, d - h))

    def __neg__(self):
        a, b, c, d = self
        return _new(Quaternion, (-a, -b, -c, -d))

    def __mul__(self, q):
        if not isinstance(q, Quaternion):
            r = _real(QUATERNION, q)
            return NotImplemented if r is None else self.scale(r)
        a, b, c, d = self
        e, f, g, h = q
        return _new(Quaternion, (
            a * e - b * f - c * g - d * h,
            a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f,
            a * h + b * g - c * f + d * e,
        ))

    def scale(self, r):
        a, b, c, d = self
        return _new(Quaternion, (a * r, b * r, c * r, d * r))

    def conj(self):
        a, b, c, d = self
        return _new(Quaternion, (a, -b, -c, -d))

    def norm(self):
        w, x, y, z = self
        try:
            n2 = w ** 2 + x ** 2 + y ** 2 + z ** 2
        except OverflowError:  # a square beyond the float range
            n2 = math.inf
        # past the float range, or below the normal range where squares
        # lose digits or vanish: hypot scales instead of squaring
        if n2 == math.inf or n2 < _MIN_NORMAL:
            return math.hypot(w, x, y, z)
        return math.sqrt(n2)

    def inv(self):
        w, x, y, z = self
        try:
            n2 = w ** 2 + x ** 2 + y ** 2 + z ** 2
        except OverflowError:
            n2 = math.inf
        if n2 == math.inf:
            return self._inv_scaled()
        if not math.sqrt(n2) >= INV_EPS:  # also refuses NaN
            raise NotInvertible("quaternion norm below threshold")
        return _new(Quaternion, (w / n2, -x / n2, -y / n2, -z / n2))

    def _inv_scaled(self):
        """The inverse when the squared norm overflows: conj(q/m) over
        m |q/m|^2 with m the largest |component|.  An infinite component
        has no inverse."""
        if not all(map(math.isfinite, self)):
            raise NotInvertible("quaternion has an infinite component")
        m = max(map(abs, self))
        w, x, y, z = (c / m for c in self)
        n2 = w * w + x * x + y * y + z * z
        return _new(Quaternion, (w / n2 / m, -x / n2 / m, -y / n2 / m,
                                 -z / n2 / m))

    def similar(self, b, tol):
        """Exact characterization: equal real part and norm."""
        return abs(self.w - b.w) <= tol and abs(self.norm() - b.norm()) <= tol

    def to_json(self):
        return {"ring": "quaternion", "coeffs": list(self)}

    def __repr__(self):
        return "Quaternion({:g}, {:g}, {:g}, {:g})".format(*self)

    def __eq__(self, q):
        return isinstance(q, Quaternion) and tuple.__eq__(self, q)

    def __ne__(self, q):
        return not self.__eq__(q)

    __hash__ = tuple.__hash__

    def _unordered(self, q):
        raise TypeError("quaternions are not ordered")

    __lt__ = __le__ = __gt__ = __ge__ = _unordered


#: ``_new(Quaternion, (w, x, y, z))`` builds a result from four floats in
#: one step, skipping ``float()``
_new = tuple.__new__


class _Number(Scalar):
    """A scalar whose value is one Python number ``v``; arithmetic and
    ``==`` (by value) stay within the concrete class, so two such rings
    never mix."""

    __slots__ = ("v",)

    def __add__(self, q):
        if not isinstance(q, type(self)):
            return NotImplemented
        return type(self)(self.v + q.v)

    def __sub__(self, q):
        if not isinstance(q, type(self)):
            return NotImplemented
        return type(self)(self.v - q.v)

    def __neg__(self):
        return type(self)(-self.v)

    def __mul__(self, q):
        if not isinstance(q, type(self)):
            r = _real(self.ring, q)
            return NotImplemented if r is None else self.scale(r)
        return type(self)(self.v * q.v)

    def scale(self, r):
        return type(self)(self.v * r)

    def __eq__(self, q):
        return isinstance(q, type(self)) and self.v == q.v

    def __hash__(self):
        return hash(self.v)

    def __repr__(self):
        return f"{type(self).__name__}({self.v})"


class ComplexScalar(_Number):
    __slots__ = ()

    def __init__(self, v):
        object.__setattr__(self, "v", complex(v))

    @property
    def ring(self):
        return COMPLEX

    def to_json(self):
        return {"ring": "complex", "re": self.v.real, "im": self.v.imag}

    def norm(self):
        try:
            return abs(self.v)
        except OverflowError:  # a finite modulus beyond the float range
            return math.inf

    def inv(self):
        try:
            n = abs(self.v)
        except OverflowError:
            n = math.inf
        if not n >= INV_EPS:  # also refuses NaN
            raise NotInvertible("complex scalar too close to zero")
        if n >= 2.0 ** 1023:  # 1.0 / v may overflow inside the division
            v = self.v
            if not cmath.isfinite(v):
                raise NotInvertible("complex scalar has an infinite part")
            m = max(abs(v.real), abs(v.imag))
            return ComplexScalar(1.0 / (v / m) / m)
        return ComplexScalar(1.0 / self.v)


class RationalScalar(_Number):
    """Exact rational scalar; the oracle backend for commutative suites."""

    __slots__ = ()

    def __init__(self, v, den=None):
        object.__setattr__(self, "v", Fraction(v) if den is None else Fraction(v, den))

    @property
    def ring(self):
        return RATIONAL

    def to_json(self):
        return {"ring": "rational", "num": self.v.numerator,
                "den": self.v.denominator}

    def norm(self):
        return abs(float(self.v))

    def inv(self):
        if self.v == 0:
            raise NotInvertible("division by exact zero")
        return RationalScalar(1 / self.v)


# ---------------------------------------------------------------------------
# rings


class Ring:
    name: str
    commutative: bool

    @cached_property
    def zero(self):
        return self.from_real(0)

    @cached_property
    def one(self):
        return self.from_real(1)

    def from_real(self, x):
        """Embed an exact int/Fraction (or float, where the ring is inexact)."""
        raise NotImplementedError

    def real(self, x):
        """The real number x in the type ``scale`` takes: a float, which
        rounds an int or Fraction as ``from_real`` does."""
        return float(x)

    def sample(self, seed: Seed) -> Scalar:
        """Draw a deterministic guard-passing scalar for (seed, counter)."""
        stream = Stream(seed.seed, seed.counter)
        for _ in range(RESAMPLE_LIMIT):
            cand = self._draw(stream)
            if self._guard(cand):
                return cand
        raise ResampleLimitExceeded(self.name)

    def _draw(self, stream: Stream) -> Scalar:
        raise NotImplementedError

    def _guard(self, cand) -> bool:
        return cand.norm() >= MIN_SAMPLE_NORM

    def __repr__(self):
        return f"<ring {self.name}>"


class QuaternionRing(Ring):
    name = "quaternion"
    commutative = False

    def from_real(self, x):
        return Quaternion(float(x))

    def _draw(self, stream):
        return _new(Quaternion, stream.uniform(4))


class ComplexRing(Ring):
    name = "complex"
    commutative = True

    def from_real(self, x):
        return ComplexScalar(float(x))

    def _draw(self, stream):
        return ComplexScalar(complex(*stream.uniform(2)))


class RationalRing(Ring):
    name = "rational"
    commutative = True

    def from_real(self, x):
        return RationalScalar(self.real(x))

    def real(self, x):
        """An int or Fraction as it is; a float only when it is integral."""
        if isinstance(x, float):
            if not x.is_integer():
                raise ValueError("RationalRing accepts exact values only")
            return int(x)
        return x

    def _draw(self, stream):
        # dyadic grid on [-1, 1]; exact, well spread, and fine enough that
        # coincidences between independent draws are rare
        return RationalScalar(stream.integers(-256, 257), 256)


QUATERNION = QuaternionRing()
COMPLEX = ComplexRing()
RATIONAL = RationalRing()
_RINGS = {r.name: r for r in (QUATERNION, COMPLEX, RATIONAL)}


def ring_by_name(name: str, dim: int | None = None) -> Ring:
    if name == "matrix":
        from .matrix import matrix_ring
        return matrix_ring(3 if dim is None else dim)
    if name not in _RINGS:
        raise ValueError(f"unknown ring {name!r}")
    return _RINGS[name]


_MATRIX_NAMES = ("MatScalar", "MatrixRing", "matrix_ring")


def __getattr__(name):
    """The matrix ring's names, from :mod:`ncross.matrix` on first use."""
    if name in _MATRIX_NAMES:
        from . import matrix
        return getattr(matrix, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def sample(ring: Ring, seed: Seed) -> Scalar:
    return ring.sample(seed)


def conjugate_by(a: Scalar, mu: Scalar) -> Scalar:
    """mu * a * mu^-1."""
    return mu * a * mu.inv()


def similar(a: Scalar, b: Scalar, tol: float = 1e-6) -> bool:
    """Decide conjugacy a ~ mu b mu^-1 within the ring (``a.similar``)."""
    if type(a) is not type(b):
        raise DimensionMismatch("similar: scalars from different rings")
    return a.similar(b, tol)


# ---------------------------------------------------------------------------
# JSON encodings (External Interfaces)


def scalar_to_json(a: Scalar):
    if not isinstance(a, Scalar):
        raise TypeError(f"not a scalar: {a!r}")
    return a.to_json()


def _refuse_non_finite(kind, parts):
    if not all(map(cmath.isfinite, parts)):
        raise ValueError(f"non-finite entry in a {kind} scalar")


def scalar_from_json(obj) -> Scalar:
    """Decode one scalar; NaN and infinite entries are rejected, and so is
    a rational whose ``num`` or ``den`` is a float with a fractional part."""
    kind = obj["ring"]
    if kind == "quaternion":
        s = Quaternion(*obj["coeffs"])
        _refuse_non_finite(kind, s)
    elif kind == "complex":
        s = ComplexScalar(complex(obj["re"], obj.get("im", 0.0)))
        _refuse_non_finite(kind, (s.v,))
    elif kind == "rational":
        num, den = obj["num"], obj.get("den", 1)
        floats = [v for v in (num, den) if isinstance(v, float)]
        _refuse_non_finite(kind, floats)
        if not all(v.is_integer() for v in floats):
            raise ValueError("non-integral entry in a rational scalar")
        s = RationalScalar(int(num), int(den))
    elif kind == "matrix":
        from .matrix import matrix_from_json
        s = matrix_from_json(obj)
    else:
        raise ValueError(f"unknown ring tag {kind!r}")
    return s
