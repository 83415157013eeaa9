"""Concrete scalar rings: quaternions, square matrices, complex and rational
numbers.

Every scalar is immutable, carries a reference to its ring, and supports
``+ - * neg``, ``inv()``, ``norm()`` and ``approx_eq()``.  Immutability is
enforced once, in the :class:`Scalar` base: every class declares
``__slots__``, so no scalar has an instance ``__dict__``, and the base
refuses every attribute write or deletion (constructors fill the slots
directly).  Matrices are a noncommutative ring with zero divisors rather
than a division ring, so ``inv()`` may raise :class:`NotInvertible`;
callers treat that as "the expression is undefined here" and move on.

Sampling contract: ``sample(ring, Seed(s, c))`` is the draw numpy's
``Generator(PCG64(SeedSequence(s, spawn_key=(c,))))`` makes for that ring
(``uniform(-1, 1)`` entries, or ``integers(-256, 257)`` over 256 for the
rationals), repeated on the same stream until the ring's guard passes.
The stream itself is computed in :mod:`ncross._stream`, so reports do not
depend on numpy's ``Generator`` algorithms.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

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


def _coerce(ring, x):
    """Lift plain numbers into the ring; None when x is not a number."""
    if isinstance(x, (int, float, Fraction)) and not isinstance(x, bool):
        return ring.from_real(x)
    return None


class Scalar:
    """Common behaviour for all ring elements."""

    __slots__ = ()
    ring: "Ring"

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __rmul__(self, other):
        c = _coerce(self.ring, other)
        if c is None:
            return NotImplemented
        return c * self

    def inv(self):
        raise NotImplementedError

    def norm(self) -> float:
        raise NotImplementedError

    def approx_eq(self, other, atol=DEFAULT_ATOL, rtol=DEFAULT_RTOL) -> bool:
        d = (self - other).norm()
        return d <= atol + rtol * max(self.norm(), other.norm())

    def is_zero(self, tol=DEFAULT_ATOL) -> bool:
        return self.norm() <= tol


class Quaternion(Scalar):
    """Hamilton quaternion w + xi + yj + zk over the reals."""

    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w, x=0.0, y=0.0, z=0.0):
        object.__setattr__(self, "w", float(w))
        object.__setattr__(self, "x", float(x))
        object.__setattr__(self, "y", float(y))
        object.__setattr__(self, "z", float(z))

    @property
    def ring(self):
        return QUATERNION

    def __add__(self, q):
        if not isinstance(q, Quaternion):
            return NotImplemented
        return _quat(self.w + q.w, self.x + q.x, self.y + q.y, self.z + q.z)

    def __sub__(self, q):
        if not isinstance(q, Quaternion):
            return NotImplemented
        return _quat(self.w - q.w, self.x - q.x, self.y - q.y, self.z - q.z)

    def __neg__(self):
        return _quat(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, q):
        if not isinstance(q, Quaternion):
            q = _coerce(self.ring, q)
            if q is None:
                return NotImplemented
        a, b, c, d = self.w, self.x, self.y, self.z
        e, f, g, h = q.w, q.x, q.y, q.z
        return _quat(
            a * e - b * f - c * g - d * h,
            a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f,
            a * h + b * g - c * f + d * e,
        )

    def conj(self):
        return _quat(self.w, -self.x, -self.y, -self.z)

    def norm(self):
        try:
            n2 = self.w ** 2 + self.x ** 2 + self.y ** 2 + self.z ** 2
        except OverflowError:  # a square beyond the float range
            n2 = math.inf
        # past the float range, or below the normal range where squares
        # lose digits or vanish: hypot scales instead of squaring
        if n2 == math.inf or n2 < _MIN_NORMAL:
            return math.hypot(self.w, self.x, self.y, self.z)
        return math.sqrt(n2)

    def inv(self):
        try:
            n2 = self.w ** 2 + self.x ** 2 + self.y ** 2 + self.z ** 2
        except OverflowError:
            n2 = math.inf
        if n2 == math.inf:
            return self._inv_scaled()
        if not math.sqrt(n2) >= INV_EPS:  # also refuses NaN
            raise NotInvertible("quaternion norm below threshold")
        return _quat(self.w / n2, -self.x / n2, -self.y / n2, -self.z / n2)

    def _inv_scaled(self):
        """The inverse when the squared norm overflows: conj(q/m) over
        m |q/m|^2 with m the largest |component|.  An infinite component
        has no inverse."""
        parts = (self.w, self.x, self.y, self.z)
        if not all(map(math.isfinite, parts)):
            raise NotInvertible("quaternion has an infinite component")
        m = max(map(abs, parts))
        w, x, y, z = (c / m for c in parts)
        n2 = w * w + x * x + y * y + z * z
        return _quat(w / n2 / m, -x / n2 / m, -y / n2 / m, -z / n2 / m)

    def __repr__(self):
        return f"Quaternion({self.w:g}, {self.x:g}, {self.y:g}, {self.z:g})"

    def __eq__(self, q):
        return (
            isinstance(q, Quaternion)
            and (self.w, self.x, self.y, self.z) == (q.w, q.x, q.y, q.z)
        )

    def __hash__(self):
        return hash((self.w, self.x, self.y, self.z))


_new = object.__new__
_set_w, _set_x, _set_y, _set_z = (Quaternion.__dict__[c].__set__
                                  for c in "wxyz")


def _quat(w, x, y, z):
    """A Quaternion from four floats, skipping ``float()`` and the
    ``__setattr__`` guard: arithmetic builds one per result."""
    q = _new(Quaternion)
    _set_w(q, w)
    _set_x(q, x)
    _set_y(q, y)
    _set_z(q, z)
    return q


class MatScalar(Scalar):
    """A d x d matrix used as one noncommutative scalar.

    Inversion is guarded: we refuse when the 2-norm condition number
    exceeds ``INV_COND_MAX`` or when the residual ``|a x - 1|`` of the
    computed inverse exceeds ``INV_TOL``, since a nearly singular "scalar"
    would silently destroy identity checks.

    The scalar owns a read-only copy of its entries, so its inverse is a
    function of the object: the first ``inv()`` stores its result, and
    later calls return that same object.  The condition number is computed
    at most once per object as well; a sampled matrix carries the one its
    ring's guard computed.  Refusals are not stored."""

    __slots__ = ("a", "_inv", "_cond")

    def __init__(self, entries):
        a = np.array(entries, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatch("MatScalar requires a square array")
        a.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "_inv", None)
        object.__setattr__(self, "_cond", None)

    @property
    def dim(self):
        return self.a.shape[0]

    @property
    def ring(self):
        return matrix_ring(self.dim)

    def _check(self, q):
        if not isinstance(q, MatScalar):
            return None
        if q.a.shape != self.a.shape:
            raise DimensionMismatch(f"dim {self.dim} vs {q.dim}")
        return q

    def __add__(self, q):
        if self._check(q) is None:
            return NotImplemented
        return _mat(self.a + q.a)

    def __sub__(self, q):
        if self._check(q) is None:
            return NotImplemented
        return _mat(self.a - q.a)

    def __neg__(self):
        return _mat(-self.a)

    def __mul__(self, q):
        if self._check(q) is None:
            q = _coerce(self.ring, q)
            if q is None:
                return NotImplemented
        return _mat(self.a @ q.a)

    def norm(self):
        return float(np.linalg.norm(self.a, "fro"))

    def inv(self):
        if self._inv is not None:
            return self._inv
        a = self.a
        cond = self._cond
        if cond is None:
            try:
                cond = _cond(a)
            except np.linalg.LinAlgError:
                raise NotInvertible("condition estimate failed")
            _set_cond(self, cond)
        if not math.isfinite(cond) or cond > INV_COND_MAX:
            raise NotInvertible(f"condition {cond:.3g} exceeds {INV_COND_MAX:.3g}")
        x = np.linalg.inv(a)
        resid = np.linalg.norm(a @ x - _eye(a.shape[0]))
        if resid > INV_TOL:
            raise NotInvertible(f"solve residual {resid:.3g}")
        r = _mat(x)
        _set_inv(self, r)
        return r

    def __repr__(self):
        return f"MatScalar({np.array2string(self.a, precision=4)})"


_set_a, _set_inv, _set_cond = (MatScalar.__dict__[n].__set__
                               for n in MatScalar.__slots__)


def _mat(a):
    """A MatScalar owning the fresh complex square array ``a``, skipping the
    copy and the shape check: arithmetic builds one per result."""
    a.setflags(write=False)
    m = _new(MatScalar)
    _set_a(m, a)
    _set_inv(m, None)
    _set_cond(m, None)
    return m


def _cond(a):
    """``np.linalg.cond(a)`` from one bare SVD: s[0] / s[-1] as IEEE
    division, and NaN turned into inf unless ``a`` holds a NaN.  An SVD
    that does not converge raises ``LinAlgError``."""
    s = np.linalg.svd(a, compute_uv=False).tolist()
    if not s:
        raise np.linalg.LinAlgError("cond is not defined on empty arrays")
    hi, lo = s[0], s[-1]
    try:
        r = hi / lo
    except ZeroDivisionError:
        r = math.copysign(math.inf, lo) if hi > 0 else math.nan
    if r != r and not np.isnan(a).any():
        r = math.inf
    return r


_EYES: dict[int, np.ndarray] = {}


def _eye(d):
    """The read-only d x d identity, one per dimension."""
    e = _EYES.get(d)
    if e is None:
        e = _EYES[d] = np.eye(d)
        e.setflags(write=False)
    return e


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
            q = _coerce(self.ring, q)
            if q is None:
                return NotImplemented
        return type(self)(self.v * q.v)

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

    @property
    def zero(self):
        return self.from_real(0)

    @property
    def one(self):
        return self.from_real(1)

    def from_real(self, x):
        """Embed an exact int/Fraction (or float, where the ring is inexact)."""
        raise NotImplementedError

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
        return _quat(*stream.uniform(4))


class MatrixRing(Ring):
    commutative = False

    def __init__(self, dim):
        if dim < 1:
            raise DimensionMismatch("matrix dimension must be positive")
        self.dim = dim
        self.name = f"matrix({dim})"

    def from_real(self, x):
        return MatScalar(float(x) * np.eye(self.dim))

    def _draw(self, stream):
        d = self.dim
        return _mat(np.array(stream.uniform(d * d), dtype=complex)
                    .reshape(d, d))

    def _guard(self, cand):
        # kept on the candidate, so that inverting it needs no second SVD
        cond = _cond(cand.a)
        _set_cond(cand, cond)
        return math.isfinite(cond) and cond <= MAX_SAMPLE_COND

    def __eq__(self, other):
        return isinstance(other, MatrixRing) and other.dim == self.dim

    def __hash__(self):
        return hash(("matrix", self.dim))


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
        if isinstance(x, float) and not x.is_integer():
            raise ValueError("RationalRing accepts exact values only")
        return RationalScalar(Fraction(x))

    def _draw(self, stream):
        # dyadic grid on [-1, 1]; exact, well spread, and fine enough that
        # coincidences between independent draws are rare
        return RationalScalar(stream.integers(-256, 257), 256)


QUATERNION = QuaternionRing()
COMPLEX = ComplexRing()
RATIONAL = RationalRing()
_RINGS = {r.name: r for r in (QUATERNION, COMPLEX, RATIONAL)}


@functools.cache
def matrix_ring(dim: int) -> MatrixRing:
    return MatrixRing(dim)


def ring_by_name(name: str, dim: int | None = None) -> Ring:
    if name == "matrix":
        return matrix_ring(3 if dim is None else dim)
    if name not in _RINGS:
        raise ValueError(f"unknown ring {name!r}")
    return _RINGS[name]


def sample(ring: Ring, seed: Seed) -> Scalar:
    return ring.sample(seed)


def conjugate_by(a: Scalar, mu: Scalar) -> Scalar:
    """mu * a * mu^-1."""
    return mu * a * mu.inv()


def similar(a: Scalar, b: Scalar, tol: float = 1e-6) -> bool:
    """Decide conjugacy a ~ mu b mu^-1 within the ring.

    Quaternions: exact characterization (equal real part and norm).
    Matrices: equal characteristic polynomials; correct on the generic
    diagonalizable stratum only.  Commutative scalars: equality.
    """
    if isinstance(a, Quaternion) and isinstance(b, Quaternion):
        return abs(a.w - b.w) <= tol and abs(a.norm() - b.norm()) <= tol
    if isinstance(a, MatScalar) and isinstance(b, MatScalar):
        if a.dim != b.dim:
            raise DimensionMismatch("similar: matrix dims differ")
        ca = np.poly(a.a)
        cb = np.poly(b.a)
        return bool(np.all(np.abs(ca - cb) <= tol * (1 + np.abs(ca) + np.abs(cb))))
    if type(a) is not type(b):
        raise DimensionMismatch("similar: scalars from different rings")
    return a.approx_eq(b, atol=tol, rtol=tol)


# ---------------------------------------------------------------------------
# JSON encodings (External Interfaces)


def scalar_to_json(a: Scalar):
    if isinstance(a, Quaternion):
        return {"ring": "quaternion", "coeffs": [a.w, a.x, a.y, a.z]}
    if isinstance(a, ComplexScalar):
        return {"ring": "complex", "re": a.v.real, "im": a.v.imag}
    if isinstance(a, RationalScalar):
        return {"ring": "rational", "num": a.v.numerator, "den": a.v.denominator}
    if isinstance(a, MatScalar):
        ents = []
        for row in a.a:
            ents.append(
                [
                    (v.real if v.imag == 0 else {"re": v.real, "im": v.imag})
                    for v in row
                ]
            )
        return {"ring": "matrix", "dim": a.dim, "entries": ents}
    raise TypeError(f"not a scalar: {a!r}")


def _entry_from_json(v):
    if isinstance(v, dict):
        return complex(v["re"], v.get("im", 0.0))
    return complex(v)


def scalar_from_json(obj) -> Scalar:
    """Decode one scalar; NaN and infinite entries are rejected."""
    kind = obj["ring"]
    if kind == "rational":
        return RationalScalar(int(obj["num"]), int(obj.get("den", 1)))
    if kind == "quaternion":
        s = Quaternion(*obj["coeffs"])
        parts = (s.w, s.x, s.y, s.z)
    elif kind == "complex":
        s = ComplexScalar(complex(obj["re"], obj.get("im", 0.0)))
        parts = s.v
    elif kind == "matrix":
        ents = [[_entry_from_json(v) for v in row] for row in obj["entries"]]
        s = MatScalar(ents)
        if s.dim != obj.get("dim", s.dim):
            raise DimensionMismatch("matrix dim field disagrees with entries")
        parts = s.a
    else:
        raise ValueError(f"unknown ring tag {kind!r}")
    if not np.isfinite(parts).all():
        raise ValueError(f"non-finite entry in a {kind} scalar")
    return s
