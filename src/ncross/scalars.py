"""Concrete scalar rings: quaternions, square matrices, complex and rational
numbers.

Every scalar is immutable, carries a reference to its ring, and supports
``+ - * neg``, ``inv()``, ``norm()`` and ``approx_eq()``.  Matrices are a
noncommutative ring with zero divisors rather than a division ring, so
``inv()`` may raise :class:`NotInvertible`; callers treat that as "the
expression is undefined here" and move on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

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


@dataclass(frozen=True)
class Seed:
    """Deterministic sampling state: identical (seed, counter) pairs always
    produce identical scalars."""

    seed: int
    counter: int = 0

    def bump(self, k: int = 1) -> "Seed":
        return Seed(self.seed, self.counter + k)


def _rng(seed: int, counter: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(counter,))
    return np.random.Generator(np.random.PCG64(ss))


def _coerce(ring, x):
    """Lift plain numbers into the ring; None when x is not a number."""
    if isinstance(x, (int, float, Fraction)) and not isinstance(x, bool):
        return ring.from_real(x)
    return None


class Scalar:
    """Common behaviour for all ring elements."""

    ring: "Ring"

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

    def __sub__(self, other):
        return self + (-other)

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

    def __setattr__(self, *a):
        raise AttributeError("Quaternion is immutable")

    @property
    def ring(self):
        return QUATERNION

    def __add__(self, q):
        if not isinstance(q, Quaternion):
            return NotImplemented
        return Quaternion(self.w + q.w, self.x + q.x, self.y + q.y, self.z + q.z)

    def __neg__(self):
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, q):
        if not isinstance(q, Quaternion):
            q = _coerce(self.ring, q)
            if q is None:
                return NotImplemented
        a, b, c, d = self.w, self.x, self.y, self.z
        e, f, g, h = q.w, q.x, q.y, q.z
        return Quaternion(
            a * e - b * f - c * g - d * h,
            a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f,
            a * h + b * g - c * f + d * e,
        )

    def conj(self):
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm(self):
        return math.sqrt(self.w ** 2 + self.x ** 2 + self.y ** 2 + self.z ** 2)

    def inv(self, eps=1e-12):
        n2 = self.w ** 2 + self.x ** 2 + self.y ** 2 + self.z ** 2
        if math.sqrt(n2) < eps:
            raise NotInvertible("quaternion norm below threshold")
        return Quaternion(self.w / n2, -self.x / n2, -self.y / n2, -self.z / n2)

    def __repr__(self):
        return f"Quaternion({self.w:g}, {self.x:g}, {self.y:g}, {self.z:g})"

    def __eq__(self, q):
        return (
            isinstance(q, Quaternion)
            and (self.w, self.x, self.y, self.z) == (q.w, q.x, q.y, q.z)
        )

    def __hash__(self):
        return hash((self.w, self.x, self.y, self.z))


class MatScalar(Scalar):
    """A d x d matrix used as one noncommutative scalar.

    Inversion is guarded: we refuse when the estimated condition number
    exceeds ``cond_max`` or when the solve residual is large, since a
    nearly singular "scalar" would silently destroy identity checks."""

    __slots__ = ("a",)

    def __init__(self, entries):
        a = np.asarray(entries, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatch("MatScalar requires a square array")
        a.setflags(write=False)
        object.__setattr__(self, "a", a)

    def __setattr__(self, *a):
        raise AttributeError("MatScalar is immutable")

    @property
    def dim(self):
        return self.a.shape[0]

    @property
    def ring(self):
        return matrix_ring(self.dim)

    def _check(self, q):
        if not isinstance(q, MatScalar):
            return None
        if q.dim != self.dim:
            raise DimensionMismatch(f"dim {self.dim} vs {q.dim}")
        return q

    def __add__(self, q):
        if self._check(q) is None:
            return NotImplemented
        return MatScalar(self.a + q.a)

    def __neg__(self):
        return MatScalar(-self.a)

    def __mul__(self, q):
        if self._check(q) is None:
            q = _coerce(self.ring, q)
            if q is None:
                return NotImplemented
        return MatScalar(self.a @ q.a)

    def norm(self):
        return float(np.linalg.norm(self.a, "fro"))

    def inv(self, cond_max=1e8, tol=1e-6):
        try:
            cond = np.linalg.cond(self.a)
        except np.linalg.LinAlgError:
            raise NotInvertible("condition estimate failed")
        if not np.isfinite(cond) or cond > cond_max:
            raise NotInvertible(f"condition {cond:.3g} exceeds {cond_max:.3g}")
        x = np.linalg.solve(self.a, np.eye(self.dim))
        resid = np.linalg.norm(self.a @ x - np.eye(self.dim))
        if resid > tol:
            raise NotInvertible(f"solve residual {resid:.3g}")
        return MatScalar(x)

    def __repr__(self):
        return f"MatScalar({np.array2string(self.a, precision=4)})"


class ComplexScalar(Scalar):
    __slots__ = ("v",)

    def __init__(self, v):
        object.__setattr__(self, "v", complex(v))

    def __setattr__(self, *a):
        raise AttributeError("ComplexScalar is immutable")

    @property
    def ring(self):
        return COMPLEX

    def __add__(self, q):
        if not isinstance(q, ComplexScalar):
            return NotImplemented
        return ComplexScalar(self.v + q.v)

    def __neg__(self):
        return ComplexScalar(-self.v)

    def __mul__(self, q):
        if not isinstance(q, ComplexScalar):
            q = _coerce(self.ring, q)
            if q is None:
                return NotImplemented
        return ComplexScalar(self.v * q.v)

    def norm(self):
        return abs(self.v)

    def inv(self, eps=1e-12):
        if abs(self.v) < eps:
            raise NotInvertible("complex scalar too close to zero")
        return ComplexScalar(1.0 / self.v)

    def __repr__(self):
        return f"ComplexScalar({self.v})"


class RationalScalar(Scalar):
    """Exact rational scalar; the oracle backend for commutative suites."""

    __slots__ = ("v",)

    def __init__(self, v, den=None):
        object.__setattr__(self, "v", Fraction(v) if den is None else Fraction(v, den))

    def __setattr__(self, *a):
        raise AttributeError("RationalScalar is immutable")

    @property
    def ring(self):
        return RATIONAL

    def __add__(self, q):
        if not isinstance(q, RationalScalar):
            return NotImplemented
        return RationalScalar(self.v + q.v)

    def __neg__(self):
        return RationalScalar(-self.v)

    def __mul__(self, q):
        if not isinstance(q, RationalScalar):
            q = _coerce(self.ring, q)
            if q is None:
                return NotImplemented
        return RationalScalar(self.v * q.v)

    def norm(self):
        return abs(float(self.v))

    def inv(self):
        if self.v == 0:
            raise NotInvertible("division by exact zero")
        return RationalScalar(1 / self.v)

    def __eq__(self, q):
        return isinstance(q, RationalScalar) and self.v == q.v

    def __hash__(self):
        return hash(self.v)

    def __repr__(self):
        return f"RationalScalar({self.v})"


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
        rng = _rng(seed.seed, seed.counter)
        for _ in range(RESAMPLE_LIMIT):
            cand = self._draw(rng)
            if self._guard(cand):
                return cand
        raise ResampleLimitExceeded(self.name)

    def _draw(self, rng):
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

    def _draw(self, rng):
        return Quaternion(*rng.uniform(-1.0, 1.0, size=4))


class MatrixRing(Ring):
    commutative = False

    def __init__(self, dim):
        if dim < 1:
            raise DimensionMismatch("matrix dimension must be positive")
        self.dim = dim
        self.name = f"matrix({dim})"

    def from_real(self, x):
        return MatScalar(float(x) * np.eye(self.dim))

    def _draw(self, rng):
        return MatScalar(rng.uniform(-1.0, 1.0, size=(self.dim, self.dim)))

    def _guard(self, cand):
        cond = np.linalg.cond(cand.a)
        return np.isfinite(cond) and cond <= MAX_SAMPLE_COND

    def __eq__(self, other):
        return isinstance(other, MatrixRing) and other.dim == self.dim

    def __hash__(self):
        return hash(("matrix", self.dim))


class ComplexRing(Ring):
    name = "complex"
    commutative = True

    def from_real(self, x):
        return ComplexScalar(float(x))

    def _draw(self, rng):
        re, im = rng.uniform(-1.0, 1.0, size=2)
        return ComplexScalar(complex(re, im))


class RationalRing(Ring):
    name = "rational"
    commutative = True

    def from_real(self, x):
        if isinstance(x, float) and not x.is_integer():
            raise ValueError("RationalRing accepts exact values only")
        return RationalScalar(Fraction(x))

    def _draw(self, rng):
        # dyadic grid on [-1, 1]; exact, well spread, and fine enough that
        # coincidences between independent draws are rare
        return RationalScalar(int(rng.integers(-256, 257)), 256)


QUATERNION = QuaternionRing()
COMPLEX = ComplexRing()
RATIONAL = RationalRing()

_MATRIX_RINGS: dict[int, MatrixRing] = {}


def matrix_ring(dim: int) -> MatrixRing:
    if dim not in _MATRIX_RINGS:
        _MATRIX_RINGS[dim] = MatrixRing(dim)
    return _MATRIX_RINGS[dim]


def ring_by_name(name: str, dim: int | None = None) -> Ring:
    if name == "quaternion":
        return QUATERNION
    if name == "complex":
        return COMPLEX
    if name == "rational":
        return RATIONAL
    if name == "matrix":
        return matrix_ring(3 if dim is None else dim)
    raise ValueError(f"unknown ring {name!r}")


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
