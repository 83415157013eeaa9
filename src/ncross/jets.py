"""Truncated jets of ring-valued curves.

A Jet stores raw derivative coefficients (f(0), f'(0), ..., f^(K)(0)),
not Taylor coefficients.  Products use the Leibniz rule in order
(left factor derivatives stay on the left) so everything works over
quaternions and matrix scalars.

The constants of those rules are reals in the ring's own type
(``Ring.real``: floats, or ints and Fractions for the rationals): the
binomial rows C(m, k), built once per (ring, order), and the Taylor
weights s^k / k! of ``Jet.eval``, built per call.  They act by
``Scalar.scale``, four multiplies on a quaternion where a ring product
takes sixteen, and a coefficient 1 is skipped (``x * 1.0`` is exact).
Against products with the same constants as ring scalars, every bit is
kept except the sign of an exact-zero component and NaN/inf propagation.

Every jet product, jet inverse, left quotient and ODE propagation
(``schwarzian._ldiv``, ``propagate_left``, ``propagate_right``,
``propagate_gauge``) is one Leibniz sum, ``leibniz``.  A term of
``propagate_left`` is a_k c_{n+1-k} + b_k c_{n-k}: ``leibniz`` adds its
two products before the scaling, as a sum of one product per term could
not without regrouping those additions and moving bits.  Only
``Jet.eval`` keeps its own loop: it weights by Taylor weights, not by a
binomial row, and no check evaluates a jet at a point, since the
Schwarzian expansion is checked as an identity of jets in eps.

When ``zero`` and every entry a sum reads are exactly ``Quaternion``
(``type(...) is Quaternion``, as ``plucker._evaluate`` checks),
``leibniz`` runs the sum on their float components, in the operation
order of ``Quaternion.__mul__``, ``__add__`` and ``scale``, and builds
only the result.  Its value then has every bit, NaN sign and payload
included, of the same sum in the ring's operators, which every other
entry takes (``_ring_sum``): matrices, complex numbers, rationals, a
``Quaternion`` subclass, or a stray float or int.

A coefficient of order m of a product or an inverse reads only orders up
to m, in the same sequence, so truncating the operands first keeps its
bits; callers that read low orders truncate before multiplying."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

from .errors import DimensionMismatch, NotInvertible
from .scalars import Quaternion, Ring, Scalar, _new, _real

DEFAULT_ORDER = 6


@lru_cache(maxsize=64)
def binomials(ring: Ring, order: int) -> tuple:
    """Rows m = 0..order of C(m, k), k = 0..m, as reals of ``ring``
    (``Ring.real``)."""
    return tuple(tuple(ring.real(math.comb(m, k)) for k in range(m + 1))
                 for m in range(order + 1))


def _taylor_weights(ring: Ring, s, order: int) -> tuple:
    """s^k / k! for k = 0..order as reals of ``ring`` (``Ring.real``):
    exact for an int or Fraction s, floats otherwise, so Fraction(1, 8)
    and 0.125 take different paths to different bits."""
    if isinstance(s, (int, Fraction)):
        ws = (Fraction(s) ** k / math.factorial(k) for k in range(order + 1))
    else:
        ws = (s ** k / math.factorial(k) for k in range(order + 1))
    return tuple(map(ring.real, ws))


def leibniz(x, y, n: int, row: tuple, zero: Scalar, start: int = 0,
            u=None, v=None) -> Scalar:
    """zero + sum_{k=start..n} C(n, k) t_k for start 0 or 1, where ``row``
    is row n of ``binomials`` and the term t_k is x[k] y[n-k], or
    x[k] y[n-k] + u[k] v[n-k] when ``u`` and ``v`` are given: the two
    products are added before the scaling.  The terms are added in k
    order and C(n, 0) = C(n, n) = 1: the two end terms are not scaled.

    When ``zero`` and every entry read are exactly ``Quaternion``, the sum
    runs on their float components, each step in the operation order of
    ``Quaternion.__mul__``, ``__add__`` and ``scale``, and only the result
    is built; it has the bits of the ring operators, which every other
    entry takes (``_ring_sum``)."""
    if type(zero) is Quaternion:
        s0, s1, s2, s3 = zero
        for k in range(start, n + 1):
            p, q = x[k], y[n - k]
            if not type(p) is type(q) is Quaternion:
                break
            a, b, c, d = p
            e, f, g, h = q
            t0 = a * e - b * f - c * g - d * h
            t1 = a * f + b * e + c * h - d * g
            t2 = a * g - b * h + c * e + d * f
            t3 = a * h + b * g - c * f + d * e
            if u is not None:
                p, q = u[k], v[n - k]
                if not type(p) is type(q) is Quaternion:
                    break
                a, b, c, d = p
                e, f, g, h = q
                t0 = t0 + (a * e - b * f - c * g - d * h)
                t1 = t1 + (a * f + b * e + c * h - d * g)
                t2 = t2 + (a * g - b * h + c * e + d * f)
                t3 = t3 + (a * h + b * g - c * f + d * e)
            if 0 < k < n:
                r = row[k]
                s0 = s0 + t0 * r
                s1 = s1 + t1 * r
                s2 = s2 + t2 * r
                s3 = s3 + t3 * r
            else:
                s0 = s0 + t0
                s1 = s1 + t1
                s2 = s2 + t2
                s3 = s3 + t3
        else:
            return _new(Quaternion, (s0, s1, s2, s3))
    return _ring_sum(x, y, n, row, zero, start, u, v)


def _ring_sum(x, y, n, row, zero, start, u, v):
    """``leibniz`` in the ring's own operators."""
    def term(k):
        t = x[k] * y[n - k]
        return t if u is None else t + u[k] * v[n - k]

    acc = zero if start else zero + term(0)
    for k in range(1, n):
        acc = acc + term(k).scale(row[k])
    if n:
        acc = acc + term(n)
    return acc


class Jet:
    __slots__ = ("coeffs", "ring")

    def __init__(self, coeffs: Sequence[Scalar], ring: Ring | None = None):
        self.coeffs = tuple(coeffs)
        if not self.coeffs and ring is None:
            raise ValueError("empty jet needs an explicit ring")
        self.ring = ring if ring is not None else self.coeffs[0].ring

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> Scalar:
        return self.coeffs[n]

    def __len__(self) -> int:
        return len(self.coeffs)

    def __repr__(self):
        return f"Jet({list(self.coeffs)!r})"

    @classmethod
    def constant(cls, value: Scalar, order: int = DEFAULT_ORDER) -> "Jet":
        z = value.ring.zero
        return cls((value,) + (z,) * order)

    def _match(self, other: "Jet") -> int:
        if len(self) != len(other):
            raise DimensionMismatch(
                f"jet orders differ: {self.order} vs {other.order}")
        return len(self)

    def __add__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        self._match(other)
        return Jet([a + b for a, b in zip(self.coeffs, other.coeffs)], self.ring)

    def __sub__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        self._match(other)
        return Jet([a - b for a, b in zip(self.coeffs, other.coeffs)], self.ring)

    def __neg__(self):
        return Jet([-a for a in self.coeffs], self.ring)

    def __mul__(self, other):
        if isinstance(other, Jet):
            n = self._match(other)
            a, b, zero = self.coeffs, other.coeffs, self.ring.zero
            return Jet([leibniz(a, b, m, row, zero) for m, row in
                        enumerate(binomials(self.ring, n - 1))], self.ring)
        if isinstance(other, Scalar):
            return Jet([a * other for a in self.coeffs], self.ring)
        return self._scaled(other)

    def __rmul__(self, other):
        if isinstance(other, Scalar):
            return Jet([other * a for a in self.coeffs], self.ring)
        return self._scaled(other)

    def _scaled(self, other):
        """The jet times a real number (reals are central), or
        NotImplemented for anything else."""
        r = _real(self.ring, other)
        if r is None:
            return NotImplemented
        return Jet([a.scale(r) for a in self.coeffs], self.ring)

    def inv(self) -> "Jet":
        """Jet of s |-> f(s)^-1, by the Leibniz recursion
        (f^-1)^(n) = -f(0)^-1 sum_{k=1..n} C(n,k) f^(k) (f^-1)^(n-k)."""
        try:
            g0 = self.coeffs[0].inv()
        except NotInvertible as e:
            raise NotInvertible(f"jet value not invertible: {e}") from e
        f, zero = self.coeffs, self.ring.zero
        rows = binomials(self.ring, self.order)
        out = [g0]
        for n in range(1, len(self)):
            out.append(-(g0 * leibniz(f, out, n, rows[n], zero, start=1)))
        return Jet(out, self.ring)

    def derivative(self) -> "Jet":
        """Shift: the jet of f', one order lower."""
        if self.order < 1:
            raise DimensionMismatch("cannot differentiate an order-0 jet")
        return Jet(self.coeffs[1:], self.ring)

    def truncate(self, order: int) -> "Jet":
        if order > self.order:
            raise DimensionMismatch("cannot extend a jet by truncation")
        return Jet(self.coeffs[: order + 1], self.ring)

    def eval(self, s: float) -> Scalar:
        """Taylor evaluation sum_k f^(k)(0) s^k / k!."""
        acc = self.ring.zero
        for c, w in zip(self.coeffs, _taylor_weights(self.ring, s, self.order)):
            acc = acc + (c if w == 1 else c.scale(w))
        return acc


def jet_from_function(derivs: Callable[[int], float], ring: Ring,
                      order: int = DEFAULT_ORDER) -> Jet:
    """Build a jet from a rule n -> n-th derivative at 0 (a real number)."""
    return Jet([ring.from_real(derivs(n)) for n in range(order + 1)], ring)


def sin_jet(ring: Ring, order: int = DEFAULT_ORDER) -> Jet:
    cyc = (0.0, 1.0, 0.0, -1.0)
    return jet_from_function(lambda n: cyc[n % 4], ring, order)


def cos_jet(ring: Ring, order: int = DEFAULT_ORDER) -> Jet:
    cyc = (1.0, 0.0, -1.0, 0.0)
    return jet_from_function(lambda n: cyc[n % 4], ring, order)


def tan_jet(ring: Ring, order: int = DEFAULT_ORDER) -> Jet:
    # tan = sin * cos^-1; derivatives at 0: 0, 1, 0, 2, 0, 16, 0, ...
    return sin_jet(ring, order) * cos_jet(ring, order).inv()


def moebius_jet(a: Scalar, b: Scalar, c: Scalar, d: Scalar, z: Jet) -> Jet:
    """(a z + b)(c z + d)^-1 applied jet-wise."""
    ring = z.ring
    az = Jet([a * w for w in z.coeffs], ring) + Jet.constant(b, z.order)
    cz = Jet([c * w for w in z.coeffs], ring) + Jet.constant(d, z.order)
    return az * cz.inv()
