"""The ring of d x d complex matrices, each matrix used as one
noncommutative scalar.

This is the only module that imports numpy: the other three rings are
pure Python, so a run that never touches a matrix never loads it.
``ring_by_name("matrix")`` and ``scalar_from_json`` import this module on
first use, and ``ncross.scalars`` forwards ``MatScalar``, ``MatrixRing``
and ``matrix_ring`` to it.

The hot path calls the LAPACK gufuncs behind ``np.linalg`` directly, with
the signature and the ``np.errstate`` that ``np.linalg.svd`` and
``np.linalg.inv`` pass them: ``_umath_linalg.svd`` (``svd_n`` before numpy
2) for the condition number and ``_umath_linalg.inv`` for the inverse.
The Frobenius norm is ``np.linalg.norm``'s own ``ord=None`` formula.  The
wrappers' run-time checks (array conversion, 2-D, square, dtype) are
``MatScalar`` invariants here, so every result keeps its bits.  This
module is the only one that names ``_umath_linalg``.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DimensionMismatch, NotInvertible
from .scalars import (INV_COND_MAX, INV_TOL, MAX_SAMPLE_COND, Ring, Scalar,
                      _coerce, _refuse_non_finite)


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
    ring's guard computed.  Refusals are not stored.

    ``a`` is always a read-only, 2-D, square complex128 array (``__init__``
    checks; ``_mat`` is handed only such arrays), which is what lets
    ``inv`` and ``_cond`` call the ``_umath_linalg`` gufuncs without
    ``np.linalg``'s conversions and checks, and ``norm`` skip
    ``np.linalg.norm``'s dispatch."""

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
        if type(q) is not MatScalar or q.a.shape != self.a.shape:
            if self._check(q) is None:
                return NotImplemented
        return _mat(self.a + q.a)

    def __sub__(self, q):
        if type(q) is not MatScalar or q.a.shape != self.a.shape:
            if self._check(q) is None:
                return NotImplemented
        return _mat(self.a - q.a)

    def __neg__(self):
        return _mat(-self.a)

    def __mul__(self, q):
        if type(q) is not MatScalar or q.a.shape != self.a.shape:
            if self._check(q) is None:
                q = _coerce(self.ring, q)
                if q is None:
                    return NotImplemented
        return _mat(self.a @ q.a)

    def norm(self):
        return _fro(self.a)

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
        with np.errstate(call=_singular, invalid="call", over="ignore",
                         divide="ignore", under="ignore"):
            x = _umath_linalg.inv(a, signature="D->D")
        resid = _fro(a @ x - _eye(a.shape[0]))
        if resid > INV_TOL:
            raise NotInvertible(f"solve residual {resid:.3g}")
        r = _mat(x)
        _set_inv(self, r)
        return r

    def similar(self, b, tol):
        """Equal characteristic polynomials; correct on the generic
        diagonalizable stratum only."""
        if self.dim != b.dim:
            raise DimensionMismatch("similar: matrix dims differ")
        ca = np.poly(self.a)
        cb = np.poly(b.a)
        return bool(np.all(np.abs(ca - cb) <= tol * (1 + np.abs(ca) + np.abs(cb))))

    def to_json(self):
        ents = [[v.real if v.imag == 0 else {"re": v.real, "im": v.imag}
                 for v in row] for row in self.a]
        return {"ring": "matrix", "dim": self.dim, "entries": ents}

    def __repr__(self):
        return f"MatScalar({np.array2string(self.a, precision=4)})"


_set_a, _set_inv, _set_cond = (MatScalar.__dict__[n].__set__
                               for n in MatScalar.__slots__)


def _mat(a):
    """A MatScalar owning the fresh complex square array ``a``, skipping the
    copy and the shape check: arithmetic builds one per result."""
    a.setflags(write=False)
    m = object.__new__(MatScalar)
    _set_a(m, a)
    _set_inv(m, None)
    _set_cond(m, None)
    return m


#: the singular values of one square matrix, without U and V
_svd = (getattr(_umath_linalg, "svd", None)
        or getattr(_umath_linalg, "svd_n", None))
if _svd is None:
    raise ImportError("numpy.linalg._umath_linalg has neither the svd nor "
                      "the svd_n gufunc")


def _svd_failed(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge")


def _singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


def _fro(a):
    """``float(np.linalg.norm(a))``, by its own ``ord=None`` formula."""
    x = a.ravel("K")
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _cond(a):
    """``np.linalg.cond(a)`` from one bare SVD: s[0] / s[-1] as IEEE
    division, and NaN turned into inf unless ``a`` holds a NaN.  An SVD
    that does not converge raises ``LinAlgError``, as in ``np.linalg.svd``,
    whose error state this keeps."""
    if not a.size:
        raise np.linalg.LinAlgError("cond is not defined on empty arrays")
    with np.errstate(call=_svd_failed, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        s = _svd(a, signature="D->d").tolist()
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


@functools.cache
def matrix_ring(dim: int) -> MatrixRing:
    return MatrixRing(dim)


def _entry_from_json(v):
    if isinstance(v, dict):
        return complex(v["re"], v.get("im", 0.0))
    return complex(v)


def matrix_from_json(obj) -> MatScalar:
    """Decode the JSON object of one matrix scalar (``scalar_from_json``'s
    matrix branch)."""
    ents = [[_entry_from_json(v) for v in row] for row in obj["entries"]]
    s = MatScalar(ents)
    if s.dim != obj.get("dim", s.dim):
        raise DimensionMismatch("matrix dim field disagrees with entries")
    _refuse_non_finite("matrix", [v for row in ents for v in row])
    return s
