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
An inverse is computed first, and the condition number only where the
Frobenius bound ``_fro(a) * _fro(x) <= INV_COND_MAX / 2`` cannot settle
the refusal (``_lanes_inverse`` gives the argument); a sampled matrix
carries the one its ring's guard computed.
Each gufunc is called through one small function decorated once with its
error state (``_singular_values``, ``_inverse``), so a call builds no
``errstate`` object and restores the caller's state when it returns or
raises.
The Frobenius norm is ``np.linalg.norm``'s own ``ord=None`` formula while
its sum of squares is a normal float, and a rescaled sum beyond that
range (``_fro``).  The wrappers' run-time checks (array conversion, 2-D,
square, dtype) are ``MatScalar`` invariants here, so every result keeps
its bits.  This module is the only one that names ``_umath_linalg``.

``MatLanes`` stacks one matrix per trial of a chunk into an (N, d, d)
array, so that ``suites.run_suite`` runs a trial body once for N trials
(``MatrixRing.sample_stack``, which samples a chunk's draws with one
stacked SVD guard, to ``Ring.sample``'s bits).  Its operations make the
same BLAS and LAPACK calls per lane as ``MatScalar``'s on one matrix, so
an unmasked lane has the lone matrix's bits; where ``MatScalar.inv``
would refuse, the lane is masked instead, and its trial is replayed on
the scalar path.

A lanes draw computes its chunk's streams together (``_uniforms``): the
integer steps of ``_stream.Stream`` on uint64 arrays, one lane per
counter, with PCG64's LCG jumped ahead to every draw's state at once.
They are the same integer and IEEE operations, so every lane has the
bits of ``Stream(seed, counter).uniform(d * d)``.  ``Stream`` remains the
definition of a draw: ``Ring.sample``, and with it every resampled
candidate, uses it.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np
from numpy.linalg import _umath_linalg

from ._stream import (_DOUBLE_UNIT, _HASH_A, _HASH_B, _M32, _M64, _M128,
                      _MIX_L, _MIX_R, _PCG_MULT, _POOL, _grow, _seed_pool)
from .errors import DimensionMismatch, NotInvertible
from .scalars import (INV_COND_MAX, INV_TOL, MAX_SAMPLE_COND, Ring, Scalar,
                      Seed, _MIN_NORMAL, _real, _refuse_non_finite)


class MatScalar(Scalar):
    """A d x d matrix used as one noncommutative scalar.

    Inversion is guarded: we refuse when the 2-norm condition number
    exceeds ``INV_COND_MAX`` or when the residual ``|a x - 1|`` of the
    computed inverse exceeds ``INV_TOL``, since a nearly singular "scalar"
    would silently destroy identity checks.

    The scalar owns a read-only copy of its entries, so its inverse is a
    function of the object: the first ``inv()`` stores its result, and
    later calls return that same object.  The condition number is computed
    only where the Frobenius bound of the computed inverse cannot settle
    the check (see ``_lanes_inverse``), and then at most once per object; a
    sampled matrix carries the one its ring's guard computed.  Refusals
    are not stored.

    ``a`` is always a read-only, 2-D, square complex128 array (``__init__``
    checks; ``_mat`` is handed only such arrays), which is what lets
    ``inv`` and ``_cond`` call the ``_umath_linalg`` gufuncs without
    ``np.linalg``'s conversions and checks, and ``norm`` skip
    ``np.linalg.norm``'s dispatch."""

    __slots__ = ("a", "_inv", "_cond")

    def __init__(self, entries):
        # row-major, like every array arithmetic builds: norm() sums in
        # memory order, so equal entries get equal bits
        a = np.array(entries, dtype=complex, order="C")
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
                r = _real(self.ring, q)
                return NotImplemented if r is None else self.scale(r)
        return _mat(self.a @ q.a)

    def scale(self, r):
        # each real and imaginary part times r, as Quaternion.scale does
        # per component: the complex product with r + 0i would add the
        # x * 0 terms, which turn an infinite part's partner into NaN
        return _mat((self.a.view(np.float64) * r).view(np.complex128))

    def norm(self):
        return _fro(self.a)

    def inv(self):
        if self._inv is not None:
            return self._inv
        a = self.a
        cond = self._cond
        x = None
        if cond is None:
            # _lanes_inverse's rule: an inverse within the Frobenius bound
            # settles the condition check, and only an open one takes the SVD
            try:
                x = _inverse(a)
            except np.linalg.LinAlgError:
                pass
            if x is None or not (a.size and _fro(a) * _fro(x) <= _COND_BOUND):
                try:
                    cond = _cond(a)
                except np.linalg.LinAlgError:
                    raise NotInvertible("condition estimate failed")
                _set_cond(self, cond)
        if cond is not None and (not math.isfinite(cond)
                                 or cond > INV_COND_MAX):
            raise NotInvertible(f"condition {cond:.3g} exceeds {INV_COND_MAX:.3g}")
        if x is None:
            x = _inverse(a)
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


# np.linalg.svd's and np.linalg.inv's error states, each bound once to the
# one gufunc call it guards: a decorated call sets numpy's error state
# without building an ``errstate`` object


@np.errstate(call=_svd_failed, invalid="call", over="ignore",
             divide="ignore", under="ignore")
def _singular_values(a):
    return _svd(a, signature="D->d")


@np.errstate(call=_singular, invalid="call", over="ignore",
             divide="ignore", under="ignore")
def _inverse(a):
    return _umath_linalg.inv(a, signature="D->D")


#: ``np.vdot`` behind its ``__array_function__`` dispatch, which a plain
#: ndarray does not need
_vdot = np.vdot._implementation


def _fro(a):
    """``float(np.linalg.norm(a))``, by its own ``ord=None`` formula, when
    the sum of squares is a normal float.  Past the float range, or below
    its normal range where squares lose digits or vanish, the sum is
    redone on the entries divided by their largest part, as
    ``Quaternion.norm`` does with hypot.

    ``np.vdot`` runs the same BLAS ``ddot`` as ``ndarray.dot`` without
    dot's floating-point-error check, so an overflowing sum comes back inf
    with no ``RuntimeWarning``."""
    x = a.ravel("K")
    re, im = x.real, x.imag
    s = _vdot(re, re) + _vdot(im, im)
    if s == math.inf or s < _MIN_NORMAL:
        return _fro_rescaled(re, im)
    return math.sqrt(s)


# its own error state, not ``_quiet``: ``_lanes_fro`` calls ``_fro`` under
# that one, and numpy before 2 keeps an errstate's saved state on the object
@np.errstate(all="ignore")
def _fro_rescaled(re, im):
    """``_fro`` of the entries with real parts ``re`` and imaginary parts
    ``im``, summed after dividing them by their largest part; an entry that
    underflows in the division neither warns nor raises."""
    m = max(np.abs(re).max(initial=0.0), np.abs(im).max(initial=0.0))
    if m == 0 or m == math.inf:
        return float(m)
    re, im = re / m, im / m
    return math.sqrt(re.dot(re) + im.dot(im)) * float(m)


#: the largest ``_fro(a) * _fro(x)``, for a computed inverse x of a, that
#: settles ``INV_COND_MAX``'s check without an SVD (see ``_lanes_inverse``)
_COND_BOUND = INV_COND_MAX / 2


def _cond(a):
    """``np.linalg.cond(a)`` from one bare SVD: s[0] / s[-1] as IEEE
    division, and NaN turned into inf unless ``a`` holds a NaN.  An SVD
    that does not converge raises ``LinAlgError``, as in ``np.linalg.svd``,
    whose error state this keeps."""
    if not a.size:
        raise np.linalg.LinAlgError("cond is not defined on empty arrays")
    s = _singular_values(a).tolist()
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


#: every lanes operation runs under this error state, so a masked lane's
#: NaN or infinite entries neither warn nor raise
_quiet = np.errstate(all="ignore")


class MatLanes(Scalar):
    """N stacked d x d matrices used as one scalar: lane n holds the value
    that trial n of a chunk would hold, so a trial body runs once for the
    whole chunk (``suites.run_suite``).  ``MatrixRing.stack`` builds one
    from N lone draws.

    Every value derived from one stack shares its lane mask, a boolean
    array that clears a lane for good where the scalar path would refuse:
    ``inv`` masks each lane that ``MatScalar.inv`` would refuse, and
    ``errors.agree`` each lane whose two routes disagree.  A NaN compares
    false, so it masks too.  A masked lane's entries may then hold
    anything; its trial is replayed on the scalar path.

    On an unmasked lane every operation has ``MatScalar``'s bits:
    ``+ - neg scale`` are elementwise, ``*`` is the stacked matmul, which
    makes the single-matrix BLAS call once per lane, ``inv`` the stacked
    LAPACK inverse, with a stacked SVD of the lanes its Frobenius bound
    leaves open, and ``norm`` the same BLAS ``ddot`` as ``_fro``.  A lone
    ``MatScalar`` of the same dimension broadcasts against every lane, on
    either side.  No operation raises or warns on a bad lane: each runs
    under ``np.errstate(all="ignore")``.

    ``a`` is a read-only (N, d, d) complex128 array; ``inv()`` is memoised
    like ``MatScalar``'s, and a stack of sampled draws carries their
    condition numbers, which the sampling guard already bounded."""

    __slots__ = ("a", "mask", "_inv", "_cond")

    @property
    def dim(self):
        return self.a.shape[1]

    @property
    def ring(self):
        return matrix_ring(self.dim)

    def _operand(self, q):
        """The entries of ``q`` in an operation with these lanes: lanes of
        the same stack, or a lone matrix of the same dimension; None for
        anything else."""
        if type(q) is MatLanes:
            if q.mask is not self.mask:
                raise DimensionMismatch("lanes of different stacks")
            return q.a
        if isinstance(q, MatScalar):
            if q.a.shape != self.a.shape[1:]:
                raise DimensionMismatch(f"dim {self.dim} vs {q.dim}")
            return q.a
        return None

    @_quiet
    def __add__(self, q):
        b = self._operand(q)
        return NotImplemented if b is None else _lanes(self.a + b, self.mask)

    @_quiet
    def __radd__(self, q):
        b = self._operand(q)
        return NotImplemented if b is None else _lanes(b + self.a, self.mask)

    @_quiet
    def __sub__(self, q):
        b = self._operand(q)
        return NotImplemented if b is None else _lanes(self.a - b, self.mask)

    @_quiet
    def __rsub__(self, q):
        b = self._operand(q)
        return NotImplemented if b is None else _lanes(b - self.a, self.mask)

    def __neg__(self):
        return _lanes(-self.a, self.mask)

    @_quiet
    def __mul__(self, q):
        b = self._operand(q)
        if b is None:
            r = _real(self.ring, q)
            return NotImplemented if r is None else self.scale(r)
        return _lanes(self.a @ b, self.mask)

    @_quiet
    def __rmul__(self, q):
        b = self._operand(q)
        if b is None:
            r = _real(self.ring, q)
            return NotImplemented if r is None else self.scale(r)
        return _lanes(b @ self.a, self.mask)

    @_quiet
    def scale(self, r):
        return _lanes((self.a.view(np.float64) * r).view(np.complex128),
                      self.mask)

    def norm(self):
        """The float array of each lane's ``MatScalar.norm``."""
        return _lanes_fro(self.a)

    def inv(self):
        if self._inv is None:
            _set_lanes_inv(self, _lanes(_lanes_inverse(self), self.mask))
        return self._inv

    def keep(self, ok) -> None:
        """Mask every lane where the boolean array ``ok`` is false."""
        mask = self.mask
        mask &= ok

    def rows(self, residuals) -> list:
        """Per lane, the list of ``residuals`` (a trial body's residuals on
        these lanes, each a per-lane array or a float) as Python floats;
        None for a masked lane."""
        cols = np.empty((len(residuals), len(self.mask)))
        for j, r in enumerate(residuals):
            cols[j] = r
        return [row if keep else None
                for row, keep in zip(cols.T.tolist(), self.mask.tolist())]

    def __repr__(self):
        return f"MatLanes({len(self.a)} lanes of dim {self.dim})"


_set_lanes_a, _set_lanes_mask, _set_lanes_inv, _set_lanes_cond = (
    MatLanes.__dict__[n].__set__ for n in MatLanes.__slots__)


def _mask(n, like):
    """The lane mask of ``like``, or a clear one of ``n`` lanes."""
    return np.ones(n, dtype=bool) if like is None else like.mask


def _lanes(a, mask, cond=None):
    """A MatLanes owning the fresh (N, d, d) array ``a`` and sharing the
    lane mask ``mask``."""
    a.setflags(write=False)
    m = object.__new__(MatLanes)
    _set_lanes_a(m, a)
    _set_lanes_mask(m, mask)
    _set_lanes_inv(m, None)
    _set_lanes_cond(m, cond)
    return m


@_quiet
def _lanes_fro(a):
    """``_fro`` of every lane of the stack ``a``.  Each sum of squares is a
    vector matmul over the strided real and imaginary parts, which runs
    ``_fro``'s BLAS ``ddot`` with its strides; a lane whose sum leaves the
    normal range takes ``_fro`` itself."""
    x = a.reshape(len(a), 1, -1)
    re, im = x.real, x.imag
    s = (re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2)).reshape(len(a))
    out = np.sqrt(s)
    for n in np.flatnonzero((s == math.inf) | (s < _MIN_NORMAL)):
        out[n] = _fro(a[n])
    return out


@_quiet
def _lanes_cond(a):
    """``_cond`` of every lane of the stack ``a`` from one stacked SVD,
    where it is finite: IEEE division of the same singular values.  A lane
    whose SVD failed, or whose smallest singular value is zero, holds NaN
    or inf."""
    s = _svd(a, signature="D->d")
    return s[:, 0] / s[:, -1]


@_quiet
def _lanes_inverse(lanes):
    """The stacked inverse x of ``lanes``, after ``MatScalar.inv``'s checks
    per lane.  A lane is masked unless its condition number is at most
    ``INV_COND_MAX`` and its residual at most ``INV_TOL``; so NaN and
    infinite ones mask, where ``MatScalar.inv`` lets a NaN residual pass.
    A masked lane's entries are whatever LAPACK left.

    The condition numbers are the ones the lanes carry from the sampling
    guard, when they do.  Otherwise a lane with ``_fro(a) * _fro(x) <=
    _COND_BOUND`` (``INV_COND_MAX / 2``) passes the condition check without
    an SVD.  The 2-norm condition number k = |a|_2 |a^-1|_2 is at most
    |a|_F |a^-1|_F (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., section 6).  The computed x is a^-1 to a relative
    error of a small multiple of u k, u = 2**-53 (section 14), and the
    SVD's singular values are exact to a small multiple of u |a|_2, so
    near ``INV_COND_MAX`` both are a few parts in 1e8: the factor 2 covers
    them, and a lane whose SVD would read above ``INV_COND_MAX`` has a
    bound above ``_COND_BOUND``.  A matrix so near singular that u k is not
    small leaves an x of norm about 1 / (u |a|), far outside the bound
    (the condition-1e16 matrices of the tests).  A NaN, infinite or
    overflowing product compares false, so it never passes.  Only the
    unmasked lanes the bound leaves open take the stacked SVD, which has
    the single SVD's bits per matrix, so such a lane is decided by
    ``_cond``'s value.  ``MatScalar.inv`` decides by the same rule, and
    refuses an empty matrix, whose bound reads 0, by ``_cond``."""
    a, mask = lanes.a, lanes.mask
    x = _umath_linalg.inv(a, signature="D->D")
    if lanes._cond is None:
        ok = _lanes_fro(a) * _lanes_fro(x) <= _COND_BOUND
        open_ = np.flatnonzero(mask & ~ok)
        if len(open_):
            ok[open_] = _lanes_cond(a[open_]) <= INV_COND_MAX
    else:
        ok = lanes._cond <= INV_COND_MAX
    resid = _lanes_fro(a @ x - _eye(a.shape[1]))
    mask &= ok & (resid <= INV_TOL)
    return x


# Stacked streams: ``_stream.Stream``'s integer steps for many counters at
# once, on uint64 arrays of 32- or 64-bit words.  Every constant is an
# explicit ``np.uint64``, so that no operand is promoted to float64 (numpy
# before 2 promotes a uint64 mixed with a signed integer).  A 32-bit word
# times a 32-bit constant is exact in 64 bits, and a product or difference
# wrapped modulo 2**64 is the same modulo 2**32, so every step cut to 32
# bits is ``Stream``'s.

_LOW32 = np.uint64(_M32)
_U1, _U11, _U16, _U32 = (np.uint64(1), np.uint64(11), np.uint64(16),
                        np.uint64(32))
_U58, _U63, _U64 = np.uint64(58), np.uint64(63), np.uint64(64)
_UMIX_L, _UMIX_R = np.uint64(_MIX_L), np.uint64(_MIX_R)


def _steps(steps, shape=(-1, 1)):
    """The xor and the multiply constants of hash steps, as uint64 arrays
    of ``shape``."""
    return (np.array([x for x, _ in steps], dtype=np.uint64).reshape(shape),
            np.array([m for _, m in steps], dtype=np.uint64).reshape(shape))


#: generate_state's eight hash steps, as (2, 4, 1): the first four hash
#: pool words 0-3, and so do the last four
_GEN_X, _GEN_M = _steps(_HASH_B, (2, _POOL, 1))


def _mix_word(pool, w, steps):
    """``_stream._mix_in`` of one word per lane: ``pool`` holds the four
    pool words as rows, (4, N), or (4, 1) for words every lane shares;
    ``w`` the lanes' words, and ``steps`` the four hash steps that mix a
    word into pool words 0-3."""
    x, m = _steps(steps)
    h = ((w ^ x) * m) & _LOW32
    r = (_UMIX_L * pool - _UMIX_R * (h ^ (h >> _U16))) & _LOW32
    return r ^ (r >> _U16)


def _mulhi(x, y0, y1):
    """The high 64 bits of the 128-bit products of the uint64s ``x`` and
    ``y``, from the 32-bit limbs ``y0``, ``y1`` of ``y``: four 32 x 32-bit
    products, each exact in 64 bits."""
    x0, x1 = x & _LOW32, x >> _U32
    p00, p01, p10 = x0 * y0, x0 * y1, x1 * y0
    mid = (p00 >> _U32) + (p01 & _LOW32) + (p10 & _LOW32)
    return x1 * y1 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)


@functools.cache
def _jump(n):
    """The jump-ahead tables of draws 1..n.  ``srandom`` takes two LCG
    steps before the first draw, so draw k's state is ``A_k u + C_k inc``
    mod 2**128, with u = inc + initstate, ``A_k = MULT**(k+1)`` and
    ``C_k = 1 + MULT + ... + MULT**k``.  As (2, 1, n) uint64 arrays, row 0
    for A and row 1 for C: the high words, the low words, and the low
    words' 32-bit limbs."""
    a, c, rows = _PCG_MULT, 1, ([], [])
    for _ in range(n):
        c = (c + a) & _M128
        a = (a * _PCG_MULT) & _M128
        rows[0].append(a)
        rows[1].append(c)
    hi = np.array([[v >> 64 for v in r] for r in rows], dtype=np.uint64)
    lo = np.array([[v & _M64 for v in r] for r in rows], dtype=np.uint64)
    hi, lo = hi[:, None], lo[:, None]
    return hi, lo, lo & _LOW32, lo >> _U32


def _uniforms(seed: int, counters, n: int) -> np.ndarray:
    """``Stream(seed, c).uniform(n)`` for every counter ``c`` of
    ``counters``, one per row of an (len(counters), n) float64 array, by
    ``Stream``'s integer and IEEE operations, so every row has its bits.

    The counters' 32-bit words are mixed into the seed's cached pool words
    for all lanes at once; a word past a counter's last is mixed only
    where its lane's mask is set.  ``generate_state``'s eight hashes give
    each lane its 128-bit increment and initial state as (high, low) word
    pairs, and every LCG state of every lane comes from the jump-ahead
    tables (``_jump``), each 128-bit product from 64-bit words and 32-bit
    limbs.  Then XSL-RR and the 53-bit double, elementwise."""
    *pool, first, k = _seed_pool(operator.index(seed))
    if min(counters) < 0:
        raise ValueError("expected non-negative integer")
    nw = max(1, (max(counters).bit_length() + 31) // 32)
    words = np.frombuffer(
        b"".join(c.to_bytes(4 * nw, "little") for c in counters),
        dtype="<u4").reshape(len(counters), nw).T.astype(np.uint64)
    p = _mix_word(np.array(pool, dtype=np.uint64)[:, None], words[0], first)
    _grow(k + _POOL * (nw - 1))
    for j in range(1, nw):
        live = words[j:].any(axis=0)
        p = np.where(live, _mix_word(p, words[j], _HASH_A[k:k + _POOL]), p)
        k += _POOL
    # generate_state(4, uint64): eight hashes, paired little-endian into
    # the (high, low) words of initstate, s[0], and of initseq, s[1]
    h = ((p ^ _GEN_X) * _GEN_M) & _LOW32
    h ^= h >> _U16
    s = h[:, 0::2] | h[:, 1::2] << _U32
    # the (high, low) words of u, z[0], and of inc, z[1]
    z = np.empty_like(s)
    np.left_shift(s[1], _U1, out=z[1])
    z[1, 0] |= s[1, 1] >> _U63
    z[1, 1] |= _U1
    np.add(z[1], s[0], out=z[0])
    z[0, 0] += z[0, 1] < z[1, 1]
    # every draw's state, A_k u + C_k inc: (u, inc) x (A, C) on axis 0
    t_hi, t_lo, t0, t1 = _jump(n)
    hi, lo = z[:, 0, :, None], z[:, 1, :, None]
    x_lo = lo * t_lo
    x_hi = _mulhi(lo, t0, t1) + hi * t_lo + lo * t_hi
    lo = x_lo[0] + x_lo[1]
    hi = x_hi[0] + x_hi[1] + (lo < x_lo[0])
    # XSL-RR, then -1.0 + 2.0 * ((x >> 11) * 2**-53)
    x = hi ^ lo
    rot = hi >> _U58
    x = (x >> rot) | (x << ((_U64 - rot) & _U63))
    return -1.0 + 2.0 * ((x >> _U11).astype(np.float64) * _DOUBLE_UNIT)


class MatrixRing(Ring):
    commutative = False
    lanes = True

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

    def stack(self, scalars, like=None) -> MatLanes:
        """The lone matrices ``scalars``, one per lane, as one lanes scalar.
        It shares the lane mask of ``like``, lanes of the same chunk, or
        starts a clear one.  When every matrix carries the condition number
        its sampling guard computed, so do the lanes.  ``sample_stack``
        stacks a chunk's draws through it unless they are all fresh."""
        a = np.stack([s.a for s in scalars])
        conds = [s._cond for s in scalars]
        return _lanes(a, _mask(len(a), like),
                      None if None in conds else np.array(conds))

    def sample_stack(self, seed: int, counters, drawn,
                     like=None) -> tuple[MatLanes, dict]:
        """``self.sample(Seed(seed, c))`` for each counter ``c`` of
        ``counters``, one per lane, as one lanes scalar sharing the lane
        mask of ``like`` (see ``stack``); and the draws not found in
        ``drawn``, the draw pool of ``suites.LanesDraw``, by counter in
        lane order.

        A counter in ``drawn`` takes the scalar stored there.  The others
        take their stream's first candidate: the chunk's streams are
        computed together (``_uniforms``), with ``Stream``'s bits, into one
        array, and one stacked SVD, which has the single SVD's bits per
        matrix, gives each its condition number.  A candidate that ``_guard``
        would accept becomes a read-only row of that array carrying its
        condition number; every other counter is drawn again by
        ``sample``, which resamples, raises and gives up as the scalar
        path does.  When every lane is a fresh accepted candidate, the
        lanes are that array itself."""
        d = self.dim
        scalars = [drawn.get(c) for c in counters]
        miss = [c for c, s in zip(counters, scalars) if s is None]
        if not miss:
            return self.stack(scalars, like), {}
        a = _uniforms(seed, miss, d * d).astype(complex).reshape(
            len(miss), d, d)
        a.setflags(write=False)
        cond = _lanes_cond(a)
        # as in _guard, a NaN or infinite condition number is refused
        ok = (cond <= MAX_SAMPLE_COND).tolist()
        fresh = {}
        for row, c, good, k in zip(a, miss, ok, cond.tolist()):
            if good:
                m = fresh[c] = _mat(row)
                _set_cond(m, k)
            else:
                fresh[c] = self.sample(Seed(seed, c))
        if len(miss) == len(counters) and all(ok):
            return _lanes(a, _mask(len(a), like), cond), fresh
        return self.stack([fresh[c] if s is None else s
                           for c, s in zip(counters, scalars)], like), fresh

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
