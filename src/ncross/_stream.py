"""The seeded random stream behind ``Ring.sample``, in pure Python.

``Stream(seed, counter)`` reproduces, bit for bit, numpy's
``Generator(PCG64(SeedSequence(entropy=seed, spawn_key=(counter,))))`` for
the two calls the rings make: ``uniform(-1.0, 1.0, size=n)`` and
``integers(low, high)``.  PCG64 is O'Neill's XSL-RR generator with a
128-bit LCG state (*PCG: A Family of Simple Fast Space-Efficient
Statistically Good Algorithms for Random Number Generation*,
HMC-CS-2014-0905); SeedSequence is numpy's entropy pool of four 32-bit
words.

Building those three numpy objects costs far more than the handful of
integer steps they perform for one scalar.  Here the pool hash constants,
which do not depend on the data, are tabulated, and the seed's part of the
pool is mixed once per seed (cached).  ``Ring.sample`` builds a stream for
every scalar it draws, so its own steps are written out as straight-line
code:

- the first counter word is mixed into the four pool words with the four
  hash constants that follow the seed's, which ``_seed_pool`` hands over
  with the pool; any further counter words go through ``_mix_in``;
- ``generate_state``'s eight hashes of the pool words are spelled out;
- ``uniform`` runs its PCG64 steps in one local loop.

Each written-out step is the generic one with the loop indices filled in:
the same integer operations on the same operands in the same order, so
every output keeps numpy's bits (``tests/test_scalars.py`` compares them
with numpy's own generator, at 32-bit word boundaries of the seed and the
counter too).

``Stream`` is the definition of a draw.  A lanes draw of the matrix ring
computes the streams of a whole chunk of counters together, on numpy
arrays (``ncross.matrix._uniforms``, the one module that may import
numpy): the same integer and IEEE operations, from this module's cached
seed pool and hash constants, so every lane has ``Stream``'s bits.
"""

from __future__ import annotations

import functools
import operator

_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF
_M128 = (1 << 128) - 1

#: SeedSequence constants (numpy/random/bit_generator.pyx)
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715

#: PCG64's LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

#: 2**-53: a 53-bit integer times this is a double in [0, 1)
_DOUBLE_UNIT = 1.0 / 9007199254740992.0


def _constants(init, mult, n):
    """The (xor, multiply) pairs of the first ``n`` hash steps: each step
    xors with the running constant, then multiplies by its next value."""
    out = []
    h = init
    for _ in range(n):
        nxt = (h * mult) & _M32
        out.append((h, nxt))
        h = nxt
    return out


#: hash-step constants of the pool mixing, in call order; the first 16 fill
#: and cross-mix the pool, the rest are grown on demand for seeds and
#: counters of many words
_HASH_A = _constants(_INIT_A, _MULT_A, 64)
#: hash-step constants of generate_state's eight 32-bit words
_HASH_B = _constants(_INIT_B, _MULT_B, 8)


def _hash(value, k):
    x, m = _HASH_A[k]
    value = ((value ^ x) * m) & _M32
    return value ^ (value >> 16)


def _mix(x, y):
    r = (_MIX_L * x - _MIX_R * y) & _M32
    return r ^ (r >> 16)


def _words(n):
    """A non-negative int as little-endian 32-bit words, at least one."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    out = [n & _M32]
    n >>= 32
    while n:
        out.append(n & _M32)
        n >>= 32
    return out


def _grow(need):
    """Extend ``_HASH_A`` to at least ``need`` hash steps."""
    if need > len(_HASH_A):
        _HASH_A.extend(_constants(_HASH_A[-1][1], _MULT_A,
                                  need - len(_HASH_A)))


def _mix_in(pool, words, k):
    """Mix entropy words past the pool size into ``pool`` from hash step
    ``k`` on; returns the next hash step.  This is ``_mix(pool[dst],
    _hash(w, k))`` written out."""
    _grow(k + _POOL * len(words))
    for w in words:
        for dst in range(_POOL):
            x, m = _HASH_A[k]
            h = ((w ^ x) * m) & _M32
            r = (_MIX_L * pool[dst] - _MIX_R * (h ^ (h >> 16))) & _M32
            pool[dst] = r ^ (r >> 16)
            k += 1
    return k


@functools.lru_cache(maxsize=64)
def _seed_pool(seed):
    """The four pool words after mixing the seed's words, then the four
    hash steps of the counter's first word and the hash step after them.

    With a spawn key the seed's words are padded with zeros to the pool
    size, so they fill the pool on their own; the spawn key's words follow
    them like any entropy past the pool size."""
    words = _words(seed)
    words += [0] * (_POOL - len(words))
    pool = [_hash(words[i], i) for i in range(_POOL)]
    k = _POOL
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], k))
                k += 1
    k = _mix_in(pool, words[_POOL:], k)
    _grow(k + _POOL)
    return (*pool, tuple(_HASH_A[k:k + _POOL]), k + _POOL)


class Stream:
    """numpy's ``Generator(PCG64(SeedSequence(seed, spawn_key=(counter,))))``
    restricted to ``uniform(-1, 1, n)`` and ``integers(low, high)``."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: int, counter: int):
        p0, p1, p2, p3, first, k = _seed_pool(operator.index(seed))
        counter = operator.index(counter)
        if counter < 0:
            raise ValueError("expected non-negative integer")
        # _mix_in of the counter's first word, one pool word at a time
        (x0, m0), (x1, m1), (x2, m2), (x3, m3) = first
        w = counter & _M32
        h = ((w ^ x0) * m0) & _M32
        r = (_MIX_L * p0 - _MIX_R * (h ^ (h >> 16))) & _M32
        p0 = r ^ (r >> 16)
        h = ((w ^ x1) * m1) & _M32
        r = (_MIX_L * p1 - _MIX_R * (h ^ (h >> 16))) & _M32
        p1 = r ^ (r >> 16)
        h = ((w ^ x2) * m2) & _M32
        r = (_MIX_L * p2 - _MIX_R * (h ^ (h >> 16))) & _M32
        p2 = r ^ (r >> 16)
        h = ((w ^ x3) * m3) & _M32
        r = (_MIX_L * p3 - _MIX_R * (h ^ (h >> 16))) & _M32
        p3 = r ^ (r >> 16)
        if counter > _M32:
            pool = [p0, p1, p2, p3]
            _mix_in(pool, _words(counter >> 32), k)
            p0, p1, p2, p3 = pool
        # generate_state(4, uint64): eight hashed words cycling over the
        # pool, paired little-endian into the 128-bit state and increment
        (x0, m0), (x1, m1), (x2, m2), (x3, m3), \
            (x4, m4), (x5, m5), (x6, m6), (x7, m7) = _HASH_B
        h = ((p0 ^ x0) * m0) & _M32
        s0 = h ^ (h >> 16)
        h = ((p1 ^ x1) * m1) & _M32
        s1 = h ^ (h >> 16)
        h = ((p2 ^ x2) * m2) & _M32
        s2 = h ^ (h >> 16)
        h = ((p3 ^ x3) * m3) & _M32
        s3 = h ^ (h >> 16)
        h = ((p0 ^ x4) * m4) & _M32
        s4 = h ^ (h >> 16)
        h = ((p1 ^ x5) * m5) & _M32
        s5 = h ^ (h >> 16)
        h = ((p2 ^ x6) * m6) & _M32
        s6 = h ^ (h >> 16)
        h = ((p3 ^ x7) * m7) & _M32
        s7 = h ^ (h >> 16)
        initstate = s0 << 64 | s1 << 96 | s2 | s3 << 32
        initseq = s4 << 64 | s5 << 96 | s6 | s7 << 32
        inc = (initseq << 1 | 1) & _M128
        # srandom: state = 0; step; state += initstate; step
        self._state = ((inc + initstate) * _PCG_MULT + inc) & _M128
        self._inc = inc
        self._half = None  # the buffered upper half of a 64-bit output

    def _next64(self):
        st = (self._state * _PCG_MULT + self._inc) & _M128
        self._state = st
        x = ((st >> 64) ^ st) & _M64
        rot = st >> 122
        return ((x >> rot) | (x << (64 - rot))) & _M64

    def uniform(self, n: int) -> list[float]:
        """``n`` draws of ``uniform(-1.0, 1.0)`` as Python floats: the steps
        of ``_next64`` in one local loop."""
        st, inc = self._state, self._inc
        out = []
        for _ in range(n):
            st = (st * _PCG_MULT + inc) & _M128
            x = ((st >> 64) ^ st) & _M64
            rot = st >> 122
            x = ((x >> rot) | (x << (64 - rot))) & _M64
            out.append(-1.0 + 2.0 * ((x >> 11) * _DOUBLE_UNIT))
        self._state = st
        return out

    def _next32(self):
        if self._half is not None:
            out, self._half = self._half, None
            return out
        x = self._next64()
        self._half = x >> 32
        return x & _M32

    def integers(self, low: int, high: int) -> int:
        """One draw of ``integers(low, high)``: ``high`` is excluded and the
        span must fit in 32 bits (Lemire's rejection on 32-bit outputs)."""
        rng = high - 1 - low
        if not 0 < rng < _M32:
            raise ValueError("integers: span must be in [2, 2**32 - 1]")
        excl = rng + 1
        m = self._next32() * excl
        if (m & _M32) < excl:
            threshold = (_M32 - rng) % excl
            while (m & _M32) < threshold:
                m = self._next32() * excl
        return low + (m >> 32)
