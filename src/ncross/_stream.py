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
which do not depend on the data, are tabulated; the seed's part of the
pool is mixed once per seed (cached); each stream then mixes only its
counter words.
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


def _mix_in(pool, words, k):
    """Mix entropy words past the pool size into ``pool`` from hash step
    ``k`` on; returns the next hash step.  This is ``_mix(pool[dst],
    _hash(w, k))`` written out: it runs for every stream."""
    need = k + _POOL * len(words)
    if need > len(_HASH_A):
        _HASH_A.extend(_constants(_HASH_A[-1][1], _MULT_A,
                                  need - len(_HASH_A)))
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
    """The pool after mixing the seed's words, and the next hash step.

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
    return tuple(pool), k


class Stream:
    """numpy's ``Generator(PCG64(SeedSequence(seed, spawn_key=(counter,))))``
    restricted to ``uniform(-1, 1, n)`` and ``integers(low, high)``."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: int, counter: int):
        pool, k = _seed_pool(operator.index(seed))
        pool = list(pool)
        _mix_in(pool, _words(counter), k)
        # generate_state(4, uint64): eight hashed words cycling over the
        # pool, paired little-endian into the 128-bit state and increment
        s = []
        for i, (x, m) in enumerate(_HASH_B):
            h = ((pool[i % _POOL] ^ x) * m) & _M32
            s.append(h ^ (h >> 16))
        initstate = s[0] << 64 | s[1] << 96 | s[2] | s[3] << 32
        initseq = s[4] << 64 | s[5] << 96 | s[6] | s[7] << 32
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
        """``n`` draws of ``uniform(-1.0, 1.0)`` as Python floats."""
        return [-1.0 + 2.0 * ((self._next64() >> 11) * _DOUBLE_UNIT)
                for _ in range(n)]

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
