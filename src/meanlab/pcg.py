"""Seeded uniform draws in pure Python, bit for bit numpy's
``default_rng(seed)``.

numpy's ``SeedSequence`` mixes the seed into a pool of four 32-bit
words; the pool's first four 64-bit outputs seed a PCG64 stream
(O'Neill, "PCG: A Family of Simple Fast Space-Efficient Statistically
Good Algorithms for Random Number Generation", HMC-CS-2014-0905: a
128-bit LCG with the XSL-RR output), whose 64-bit outputs become doubles
in [0, 1).  Only what the package calls is here: ``spawn(n)`` and
``uniform(lo, hi, size)``.

A spawned child's entropy is its parent's, zero-padded to four words,
then its spawn key.  Mixing hashes missing pool words as zeros, so the
padding changes nothing, and the child's pool is its parent's with the
child's spawn index folded in: a spawn costs one fold, not a new mix.
"""

from __future__ import annotations

import operator

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(n: int) -> list:
    """The little-endian 32-bit words of a non-negative int; 0 is one word."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _M32]
    n >>= 32
    while n:
        words.append(n & _M32)
        n >>= 32
    return words


def _hash(value: int, const: int) -> tuple:
    """One ``hashmix``: the hashed word and the next hash constant."""
    value ^= const
    const = const * _MULT_A & _M32
    value = value * const & _M32
    return value ^ value >> 16, const


def _mix(x: int, y: int) -> int:
    r = (_MIX_L * x - _MIX_R * y) & _M32
    return r ^ r >> 16


def _fold(pool: list, const: int, words: list) -> tuple:
    """Mix each word, in order, into every pool word: the tail of
    ``SeedSequence.mix_entropy``.  Returns the new pool and constant."""
    pool = list(pool)
    for word in words:
        for dst in range(_POOL):
            h, const = _hash(word, const)
            pool[dst] = _mix(pool[dst], h)
    return pool, const


def _mix_entropy(words: list) -> tuple:
    """``SeedSequence.mix_entropy``: hash the first four words into the
    pool (zeros past the end), mix every ordered pair of pool words, then
    fold in the words left."""
    pool, const = [], _INIT_A
    for i in range(_POOL):
        h, const = _hash(words[i] if i < len(words) else 0, const)
        pool.append(h)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                h, const = _hash(pool[src], const)
                pool[dst] = _mix(pool[dst], h)
    return _fold(pool, const, words[_POOL:])


def default_rng(seed: int) -> SeededRandom:
    """``numpy.random.default_rng(seed)`` for a non-negative int seed."""
    return SeededRandom(*_mix_entropy(_words(operator.index(seed))))


class SeededRandom:
    """The generator of a mixed ``SeedSequence`` pool and its hash
    constant; make one with ``default_rng``."""

    __slots__ = ("_pool", "_const", "_spawned", "_state", "_inc")

    def __init__(self, pool: list, const: int):
        self._pool, self._const, self._spawned = pool, const, 0
        # generate_state(4, uint64): eight words, two per uint64, low first
        const, words = _INIT_B, []
        for i in range(8):
            value = pool[i % _POOL] ^ const
            const = const * _MULT_B & _M32
            value = value * const & _M32
            words.append(value ^ value >> 16)
        v = [words[2 * k] | words[2 * k + 1] << 32 for k in range(4)]
        self._inc = ((v[2] << 64 | v[3]) << 1 | 1) & _M128
        # from state 0: step, add the initial state, step
        self._state = ((self._inc + (v[0] << 64 | v[1])) * _PCG_MULT + self._inc) & _M128

    def spawn(self, n: int) -> list:
        """The next ``n`` independent children, as ``Generator.spawn``."""
        first, self._spawned = self._spawned, self._spawned + n
        return [SeededRandom(*_fold(self._pool, self._const, _words(i)))
                for i in range(first, first + n)]

    def _double(self) -> float:
        # step first, then XSL-RR: (hi64 ^ lo64) rotated right by state>>122
        s = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        x, r = (s >> 64 ^ s) & _M64, s >> 122
        return (((x >> r | x << (64 - r)) & _M64) >> 11) * 2.0**-53

    def uniform(self, lo: float, hi: float, size=None):
        """``lo + (hi-lo)*u``: a float when ``size`` is None, a list for an
        int, and a list of row lists for ``(rows, cols)``, filled row-major."""
        span = hi - lo
        if size is None:
            return lo + span * self._double()
        if isinstance(size, int):
            return [lo + span * self._double() for _ in range(size)]
        rows, cols = size
        return [[lo + span * self._double() for _ in range(cols)] for _ in range(rows)]
