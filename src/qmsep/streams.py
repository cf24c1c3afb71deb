"""Named, seedable, splittable random streams.

Every stochastic operation in this package takes a Stream explicitly, so
a run is a pure function of its seed.  Child streams are derived from a
(seed, path) pair, which makes trial i independent of trial j and stable
under reordering.

A stream draws what ``default_rng(SeedSequence(seed, spawn_key=path))``
draws, but computes that generator's state itself: the attack's streams
draw one to three numbers each, and numpy's set-up of SeedSequence, PCG64
and Generator costs more than those draws.  SeedSequence's pool is a left
fold over its entropy words, so a child's pool is its parent's with its
label mixed in; a root's is numpy's SeedSequence(seed).pool, which numpy
computes in less than half the time Python takes.  Scalar and int-sized
``random`` are PCG64 steps (O'Neill, 2014) and scalar ``integers`` is
numpy's Lemire rejection ("Fast Random Integer Generation in an
Interval", 2019), both in Python.  A stream only moves forward by
drawing: it has no skip, rewind or look-ahead.
"""

from __future__ import annotations

import functools
import zlib

import numpy as np


def _label_key(label) -> int:
    if isinstance(label, int):
        if label < 0:
            raise ValueError("stream labels must be non-negative")
        return label
    # stable across processes, unlike hash()
    return zlib.crc32(str(label).encode("utf-8"))


_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
# SeedSequence's hash and mix constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# generate_state's (pool word, xor, multiplier) for each of the 8 words
# PCG64 reads, and the word's bit offset in the 256-bit (i0 i1 s0 s1) that
# its little-endian uint64 words s0, s1, i0, i1 make
_OUT = [(k & 3, _INIT_B * pow(_MULT_B, k, 1 << 32) & _M32,
         _INIT_B * pow(_MULT_B, k + 1, 1 << 32) & _M32, at)
        for k, at in enumerate((64, 96, 0, 32, 192, 224, 128, 160))]
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(n: int) -> list:
    """A non-negative int as SeedSequence reads it: little-endian uint32
    words, one word for 0."""
    if n < 0:
        raise ValueError("stream seeds must be non-negative")
    words = [n & _M32]
    n >>= 32
    while n:
        words.append(n & _M32)
        n >>= 32
    return words


def _seed_pool(seed: int) -> tuple:
    """SeedSequence(seed)'s pool and the hash constant its mixing ends on,
    INIT_A MULT_A^k after k = 16 + 4 max(0, words - 4) hash steps."""
    k = 16 + 4 * max(0, len(_words(seed)) - 4)
    return (*np.random.SeedSequence(seed).pool.tolist(),
            _INIT_A * pow(_MULT_A, k, 1 << 32) & _M32)


def _mix_in(pool: tuple, word: int) -> tuple:
    """SeedSequence.mix_entropy's step for an entropy word past the pool's
    four: hash it into every pool word.  A pool is its four words and the
    hash constant."""
    *out, const = pool
    for i in range(4):
        h = (word ^ const) * (const := const * _MULT_A & _M32) & _M32
        h = (_MIX_L * out[i] - _MIX_R * (h ^ h >> 16)) & _M32
        out[i] = h ^ h >> 16
    return (*out, const)


def _pcg64_seed(pool: tuple) -> tuple:
    """PCG64's (state, inc) as PCG64(SeedSequence) seeds them from
    generate_state(4, uint64): inc = (i0 i1 << 1) | 1 and
    state = (inc + s0 s1) MULT + inc, mod 2^128."""
    v = 0
    for i, x, mult, at in _OUT:
        h = (pool[i] ^ x) * mult & _M32
        v |= (h ^ h >> 16) << at
    inc = (v >> 127 | 1) & _M128
    return ((inc + (v & _M128)) * _PCG_MULT + inc) & _M128, inc


@functools.cache
def _unseeded():
    """A stand-in SeedSequence, so that PCG64 is built without one and its
    state is set after.  It is made on the first hand-off because numpy
    loads numpy.random lazily, and importing it here would add about 20 ms
    to every interpreter's start."""
    class Unseeded(np.random.bit_generator.ISeedSequence):
        def generate_state(self, n_words, dtype=np.uint64):
            return np.zeros(n_words, dtype=np.uint64)
    return Unseeded()


class Stream:
    """A seeded random stream that can be split into independent children.

    Nothing is computed before the first draw, because many streams (a
    root that only splits, or a stream a deterministic backend ignores)
    never draw.  A draw that numpy alone serves (a sized ``integers``,
    ``choice``) or a read of ``gen`` hands the exact state, with the uint32
    half numpy's next_uint32 keeps, to one numpy Generator, which serves
    every later draw.  Whoever holds a stream owns its draws: a
    callee handed a fresh split may leave it anywhere.
    """

    _pool = None  # (4 pool words, hash constant), once a draw needs it
    _state = None  # PCG64's 128-bit state, from the first draw on
    _kept = None  # the high half of the last next_uint32 output, if unused
    _gen = None  # the numpy Generator, once a draw was handed off

    def __init__(self, seed: int, _path: tuple[int, ...] = (), _parent=None):
        self.seed = int(seed)
        self.path = tuple(_path)
        self._parent = _parent

    def _entropy(self) -> tuple:
        """The pool: the seed's for a root, or for a stream `split` built,
        the parent's with its label, path[-1], mixed in."""
        if self._pool is None:
            if self._parent is None:
                self._pool = _seed_pool(self.seed)
            else:
                self._pool = functools.reduce(_mix_in, _words(self.path[-1]),
                                              self._parent._entropy())
        return self._pool

    def _seeded(self) -> int:
        if self._state is None:
            self._state, self._inc = _pcg64_seed(self._entropy())
        return self._state

    def _next64(self) -> int:
        """PCG64's next output: step the state, then XSL-RR."""
        s = self._state = (self._seeded() * _PCG_MULT + self._inc) & _M128
        x, rot = (s >> 64) ^ (s & _M64), s >> 122
        return (x >> rot | x << (64 - rot)) & _M64

    def _next32(self) -> int:
        if self._kept is not None:
            out, self._kept = self._kept, None
            return out
        x = self._next64()
        self._kept = x >> 32
        return x & _M32

    def _bounded(self, rng: int) -> int:
        """numpy's random_bounded_uint64 on [0, rng], rng > 0: Lemire's
        method on next_uint32 up to 2^32 - 1 and on next_uint64 above,
        rejecting while the product's low half is below 2^bits mod (rng + 1).
        On a full range that bound is 0 and the draw passes as it is."""
        bits, draw = (32, self._next32) if rng <= _M32 else (64, self._next64)
        mask, excl = (1 << bits) - 1, rng + 1
        floor = (1 << bits) % excl
        m = draw() * excl
        while m & mask < floor:
            m = draw() * excl
        return m >> bits

    @property
    def gen(self) -> np.random.Generator:
        """The numpy Generator at this stream's state; it serves every draw
        from now on."""
        if self._gen is None:
            bits = np.random.PCG64(_unseeded())
            bits.state = {"bit_generator": "PCG64",
                          "state": {"state": self._seeded(), "inc": self._inc},
                          "has_uint32": int(self._kept is not None),
                          "uinteger": self._kept or 0}
            self._gen = np.random.Generator(bits)
        return self._gen

    def split(self, label) -> "Stream":
        """Derive an independent child stream; same label -> same child."""
        return Stream(self.seed, self.path + (_label_key(label),), self)

    def random(self, size=None):
        """Generator.random(size); no size or an int size is drawn here."""
        if self._gen is None:
            if size is None:
                return (self._next64() >> 11) * 2.0 ** -53
            if type(size) is int and size >= 0:
                return np.array([(self._next64() >> 11) * 2.0 ** -53
                                 for _ in range(size)], dtype=float)
        return self.gen.random(size)

    def integers(self, low, high=None, size=None):
        """Generator.integers(low, high, size) for int64 draws on [low,
        high), or on [0, low) with no high; one draw is drawn here."""
        if high is None:
            low, high = 0, low
        if (self._gen is None and size is None and type(low) is int
                and type(high) is int and -(1 << 63) <= low < high <= 1 << 63):
            rng = high - low - 1
            return np.int64(low + self._bounded(rng) if rng else low)
        return self.gen.integers(low, high, size)

    def choice(self, *args, **kwargs):
        return self.gen.choice(*args, **kwargs)

    def __repr__(self):
        return f"Stream(seed={self.seed}, path={self.path})"
