"""Deterministic random stream derivation.

A (root seed, key path) pair always names the same stream, independent of
platform or of how many other streams were drawn first.
Replicate i of an experiment uses ``derive_rng(seed, i)``; nested contexts
extend the key path instead of consuming draws from a shared generator.

The stream named by (seed, key) is numpy's: the PCG64 generator that
``np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))``
builds, and :func:`derive_rng` and :func:`derive_seed` make one stream
that way.  A Monte Carlo run needs one stream per replicate, keyed by its
row index, and numpy's SeedSequence builds those one object at a time.  So
:class:`BlockStreams` reproduces SeedSequence's hash (pool size 4) itself,
in fixed 32-bit arithmetic on uint32 arrays, each row's index one key
word; the tests check every row against numpy's SeedSequence.  A block
keeps the four hashed 64-bit words, 32 bytes per stream, and builds each
row's generator only when its row is reached: PCG64 takes the words from
an ``ISeedSequence`` subclass, made on the first draw, and applies its
own seeding step.  A Monte Carlo run hashes the streams of all its
replicates once, as one block, and each block of replicates draws from a
slice of it, a view of its words.
"""

from __future__ import annotations

import functools
import operator
from typing import Iterator

import numpy as np

_M32 = 0xFFFF_FFFF
_POOL_SIZE = 4
# SeedSequence's hash constants
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01_F9DD, 0x4973_F715
# streams hashed per pass: the hash's temporaries take about 100 bytes per
# stream, so a long block is hashed in pieces of this many rows
_HASH_ROWS = 1 << 16
# streams a block holds: a row's key is one uint32 word, which past 2^32 - 1 wraps to 0
MAX_STREAMS = 1 << 32


def _words(value: int) -> list[int]:
    """The uint32 words SeedSequence makes of a non-negative integer, lowest first."""
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"seeds and keys must be non-negative, got {value}")
    words = [value & _M32]
    while value := value >> 32:
        words.append(value & _M32)
    return words


def _hash_constants(const: int, mult: int):
    """The running hash constant: (value xored in, value multiplied by) per step."""
    while True:
        xor = const
        const = (const * mult) & _M32
        yield xor, const


# The hash works elementwise on Python ints and on uint32 arrays alike: a
# Python-int product is cut to 32 bits before it meets an array, so every
# operand fits the arrays' uint32, whose arithmetic wraps as SeedSequence's
# C code does.

def _hashmix(value, consts):
    xor, mult = next(consts)
    value = ((value ^ xor) * mult) & _M32
    return value ^ (value >> 16)


def _mix(x, y):
    value = (((_MIX_MULT_L * x) & _M32) - ((_MIX_MULT_R * y) & _M32)) & _M32
    return value ^ (value >> 16)


def _generate_state(seed: int, index: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(i,)).generate_state(4, np.uint64)`` for
    each i of the uint32 array ``index``, one row each.

    SeedSequence pads the seed's words with zeros to the pool size, as a
    key follows them, hashes the first four into the pool, and then mixes
    in the seed's further words and the key.
    """
    run = _words(seed)
    run += [0] * (_POOL_SIZE - len(run))
    consts = _hash_constants(_INIT_A, _MULT_A)
    pool = [_hashmix(word, consts) for word in run[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts))
    for word in run[_POOL_SIZE:] + [index]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, consts))
    consts = _hash_constants(_INIT_B, _MULT_B)
    out = np.array([_hashmix(pool[i % _POOL_SIZE], consts)
                    for i in range(2 * _POOL_SIZE)], dtype="<u4").T
    # uint32 word pairs read as little-endian uint64s, one C-ordered row per
    # stream: a view, so the hash holds no uint64 copy of its words
    return np.ascontiguousarray(out).view("<u8").astype(np.uint64, copy=False)


@functools.cache
def _seed_words_class() -> type:
    """``_SeedWords``, the numpy ``ISeedSequence`` that hands PCG64 the four
    uint64 words its SeedSequence would generate.  Made on the first draw,
    so that commands which draw nothing never load numpy.random."""
    class _SeedWords(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
                raise ValueError("derived streams only provide PCG64's four uint64 seed words")
            return self.words

    return _SeedWords


def _seed_sequence(seed: int, key: tuple) -> np.random.SeedSequence:
    """numpy's SeedSequence of (seed, key), for integers only: numpy would
    take None for fresh entropy and hash a string key as another stream."""
    return np.random.SeedSequence(operator.index(seed),
                                  spawn_key=tuple(map(operator.index, key)))


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Return the generator uniquely named by ``seed`` and a key path.

    The derivation is counter-based: the key path is SeedSequence's spawn
    key, never a count of draws from a parent generator.  Two calls with
    equal arguments produce independent generator objects in identical
    states.
    """
    return np.random.default_rng(_seed_sequence(seed, key))


def derive_seed(seed: int, *key: int) -> int:
    """Collapse (seed, key path) to a single integer seed for sub-experiments:
    the first uint64 word of that stream's SeedSequence."""
    return int(_seed_sequence(seed, key).generate_state(1, np.uint64)[0])


class BlockStreams:
    """The generators ``derive_rng(seed, i)`` for i in 0..reps-1.

    Their seed words are hashed as one block, each row's index one uint32
    key word, in passes of at most ``_HASH_ROWS`` rows; so a block holds at
    most 2^32 rows, and ``reps`` outside 0..2^32 is a ValueError.  The block
    keeps four uint64 words, 32 bytes, per row.  ``len`` is the row count.
    Iteration yields each row's generator in row order, built only when
    reached, so a block holds one generator at a time; every iteration
    starts the streams afresh.  A slice is the block of the rows it names,
    a view of these words with nothing hashed again.  A row's generator
    holds only its seed words, so it neither pickles nor spawns.
    """

    __slots__ = ("_words",)

    def __init__(self, seed: int, reps: int):
        if not 0 <= reps <= MAX_STREAMS:
            raise ValueError(f"a block holds 0 to 2**32 streams, got {reps}")
        self._words = np.empty((reps, 4), dtype=np.uint64)
        for lo in range(0, reps, _HASH_ROWS):
            index = np.arange(lo, min(reps, lo + _HASH_ROWS), dtype=np.uint32)
            self._words[lo:lo + index.size] = _generate_state(seed, index)

    def __len__(self) -> int:
        return len(self._words)

    def __getitem__(self, rows: slice) -> "BlockStreams":
        block = object.__new__(BlockStreams)
        block._words = self._words[rows]
        return block

    def __iter__(self) -> Iterator[np.random.Generator]:
        seed_words, generator, pcg64 = _seed_words_class(), np.random.Generator, np.random.PCG64
        return (generator(pcg64(seed_words(w))) for w in self._words)
