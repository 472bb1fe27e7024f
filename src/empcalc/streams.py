"""Deterministic random stream derivation.

A (root seed, key path) pair always names the same stream, independent of
platform or of how many other streams were drawn first.
Replicate i of an experiment uses ``derive_rng(seed, i)``; nested contexts
extend the key path instead of consuming draws from a shared generator.

The stream named by (seed, key) is numpy's: the PCG64 generator that
``np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))``
builds.  The package reproduces SeedSequence's hash (pool size 4) itself,
in fixed 32-bit arithmetic that runs on Python integers for one stream
and on uint32 arrays for the replicate streams of a run, whose keys are
their row indices, one uint32 word each; the tests check it against
numpy's SeedSequence.  The hash state after a seed's own words is cached
per seed, so a stream or a block hashes only its key words and the
output.  PCG64 takes the four hashed 64-bit words from an
``ISeedSequence`` subclass, made on the first draw, and applies its own
seeding step; a block of streams (:class:`BlockStreams`) keeps only those
words, 32 bytes per stream, and builds each row's generator only when its
row is reached.  A Monte Carlo run hashes the streams of all its
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


def _mix_in(pool: list, words, consts) -> None:
    for word in words:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, consts))


@functools.lru_cache(maxsize=64)
def _seed_pool(seed: int) -> tuple[tuple[int, ...], int]:
    """SeedSequence's pool after hashing the run words of ``seed``, and the
    hash constant it continues from.

    The run words are zero-padded to the pool size.  SeedSequence pads
    only when a key follows; without one its hash reads missing pool
    words as zeros, so padding always hashes the same.
    """
    run = _words(seed)
    run += [0] * (_POOL_SIZE - len(run))
    consts = _hash_constants(_INIT_A, _MULT_A)
    pool = [_hashmix(word, consts) for word in run[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts))
    _mix_in(pool, run[_POOL_SIZE:], consts)
    return tuple(pool), next(consts)[0]


def _generate_state(seed: int, key, last=()) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=key).generate_state(4, np.uint64)``.

    ``last`` holds the words of a further key element given per row, as
    uint32 arrays.  Returns shape (4,) when ``last`` is empty, else (rows, 4).
    """
    pool, const = _seed_pool(seed)
    pool = list(pool)
    consts = _hash_constants(const, _MULT_A)
    _mix_in(pool, [w for k in key for w in _words(k)] + list(last), consts)
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
    so that commands which draw nothing never load numpy.random; the
    module serves it by name, so a derived generator pickles."""
    class _SeedWords(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
                raise ValueError("derived streams only provide PCG64's four uint64 seed words")
            return self.words

    _SeedWords.__qualname__ = "_SeedWords"
    return _SeedWords


def __getattr__(name: str):
    if name == "_SeedWords":
        return _seed_words_class()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _generators(words: np.ndarray) -> Iterator[np.random.Generator]:
    """A fresh PCG64 generator for each row of seed words, in row order."""
    seed_words, generator, pcg64 = _seed_words_class(), np.random.Generator, np.random.PCG64
    return (generator(pcg64(seed_words(w))) for w in words)


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Return the generator uniquely named by ``seed`` and a key path.

    The derivation is counter-based: the key path is SeedSequence's spawn
    key, never a count of draws from a parent generator.  Two calls with
    equal arguments produce independent generator objects in identical
    states.  The generator's ``bit_generator.seed_seq`` holds only its
    seed words, so ``Generator.spawn`` is unavailable: extend the key
    path instead.
    """
    return next(_generators(_generate_state(seed, key)[np.newaxis]))


class BlockStreams:
    """The generators ``derive_rng(seed, i)`` for i in 0..reps-1.

    Their seed words are hashed as one block, each row's index one uint32
    key word, in passes of at most ``_HASH_ROWS`` rows; so a block holds at
    most 2^32 rows, and ``reps`` outside 0..2^32 is a ValueError.  The block
    keeps four uint64 words, 32 bytes, per row.  ``len`` is the row count.
    Iteration yields each row's generator in row order, built only when
    reached, so a block holds one generator at a time; every iteration
    starts the streams afresh.  A slice is the block of the rows it names,
    a view of these words with nothing hashed again.
    """

    __slots__ = ("_words",)

    def __init__(self, seed: int, reps: int):
        if not 0 <= reps <= MAX_STREAMS:
            raise ValueError(f"a block holds 0 to 2**32 streams, got {reps}")
        self._words = np.empty((reps, 4), dtype=np.uint64)
        for lo in range(0, reps, _HASH_ROWS):
            index = np.arange(lo, min(reps, lo + _HASH_ROWS), dtype=np.uint32)
            self._words[lo:lo + index.size] = _generate_state(seed, (), [index])

    def __len__(self) -> int:
        return len(self._words)

    def __getitem__(self, rows: slice) -> "BlockStreams":
        block = object.__new__(BlockStreams)
        block._words = self._words[rows]
        return block

    def __iter__(self) -> Iterator[np.random.Generator]:
        return _generators(self._words)


def derive_seed(seed: int, *key: int) -> int:
    """Collapse (seed, key path) to a single integer seed for sub-experiments."""
    return int(_generate_state(seed, key)[0])
