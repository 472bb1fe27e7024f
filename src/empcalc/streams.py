"""Deterministic random stream derivation.

A (root seed, key path) pair always names the same stream, independent of
platform or of how many other streams were drawn first.
Replicate i of an experiment uses ``derive_rng(seed, i)``; nested contexts
extend the key path instead of consuming draws from a shared generator.

The stream named by (seed, key) is numpy's: the PCG64 generator that
``np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))``
builds, and :func:`derive_rng` and :func:`derive_seed` make one stream
that way.  A Monte Carlo run needs one stream per replicate, keyed by its
row index, and numpy builds those one object at a time.  So
:class:`BlockStreams` reproduces SeedSequence's hash (pool size 4) and
PCG64's seeding (O'Neill, 2014) on arrays, and writes each row's seeded
state into one Generator as its row is reached, in the order numpy's build
keeps the halves of a 128-bit word; the tests check every row against
numpy.
"""

from __future__ import annotations

import ctypes
import functools
import operator
from typing import Iterator

import numpy as np

from .errors import EmpcalcError

_M32 = 0xFFFF_FFFF
_POOL_SIZE = 4
# SeedSequence's hash constants
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01_F9DD, 0x4973_F715
# PCG64's LCG multiplier 0x2360ED051FC65DA44385DF649FCCF645, as 32-bit limbs
_PCG_MULT = np.array([0x9FCC_F645, 0x4385_DF64, 0x1FC6_5DA4, 0x2360_ED05], dtype=np.uint64)
# streams hashed and seeded per pass, 330 bytes of temporaries each: 2^16 ran 2.5 times slower
_HASH_ROWS = 1 << 14
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
    """``SeedSequence(seed, spawn_key=(i,)).generate_state(8)`` as uint64, one
    column for each i of the uint32 array ``index``.

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
    return np.array([_hashmix(pool[i % _POOL_SIZE], consts)
                     for i in range(2 * _POOL_SIZE)], dtype=np.uint64)


def _carried(cols: np.ndarray) -> np.ndarray:
    """The 32-bit limbs, lowest first, of sum_k cols[k] 2^(32k) mod 2^128."""
    for k in range(3):
        cols[k + 1] += cols[k] >> 32
    return cols & _M32


def _seeded(words: np.ndarray) -> np.ndarray:
    """PCG64's (state_lo, state_hi, inc_lo, inc_hi) per column of uint32 words (s_hi, s_lo,
    i_hi, i_lo): inc = 2i + 1, state = ((inc + s) M + inc) mod 2^128, on 32-bit limbs."""
    s, i = words[[2, 3, 0, 1]], words[[6, 7, 4, 5]]
    inc = _carried(i << 1)
    inc[0] |= 1
    a, cols = _carried(inc + s), inc.copy()
    for p in range(4):  # a_p m_q into columns p + q, p + q + 1: each sums at most 8 limbs
        prod = a[p] * _PCG_MULT[:4 - p, None]
        cols[p:] += prod & _M32
        cols[p + 1:] += prod[:3 - p] >> 32
    return np.concatenate([_carried(cols), inc]).T.astype("<u4", order="C").view("<u8")


@functools.cache
def _layout() -> tuple:
    """(the zero ``ISeedSequence``, which cannot spawn, that builds a block's PCG64, the order
    of the halves of numpy's 128-bit words: low first for native 128-bit integers on a
    little-endian host, high first for numpy's emulated {high, low} or a big-endian host),
    read on the first draw, so commands that draw nothing never load numpy.random."""
    class _SeedWords(np.random.bit_generator.ISeedSequence):
        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
                raise ValueError("derived streams only provide PCG64's four uint64 seed words")
            return np.zeros(4, np.uint64)

    seed_seq = np.random.SeedSequence(2 ** 100 + 7)
    pcg = np.random.PCG64(seed_seq)
    pcg.state = {**pcg.state, "has_uint32": 1, "uinteger": 7}
    _, words, half = _bind(pcg)
    half.value = 0
    want = _seeded(seed_seq.generate_state(8)[:, None].astype(np.uint64)).reshape(2, 2)
    for order in (slice(None), slice(None, None, -1)):
        if np.array_equal(words[:, order], want) and pcg.state["has_uint32"] == 0:
            return _SeedWords(), order
    raise EmpcalcError(f"numpy {np.__version__} keeps PCG64's state in an unknown layout")


def _bind(pcg: np.random.PCG64, order: slice = slice(None)) -> tuple:
    """(a Generator on ``pcg``, a view of its state and inc as rows of two uint64 halves in
    ``order``, the 64 bits that hold its buffered 32-bit half): numpy's C state is
    {(state, inc) *, int, uint32}."""
    address = pcg.ctypes.state_address
    words = (ctypes.c_uint64 * 4).from_address(ctypes.c_void_p.from_address(address).value)
    return (np.random.Generator(pcg), np.frombuffer(words, np.uint64).reshape(2, 2)[:, order],
            ctypes.c_uint64.from_address(address + ctypes.sizeof(ctypes.c_void_p)))


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
    """The streams ``derive_rng(seed, i)`` for i in 0..reps-1.

    Their seed words are hashed as one block, each row's index one uint32
    key word, and seeded as PCG64 seeds them, in passes of at most
    ``_HASH_ROWS`` rows; so a block holds at most 2^32 rows, and ``reps``
    outside 0..2^32 is a ValueError.  The block keeps each row's PCG64
    (state, inc), 32 bytes; a slice is the block of the rows it names, a
    view of these words.  Each iteration binds one Generator, which neither
    pickles nor spawns, and writes each row's words into it in turn: it holds
    a row's stream until that iteration yields again, so ``list(block)`` is
    one object, and another iteration, of the block or a slice, binds its own.
    """

    __slots__ = ("_states",)

    def __init__(self, seed: int, reps: int):
        if not 0 <= reps <= MAX_STREAMS:
            raise ValueError(f"a block holds 0 to 2**32 streams, got {reps}")
        self._states = np.empty((reps, 4), dtype=np.uint64)
        for lo in range(0, reps, _HASH_ROWS):
            index = np.arange(lo, min(reps, lo + _HASH_ROWS), dtype=np.uint32)
            self._states[lo:lo + index.size] = _seeded(_generate_state(seed, index))

    def __len__(self) -> int:
        return len(self._states)

    def __getitem__(self, rows: slice) -> "BlockStreams":
        block = object.__new__(BlockStreams)
        block._states = self._states[rows]
        return block

    def __iter__(self) -> Iterator[np.random.Generator]:
        seed_words, order = _layout()
        rng, words, half = _bind(np.random.PCG64(seed_words), order)
        for row in self._states.reshape(-1, 2, 2):
            words[...] = row
            half.value = 0
            yield rng
