"""Stream derivation against numpy's own SeedSequence and PCG64.

``derive_rng`` and ``derive_seed`` call numpy's SeedSequence; ``BlockStreams``
reproduces its hash and PCG64's seeding on arrays instead, and sets one
Generator to each row's stream in turn.  So every derived generator is
compared here with the one numpy builds from
``SeedSequence(seed, spawn_key=key)``: the PCG64 (state, inc), the buffered
32-bit half and the first draws.
"""

import itertools
import os
import re
import pickle
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import empcalc as ec
from empcalc import simulate, streams
from empcalc.errors import EmpcalcError
from empcalc.streams import BlockStreams, derive_rng, derive_seed

SEEDS = st.one_of(st.integers(0, 2 ** 32 + 5), st.integers(0, 2 ** 130))
KEY_VALUES = st.one_of(st.integers(0, 5), st.integers(0, 2 ** 64))
KEYS = st.lists(KEY_VALUES, max_size=3).map(tuple)


def reference_rng(seed, key):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def assert_same_stream(rng, seed, key):
    ref = reference_rng(seed, key)
    assert rng.bit_generator.state == ref.bit_generator.state, (seed, key)
    assert np.array_equal(rng.random(3), ref.random(3)), (seed, key)
    assert np.array_equal(rng.integers(0, 2 ** 62, 2), ref.integers(0, 2 ** 62, 2)), (seed, key)


@settings(max_examples=300, deadline=None)
@given(seed=SEEDS, key=KEYS)
def test_derive_rng_and_seed_match_numpy(seed, key):
    assert_same_stream(derive_rng(seed, *key), seed, key)
    expected = np.random.SeedSequence(seed, spawn_key=key).generate_state(1, np.uint64)[0]
    assert derive_seed(seed, *key) == int(expected)


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS, size=st.integers(0, 40))
def test_block_rows_match_numpy(seed, size):
    rngs = BlockStreams(seed, size)
    assert len(rngs) == size
    for i, rng in enumerate(rngs):
        assert_same_stream(rng, seed, (i,))


@pytest.mark.parametrize("seed", [0, 7, 2 ** 32 + 5, 2 ** 130])
def test_the_last_row_key_matches_numpy(seed):
    # the last two rows of a 2^32-row block, hashed through the block's
    # per-row key path; the block itself would hold 128 GiB of seed words
    index = np.array([2 ** 32 - 2, 2 ** 32 - 1], dtype=np.uint32)
    words = streams._generate_state(seed, index)
    for i, column in zip(index.tolist(), words.T):
        assert np.array_equal(column, np.random.SeedSequence(seed, spawn_key=(i,))
                              .generate_state(8)), (seed, i)
    block = BlockStreams(seed, 0)
    block._states = streams._seeded(words)  # the block's streams of these two rows
    for i, rng in zip(index.tolist(), block):
        assert_same_stream(rng, seed, (i,))


class _FixedWords(np.random.bit_generator.ISeedSequence):
    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


EDGE_WORD = st.sampled_from([0, 1, 2 ** 31, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1])
SEED_WORDS = st.lists(st.one_of(EDGE_WORD, st.integers(0, 2 ** 64 - 1)), min_size=4, max_size=4)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(SEED_WORDS, min_size=1, max_size=4))
def test_seeding_arithmetic_matches_pcg64_on_any_words(rows):
    # carries through every limb: the edge words make inc + s and the
    # product's columns overflow 32 bits
    words = np.array(rows, dtype=np.uint64)
    limbs = np.stack([words & 0xFFFF_FFFF, words >> 32], axis=2).reshape(-1, 8).T
    for row, (state_lo, state_hi, inc_lo, inc_hi) in zip(words, streams._seeded(limbs).tolist()):
        want = np.random.PCG64(_FixedWords(row)).state["state"]
        assert (want["state"], want["inc"]) == (state_hi << 64 | state_lo, inc_hi << 64 | inc_lo)


@pytest.mark.parametrize("reps", [-1, 2 ** 32 + 1, 2 ** 64])
def test_a_block_holds_at_most_2_32_streams(reps):
    # past 2^32 - 1 a uint32 row index would wrap to 0 and repeat streams
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=rf"^a block holds 0 to 2\*\*32 streams, got {reps}$"):
            BlockStreams(1, reps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_block_longer_than_one_hash_pass(monkeypatch):
    monkeypatch.setattr(streams, "_HASH_ROWS", 7)
    rngs = BlockStreams(5, 30)
    assert len(rngs) == 30
    for i, rng in enumerate(rngs):
        assert_same_stream(rng, 5, (i,))


@pytest.mark.parametrize("words", range(1, 7))
def test_run_entropy_padding_with_and_without_a_key(words):
    # the run entropy is zero-padded to four words only when a key follows it
    seed = 2 ** (32 * words) - 7
    for key in ((), (0,), (3, 2 ** 40)):
        assert_same_stream(derive_rng(seed, *key), seed, key)


def assert_same_rows(block, ref):
    # ref iterated alongside block: a second open iteration of the same run
    # binds its own generator, so drawing from one leaves the other's row alone
    rows = 0
    for rng, want in zip(block, ref):
        assert rng is not want
        assert rng.bit_generator.state == want.bit_generator.state
        assert np.array_equal(rng.random(3), want.random(3))
        rows += 1
    assert rows == len(block)


@pytest.mark.parametrize("lo, hi", [(0, 40), (7, 23), (39, 40), (12, 12), (40, 40)])
def test_slices_of_a_run_are_the_blocks_they_name(lo, hi):
    run = BlockStreams(3, 40)
    block = run[lo:hi]
    assert isinstance(block, BlockStreams) and len(block) == hi - lo
    assert np.shares_memory(block._states, run._states) or lo == hi
    for i, rng in enumerate(block, lo):
        assert_same_stream(rng, 3, (i,))
    assert_same_rows(block, itertools.islice(run, lo, hi))


def test_block_rows_share_one_generator_and_iteration_restarts():
    # a yielded generator holds its row's stream until the next row is reached
    block = BlockStreams(1, 3)
    rngs = list(block)
    assert len({id(r) for r in rngs}) == 1
    kept = next(iter(block[:1]))
    list(block[1:])  # each iteration binds its own: another leaves a kept row's generator alone
    assert kept is not rngs[0] and kept.random() == derive_rng(1, 0).random()
    first = [r.random() for r in block]
    assert first == [derive_rng(1, i).random() for i in range(3)]
    assert [r.random() for r in block] == first


def test_zipped_iterations_of_a_block_yield_each_rows_stream_on_both_sides():
    block = BlockStreams(4, 5)
    for i, (a, b) in enumerate(zip(block, block)):
        assert a is not b
        assert_same_stream(a, 4, (i,))
        assert_same_stream(b, 4, (i,))


def test_an_odd_count_of_32_bit_draws_leaves_nothing_for_the_next_row():
    # PCG64 hands out a 64-bit output in two 32-bit halves and buffers the
    # second: a row that takes an odd count leaves one half buffered, which
    # the next row must not draw
    for i, rng in enumerate(BlockStreams(6, 4)):
        ref = reference_rng(6, (i,))
        assert rng.bit_generator.state == ref.bit_generator.state
        assert np.array_equal(rng.integers(0, 2 ** 32, 3, dtype=np.uint32),
                              ref.integers(0, 2 ** 32, 3, dtype=np.uint32)), i
        assert rng.bit_generator.state["has_uint32"] == 1


def test_a_block_row_refuses_to_spawn():
    rng = next(iter(BlockStreams(1, 2)))
    with pytest.raises(TypeError):
        rng.spawn(1)
    with pytest.raises(TypeError):
        rng.bit_generator.spawn(1)


def with_views(monkeypatch, change):
    # every PCG64 the module binds, the layout check's included, is seen through changed views
    bind = streams._bind
    monkeypatch.setattr(streams, "_bind", lambda pcg, order=slice(None): change(*bind(pcg, order)))
    streams._layout.cache_clear()


@pytest.mark.parametrize("wrong", ["state and inc swapped", "no buffered half"])
def test_a_state_layout_other_than_numpys_is_refused(monkeypatch, wrong):
    def change(rng, words, half):
        if wrong == "state and inc swapped":
            return rng, words[::-1], half
        return rng, words, type(half)(0)

    with_views(monkeypatch, change)
    try:
        with pytest.raises(EmpcalcError, match=rf"^numpy {re.escape(np.__version__)} keeps "):
            next(iter(BlockStreams(1, 1)))
    finally:
        monkeypatch.undo()
        streams._layout.cache_clear()
    assert_same_stream(next(iter(BlockStreams(1, 1))), 1, (0,))


def test_a_layout_that_keeps_the_high_half_first_is_written_high_half_first(monkeypatch):
    # numpy's emulated 128-bit struct, {high, low}, and a big-endian host both
    # keep each 128-bit word's high half first: seen through a view that
    # swaps the halves, the rows must still be numpy's streams
    with_views(monkeypatch, lambda rng, words, half: (rng, words[:, ::-1], half))
    try:
        assert streams._layout()[1] == slice(None, None, -1)
        for i, rng in enumerate(BlockStreams(6, 4)):
            ref = reference_rng(6, (i,))
            assert rng.bit_generator.state == ref.bit_generator.state
            assert np.array_equal(rng.integers(0, 2 ** 32, 3, dtype=np.uint32),
                                  ref.integers(0, 2 ** 32, 3, dtype=np.uint32)), i
    finally:
        monkeypatch.undo()
        streams._layout.cache_clear()


def test_importing_the_cli_does_not_load_numpy_random(tmp_path):
    # commands that draw nothing (variance, estimate) should not pay for numpy.random
    data = tmp_path / "data.csv"
    data.write_text("1,1\n2,3\n3,2\n4,4\n")
    code = ("import sys, numpy; before = 'numpy.random' in sys.modules; "
            "import empcalc.cli; assert ('numpy.random' in sys.modules) == before; "
            "assert empcalc.cli.main(['variance', '--law', 'gaussian', '--rho', '0.5']) == 0; "
            f"assert empcalc.cli.main(['estimate', '--input', {str(data)!r}]) == 0; "
            "assert ('numpy.random' in sys.modules) == before")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
    # the seed words are a real ISeedSequence subclass, not a registered one
    rng = next(iter(BlockStreams(1, 1)))
    assert np.random.bit_generator.ISeedSequence in type(rng.bit_generator.seed_seq).__mro__


def test_derived_generators_pickle():
    rng = derive_rng(4, 1)
    rng.random(5)
    copy = pickle.loads(pickle.dumps(rng))
    assert type(copy.bit_generator.seed_seq) is type(rng.bit_generator.seed_seq)
    assert np.array_equal(copy.random(3), rng.random(3))


def test_invalid_seeds_and_keys_are_rejected():
    with pytest.raises(ValueError):
        derive_rng(-1)
    with pytest.raises(ValueError):
        derive_rng(1, 2, -3)
    with pytest.raises(TypeError):
        derive_rng(1.5)
    # numpy's SeedSequence would take None for fresh entropy and hash "3" as a string
    for seed, key in [(None, ()), (1, ("3",)), (1, (2, [1, 2]))]:
        with pytest.raises(TypeError):
            derive_rng(seed, *key)
        with pytest.raises(TypeError):
            derive_seed(seed, *key)
    with pytest.raises(ValueError):
        BlockStreams(1, -1)


def test_mixture_blocks_in_the_replicate_loop_match_single_samples(monkeypatch):
    law = ec.law_from_spec({
        "kind": "mixture",
        "components": [{"kind": "gaussian", "rho": 0.4},
                       {"kind": "independent", "marginal_x": "exponential_std",
                        "marginal_y": "rademacher"}],
        "weights": [0.7, 0.3]})
    n, reps, seed = 9, 100, 2 ** 33 + 1
    monkeypatch.setattr(simulate, "_BLOCK_ELEMENTS", 7 * n)  # 15 blocks, the last partial
    cfg = ec.ExperimentConfig(law=law, n=n, reps=reps, seed=seed)

    def keep(xs, ys, sx, sy):
        return np.stack([xs, ys], axis=-1), np.zeros(len(xs), bool)

    rows = simulate._replicates(cfg, keep, lambda sample: None)
    assert rows.shape == (reps, n, 2)
    for i in range(reps):
        s = law.sample(n, derive_rng(seed, i))
        assert np.array_equal(rows[i, :, 0], s.xs), i
        assert np.array_equal(rows[i, :, 1], s.ys), i


def test_derived_generators_carry_numpys_seed_sequence():
    for seed, key in [(0, ()), (7, (1,)), (2 ** 130, (3, 2 ** 64))]:
        rng = derive_rng(seed, *key)
        seed_seq = rng.bit_generator.seed_seq
        assert type(seed_seq) is np.random.SeedSequence
        assert (seed_seq.entropy, seed_seq.spawn_key) == (seed, key)
        # so a derived generator spawns the streams (seed, *key, j)
        for j, child in enumerate(rng.spawn(2)):
            assert_same_stream(child, seed, key + (j,))


def test_seed_words_serve_only_pcg64():
    seed_seq = next(iter(BlockStreams(1, 3)[2:])).bit_generator.seed_seq
    with pytest.raises(ValueError):
        seed_seq.generate_state(8, np.uint32)
