"""Stream derivation against numpy's own SeedSequence and PCG64.

``streams.py`` reproduces SeedSequence's hash instead of calling it, so
every derived generator is compared here with the one numpy builds from
``SeedSequence(seed, spawn_key=key)``: the PCG64 (state, inc) and the
first draws.
"""

import os
import pickle
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import empcalc as ec
from empcalc import simulate, streams
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
@given(seed=SEEDS, key=st.lists(KEY_VALUES, max_size=2).map(tuple),
       lo=st.one_of(st.integers(0, 1000), st.integers(2 ** 32 - 20, 2 ** 32 + 5),
                    st.integers(2 ** 64 - 20, 2 ** 64 + 5)),
       size=st.integers(0, 40))
def test_block_rows_match_numpy(seed, key, lo, size):
    rngs = BlockStreams(seed, key, lo, lo + size)
    assert len(rngs) == size
    for i, rng in zip(range(lo, lo + size), rngs):
        assert_same_stream(rng, seed, key + (i,))


@pytest.mark.parametrize("lo, hi", [(2 ** 32 - 3, 2 ** 32 + 3), (2 ** 64 - 2, 2 ** 64 + 2)])
def test_block_across_a_key_width_change(lo, hi):
    rngs = BlockStreams(5, (), lo, hi)
    for i, rng in zip(range(lo, hi), rngs):
        assert_same_stream(rng, 5, (i,))


@pytest.mark.parametrize("lo", [0, 2 ** 32 - 10])
def test_block_longer_than_one_hash_pass(monkeypatch, lo):
    monkeypatch.setattr(streams, "_HASH_ROWS", 7)
    rngs = BlockStreams(5, (1,), lo, lo + 30)
    assert len(rngs) == 30
    for i, rng in zip(range(lo, lo + 30), rngs):
        assert_same_stream(rng, 5, (1, i))


@pytest.mark.parametrize("words", range(1, 7))
def test_run_entropy_padding_with_and_without_a_key(words):
    # the run entropy is zero-padded to four words only when a key follows it
    seed = 2 ** (32 * words) - 7
    for key in ((), (0,), (3, 2 ** 40)):
        assert_same_stream(derive_rng(seed, *key), seed, key)


def assert_same_block(block, ref):
    assert len(block) == len(ref)
    for rng, want in zip(block, ref):
        assert rng.bit_generator.state == want.bit_generator.state
        assert np.array_equal(rng.random(3), want.random(3))


@pytest.mark.parametrize("base, size, lo, hi", [
    (0, 40, 0, 40), (0, 40, 7, 23), (0, 40, 39, 40), (0, 40, 12, 12), (0, 40, 40, 40),
    (2 ** 32 - 10, 20, 4, 15), (2 ** 32 - 10, 20, 10, 20), (2 ** 32 - 10, 20, 5, 5)])
def test_slices_of_a_run_are_the_blocks_they_name(base, size, lo, hi):
    run = BlockStreams(3, (2,), base, base + size)
    block = run[lo:hi]
    assert isinstance(block, BlockStreams)
    assert np.shares_memory(block._words, run._words) or lo == hi
    assert_same_block(block, BlockStreams(3, (2,), base + lo, base + hi))
    assert_same_block(block, list(run)[lo:hi])


def test_block_rows_are_distinct_generators_and_iteration_restarts():
    block = BlockStreams(1, (), 0, 3)
    rngs = list(block)
    assert len({id(r.bit_generator) for r in rngs}) == 3
    first = [r.random() for r in rngs]
    assert [r.random() for r in block] == first


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
    rng = next(iter(BlockStreams(1, (), 0, 1)))
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
    with pytest.raises(ValueError):
        BlockStreams(1, (), -2, 3)


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
        return np.stack([xs, ys], axis=-1), False

    rows = simulate._replicates(cfg, keep, lambda sample: None)
    assert rows.shape == (reps, n, 2)
    for i in range(reps):
        s = law.sample(n, derive_rng(seed, i))
        assert np.array_equal(rows[i, :, 0], s.xs), i
        assert np.array_equal(rows[i, :, 1], s.ys), i


def test_seed_words_serve_only_pcg64():
    seed_seq = derive_rng(1, 2).bit_generator.seed_seq
    with pytest.raises(ValueError):
        seed_seq.generate_state(8, np.uint32)
