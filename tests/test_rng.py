"""Keyed random streams: the batched draw against numpy's own keying."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ces.errors import DataError
from ces.rng import _philox_keys, keyed_multinomial, make_stream

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
RANDOM_SEEDS = [int(s) for s in np.random.default_rng(808).integers(0, 2**64 - 1, 50, np.uint64)]
PROBS = np.array([0.1, 0.25, 0.3, 0.05, 0.3])


def numpy_key(seed, key):
    return np.random.SeedSequence(seed, spawn_key=key).generate_state(2, np.uint64)


@pytest.mark.parametrize(
    "key", [(), (0,), (8,), (3, 2**32 - 1)], ids=["len0", "len1-0", "len1", "len2"]
)
def test_vectorized_keys_equal_seed_sequence(key):
    seeds = EDGE_SEEDS + RANDOM_SEEDS
    got = _philox_keys(seeds, [key] * len(seeds))
    np.testing.assert_array_equal(got, [numpy_key(seed, key) for seed in seeds])


def test_rows_may_mix_seeds_and_keys():
    seeds = [2**64 - 1, 0, 4242, 2**32]
    keys = [(5, 0), (0, 5), (2**31, 1), (7, 7)]
    np.testing.assert_array_equal(
        _philox_keys(seeds, keys), [numpy_key(s, k) for s, k in zip(seeds, keys)]
    )


@pytest.mark.parametrize(
    ("seeds", "keys"),
    [
        ([2**64], [(1,)]), ([-1], [(1,)]), ([1], [(2**32,)]), ([1], [(-1,)]),
        ([1, 2], [(1,), (1, 2)]),
    ],
    ids=["seed-65-bits", "negative-seed", "key-33-bits", "negative-key", "ragged-keys"],
)
def test_keys_outside_the_vectorized_range_are_refused(seeds, keys):
    with pytest.raises((OverflowError, ValueError)):
        _philox_keys(seeds, keys)


@pytest.mark.parametrize("size", [None, 7])
def test_draws_equal_make_stream_draws(size):
    seeds = EDGE_SEEDS + RANDOM_SEEDS[:10]
    keys = [(i % 9,) for i in range(len(seeds))]
    n = [1 + 1000 * i for i in range(len(seeds))]
    probs = np.roll(np.tile(PROBS, (len(seeds), 1)), 1, axis=1)
    got = keyed_multinomial(seeds, keys, n, probs, size)
    want = [make_stream(s, k).multinomial(c, p, size) for s, k, c, p in zip(seeds, keys, n, probs)]
    np.testing.assert_array_equal(got, want)


def test_draws_repeat_on_a_thread_pool():
    # Each call makes its own Philox, so concurrent calls share no state.
    jobs = [(seed, 10**5 + seed % 1000) for seed in RANDOM_SEEDS[:16]]

    def draw(job):
        seed, n = job
        return keyed_multinomial([seed] * 9, [(i,) for i in range(9)], n, [PROBS] * 9, 3)

    with ThreadPoolExecutor(max_workers=4) as pool:
        pooled = list(pool.map(draw, jobs))
    for (seed, n), got in zip(jobs, pooled):
        want = [make_stream(seed, (i,)).multinomial(n, PROBS, 3) for i in range(9)]
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("n", [0, -3, 2.0, 1.5, "10"])
def test_bad_sequence_count_is_a_data_error(n):
    with pytest.raises(DataError, match="n_sequences must be a positive integer"):
        keyed_multinomial([1, 2], [(0,), (1,)], [5, n], [PROBS, PROBS])
