"""Splittable counter-based random streams for reproducible sampling.

Every stochastic routine derives its generator from a 64-bit master seed and
a tuple key via ``SeedSequence(seed, spawn_key=key)`` feeding a Philox
counter-based bit generator.  Streams for distinct keys are independent, so
work units (one multinomial detection draw per measurement setting or
tomography basis, bootstrap resamples, sweep points) can run in any order or
concurrently and still merge into bit-identical results.  ``keyed_multinomial``
keys many streams in one vectorized pass of numpy's SeedSequence hash,
identical to numpy's, and replays each on one Philox re-keyed at counter 0.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError

# numpy's SeedSequence hash constants (uint32): pool mixing, then output.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def make_stream(seed: int, key: tuple[int, ...] = ()) -> np.random.Generator:
    """Generator for the (seed, key) stream."""
    ss = np.random.SeedSequence(seed, spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def derive_seed(seed: int, *key: int) -> int:
    """Stable 64-bit sub-seed for handing to APIs that take a plain seed."""
    ss = np.random.SeedSequence(seed, spawn_key=tuple(key))
    words = ss.generate_state(2, dtype=np.uint32)
    return int(words[0]) | (int(words[1]) << 32)


def positive_count(n):
    """``n``, or DataError unless it is a positive integer."""
    if not isinstance(n, (int, np.integer)) or n <= 0:
        raise DataError(f"n_sequences must be a positive integer, got {n!r}")
    return n


def _philox_keys(seeds, keys) -> np.ndarray:
    """(K, 2) uint64: SeedSequence(seeds[k], spawn_key=keys[k]).generate_state(2,
    np.uint64) in row k.  Seeds are below 2**64 and a call's keys have one
    length, entries below 2**32, so every row hashes the same words (the
    seed's two, zeros up to the pool of 4 as numpy pads, then the key) and
    each step of the hash runs on all rows at once."""
    keys = np.asarray(keys, dtype=np.uint32)
    words = np.zeros((4 + keys.shape[-1], len(seeds)), dtype=np.uint32)
    words[:2] = np.asarray(seeds, dtype="<u8").view("<u4").reshape(-1, 2).T
    words[4:] = keys.T
    const = np.array([_INIT_A] + [_MULT_A] * 4 * len(words), np.uint32).cumprod(dtype=np.uint32)
    out = np.array([_INIT_B] + [_MULT_B] * 4, np.uint32).cumprod(dtype=np.uint32)[:, None]
    # Hash call j xors with const[j] and multiplies by const[j + 1].  Word k
    # mixes into the four pool rows with calls 4 + 3k on if it is pool word k
    # (a spare call for its own row, which keeps its value), 4k on if a key word.
    rows, source = np.arange(4)[:, None], np.arange(len(words))[:, None, None]
    calls = np.where(source < 4, 4 + 3 * source + rows - (rows >= source), 4 * source + rows)
    xor, mul, own = const[calls], const[calls + 1], rows == source

    def hashmix(values, xor, mul):
        values = (values ^ xor) * mul
        return values ^ (values >> 16)

    pool = hashmix(words[:4], const[:4, None], const[1:5, None])
    for k, word in enumerate(words):
        mixed = _MIX_L * pool - _MIX_R * hashmix(pool[k] if k < 4 else word, xor[k], mul[k])
        pool = np.where(own[k], pool, mixed ^ (mixed >> 16))
    pool = hashmix(pool, out[:-1], out[1:])
    return np.ascontiguousarray(pool.T, dtype="<u4").view("<u8").astype(np.uint64)


def keyed_multinomial(seeds, keys, n, probs, size=None) -> np.ndarray:
    """Row k is ``make_stream(seeds[k], keys[k]).multinomial(n[k], probs[k], size)``
    bit for bit, ``n`` one count or one per row.  The one Philox is made per
    call and re-keyed per row with counter 0 through its public state."""
    bits = np.random.Philox(0)
    gen, state = np.random.Generator(bits), bits.state
    draws = []
    for key, count, p in zip(_philox_keys(seeds, keys), np.broadcast_to(n, len(probs)), probs):
        state["state"]["key"] = key
        bits.state = state
        draws.append(gen.multinomial(positive_count(count), p, size))
    return np.array(draws)
