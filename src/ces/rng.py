"""Splittable counter-based random streams for reproducible sampling.

Every stochastic routine derives its generator from a 64-bit master seed and
a tuple key via ``SeedSequence(seed, spawn_key=key)`` feeding a Philox
counter-based bit generator.  Streams for distinct keys are independent, so
work units (one multinomial detection draw per measurement setting or
tomography basis, bootstrap resamples, sweep points) can run in any order or
concurrently and still merge into bit-identical results.
"""

from __future__ import annotations

import numpy as np


def make_stream(seed: int, key: tuple[int, ...] = ()) -> np.random.Generator:
    """Generator for the (seed, key) stream."""
    ss = np.random.SeedSequence(seed, spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def derive_seed(seed: int, *key: int) -> int:
    """Stable 64-bit sub-seed for handing to APIs that take a plain seed."""
    ss = np.random.SeedSequence(seed, spawn_key=tuple(key))
    words = ss.generate_state(2, dtype=np.uint32)
    return int(words[0]) | (int(words[1]) << 32)
