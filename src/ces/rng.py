"""Counter-based random streams for reproducible sampling.

Every stochastic routine derives its generator from a 64-bit seed via
``SeedSequence(seed)`` feeding a Philox counter-based bit generator, and
each unit of work (the draw of one measurement setting, of one tomography
state, of one bootstrap) opens its own stream on a seed ``derive_seed`` gives
it.  Streams on distinct seeds are independent, so units can run in any
order or concurrently and still merge into bit-identical results.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError


def make_stream(seed: int) -> np.random.Generator:
    """Generator for the stream of ``seed``."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


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
