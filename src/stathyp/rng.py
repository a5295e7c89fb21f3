"""Deterministic, worker-independent random streams.

Every sampler in the package derives its randomness from a fixed-size chunk
scheme: sample index ``j`` is served by the generator for chunk ``j // CHUNK``,
and that generator is seeded from ``(seed, chunk index)`` alone.  The value
drawn for a given sample therefore depends only on ``(seed, j)``, never on how
the work is split across workers or on how many samples are requested after it.

:func:`chunked` is the one loop over that scheme: for chunk ``i`` it yields the
chunk size and one generator ``substream(seed, *key, i)`` per requested key
tuple, so an estimator that draws two batches asks for two keys.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

CHUNK = 1 << 16


def substream(seed: int, *key: int) -> np.random.Generator:
    """Generator for a named substream of ``seed``."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


def chunked(seed: int, n: int, *keys: tuple[int, ...], first: int = 0) -> Iterator[tuple]:
    """Yield ``(m, rng_1, ..., rng_k)`` for each fixed-size chunk of ``n`` samples.

    ``m`` is the chunk's sample count (``CHUNK`` except for a shorter last
    chunk) and ``rng_j`` is ``substream(seed, *keys[j], i)`` for chunk ``i``.
    Chunks are numbered from ``first``, so a run of samples that starts at
    sample ``first * CHUNK`` draws what a longer run from sample 0 would.
    """
    for i, start in enumerate(range(0, n, CHUNK), first):
        yield (min(CHUNK, n - start), *(substream(seed, *key, i) for key in keys))


def deterministic_sum(chunk_totals: list[float]) -> float:
    """Sum per-chunk totals in chunk order, exactly rounded."""
    return math.fsum(chunk_totals)
