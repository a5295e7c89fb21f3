"""The chunk layout shared by every sampler."""

import numpy as np

from stathyp.rng import CHUNK, chunked, substream


def test_chunked_sizes_and_substreams():
    seed, n = 17, 2 * CHUNK + 3
    chunks = list(chunked(seed, n, (0,), (1, 5)))
    assert [c[0] for c in chunks] == [CHUNK, CHUNK, 3]
    for i, (m, rng_a, rng_b) in enumerate(chunks):
        assert np.array_equal(rng_a.uniform(size=m), substream(seed, 0, i).uniform(size=m))
        assert np.array_equal(rng_b.uniform(size=m), substream(seed, 1, 5, i).uniform(size=m))
