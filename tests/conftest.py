"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from stathyp import stats


def _walk_flags(space, x, phis, lengths, eps, dt):
    """``(flags, partial, p, m)``: the blocks of ``stats._walk_thick_blocks``
    written into the full ``(n, max m)`` flag matrix, with the midpoint flags
    of the final partial steps and the grid steps ``(m, p)`` of ``lengths``."""
    m, p = stats._grid_steps(lengths, dt)
    flags = np.zeros((len(phis), int(m.max())), dtype=bool)
    partial = np.zeros(len(phis), dtype=bool)
    for start, block, here, mid in stats._walk_thick_blocks(space, x, phis, m, p, eps, dt):
        flags[:, start:start + block.shape[1]] = block
        partial[here] = mid
    return flags, partial, p, m


@pytest.fixture
def walk_flags():
    return _walk_flags
