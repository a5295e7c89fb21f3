"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from stathyp import stats


def _walk_flags(space, x, phis, lengths, eps, dt):
    """``(flags, partial, p, m)``: the thin runs of ``_RayGrid.thin_runs``
    written into the full ``(n, max m)`` thickness flag matrix (columns at or
    past ``m[j]`` belong to longer rays and read thick), with the midpoint
    flags of the final partial steps and the grid steps ``(m, p)`` of
    ``lengths``."""
    grid = stats._RayGrid(lengths, dt)
    flags = np.ones((len(phis), int(grid.m.max())), dtype=bool)
    for first, last, _, _ in grid.thin_runs(space, x, phis, eps):
        for row, ray in zip(*np.nonzero(last >= first)):
            run = slice(int(first[row, ray]), int(last[row, ray]) + 1)
            # the estimators add up run lengths, so runs must not overlap
            assert flags[ray, run].all()
            flags[ray, run] = False
    return flags, grid.mid_thick(), grid.p, grid.m


@pytest.fixture
def walk_flags():
    return _walk_flags
