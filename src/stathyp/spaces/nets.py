"""Separated, dense point nets over geodesic segments.

A net is c-separated (pairwise distances at least c) and 2c-dense (every
segment point within 2c of a net point).  Construction is greedy over a fine
candidate grid with spacing at most c/2: greedy selection leaves every
candidate within c of a kept point, and segment points are within c/2 of a
candidate along the segment, so the 2c-density invariant holds with margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..errors import ParameterError
from .base import ModelSpace

_MAX_CANDIDATES = 400_000
_GRID_TOL = 1e-12


def _time_grid(a: float, b: float, ds: float) -> np.ndarray:
    """The times a, a + ds, ... below b, then b unless the last lies within
    ``_GRID_TOL`` of it."""
    ts = np.arange(a, b, ds)
    if len(ts) == 0 or b - ts[-1] > _GRID_TOL:
        ts = np.append(ts, b)
    return ts


@dataclass(frozen=True)
class Net:
    points: Any            # model batch
    c: float

    def nearest(self, space: ModelSpace, batch) -> tuple[np.ndarray, np.ndarray]:
        """For each point of ``batch``, the index of its nearest net point and
        the distance to it."""
        d = space.cross_distance(batch, self.points)
        idx = d.argmin(axis=1)
        return idx, d[np.arange(len(idx)), idx]


def _candidate_grid(space: ModelSpace, u, v, c: float):
    d = space.distance(u, v)
    if not math.isfinite(d):
        raise ParameterError("segment region is unbounded")
    if d == 0.0:
        return space.singleton(u)
    ts = _time_grid(0.0, d, c / 2.0)
    if len(ts) > _MAX_CANDIDATES:
        raise ParameterError("candidate grid too large; increase c")
    return space.geodesic_points(u, v, ts)


def build_net(space: ModelSpace, u, v, c: float) -> Net:
    """Greedy c-separated, 2c-dense net over the geodesic segment [u, v]."""
    if c <= 0:
        raise ParameterError(f"net separation must be positive, got {c}")
    candidates = _candidate_grid(space, u, v, c)
    n = space.batch_size(candidates)
    kept: list[int] = []
    min_dist = np.full(n, np.inf)
    for i in range(n):
        if min_dist[i] >= c:
            kept.append(i)
            d = space.cross_distance(space.batch_take(candidates, slice(i, i + 1)), candidates)
            np.minimum(min_dist, d[0], out=min_dist)
    return Net(space.batch_take(candidates, np.array(kept)), float(c))


def check_net(space: ModelSpace, net: Net, u, v) -> tuple[float, float]:
    """Return (smallest pairwise distance, largest distance from a candidate
    of the segment [u, v] to the net)."""
    pts = net.points
    cross = space.cross_distance(pts, pts)
    np.fill_diagonal(cross, np.inf)
    sep = float(cross.min()) if space.batch_size(pts) > 1 else math.inf
    candidates = _candidate_grid(space, u, v, net.c)
    cover = float(space.cross_distance(candidates, pts).min(axis=1).max())
    return sep, cover
