"""Separated, dense point nets over geodesic segments.

A net is c-separated (pairwise distances at least c) and 2c-dense (every
region point within 2c of a net point).  Construction is greedy over a fine
candidate grid with spacing at most c/2: greedy selection leaves every
candidate within c of a kept point, and region points are within c/2 of a
candidate along the region, so the 2c-density invariant holds with margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..errors import ParameterError
from .base import ModelSpace

_MAX_CANDIDATES = 400_000


@dataclass(frozen=True)
class SegmentRegion:
    """The geodesic segment from u to v (any model with continuous geodesics)."""
    u: Any
    v: Any


@dataclass(frozen=True)
class Net:
    points: Any            # model batch
    c: float
    region: Any

    def size(self, space: ModelSpace) -> int:
        return space.batch_size(self.points)

    def nearest(self, space: ModelSpace, batch) -> tuple[np.ndarray, np.ndarray]:
        """For each point of ``batch``, the index of its nearest net point and
        the distance to it."""
        d = space.cross_distance(batch, self.points)
        idx = d.argmin(axis=1)
        return idx, d[np.arange(len(idx)), idx]


def _candidate_grid(space: ModelSpace, region: SegmentRegion, c: float):
    step = c / 2.0
    space.validate_point(region.u)
    space.validate_point(region.v)
    d = space.distance(region.u, region.v)
    if not math.isfinite(d):
        raise ParameterError("segment region is unbounded")
    if d == 0.0:
        return space.singleton(region.u)
    m = int(math.floor(d / step))
    ts = np.append(np.arange(m + 1) * step, d)
    if len(ts) > _MAX_CANDIDATES:
        raise ParameterError("candidate grid too large; increase c")
    return space.geodesic_points(region.u, region.v, ts)


def build_net(space: ModelSpace, region, c: float) -> Net:
    """Greedy c-separated, 2c-dense net over a geodesic segment."""
    if c <= 0:
        raise ParameterError(f"net separation must be positive, got {c}")
    candidates = _candidate_grid(space, region, c)
    n = space.batch_size(candidates)
    kept: list[int] = []
    min_dist = np.full(n, np.inf)
    for i in range(n):
        if min_dist[i] >= c:
            kept.append(i)
            d = space.cross_distance(space.batch_take(candidates, slice(i, i + 1)), candidates)
            np.minimum(min_dist, d[0], out=min_dist)
    return Net(space.batch_take(candidates, np.array(kept)), float(c), region)


def check_net(space: ModelSpace, net: Net) -> tuple[float, float]:
    """Return (smallest pairwise distance, largest candidate-to-net distance)."""
    pts = net.points
    cross = space.cross_distance(pts, pts)
    np.fill_diagonal(cross, np.inf)
    sep = float(cross.min()) if space.batch_size(pts) > 1 else math.inf
    candidates = _candidate_grid(space, net.region, net.c)
    cover = float(space.cross_distance(candidates, pts).min(axis=1).max())
    return sep, cover
