"""Separated, dense point nets over geodesic segments.

A net is c-separated (pairwise distances at least c) and 2c-dense (every
segment point within 2c of a net point).  Construction is greedy over candidate
times with spacing at most c/2, compared as times, since the points of a
geodesic at times s and s' lie |s - s'| apart: greedy selection leaves every
candidate within c of a kept point, and segment points are within c/2 of a
candidate along the segment, so the 2c-density invariant holds with margin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..errors import ParameterError
from .base import ModelSpace

_MAX_CANDIDATES = 400_000
_GRID_TOL = 1e-12


def _time_grid(a: float, b: float, ds: float) -> np.ndarray:
    """The times a, a + ds, ... below b, then b unless the last lies within
    ``_GRID_TOL`` of it.  Raises ParameterError, before allocating, when the
    grid would hold more than ``_MAX_CANDIDATES`` steps."""
    if not (b - a) / ds <= _MAX_CANDIDATES:
        raise ParameterError(f"time grid on [{float(a)!r}, {float(b)!r}] with step {float(ds)!r}"
                             f" exceeds {_MAX_CANDIDATES} points; increase the step")
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


def build_net(space: ModelSpace, u, v, c: float) -> Net:
    """Greedy c-separated, 2c-dense net over the geodesic segment [u, v]: each
    candidate time at least c (up to ``_GRID_TOL``) after the last kept one is kept."""
    if c <= 0:
        raise ParameterError(f"net separation must be positive, got {c}")
    d = space.distance(u, v)
    if d == 0.0:
        return Net(space.singleton(u), float(c))
    kept = [0.0]
    for t in _time_grid(0.0, d, c / 2.0).tolist():
        if t - kept[-1] >= c - _GRID_TOL:
            kept.append(t)
    return Net(space.geodesic_points(space.singleton(u), space.singleton(v), np.array(kept)),
               float(c))
