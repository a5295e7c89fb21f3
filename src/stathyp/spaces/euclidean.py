"""Normed vector spaces (R^n, p-norm) with straight-line geodesics.

Where the norm is euclidean (p = 2, or any p in dimension 1) the distance to
a segment is that to the clamped orthogonal projection; other norms take the
golden-section search of :class:`~stathyp.spaces.base.ModelSpace`.
"""

from __future__ import annotations

import math
import numpy as np

from ..errors import DomainError, ParameterError
from .base import ModelSpace, RayBundle


def _pnorm(deltas: np.ndarray, p: float) -> np.ndarray:
    # deltas: (..., dim); returns (...,)
    a = np.abs(deltas)
    if math.isinf(p):
        return a.max(axis=-1)
    if p == 2.0:
        return np.sqrt((a * a).sum(axis=-1))
    if p == 1.0:
        return a.sum(axis=-1)
    return (a ** p).sum(axis=-1) ** (1.0 / p)


class EuclideanRays(RayBundle):
    def __init__(self, x: np.ndarray, dirs: np.ndarray):
        self.x = x
        self.dirs = dirs  # (n, dim), unit p-norm

    @property
    def size(self) -> int:
        return self.dirs.shape[0]

    def points_at(self, t):
        t = np.asarray(t, dtype=np.float64)
        return self.x + t[..., None] * self.dirs if t.ndim else self.x + t * self.dirs


class EuclideanSpace(ModelSpace):
    """R^dim with the p-norm metric; h configures the radial sampler weight."""

    kind = "euclidean-p-norm"

    def __init__(self, dim: int = 2, p: float = 2.0, h: float = 0.0):
        if dim < 1:
            raise ParameterError(f"dimension must be at least 1, got {dim}")
        if not (p >= 1.0):
            raise ParameterError(f"norm exponent must satisfy p >= 1, got {p}")
        self.dim = int(dim)
        self.p = float(p)
        self.h = self._growth_exponent(h)

    def describe(self) -> str:
        return f"euclidean-p-norm(dim={self.dim},p={self.p},h={self.h})"

    def basepoint(self) -> np.ndarray:
        return np.zeros(self.dim)

    def validate_point(self, p) -> None:
        arr = np.asarray(p, dtype=np.float64)
        if arr.shape != (self.dim,):
            raise DomainError(f"expected a length-{self.dim} vector, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise DomainError("coordinates must be finite")

    def _point(self, p) -> np.ndarray:
        self.validate_point(p)
        return np.asarray(p, dtype=np.float64)

    def distance(self, u, v) -> float:
        return float(_pnorm(self._point(u) - self._point(v), self.p))

    def geodesic_points(self, u, v, ts: np.ndarray) -> np.ndarray:
        u, v = self._point(u), self._point(v)
        d = float(_pnorm(v - u, self.p))
        if d == 0.0:
            raise DomainError("degenerate ray: endpoints coincide")
        ts = np.asarray(ts, dtype=np.float64)
        if np.any(ts < 0):
            raise ParameterError("ray times must be nonnegative")
        return u + (ts[:, None] / d) * (v - u)

    def _line_frame(self, P, u, v):
        """``(u, e, d, s0)``: the start ``u``, the unit direction ``e`` and the
        length ``d`` of [u, v], and the projection times ``s0`` of ``P`` onto its
        line (``e = 0`` when u = v)."""
        u, v = self._point(u), self._point(v)
        d = float(_pnorm(v - u, self.p))
        e = (v - u) / d if d > 0.0 else np.zeros(self.dim)
        return u, e, d, (P - u) @ e

    def distance_to_segment(self, P, u, v) -> np.ndarray:
        if not self._euclidean:
            return super().distance_to_segment(P, u, v)
        u, e, d, s0 = self._line_frame(P, u, v)
        return _pnorm(P - u - np.clip(s0, 0.0, d)[:, None] * e, 2.0)

    def segment_profile(self, P, u, v):
        """For a euclidean norm, ``hypot(a, s - s0)`` with ``a`` the offset of
        each point from the line and ``s0`` the time of its foot."""
        if not self._euclidean:
            return super().segment_profile(P, u, v)
        u, e, d, s0 = self._line_frame(P, u, v)
        a = _pnorm(P - u - s0[:, None] * e, 2.0)
        return d, lambda s: np.hypot(a, s - s0)

    @property
    def _euclidean(self) -> bool:
        """Does the norm come from an inner product (p = 2, or dimension 1)?"""
        return self.p == 2.0 or self.dim == 1

    # -- batches: (n, dim) arrays ------------------------------------------

    def batch_get(self, batch, i: int) -> np.ndarray:
        return batch[i]

    def singleton(self, p) -> np.ndarray:
        return self._point(p)[None, :]

    def distance_many(self, U, V) -> np.ndarray:
        return _pnorm(U - V, self.p)

    def cross_distance(self, U, V) -> np.ndarray:
        return _pnorm(U[:, None, :] - V[None, :, :], self.p)

    # -- sampling -----------------------------------------------------------

    def rays_chunk(self, x, count, rng, horizon) -> EuclideanRays:
        g = rng.normal(size=(count, self.dim))
        # rotation-invariant directions, rescaled onto the unit p-sphere
        norms = _pnorm(g, self.p)
        bad = norms == 0.0
        if np.any(bad):
            g[bad] = 1.0 / math.sqrt(self.dim)
            norms = _pnorm(g, self.p)
        return EuclideanRays(self._point(x), g / norms[:, None])
