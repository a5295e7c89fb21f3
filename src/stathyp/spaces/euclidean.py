"""Normed vector spaces (R^n, p-norm) with straight-line geodesics.

Where the norm is euclidean (p = 2, or any p in dimension 1) the profile of
distances from a point to a line comes with its foot, the projection time;
other norms give none, and ``distance_to_segment`` then takes the
golden-section search of :class:`~stathyp.spaces.base.ModelSpace`.

Norms are taken one coordinate column at a time, in coordinate order, into
one buffer: numpy reduces a short last axis row by row, several times more
slowly.  At p = 2 the signed columns are squared (x * x equals |x| * |x|
bit for bit), so no copy of the absolute values is made; at p = 1 each
column's absolute value goes through one scratch column.  Below 8
coordinates numpy's row sum of |x| or of x * x adds in that same order, so
the norms agree with it bit for bit; from 8 coordinates on numpy sums in
blocks, and a row may differ from its sum in the last bit.  For p other
than 1, 2 and infinity the columns are scaled by the largest one first, so
``a ** p`` neither overflows nor underflows at large p.
"""

from __future__ import annotations

import math
import numpy as np

from ..errors import DomainError, ParameterError
from .base import ModelSpace, RayBundle


def _pnorm(deltas: np.ndarray, p: float) -> np.ndarray:
    # deltas: (..., dim); returns (...,), a numpy scalar for one vector
    if p == 1.0 or p == 2.0:
        cols = [deltas[..., j] for j in range(deltas.shape[-1])]
        # x * x equals |x| * |x| bit for bit, so p = 2 squares the signed columns
        term = np.abs if p == 1.0 else np.square
        total = term(cols[0])  # a new array, or a numpy scalar for one vector
        tmp = np.empty_like(total) if total.ndim else None
        for col in cols[1:]:
            total += term(col, out=tmp)
        if p == 1.0:
            return total
        return np.sqrt(total, out=total if total.ndim else None)
    a = np.abs(deltas)
    dim = a.shape[-1]
    top = a[..., 0]
    for j in range(1, dim):
        top = np.maximum(top, a[..., j])
    if math.isinf(p):
        return top[()]
    scale = np.where((top > 0.0) & (top < math.inf), top, 1.0)
    total = (a[..., 0] / scale) ** p
    for j in range(1, dim):
        total += (a[..., j] / scale) ** p
    return top * total ** (1.0 / p)


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

    def segment_profile(self, P, U, V):
        """The norm of ``P_j`` minus the point at time ``s`` of the straight
        segment [U_j, V_j].  For a euclidean norm (p = 2, or dimension 1) it
        is ``hypot(a, s - s0)``, with ``s0`` the projection time of ``P_j``
        onto its line (the dot products go column by column) and ``a`` its
        offset from the line; other norms give no foot."""
        w = V - U
        d = _pnorm(w, self.p)
        length = np.where(d > 0.0, d, 1.0)
        if not (self.p == 2.0 or self.dim == 1):
            return d, lambda s: _pnorm(P - (U + (s / length)[:, None] * w), self.p), None
        e = w / length[:, None]
        q = P - U
        s0 = q[:, 0] * e[:, 0]
        for j in range(1, self.dim):
            s0 += q[:, j] * e[:, j]
        a = _pnorm(q - s0[:, None] * e, 2.0)
        return d, lambda s: np.hypot(a, s - s0), s0

    # -- batches: (n, dim) arrays ------------------------------------------

    def batch_get(self, batch, i: int) -> np.ndarray:
        return batch[i]

    def singleton(self, p) -> np.ndarray:
        return self._point(p)[None, :]

    def distance_many(self, U, V) -> np.ndarray:
        return _pnorm(U - V, self.p)

    def cross_distance(self, U, V) -> np.ndarray:
        return _pnorm(U[:, None, :] - V[None, :, :], self.p)

    def ray_pair_distances(self, by, ty, bz, tz) -> np.ndarray:
        """``distance_many(by.points_at(ty), bz.points_at(tz))`` with the same
        arithmetic, one coordinate at a time: row j of ``gaps`` is built in
        place as coordinate j of the differences, with one scratch row for
        the z side, so no ``(n, dim)`` point array is formed and the norm
        reads contiguous columns of ``gaps.T``."""
        ty = np.asarray(ty, dtype=np.float64)
        tz = np.asarray(tz, dtype=np.float64)
        gaps = np.empty((self.dim, by.size))
        z = np.empty(by.size)
        for j, y in enumerate(gaps):
            np.multiply(ty, by.dirs[:, j], out=y)
            y += by.x[j]
            np.multiply(tz, bz.dirs[:, j], out=z)
            z += bz.x[j]
            y -= z
        return _pnorm(gaps.T, self.p)

    # -- sampling -----------------------------------------------------------

    def rays_chunk(self, x, count, rng, horizon) -> EuclideanRays:
        g = rng.normal(size=(count, self.dim))
        # rotation-invariant directions, rescaled onto the unit p-sphere
        norms = _pnorm(g, self.p)
        bad = norms == 0.0
        if np.any(bad):
            g[bad] = 1.0 / math.sqrt(self.dim)
            norms = _pnorm(g, self.p)
        for col in g.T:  # faster than the broadcast g /= norms[:, None]
            col /= norms
        return EuclideanRays(self._point(x), g)
