"""Products of model spaces with the sup metric.

Points are tuples of component points.  Geodesics in a sup metric are far
from unique; this model fixes the canonical straight-line choice, where each
component moves along its own geodesic at constant speed proportional to its
component distance.  That path has unit speed for the sup metric and reduces
to the ordinary straight segment when the components are normed lines.

Sphere sampling draws a Euclidean-uniform speed profile (the coordinatewise
absolute value of a Gaussian direction, normalized by its maximum) together
with an independent uniform direction in each component, drawn from a child
stream of its own (``Generator.spawn``); on a product of lines this agrees
with the uniform-direction measure on the sup-norm sphere.  A chunk of n
rays keeps its speeds as one contiguous row per factor, shape (m, n), so
the per-factor times ``t * speeds[j]`` read contiguous memory.
Components must have continuous geodesics, so trees cannot be factors.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from ..errors import DomainError, ParameterError
from .base import ModelSpace, RayBundle


class ProductRays(RayBundle):
    """One bundle per factor and the speeds, one row per factor: ray i moves
    in factor j at speed ``speeds[j, i]``, and each column's largest is 1."""

    def __init__(self, bundles, speeds):
        self.bundles = bundles    # one RayBundle per component
        self.speeds = speeds      # (m, n)

    @property
    def size(self) -> int:
        return self.speeds.shape[1]

    def points_at(self, t):
        t = np.asarray(t, dtype=np.float64)
        return tuple(b.points_at(t * speed) for b, speed in zip(self.bundles, self.speeds))


class SupProduct(ModelSpace):
    kind = "sup-product"

    def __init__(self, components: Sequence[ModelSpace], h: float | None = None):
        if len(components) < 2:
            raise ParameterError("a product needs at least two components")
        for comp in components:
            if comp.atomic:
                raise ParameterError(
                    f"sup products need continuous factors, got {comp.kind}")
        self.components = tuple(components)
        # ball volume is the product of factor volumes, so exponents add
        self.h = sum(c.h for c in components) if h is None else self._growth_exponent(h)

    def describe(self) -> str:
        inner = ",".join(c.describe() for c in self.components)
        return f"sup-product(h={self.h},[{inner}])"

    def basepoint(self) -> tuple:
        return tuple(c.basepoint() for c in self.components)

    def validate_point(self, p) -> None:
        if not isinstance(p, tuple) or len(p) != len(self.components):
            raise DomainError(
                f"product points are {len(self.components)}-tuples of factor points")
        for comp, pi in zip(self.components, p):
            comp.validate_point(pi)

    def distance(self, u, v) -> float:
        self.validate_point(u)
        self.validate_point(v)
        return max(c.distance(ui, vi) for c, ui, vi in zip(self.components, u, v))

    def geodesic_points(self, u, v, ts: np.ndarray) -> tuple:
        self.validate_point(u)
        self.validate_point(v)
        dists = [c.distance(ui, vi) for c, ui, vi in zip(self.components, u, v)]
        total = max(dists)
        if total == 0.0:
            raise DomainError("degenerate ray: endpoints coincide")
        ts = np.asarray(ts, dtype=np.float64)
        out = []
        for comp, ui, vi, di in zip(self.components, u, v, dists):
            if di == 0.0:
                out.append(comp.batch_take(comp.singleton(ui), np.zeros(len(ts), dtype=int)))
            else:
                out.append(comp.geodesic_points(ui, vi, ts * (di / total)))
        return tuple(out)

    # -- batches: tuples of component batches --------------------------------

    def batch_get(self, batch, i: int) -> tuple:
        return tuple(c.batch_get(b, i) for c, b in zip(self.components, batch))

    def singleton(self, p) -> tuple:
        self.validate_point(p)
        return tuple(c.singleton(pi) for c, pi in zip(self.components, p))

    def distance_many(self, U, V) -> np.ndarray:
        per = [c.distance_many(ui, vi) for c, ui, vi in zip(self.components, U, V)]
        return functools.reduce(np.maximum, per)

    def cross_distance(self, U, V) -> np.ndarray:
        per = [c.cross_distance(ui, vi) for c, ui, vi in zip(self.components, U, V)]
        return functools.reduce(np.maximum, per)

    def ray_pair_distances(self, by, ty, bz, tz) -> np.ndarray:
        """The largest of the factors' kernels, each at the times ``t * speeds[j]``."""
        ty = np.asarray(ty, dtype=np.float64)
        tz = np.asarray(tz, dtype=np.float64)
        per = [c.ray_pair_distances(yj, ty * by.speeds[j], zj, tz * bz.speeds[j])
               for j, (c, yj, zj) in enumerate(zip(self.components, by.bundles, bz.bundles))]
        return functools.reduce(np.maximum, per)

    def segment_profile(self, P, U, V):
        """The largest of the factors' profiles, factor ``j`` at time
        ``s * d_j / d`` of each row: each factor runs its own geodesic at
        speed d_j / d.  A maximum of convex profiles is convex, but its
        minimum has no closed form, so there is no foot and
        ``distance_to_segment`` takes its golden-section search; the
        hyperbolic and euclidean factors supply closed-form profiles, so it
        never forms a point."""
        parts = [c.segment_profile(pj, uj, vj)[:2]
                 for c, pj, uj, vj in zip(self.components, P, U, V)]
        d = functools.reduce(np.maximum, [dj for dj, _ in parts])
        length = np.where(d > 0.0, d, 1.0)
        speeds = [dj / length for dj, _ in parts]

        def profile(s):
            return functools.reduce(np.maximum, [f(s * speed)
                                                 for speed, (_, f) in zip(speeds, parts)])
        return d, profile, None

    # -- sampling -----------------------------------------------------------

    def rays_chunk(self, x, count, rng, horizon) -> ProductRays:
        self.validate_point(x)
        m = len(self.components)
        # row i of the draw is ray i's speeds, kept as one contiguous row per
        # factor: numpy reduces short rows (axis=1) far more slowly than it
        # combines long ones
        speeds = np.abs(rng.normal(size=(count, m)).T, order="C")
        top = functools.reduce(np.maximum, speeds)
        fix = top == 0.0
        if np.any(fix):
            speeds[:, fix] = 1.0
            top[fix] = 1.0
        speeds /= top
        # each component draws from its own child stream, so ray j depends
        # only on row j of every draw
        bundles = [
            comp.rays_chunk(xi, count, child, horizon)
            for comp, xi, child in zip(self.components, x, rng.spawn(m))
        ]
        return ProductRays(bundles, speeds)
