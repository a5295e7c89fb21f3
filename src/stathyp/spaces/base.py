"""Measured-metric-space abstraction shared by all model geometries.

A :class:`ModelSpace` bundles a metric, unit-speed geodesics, seeded sphere
and annulus samplers, and a thickness predicate.  Concrete models keep their
own point representation (vectors, complex numbers, address strings, tuples)
and provide vectorized batch operations on homogeneous collections of points.

Sampling follows the package-wide determinism contract: directions and radii
for sample ``j`` are derived from ``(seed, j)`` through fixed-size chunks (see
:mod:`stathyp.rng`), so results never depend on worker count or on how many
further samples are requested.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Any, Sequence

import numpy as np

from ..errors import ParameterError, UnsupportedMeasureError
from ..rng import chunked

MEASURE_DIRECTION = "visual-uniform-direction"
MEASURE_COUNTING = "counting"


class RayBundle(ABC):
    """Unit-speed geodesic rays from a common basepoint.

    ``points_at(t)`` accepts a scalar time or one time per ray and returns the
    batch of ray points at those times.
    """

    @abstractmethod
    def points_at(self, t):
        ...

    @property
    @abstractmethod
    def size(self) -> int:
        ...


class ModelSpace(ABC):
    kind: str = "abstract"
    #: radial growth exponent used by the annulus/ball samplers
    h: float = 0.0
    #: True when the thickness predicate can be False somewhere
    has_thin_part: bool = False
    #: True for models whose spheres are finite sets (counting measure)
    atomic: bool = False

    # -- scalar interface ---------------------------------------------------

    @abstractmethod
    def validate_point(self, p) -> None:
        """Raise DomainError when ``p`` is not a valid point of the model."""

    @abstractmethod
    def distance(self, u, v) -> float:
        ...

    @abstractmethod
    def geodesic_point(self, u, v, t: float):
        """Time-``t`` point of the unit-speed ray from ``u`` through ``v``."""

    @abstractmethod
    def basepoint(self):
        ...

    def thick(self, p, eps: float) -> bool:
        """Thickness predicate; models without a thin part are always thick."""
        if eps <= 0:
            raise ParameterError(f"eps must be positive, got {eps}")
        self.validate_point(p)
        return True

    @abstractmethod
    def describe(self) -> str:
        """Stable one-line descriptor used in digests and CSV output."""

    # -- batch interface ----------------------------------------------------

    @abstractmethod
    def batch_size(self, batch) -> int:
        ...

    @abstractmethod
    def batch_get(self, batch, i: int):
        ...

    @abstractmethod
    def batch_concat(self, batches: Sequence[Any]):
        ...

    @abstractmethod
    def distance_many(self, U, V) -> np.ndarray:
        """Elementwise distances between two equal-length batches."""

    @abstractmethod
    def cross_distance(self, U, V) -> np.ndarray:
        """Full (len(U), len(V)) distance matrix."""

    def distance_point_to(self, p, batch) -> np.ndarray:
        return self.cross_distance(self.batch_concat([self.singleton(p)]), batch)[0]

    @abstractmethod
    def singleton(self, p):
        """Batch holding the single point ``p``."""

    @abstractmethod
    def geodesic_points(self, u, v, ts: np.ndarray):
        """Batch of points of the ray from ``u`` through ``v`` at times ``ts``."""

    # -- sampling -----------------------------------------------------------

    @abstractmethod
    def rays_chunk(self, x, count: int, rng: np.random.Generator, horizon: float) -> RayBundle:
        """One chunk of uniformly distributed rays from ``x``.

        ``horizon`` is the largest time the bundle will be evaluated at; only
        models with discrete geodesics need it.
        """

    def _check_measure(self, measure: str) -> None:
        if measure == MEASURE_COUNTING and not self.atomic:
            raise UnsupportedMeasureError(
                f"counting measure is not defined on the {self.kind} model")
        if measure not in (MEASURE_DIRECTION, MEASURE_COUNTING):
            raise UnsupportedMeasureError(f"unknown measure {measure!r}")

    def sample_sphere(self, x, r: float, n: int, seed: int,
                      measure: str = MEASURE_DIRECTION):
        """``n`` points on the sphere of radius ``r`` about ``x``."""
        self.validate_point(x)
        self._check_measure(measure)
        if r <= 0:
            raise ParameterError(f"sphere radius must be positive, got {r}")
        if n < 1:
            raise ParameterError(f"need at least one sample, got {n}")
        parts = []
        for m, rng in chunked(seed, n, (0,)):
            bundle = self.rays_chunk(x, m, rng, horizon=r)
            parts.append(bundle.points_at(r))
        return self.batch_concat(parts)

    def sample_annulus(self, x, r: float, k: float, n: int, seed: int):
        """``n`` points with distance to ``x`` in [r-k, r].

        Radii follow the density proportional to exp(h*s), the radial weight
        that gives balls of radius ``r`` mass growing like exp(h*r).
        """
        self.validate_point(x)
        if not (0 < k < r):
            raise ParameterError(f"annulus needs 0 < k < r, got k={k}, r={r}")
        if n < 1:
            raise ParameterError(f"need at least one sample, got {n}")
        parts = []
        for m, rng in chunked(seed, n, (0,)):
            bundle = self.rays_chunk(x, m, rng, horizon=r)
            radii = self.sample_radii(rng, m, r, k)
            parts.append(bundle.points_at(radii))
        return self.batch_concat(parts)

    def sample_radii(self, rng: np.random.Generator, count: int, r: float, k: float) -> np.ndarray:
        """Radii in [r-k, r] with density proportional to exp(h*s)."""
        if k == 0:
            return np.full(count, float(r))
        u = rng.uniform(size=count)
        if self.h == 0.0:
            return (r - k) + k * u
        if self.h < 0:
            raise ParameterError("radial sampling needs h >= 0")
        # inverse CDF, written so exp never sees an argument above 0
        return r + np.log(math.exp(-self.h * k) + u * (1.0 - math.exp(-self.h * k))) / self.h


def ball_radial_mass(space: ModelSpace, r: float) -> float:
    """Analytic radial mass of the ball of radius ``r``: integral of exp(h*s)."""
    if r < 0:
        raise ParameterError(f"radius must be nonnegative, got {r}")
    if space.h == 0.0:
        return float(r)
    return (math.exp(space.h * r) - 1.0) / space.h
