"""Measured-metric-space abstraction shared by all model geometries.

A concrete model implements only its own geometry: its points, the metric,
batch distances, rays from a point and batch geodesics.  :class:`ModelSpace`
writes the shared parts once: the batch plumbing; scalar geodesics read off
the row-wise ``geodesic_points``; one shell sampler,
``sample_shell`` (``k = 0`` sphere, ``0 < k < r`` annulus, ``k = r`` ball);
the exact distance from each point of a batch to its own geodesic segment,
``distance_to_segment``, read off the ``segment_profile`` that each
continuous model supplies: the profile at its foot clamped to the segment,
or a golden-section search where no foot is known; and the thickness
interface (``thick_many``, ``ray_walker``), which says "always thick" unless
a model has a thin part.  The pair-distance kernel ``ray_pair_distances`` of
the estimators that sample from one basepoint is declared here and written
by each model, without forming the two bundles' points.

A batch of ``n`` points is an array with ``n`` rows or a tuple of batches
of ``n`` rows each (a :class:`~stathyp.spaces.tree.TreeBatch`, the factors of
a product).  ``batch_size``, ``batch_take`` (rows by index array or slice)
and ``batch_concat`` are written here once, leaf by leaf; only the tree
overrides ``batch_concat``, to pad label rows to one width.  A model supplies
``singleton`` and ``batch_get``, the conversions between one point and a batch.

Sampling follows the package-wide determinism contract: the direction and
the radius of sample ``j`` come from their own substreams of ``(seed, j)``
(see :mod:`stathyp.rng`), so results never depend on worker count or on how
many further samples are requested.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Any, Callable, Sequence

import numpy as np

from ..errors import DomainError, ParameterError, UnsupportedMethodError
from ..rng import chunked

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_SEGMENT_RTOL = 1e-9


def _leafwise(f: Callable[[list], np.ndarray], batches: Sequence[Any]):
    """``f`` applied to the matching leaf arrays of equally shaped batches."""
    head = batches[0]
    if not isinstance(head, tuple):
        return f(batches)
    parts = [_leafwise(f, [b[j] for b in batches]) for j in range(len(head))]
    return head._make(parts) if hasattr(head, "_make") else tuple(parts)


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
    #: True for models whose spheres are finite sets (geodesics only at integer times)
    atomic: bool = False

    @staticmethod
    def _growth_exponent(h: float) -> float:
        """``h`` as a float once it is checked finite and nonnegative."""
        if not (math.isfinite(h) and h >= 0):
            raise ParameterError(f"growth exponent must be finite and nonnegative, got {h}")
        return float(h)

    @staticmethod
    def check_eps(eps: float) -> None:
        """Refuse a thickness threshold ``eps`` that is not > 0, NaN included."""
        if not eps > 0:
            raise ParameterError(f"eps must be positive, got {eps}")

    # -- scalar interface ---------------------------------------------------

    @abstractmethod
    def validate_point(self, p) -> None:
        """Raise DomainError when ``p`` is not a valid point of the model."""

    @abstractmethod
    def distance(self, u, v) -> float:
        ...

    def geodesic_point(self, u, v, t: float):
        """Time-``t`` point of the unit-speed ray from ``u`` through ``v``."""
        return self.batch_get(self.geodesic_points(self.singleton(u), self.singleton(v), [t]), 0)

    @abstractmethod
    def basepoint(self):
        ...

    @abstractmethod
    def describe(self) -> str:
        """Stable one-line descriptor used in digests and CSV output."""

    # -- batch interface ----------------------------------------------------

    def batch_size(self, batch) -> int:
        while isinstance(batch, tuple):
            batch = batch[0]
        return len(batch)

    def batch_take(self, batch, idx):
        """The rows ``idx`` (an index array or a slice) of ``batch``."""
        return _leafwise(lambda leaves: leaves[0][idx], [batch])

    def batch_concat(self, batches: Sequence[Any]):
        return _leafwise(np.concatenate, batches)

    @abstractmethod
    def batch_get(self, batch, i: int):
        """Point ``i`` of ``batch``."""

    @abstractmethod
    def distance_many(self, U, V) -> np.ndarray:
        """Elementwise distances between two equal-length batches."""

    @abstractmethod
    def cross_distance(self, U, V) -> np.ndarray:
        """Full (len(U), len(V)) distance matrix."""

    @abstractmethod
    def ray_pair_distances(self, by: RayBundle, ty, bz: RayBundle, tz) -> np.ndarray:
        """Row-wise distances d(by_j(ty_j), bz_j(tz_j)) between the rays of two
        bundles from one basepoint; each time is a scalar or one per ray.
        They are ``distance_many(by.points_at(ty), bz.points_at(tz))`` up to
        rounding, found without forming those points.
        The result is a new array the caller may change: kernels may work in
        place only on arrays they allocate, never on the bundles or the times."""

    def segment_profile(self, P, U, V):
        """``(d, f, s0)``: the lengths ``d_j = d(U_j, V_j)``, the profile
        ``f(s) = d(P_j, gamma_j(s_j))``, row by row, where gamma_j is the
        unit-speed geodesic from ``U_j`` to ``V_j`` and ``s_j`` lies in
        [0, d_j], and the foot ``s0``: the time of the profile's minimum on
        the whole geodesic, or None where a model has no closed form for it.
        ``U`` and ``V`` are batches of one row, shared by every row of ``P``,
        or of one row per row of ``P``; a row with U_j = V_j has the constant
        profile d(P_j, U_j).  Continuous models supply it."""
        raise UnsupportedMethodError(f"the {self.kind} model has no segment profile")

    def distance_to_segment(self, P, U, V) -> np.ndarray:
        """Distance from each point ``P_j`` to the geodesic segment [U_j, V_j],
        with ``U`` and ``V`` as in ``segment_profile``.

        The profile is convex on every continuous model (normed spaces, the
        hyperbolic plane and their sup-products), so its least value on
        [0, d_j] is the value at the foot clamped to [0, d_j].  Where no foot
        is known, one vectorized golden-section search over the profile,
        plus both endpoints, finds it; row ``j`` stops once its bracket is at
        most ``1e-9 * max(1, d_j)`` wide, so its value depends on that row
        alone.
        """
        d, f, s0 = self.segment_profile(P, U, V)
        if s0 is not None:
            return f(np.clip(s0, 0.0, d))
        n = self.batch_size(P)
        d = np.broadcast_to(d, n)
        lo, hi = np.zeros(n), d
        a, b = hi - _GOLDEN * d, lo + _GOLDEN * d
        fa, fb = f(a), f(b)
        width, tol = d, _SEGMENT_RTOL * np.maximum(1.0, d)
        live = width > tol
        best = np.minimum(fa, fb)
        while live.any():
            # the minimum lies in [lo, b] where f(a) <= f(b), else in [a, hi]
            left = fa <= fb
            lo, hi = np.where(left, lo, a), np.where(left, b, hi)
            new = np.where(left, hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo))
            f_new = f(new)
            a, b, fa, fb = (np.where(left, new, b), np.where(left, a, new),
                            np.where(left, f_new, fb), np.where(left, fa, f_new))
            width = width * _GOLDEN
            done = live & (width <= tol)
            best = np.where(done, np.minimum(fa, fb), best)
            live &= ~done
        return np.minimum(best, np.minimum(f(np.zeros(n)), f(d)))

    @abstractmethod
    def singleton(self, p):
        """Batch holding the single point ``p``."""

    @abstractmethod
    def geodesic_points(self, U, V, T):
        """Row ``j``: the point at time ``T[j] >= 0`` of the unit-speed ray
        from ``U_j`` through ``V_j``, with ``U`` and ``V`` as in
        ``segment_profile``."""

    @staticmethod
    def _ray_rows(d, T):
        """``(d, T)`` for the continuous models' ``geodesic_points``: the
        times as floats, refused where negative, and the rows' lengths ``d``
        (or any array that is 0 exactly where U_j = V_j).  Such a row is
        ``U_j`` at time 0 and a DomainError later; its length reads 1."""
        T = np.asarray(T, dtype=np.float64)
        if (T < 0).any():
            raise ParameterError("ray times must be nonnegative")
        if not d.all():
            if ((d == 0.0) & (T > 0.0)).any():
                raise DomainError("degenerate ray: endpoints coincide")
            d = np.where(d > 0.0, d, 1.0)
        return d, T

    # -- thickness ----------------------------------------------------------

    def thick_many(self, batch, eps: float) -> np.ndarray:
        """Thickness flags of a batch; models without a thin part are always thick."""
        self.check_eps(eps)
        return np.ones(self.batch_size(batch), dtype=bool)

    def ray_walker(self, x, phi: np.ndarray, eps: float):
        """Walker for the eps-thin excursions of the rays from ``x``, one
        point or one per ray, with direction parameters ``phi``."""
        raise UnsupportedMethodError(f"the {self.kind} model has no ray walker")

    # -- sampling -----------------------------------------------------------

    @abstractmethod
    def rays_chunk(self, x, count: int, rng: np.random.Generator, horizon: float) -> RayBundle:
        """One chunk of uniformly distributed rays from ``x``.

        ``horizon`` is the largest time the bundle will be evaluated at; only
        models with discrete geodesics need it.
        """

    def sample_shell(self, x, r: float, k: float, n: int, seed: int):
        """``n`` points with distance to ``x`` in [r-k, r].

        ``k = 0`` is the sphere, ``0 < k < r`` the annulus and ``k = r`` the
        ball.  Radii follow the density proportional to exp(h*s), the radial
        weight that gives balls of radius ``r`` mass growing like exp(h*r).
        """
        self.validate_point(x)
        if r <= 0:
            raise ParameterError(f"radius must be positive, got {r}")
        if not (0 <= k <= r):
            raise ParameterError(f"shell width must lie in [0, r], got k={k}, r={r}")
        if n < 1:
            raise ParameterError(f"need at least one sample, got {n}")
        # the keys of the first sample of stats.estimate_spread
        return self.batch_concat([
            self.rays_chunk(x, m, rng_dir, horizon=r).points_at(
                self.sample_radii(rng_rad, m, r, k))
            for m, rng_dir, rng_rad in chunked(seed, n, (0,), (2,))])

    def sample_radii(self, rng: np.random.Generator, count: int, r: float, k: float) -> np.ndarray:
        """Radii in [r-k, r] with density proportional to exp(h*s)."""
        if k == 0:
            return np.full(count, float(r))
        u = rng.uniform(size=count)
        if self.h == 0.0:
            u *= k
            u += r - k
            return u
        # inverse CDF, r + log(e + u (1 - e)) / h with e = exp(-h k), so exp
        # never sees an argument above 0
        e = math.exp(-self.h * k)
        u *= 1.0 - e
        u += e
        np.log(u, out=u)
        u /= self.h
        u += r
        return u
