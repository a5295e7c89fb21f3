"""Torus moduli model: upper half-plane with an SL(2,Z) thick/thin structure.

The metric and geodesics are those of the hyperbolic plane; the extra
structure is the Gauss reduction of a modulus to the standard fundamental
domain (|Re z| <= 1/2, |z| >= 1), with the matrices that do it
(``reduce_many``), and the thickness predicate derived from it.
The convention is that the systole of the unit-area flat torus with reduced
modulus z' equals 1/sqrt(Im z'), so the point is eps-thick exactly when
Im z' <= 1/eps^2.

Long rays are not walked point by point: :class:`RayWalker` reads their cusp
excursions off the continued-fraction coding of the geodesic flow (C. Series,
"The modular surface and continued fractions", 1985), one Gauss-map step per
excursion.  It needs eps <= 1, so that T = 1/eps^2 >= 1 and the thin part is
a union of disjoint horoballs, one per cusp.

* A frame of a ray puts one cusp at infinity, where the ray is the
  semicircle run from u to w.  It is reduced when, up to an integer
  translation, -1 < u < 0 and w > 1; every cusp the ray passes at radius
  R = (w - u)/2 > 1 has a reduced frame.  The first one is the cusp at
  infinity seen from the basepoint moved by its reducing matrix.
* The next reduced frame is the image under z -> 1/(conj z - a), a = floor w,
  a map in PGL(2, Z), so reduced heights are kept.  From one semicircle top
  to the next the ray takes the flow time log((a - u)/(w - a)).
* A frame with its top at flow time tau and R > T gives the thin interval
  (tau - acosh(R/T), tau + acosh(R/T)).  The estimators count the grid
  times j*dt inside these intervals (``stats._RayGrid.thin_runs``).

The Gauss map is chaotic like the flow it codes (Lyapunov exponent 1), so
rounding shows only after it has grown to O(1): up to flow time t ~ 25 the
thickness of a ray at each grid time is that of the exact ray, while past
t ~ 30 every float walk follows a shadow orbit of the flow (Anosov
shadowing), so thickness fractions of long rays, up to length 10^4 and
beyond, are accurate in distribution, not pointwise.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import DomainError, ParameterError
from .hyperbolic import HyperbolicPlane, _ray_matrices

_BOUND_TOL = 1e-12
_MAX_REDUCE = 4000
# squared moduli below this are near or past the end of the normal range
_TINY_M2 = 2.0 ** -1000
# for T >= 1, every excursion after the frame with top time tau starts after
# tau - acosh((1 + sqrt 2) / 2): at that top the ray is at most at height
# (1 + sqrt 2) / 2 in the next frame
_LEAD = math.acosh((1.0 + math.sqrt(2.0)) / 2.0)
# the fixed point of the coding step, the inert state of rays lost in a cusp
_GOLDEN = (math.sqrt(5.0) + 1.0) / 2.0
_OUT_OF_CUSP = 1e-150
# coding steps per batch of ``RayWalker.excursions``: batches hold at most
# 2^16 entries, and at most 64 steps are taken past the longest ray
_BATCH_ENTRIES = 1 << 16
_MAX_BATCH = 64


def reduce_many(x: np.ndarray, y: np.ndarray):
    """Vectorized reduction of points x + iy into the fundamental domain:
    the reduced coordinates, and the integer det-1 matrices ``(a, b, c, d)``
    (on a leading axis) that take each point there.

    Each pass translates every entry into the strip and inverts those inside
    the unit circle, until no entry is inside.  Squared moduli past the float
    range read as outside, and so does an image past it: ``y = inf``, and
    ``x = 0`` where the real part is lost.
    """
    x = np.array(x, dtype=np.float64)
    y = np.array(y, dtype=np.float64)
    g = np.multiply.outer([1.0, 0.0, 0.0, 1.0], np.ones(x.shape))
    for _ in range(_MAX_REDUCE):
        n = np.floor(x + 0.5)
        x -= n
        g[:2] -= n * g[2:]
        with np.errstate(over="ignore"):
            m2 = x * x + y * y
        inside = m2 < 1.0 - _BOUND_TOL
        if not inside.any():
            return x, y, g
        # below the normal range m2 has lost its digits: there, invert 2^-k z,
        # of modulus near 1, and scale the image by 2^-k (k = 0 elsewhere)
        xs, ys = x[inside], y[inside]
        k = np.where(m2[inside] < _TINY_M2, np.frexp(np.maximum(np.abs(xs), ys))[1], 0)
        xs, ys = np.ldexp(xs, -k), np.ldexp(ys, -k)
        m2 = xs * xs + ys * ys
        with np.errstate(over="ignore"):
            xs, ys = np.ldexp(-xs / m2, -k), np.ldexp(ys / m2, -k)
        lost = np.isinf(xs)
        x[inside], y[inside] = np.where(lost, 0.0, xs), np.where(lost, np.inf, ys)
        a, b, c, d = g[:, inside]
        g[:, inside] = -c, -d, a, b   # z -> -1/z
    raise DomainError("reduction did not converge")


def _thin_height(eps: float) -> float:
    """The height 1/eps^2 above which reduced moduli are eps-thin; infinite
    where eps^2 underflows, and then no float height is thin."""
    eps2 = eps * eps
    return 1.0 / eps2 if eps2 > 0.0 else math.inf


class RayWalker:
    """Cusp excursions of rays from one basepoint, one coding step at a time.

    State per ray: the endpoints ``-v`` and ``w`` of its current reduced
    frame and the flow time ``tau`` of the frame's semicircle top, measured
    from the basepoint.  ``step`` moves every ray to its next frame and
    returns the frame's thin interval; ``excursions`` yields all thin
    intervals of the rays, in time order, until a given length.  A walker
    walks once.
    """

    def __init__(self, a, b, c, d, eps: float):
        if not 0.0 < eps <= 1.0:
            raise ParameterError(
                f"the torus model's ray walker needs 0 < eps <= 1, where the thin "
                f"part is a union of disjoint cusp horoballs; got eps={eps}")
        t0 = self._t0 = _thin_height(eps)
        a, b, c, d = (np.array(e, dtype=np.float64) for e in (a, b, c, d))
        # a ray out of the cusp at infinity (d = 0: from 0.5i straight up, the
        # basepoint reduces to 2i and the ray runs down to 0) is replaced by
        # the ray with d = 1e-150, which parts from it only near t = 345
        d[d == 0.0] = _OUT_OF_CUSP
        # run every ray from u = b/d up to w = a/c: reflect by z -> -conj z
        flip = c * d < 0.0
        b[flip] *= -1.0
        c[flip] *= -1.0
        # The basepoint p lies in the fundamental domain F, so its frame is
        # reduced: a semicircle with both ends within one of an integer m lies
        # inside |z - m| < 1, which misses F.  And no earlier frame has an
        # excursion after time 0: translated so that -1 < u < 0, their cusps
        # lie in [-1, 0], their horoballs inside |z| < 1 or |z + 1| < 1, and
        # |z|^2 and |z + 1|^2 grow along the semicircle past p, where both
        # are at least 1.
        lost = np.flatnonzero(c == 0.0)
        c[lost] = 1.0  # a placeholder, replaced by the inert state
        with np.errstate(all="ignore"):  # past the float range, excursions() raises
            self._v, self._w, self._tau = -b / d, a / c, np.log(np.abs(d / c))
            lo, hi = self._interval()
            # a ray into the cusp at infinity is thin from height t0 on: e^t / d^2 > t0
            lo[lost], hi[lost] = np.log(t0 * d[lost] ** 2), np.inf
        self._first = lo[None], hi[None]
        self._retire(lost)

    def _retire(self, rays):
        """Put ``rays``, which never leave their cusp again, in an inert state:
        the golden fixed point of the step, with the top time at infinity."""
        self._v[rays], self._w[rays], self._tau[rays] = 1.0 / _GOLDEN, _GOLDEN, np.inf

    def _interval(self):
        """Thin interval ``(lo, hi)`` of every ray's current frame.  The
        frame's height at flow time t is R / cosh(t - tau), R = (v + w) / 2,
        so the ray is above ``t0`` for |t - tau| < acosh(R / t0); the
        interval is empty (``lo == hi``) where R <= t0."""
        h = np.arccosh(np.maximum((self._v + self._w) * (0.5 / self._t0), 1.0))
        return self._tau - h, self._tau + h

    def step(self):
        """Advance every ray to its next reduced frame; return the frame's
        thin interval ``(lo, hi)`` per ray, empty (``lo == hi``) where the
        frame stays below the thin height."""
        v, w, tau = self._v, self._w, self._tau
        a = np.floor(w)
        w -= a
        lost = None
        if not w.all():
            # the forward endpoint is the cusp a: thin from the entry time on
            lost = np.flatnonzero(w == 0.0)
            entry = tau[lost] + np.log((a[lost] + v[lost]) * self._t0)
            w[lost] = 1.0
        v += a
        tau += np.log(v / w)
        np.reciprocal(v, out=v)
        np.reciprocal(w, out=w)
        lo, hi = self._interval()
        if lost is not None:
            lo[lost], hi[lost] = entry, np.inf
            self._retire(lost)
        return lo, hi

    def excursions(self, until):
        """Yield the thin intervals ``(lo, hi)`` of the rays, as arrays of
        shape ``(k, n)`` whose rows are in time order per ray; every interval
        that meets [0, until[j]] of ray ``j`` is among them.

        Rays are stepped together; a ray stepped past its own length adds
        intervals that start after it.  The arrays of one batch are
        overwritten by the next.  Raises DomainError where the walk leaves
        the float range (a NaN interval, or a NaN or -inf frame time), as it
        may from a basepoint deep in a cusp.
        """
        yield self._checked(*self._first)
        n = len(self._tau)
        rows = max(1, min(_MAX_BATCH, _BATCH_ENTRIES // max(n, 1)))
        lo, hi = np.empty((2, rows, n))
        until = np.asarray(until, dtype=np.float64) + _LEAD
        while not np.all(self._tau > until):
            with np.errstate(all="ignore"):  # past the float range, _checked raises
                for i in range(rows):
                    lo[i], hi[i] = self.step()
            yield self._checked(lo, hi)

    def _checked(self, lo, hi):
        """``(lo, hi)``, unless the walk has left the float range."""
        if np.isnan(lo).any() or np.isnan(hi).any() or not np.all(self._tau > -np.inf):
            raise DomainError("the ray walk left the float range; the basepoint lies "
                              "too deep in a cusp")
        return lo, hi


class ModularTorus(HyperbolicPlane):
    kind = "modular-torus"
    has_thin_part = True

    def describe(self) -> str:
        return f"modular-torus(h={self.h})"

    def thick_many(self, batch, eps: float) -> np.ndarray:
        self.check_eps(eps)
        z = np.asarray(batch, dtype=np.complex128)
        _, y, _ = reduce_many(z.real, z.imag)
        return y <= _thin_height(eps)

    def ray_walker(self, x, phi: np.ndarray, eps: float) -> RayWalker:
        """Walker for the eps-thin excursions of the rays from ``x``, one
        point or one per ray, with direction parameters ``phi``; needs
        0 < eps <= 1."""
        z = np.asarray(x, dtype=np.complex128)
        for p in z.reshape(-1):
            self.validate_point(p)
        _, _, (ga, gb, gc, gd) = reduce_many(z.real, z.imag)
        a, b, c, d = _ray_matrices(z, np.asarray(phi, dtype=np.float64))
        return RayWalker(ga * a + gb * c, ga * b + gb * d, gc * a + gd * c,
                         gc * b + gd * d, eps)


def thin_area_fraction(eps: float) -> float:
    """Exact area fraction of the thin part of the fundamental domain.

    The domain has hyperbolic area pi/3 and the part above height t0 = 1/eps^2
    has area 1/t0, so the thin fraction is 3 eps^2 / pi (for eps <= 1).
    """
    if not (0 < eps <= 1):
        raise ParameterError(f"need 0 < eps <= 1, got {eps}")
    return 3.0 * eps * eps / math.pi
