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
  times j*dt inside these intervals (``stats._thin_runs``).

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

    Each pass translates the entries still unreduced into the strip and
    inverts those inside the unit circle; an entry leaves the working set
    once it lies in the fundamental domain, so a pass costs only what is
    left to reduce.  Squared moduli past the float range read as outside.
    """
    # C-order copies, so the flat views below write through to x, y and g
    x = np.array(x, dtype=np.float64, order="C")
    y = np.array(y, dtype=np.float64, order="C")
    g = np.multiply.outer([1.0, 0.0, 0.0, 1.0], np.ones(x.shape))
    fx, fy, fg = x.reshape(-1), y.reshape(-1), g.reshape(4, -1)
    xs, ys, gs, live = fx, fy, fg, None
    for _ in range(_MAX_REDUCE):
        n = np.floor(xs + 0.5)
        xs -= n
        gs[:2] -= n * gs[2:]
        if live is not None:
            fx[live] = xs
            fg[:, live] = gs
        with np.errstate(over="ignore"):
            m2 = xs * xs + ys * ys
        inside = np.flatnonzero(m2 < 1.0 - _BOUND_TOL)
        if not len(inside):
            return x, y, g
        live = inside if live is None else live[inside]
        inv = m2[inside]
        xs = -xs[inside] / inv
        ys = ys[inside] / inv
        fy[live] = ys
        gs = gs[:, inside][[2, 3, 0, 1]]  # z -> -1/z: (a, b, c, d) -> (-c, -d, a, b)
        gs[:2] *= -1.0
    raise DomainError("reduction did not converge")


def _thin_height(eps: float) -> float:
    """The height 1/eps^2 above which reduced moduli are eps-thin; infinite
    where eps^2 underflows, and then no float height is thin."""
    eps2 = eps * eps
    return 1.0 / eps2 if eps2 > 0.0 else math.inf


def _frame_interval(c, d, t0):
    """Thin interval ``(lo, hi)`` of the det-1 frames ``N = [[a, b], [c, d]]``
    whose rays are ``N.(i e^t)``: the times where the frame height
    e^t / (c^2 e^2t + d^2) exceeds ``t0``.  ``c = 0`` (a ray into the cusp)
    gives ``hi = inf``; frames that stay below ``t0`` give ``(-inf, -inf)``,
    and so do all frames at ``t0 = inf`` (g is nan where c = 0)."""
    c2, d2 = c * c, d * d
    with np.errstate(divide="ignore", invalid="ignore"):
        g = 1.0 - 4.0 * t0 * t0 * c2 * d2
        s = 1.0 + np.sqrt(np.maximum(g, 0.0))
        lo = np.log(2.0 * t0 * d2 / s)
        hi = np.log(s / (2.0 * t0 * c2))
    thin = g > 0.0
    return np.where(thin, lo, -np.inf), np.where(thin, hi, -np.inf)


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
        lo, hi = _frame_interval(c, d, t0)
        self._first = lo[None], hi[None]
        lost = c == 0.0
        c[lost] = 1.0  # a placeholder, replaced by the inert state
        self._v, self._w, self._tau = -b / d, a / c, np.log(np.abs(d / c))
        self._retire(np.flatnonzero(lost))

    def _retire(self, rays):
        """Put ``rays``, which never leave their cusp again, in an inert state:
        the golden fixed point of the step, with the top time at infinity."""
        self._v[rays], self._w[rays], self._tau[rays] = 1.0 / _GOLDEN, _GOLDEN, np.inf

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
        h = np.arccosh(np.maximum((v + w) * (0.5 / self._t0), 1.0))
        lo, hi = tau - h, tau + h
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
        overwritten by the next.
        """
        yield self._first
        n = len(self._tau)
        rows = max(1, min(_MAX_BATCH, _BATCH_ENTRIES // max(n, 1)))
        lo, hi = np.empty((2, rows, n))
        until = np.asarray(until, dtype=np.float64) + _LEAD
        while not np.all(self._tau > until):
            for i in range(rows):
                lo[i], hi[i] = self.step()
            yield lo, hi


class ModularTorus(HyperbolicPlane):
    kind = "modular-torus"
    has_thin_part = True

    def describe(self) -> str:
        return f"modular-torus(h={self.h})"

    def thick_many(self, batch, eps: float) -> np.ndarray:
        if eps <= 0:
            raise ParameterError(f"eps must be positive, got {eps}")
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
