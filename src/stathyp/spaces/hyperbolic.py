"""Hyperbolic plane in the upper half-plane model.

Points are complex numbers with positive imaginary part.  Isometries are
represented by real 2x2 matrices acting as Mobius transformations; images are
always evaluated through the explicit real/imaginary formulas

    Re(g z) = (a c |z|^2 + b d + (a d + b c) Re z) / |c z + d|^2
    Im(g z) = det(g) Im z / |c z + d|^2

so the imaginary part stays positive even where naive complex arithmetic
would cancel catastrophically (e.g. points exponentially close to the
boundary).  Distances use the asinh form of the arccosh formula,

    d(u, v) = 2 asinh( |u - v| / (2 sqrt(Im u Im v)) ),

which is algebraically equivalent and stays accurate near argument 1.

Pairs of rays from one basepoint need no Cartesian points at all:
``ray_pair_distances`` takes their distances from the law of cosines in a
form that holds at any radius.  The profile of distances from a point to
a geodesic, and the time of its foot, come in closed form from the frame
that puts the geodesic on the imaginary axis; ``distance_to_segment`` reads
the profile at that foot clamped to the segment.
Cartesian coordinates leave the float range
near t = 355 (the squared height overflows), and past that ``points_at`` and
``geodesic_points`` raise a DomainError naming the time.
"""

from __future__ import annotations

import math
import numpy as np

from ..errors import DomainError, ParameterError
from .base import ModelSpace, RayBundle

_VERTICAL_RTOL = 1e-13
_LN2 = math.log(2.0)
_LOG_ASINH_TAIL = 27.0 * _LN2


def mobius_apply(a, b, c, d, x, y):
    """Apply [[a, b], [c, d]] to x + iy; all arguments broadcast elementwise."""
    den = (c * x + d) ** 2 + (c * y) ** 2
    det = a * d - b * c
    xr = (a * c * (x * x + y * y) + b * d + (a * d + b * c) * x) / den
    yr = det * y / den
    return xr, yr


def uhp_distance(x1, y1, x2, y2):
    """Distance in the upper half-plane, elementwise on arrays."""
    s1 = np.sqrt(y1)
    s2 = np.sqrt(y2)
    q = np.hypot((x2 - x1) / s1 / s2, (y2 - y1) / s1 / s2)
    return 2.0 * np.arcsinh(0.5 * q)


def _basepoint_matrix(x):
    # z -> Re(x) + Im(x) z as a det-1 matrix
    s = np.sqrt(x.imag)
    return s, x.real / s, 0.0, 1.0 / s


def _ray_matrices(x, phi: np.ndarray):
    """Det-1 matrices sending the upward ray at i to the ray at ``x`` (one
    point, or one per ray) with direction parameter ``phi`` (uniform phi in
    [0, pi) is the uniform direction measure; the tangent angle at ``x`` is
    an affine function of phi)."""
    ma, mb, mc, md = _basepoint_matrix(x)
    cp, sp = np.cos(phi), np.sin(phi)
    a = ma * cp - mb * sp
    b = ma * sp + mb * cp
    c = mc * cp - md * sp
    d = mc * sp + md * cp
    return a, b, c, d


def _ray_direction(x: complex, y: complex) -> float:
    """Direction parameter of the ray from ``x`` through ``y``, inverting
    ``_ray_matrices``: its rotation about i turns (w - i)/(w + i) by 2 phi."""
    w = (y - x.real) / x.imag
    return float(0.5 * np.angle((w - 1j) / (w + 1j)) % math.pi)


def _uhp_points(x, y, t) -> np.ndarray:
    """``x + iy``, or a DomainError naming the largest time ``t`` whose point
    left the float range of upper-half-plane coordinates."""
    bad = ~(np.isfinite(x) & np.isfinite(y) & (y > 0.0))
    if bad.any():
        late = float(np.broadcast_to(t, bad.shape)[bad].max())
        raise DomainError(f"time {late!r} is past the float range of "
                          "upper-half-plane coordinates")
    return x + 1j * y


class HyperbolicRays(RayBundle):
    """Rays from ``x`` with direction parameters ``phi``; the ray matrices
    are built only where Cartesian points are asked for."""

    def __init__(self, x: complex, phi: np.ndarray):
        self.x, self.phi = x, phi

    @property
    def size(self) -> int:
        return len(self.phi)

    def points_at(self, t):
        t = np.asarray(t, dtype=np.float64)
        a, b, c, d = _ray_matrices(self.x, self.phi)
        with np.errstate(over="ignore", invalid="ignore"):
            e = np.exp(t)
            x, y = mobius_apply(a, b, c, d, 0.0 * e, e)
        return _uhp_points(x, y, t)


class HyperbolicPlane(ModelSpace):
    """The hyperbolic plane; exponential volume growth with default h = 1."""

    kind = "hyperbolic-plane"

    def __init__(self, h: float = 1.0):
        self.h = self._growth_exponent(h)

    def describe(self) -> str:
        return f"hyperbolic-plane(h={self.h})"

    def basepoint(self) -> complex:
        return 1j

    def validate_point(self, p) -> None:
        z = complex(p)
        if not (z.imag > 0.0) or not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise DomainError(f"upper half-plane points need Im > 0, got {p}")

    def distance(self, u, v) -> float:
        self.validate_point(u)
        self.validate_point(v)
        u, v = complex(u), complex(v)
        return float(uhp_distance(u.real, u.imag, v.real, v.imag))

    # -- geodesics ----------------------------------------------------------

    def _axis_map(self, U, V):
        """Row by row, the matrix ``g = (a, b, c, d)`` with g(U_j), g(V_j) on the
        positive imaginary axis, plus the axis heights of the two points."""
        ur, ui, vr, vi = U.real, U.imag, V.real, V.imag
        nu, nv = np.hypot(ur, ui), np.hypot(vr, vi)
        # vertical lines are translated to the imaginary axis
        vertical = np.abs(ur - vr) <= _VERTICAL_RTOL * np.maximum(np.maximum(1.0, nu), nv)
        with np.errstate(divide="ignore", invalid="ignore"):
            m = (nv * nv - nu * nu) / (2.0 * (vr - ur))
            rad = np.hypot(ur - m, ui)
            fa, fb = m - rad, m + rad  # ideal feet, fa < fb
        # det = fb - fa > 0; sends the geodesic to the axis.  ``[()]`` turns
        # where's 0-d results back into scalars, so that a one-segment caller
        # such as ``geodesic_points`` stays on scalar arithmetic
        g = (1.0, np.where(vertical, -ur, -fb)[()], np.where(vertical, 0.0, 1.0)[()],
             np.where(vertical, 1.0, -fa)[()])
        _, hu = mobius_apply(*g, ur, ui)
        _, hv = mobius_apply(*g, vr, vi)
        return g, hu, hv

    def geodesic_points(self, u, v, ts: np.ndarray):
        self.validate_point(u)
        self.validate_point(v)
        u, v = complex(u), complex(v)
        if u == v:
            raise DomainError("degenerate ray: endpoints coincide")
        ts = np.asarray(ts, dtype=np.float64)
        if np.any(ts < 0):
            raise ParameterError("ray times must be nonnegative")
        g, hu, hv = self._axis_map(np.complex128(u), np.complex128(v))
        sgn = 1.0 if hv > hu else -1.0
        a, b, c, d = g
        # adjugate: inverse up to the (positive) determinant, which Mobius
        # action ignores
        ia, ib, ic, id_ = d, -b, -c, a
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            heights = hu * np.exp(sgn * ts)
            x, y = mobius_apply(ia, ib, ic, id_, np.zeros_like(heights), heights)
        out = _uhp_points(x, y, ts)
        exact = ts == 0.0
        if np.any(exact):
            out = np.where(exact, complex(u), out)
        return out

    def segment_profile(self, P, U, V):
        """Closed form in the frames ``g`` that put each segment on the
        imaginary axis, from the offset ``a`` of each point ``g(P_j) = x + iy``
        from that axis and the time ``s0`` of its foot ``i|x + iy|``:

            sinh^2(d/2) = sinh^2(a/2) + sinh^2((s-s0)/2)
                          + 2 sinh^2(a/2) sinh^2((s-s0)/2)

        (cosh d = cosh a cosh(s - s0)), with sinh^2(a/2) = |w - i|w||^2 / (4 y |w|)
        for w = x + iy, where |w| - y = x^2 / (|w| + y)."""
        g, hu, hv = self._axis_map(U, V)
        x, y = mobius_apply(*g, P.real, P.imag)
        r = np.hypot(x, y)
        a2 = (x * x + (x * x / (r + y)) ** 2) / (4.0 * y * r)
        s0 = np.log(np.where(hv >= hu, r / hu, hu / r))

        def profile(s):
            t2 = np.sinh(0.5 * (s - s0)) ** 2
            return 2.0 * np.arcsinh(np.sqrt(a2 + t2 + 2.0 * a2 * t2))
        return self.distance_many(U, V), profile, s0

    # -- batches: complex arrays ---------------------------------------------

    def batch_get(self, batch, i: int) -> complex:
        return complex(batch[i])

    def singleton(self, p) -> np.ndarray:
        self.validate_point(p)
        return np.asarray([complex(p)], dtype=np.complex128)

    def distance_many(self, U, V) -> np.ndarray:
        return uhp_distance(U.real, U.imag, V.real, V.imag)

    def cross_distance(self, U, V) -> np.ndarray:
        return uhp_distance(U.real[:, None], U.imag[:, None], V.real[None, :], V.imag[None, :])

    def ray_pair_distances(self, by, ty, bz, tz) -> np.ndarray:
        """The law of cosines about the common basepoint, angle 2(phi_y - phi_z):

            sinh^2(d/2) = sinh^2((ty - tz)/2) + sinh ty sinh tz sin^2(phi_y - phi_z)

        With the factor e^(ty+tz)/4 taken out, the right side is e^(ty+tz) w / 4,
        where w lies in [0, 2], so no radius overflows.  The work is done in
        place in three chunk-sized buffers; the terms of the times alone use
        the first ``m`` entries of two of them, one per distinct time (m = 1
        for scalar times)."""
        if by.x != bz.x:
            raise DomainError(f"ray pairs need one basepoint, got {by.x} and {bz.x}")
        ty = np.asarray(ty, dtype=np.float64)
        tz = np.asarray(tz, dtype=np.float64)
        s = np.subtract(by.phi, bz.phi)
        w, v = np.empty_like(s), np.empty_like(s)
        # sin^2 as tan^2 / (1 + tan^2): numpy's float64 tan is several times
        # faster than its sin, and |tan| stays below 2e16 on floats
        np.tan(s, out=s)
        s *= s
        s /= np.add(1.0, s, out=w)
        m = max(ty.size, tz.size)
        a, b = w[:m], v[:m]
        np.expm1(np.multiply(-2.0, ty, out=a), out=a)
        a *= np.expm1(np.multiply(-2.0, tz, out=b), out=b)
        s *= a  # expm1(-2 ty) expm1(-2 tz) sin^2
        lo, gap = np.minimum(ty, tz, out=a), np.maximum(ty, tz, out=b)
        np.expm1(np.subtract(lo, gap, out=gap), out=gap)
        lo *= -2.0
        np.exp(lo, out=lo)
        lo *= gap
        lo *= gap
        s += lo  # w = e^(-2 lo) gap^2 + expm1(-2 ty) expm1(-2 tz) sin^2
        with np.errstate(divide="ignore"):
            log_w = np.log(s, out=s)  # -inf, and then d = 0, where y = z
        far = np.add(ty, tz, out=w)
        far += log_w
        log_v = np.multiply(0.5, far, out=v)
        log_v -= _LN2  # v = sinh(d/2)
        # asinh(v) = log(2v) to double precision once v > 2^27
        past = log_v > _LOG_ASINH_TAIL
        d = np.minimum(log_v, _LOG_ASINH_TAIL, out=s)
        np.exp(d, out=d)
        np.arcsinh(d, out=d)
        d *= 2.0
        np.copyto(d, far, where=past)
        return d

    # -- sampling -----------------------------------------------------------

    def rays_chunk(self, x, count, rng, horizon) -> HyperbolicRays:
        self.validate_point(x)
        return HyperbolicRays(complex(x), rng.uniform(0.0, math.pi, size=count))
