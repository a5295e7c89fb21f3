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
"""

from __future__ import annotations

import math
import numpy as np

from ..errors import DomainError, ParameterError
from .base import ModelSpace, RayBundle

_VERTICAL_RTOL = 1e-13


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


def _basepoint_matrix(x: complex):
    # z -> Re(x) + Im(x) z as a det-1 matrix
    s = math.sqrt(x.imag)
    return s, x.real / s, 0.0, 1.0 / s


def _ray_matrices(x: complex, phi: np.ndarray):
    """Det-1 matrices sending the upward ray at i to the ray at ``x`` with
    direction parameter ``phi`` (uniform phi in [0, pi) is the uniform
    direction measure; the tangent angle at ``x`` is an affine function of
    phi)."""
    ma, mb, mc, md = _basepoint_matrix(x)
    cp, sp = np.cos(phi), np.sin(phi)
    a = ma * cp - mb * sp
    b = ma * sp + mb * cp
    c = mc * cp - md * sp
    d = mc * sp + md * cp
    return a, b, c, d


class HyperbolicRays(RayBundle):
    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = a, b, c, d

    @property
    def size(self) -> int:
        return len(self.a)

    def points_at(self, t):
        t = np.asarray(t, dtype=np.float64)
        e = np.exp(t)
        x, y = mobius_apply(self.a, self.b, self.c, self.d, 0.0 * e, e)
        return x + 1j * y


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

    def _axis_map(self, u: complex, v: complex):
        """Matrix g with g(u), g(v) on the positive imaginary axis, plus the
        axis heights of the two points."""
        if abs(u.real - v.real) <= _VERTICAL_RTOL * max(1.0, abs(u), abs(v)):
            # vertical line: translate to the imaginary axis
            g = (1.0, -u.real, 0.0, 1.0)
            return g, u.imag, v.imag
        m = (abs(v) ** 2 - abs(u) ** 2) / (2.0 * (v.real - u.real))
        rad = math.hypot(u.real - m, u.imag)
        fa, fb = m - rad, m + rad  # ideal feet, fa < fb
        g = (1.0, -fb, 1.0, -fa)   # det = fb - fa > 0; sends the geodesic to the axis
        _, hu = mobius_apply(*g, u.real, u.imag)
        _, hv = mobius_apply(*g, v.real, v.imag)
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
        g, hu, hv = self._axis_map(u, v)
        sgn = 1.0 if hv > hu else -1.0
        heights = hu * np.exp(sgn * ts)
        a, b, c, d = g
        # adjugate: inverse up to the (positive) determinant, which Mobius
        # action ignores
        ia, ib, ic, id_ = d, -b, -c, a
        x, y = mobius_apply(ia, ib, ic, id_, np.zeros_like(heights), heights)
        out = x + 1j * y
        exact = ts == 0.0
        if np.any(exact):
            out = np.where(exact, complex(u), out)
        return out

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

    # -- sampling -----------------------------------------------------------

    def rays_chunk(self, x, count, rng, horizon) -> HyperbolicRays:
        self.validate_point(x)
        phi = rng.uniform(0.0, math.pi, size=count)
        return HyperbolicRays(*_ray_matrices(complex(x), phi))
