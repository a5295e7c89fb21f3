"""Torus moduli model: upper half-plane with an SL(2,Z) thick/thin structure.

The metric and geodesics are those of the hyperbolic plane; the extra
structure is the Gauss reduction of a modulus to the standard fundamental
domain (|Re z| <= 1/2, |z| >= 1) and the thickness predicate derived from it.
The convention is that the systole of the unit-area flat torus with reduced
modulus z' equals 1/sqrt(Im z'), so the point is eps-thick exactly when
Im z' <= 1/eps^2.

Long geodesics cannot be followed in raw coordinates (the imaginary part
decays like exp(-t) and underflows near t = 700), so :class:`RayWalker`
carries rays as unit-determinant frame matrices and re-reduces after every
step; coordinates then stay within the fundamental domain for arbitrarily
long flow times.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import DomainError, ParameterError
from .hyperbolic import HyperbolicPlane, _ray_matrices

_BOUND_TOL = 1e-12
_MAX_REDUCE = 4000
_S_SIGNS = np.array([[-1.0], [-1.0], [1.0], [1.0]])


def reduce_many(x: np.ndarray, y: np.ndarray):
    """Vectorized reduction of points x + iy; returns reduced coordinates."""
    x = np.array(x, dtype=np.float64)
    y = np.array(y, dtype=np.float64)
    for _ in range(_MAX_REDUCE):
        n = np.floor(x + 0.5)
        x -= n
        m2 = x * x + y * y
        mask = m2 < 1.0 - _BOUND_TOL
        if not np.any(mask):
            break
        inv = m2[mask]
        x[mask] = -x[mask] / inv
        y[mask] = y[mask] / inv
    else:
        raise DomainError("reduction did not converge")
    return x, y


class RayWalker:
    """Unit tangent frames flowed in fixed time steps, re-reduced each step.

    State is one det-1 matrix per ray, stored as the rows a, b, c, d of a
    (4, n) array; the current point is M.i, kept inside the fundamental
    domain by integer translations and inversions applied on the left.
    ``step`` advances all rays and returns the reduced coordinates.
    """

    def __init__(self, a, b, c, d):
        self._m = np.array([a, b, c, d], dtype=np.float64)
        self._steps = 0
        self._reduce()

    def _reduce(self):
        """Reduce every frame; return the reduced (x, y) coordinates."""
        m = self._m
        for _ in range(_MAX_REDUCE):
            a, b, c, d = m
            den = c * c + d * d
            y = 1.0 / den
            n = np.floor((a * c + b * d) / den + 0.5)
            # left-multiply by T^{-n}; exact on the rays with n == 0, and
            # c, d (hence den and y) are unchanged
            a -= n * c
            b -= n * d
            x = (a * c + b * d) / den
            mask = x * x + y * y < 1.0 - _BOUND_TOL
            if not mask.any():
                return x, y
            # left-multiply by S on the unreduced rays: (a, b, c, d) -> (-c, -d, a, b)
            m = self._m = np.where(mask, m[[2, 3, 0, 1]] * _S_SIGNS, m)
        raise DomainError("walker reduction did not converge")

    def step(self, dt: float):
        """Advance every ray by ``dt``; return reduced (x, y) coordinates."""
        e = math.exp(0.5 * dt)
        m = self._m
        m[0::2] *= e  # a, c
        m[1::2] /= e  # b, d
        self._steps += 1
        if self._steps % 1024 == 0:
            a, b, c, d = m
            m /= np.sqrt(a * d - b * c)
        return self._reduce()

    def position(self):
        a, b, c, d = self._m
        den = c * c + d * d
        return (a * c + b * d) / den, 1.0 / den


class ModularTorus(HyperbolicPlane):
    kind = "modular-torus"
    has_thin_part = True

    def describe(self) -> str:
        return f"modular-torus(h={self.h})"

    def thick_many(self, batch, eps: float) -> np.ndarray:
        if eps <= 0:
            raise ParameterError(f"eps must be positive, got {eps}")
        z = np.asarray(batch, dtype=np.complex128)
        _, y = reduce_many(z.real, z.imag)
        return y <= 1.0 / (eps * eps)

    def ray_walker(self, x, phi: np.ndarray) -> RayWalker:
        """Walker for the rays from ``x`` with direction parameters ``phi``."""
        self.validate_point(x)
        return RayWalker(*_ray_matrices(complex(x), np.asarray(phi, dtype=np.float64)))


def thin_area_fraction(eps: float) -> float:
    """Exact area fraction of the thin part of the fundamental domain.

    The domain has hyperbolic area pi/3 and the part above height t0 = 1/eps^2
    has area 1/t0, so the thin fraction is 3 eps^2 / pi (for eps <= 1).
    """
    if not (0 < eps <= 1):
        raise ParameterError(f"need 0 < eps <= 1, got {eps}")
    return 3.0 * eps * eps / math.pi
