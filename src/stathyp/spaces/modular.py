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


def reduce_modular(z: complex):
    """Reduce ``z`` to the fundamental domain; return ``(z', word)``.

    ``word`` is a tuple of generator tokens ``("T", n)`` (translation by n)
    and ``("S",)`` (inversion) which, applied in order to ``z'`` via
    :func:`apply_word`, recover ``z``.
    """
    z = complex(z)
    if not (z.imag > 0):
        raise DomainError(f"modulus must have Im > 0, got {z}")
    x, y = z.real, z.imag
    ops = []  # operations applied to z, in order
    for _ in range(_MAX_REDUCE):
        n = math.floor(x + 0.5)
        if n != 0:
            x -= n
            ops.append(("T", -n))
        m2 = x * x + y * y
        if m2 < 1.0 - _BOUND_TOL:
            x, y = -x / m2, y / m2
            ops.append(("S",))
        else:
            break
    else:
        raise DomainError(f"reduction did not converge for {z}")
    word = tuple(_invert_op(op) for op in reversed(ops))
    return complex(x, y), word


def _invert_op(op):
    if op[0] == "T":
        return ("T", -op[1])
    return ("S",)


def apply_word(word, z: complex) -> complex:
    """Apply a reduction word (tuple of T/S tokens) to ``z``."""
    z = complex(z)
    for op in word:
        if op[0] == "T":
            z = z + op[1]
        elif op[0] == "S":
            z = -1.0 / z
        else:
            raise ParameterError(f"unknown generator token {op!r}")
    return z


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

    State is one det-1 matrix per ray; the current point is M.i, kept inside
    the fundamental domain by integer translations and inversions applied on
    the left.  ``step`` advances all rays and returns the reduced coordinates.
    """

    def __init__(self, a, b, c, d):
        self.a = np.array(a, dtype=np.float64)
        self.b = np.array(b, dtype=np.float64)
        self.c = np.array(c, dtype=np.float64)
        self.d = np.array(d, dtype=np.float64)
        self._steps = 0
        self._reduce()

    @property
    def size(self) -> int:
        return len(self.a)

    def _position(self):
        den = self.c * self.c + self.d * self.d
        return (self.a * self.c + self.b * self.d) / den, 1.0 / den

    def _reduce(self):
        a, b, c, d = self.a, self.b, self.c, self.d
        for _ in range(_MAX_REDUCE):
            x, y = self._position()
            n = np.floor(x + 0.5)
            nz = n != 0
            if np.any(nz):
                # left-multiply by T^{-n}
                a[nz] -= n[nz] * c[nz]
                b[nz] -= n[nz] * d[nz]
            x, y = self._position()
            mask = x * x + y * y < 1.0 - _BOUND_TOL
            if not np.any(mask):
                return
            # left-multiply by S on the unreduced rays
            a[mask], b[mask], c[mask], d[mask] = (
                -c[mask].copy(), -d[mask].copy(), a[mask].copy(), b[mask].copy())
        raise DomainError("walker reduction did not converge")

    def step(self, dt: float):
        """Advance every ray by ``dt``; return reduced (x, y) coordinates."""
        e = math.exp(0.5 * dt)
        self.a *= e
        self.b /= e
        self.c *= e
        self.d /= e
        self._steps += 1
        if self._steps % 1024 == 0:
            det = self.a * self.d - self.b * self.c
            s = np.sqrt(det)
            self.a /= s
            self.b /= s
            self.c /= s
            self.d /= s
        self._reduce()
        return self._position()

    def position(self):
        return self._position()


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
