"""Torus moduli model: upper half-plane with an SL(2,Z) thick/thin structure.

The metric and geodesics are those of the hyperbolic plane; the extra
structure is the Gauss reduction of a modulus to the standard fundamental
domain (|Re z| <= 1/2, |z| >= 1) and the thickness predicate derived from it.
The convention is that the systole of the unit-area flat torus with reduced
modulus z' equals 1/sqrt(Im z'), so the point is eps-thick exactly when
Im z' <= 1/eps^2.

Long geodesics cannot be followed in raw coordinates (the imaginary part
decays like exp(-t) and underflows near t = 700), so :class:`RayWalker`
carries rays as unit-determinant frame matrices M, kept reduced (M.i in the
fundamental domain).  It walks in blocks: :meth:`RayWalker.block` builds
the raw points M.diag(e^{s/2}, e^{-s/2}).i at the offsets s = j*dt, j < K,
of all rays in one broadcast, reduces them with one :func:`reduce_many`
call, and then advances the frame once, by ``step(K*dt)``.  The block
length is fixed by flow time alone, K = max(1, round(SPAN / dt)), so it
never depends on how many rays are walked; with dt >= SPAN a block is one
grid time and the walk is the plain ``step`` sequence.

SPAN bounds the error.  The flow expands errors like e^s, so a raw point
at offset s carries about e^s ulps of hyperbolic error: about 25 ulps at
s = 3.2.  The frame itself is advanced by step(K*dt) instead of K steps of
dt, so its rounding differs from the one-step walk by a few ulps per block.
The geodesic flow on the modular surface is chaotic with Lyapunov exponent
1, so any such change of float arithmetic shows in the thickness flags
only after the ulps have grown to O(1):

* up to flow time t ~ 25 the flags of a ray are pointwise those of the
  one-step walk (and of the exact ray);
* past t ~ 30 every float walker follows a shadow orbit of the flow, not
  the ray named by its direction parameter (Anosov shadowing), so the
  agreement is statistical only: thickness fractions of long walks, up to
  length 10^4 and beyond, are accurate in distribution, not pointwise.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import DomainError, ParameterError
from .hyperbolic import HyperbolicPlane, _ray_matrices

_BOUND_TOL = 1e-12
_MAX_REDUCE = 4000
_S_SIGNS = np.array([[-1.0], [-1.0], [1.0], [1.0]])
SPAN = 3.2  # flow time covered by one walker block
# entries per work array of a block: numpy temporaries above 256 KB are fresh
# mappings whose page faults cost more than the arithmetic on them
WORK_ITEMS = 1 << 15


def block_length(dt: float) -> int:
    """Grid times per walker block at step ``dt``: fixed by flow time alone."""
    return max(1, round(SPAN / dt))


def reduce_many(x: np.ndarray, y: np.ndarray):
    """Vectorized reduction of points x + iy; returns reduced coordinates.

    Each pass translates the entries still unreduced into the strip and
    inverts those inside the unit circle; an entry leaves the working set
    once it lies in the fundamental domain, so a pass costs only what is
    left to reduce.
    """
    # C-order copies, so the flat views below write through to x and y
    x = np.array(x, dtype=np.float64, order="C")
    y = np.array(y, dtype=np.float64, order="C")
    fx, fy = x.reshape(-1), y.reshape(-1)
    xs, ys, live = fx, fy, None
    for _ in range(_MAX_REDUCE):
        xs -= np.floor(xs + 0.5)
        if live is not None:
            fx[live] = xs
        m2 = xs * xs + ys * ys
        inside = np.flatnonzero(m2 < 1.0 - _BOUND_TOL)
        if not len(inside):
            return x, y
        live = inside if live is None else live[inside]
        inv = m2[inside]
        xs = -xs[inside] / inv
        ys = ys[inside] / inv
        fy[live] = ys
    raise DomainError("reduction did not converge")


class RayWalker:
    """Unit tangent frames flowed along their rays, kept reduced.

    State is one det-1 matrix per ray, stored as the rows a, b, c, d of a
    (4, n) array; the current point is M.i, kept inside the fundamental
    domain by integer translations and inversions applied on the left.
    ``step`` advances all rays and returns the reduced coordinates;
    ``block`` reads the reduced coordinates at a block of grid times ahead
    of the frames and then advances them past it.
    """

    def __init__(self, a, b, c, d):
        self._m = np.array([a, b, c, d], dtype=np.float64)
        self._steps = 0
        self._out = np.empty((2, self._m.shape[1], 0))  # the arrays ``block`` returns
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

    def block(self, dt: float, k: int, tail=None):
        """Reduced ``(n, k)`` coordinates of every ray at the grid times j*dt,
        j < k, past its frame; then advance the frames by k*dt with one
        ``step``.

        ``tail``, a vector of per-ray offsets, appends one more column, read
        at those offsets.  Offset 0 is the frame's own reduced point, bit for
        bit.  Rays are taken ``WORK_ITEMS // k`` at a time; every entry is
        computed on its own, so the grouping never changes a value.

        The two arrays are views of one buffer that the walker keeps, so the
        next ``block`` call overwrites them: a walk allocates its output once,
        not once per block.
        """
        s = np.arange(k) * dt
        if tail is not None:
            s = np.column_stack([np.broadcast_to(s, (len(tail), k)), tail])
        up, down = np.exp(s), np.exp(-s)
        n, cols = self._m.shape[1], s.shape[-1]
        if self._out.shape[2] < cols:
            self._out = np.empty((2, n, cols))
        x, y = self._out[:, :, :cols]
        rows = max(1, WORK_ITEMS // max(cols, 1))
        for lo in range(0, n, rows):
            part = slice(lo, lo + rows)
            a, b, c, d = self._m[:, part, None]
            u, v = (up, down) if tail is None else (up[part], down[part])
            # M.diag(e^{s/2}, e^{-s/2}).i = (ac e^s + bd e^-s + i) / (cc e^s + dd e^-s)
            den = (c * c) * u + (d * d) * v
            x[part], y[part] = reduce_many(((a * c) * u + (b * d) * v) / den, 1.0 / den)
        self.step(k * dt)
        return x, y

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
