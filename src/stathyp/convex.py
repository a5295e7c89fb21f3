"""Convex-body volumes, polar duals, Mahler volume, and Finsler densities.

Bodies are centrally symmetric convex sets containing the origin in their
interior, given as symmetric polytopes (vertex lists), axis-aligned
ellipsoids, or p-norm balls.  Exact volumes are available for ellipsoids and
p-balls in any dimension and for polytopes up to dimension 3 (facet
decomposition); everything else falls back to rejection sampling in the
support-function bounding box.

The two Finsler volume densities of a norm with unit ball B are

    busemann        f = vol(unit ball) / vol(B)
    holmes-thompson g = vol(polar of B) / vol(unit ball)

and their ratio f/g equals vol(Ball)^2 / Mahler(B), which the classical
bounds on the Mahler volume place in [1, n^(n/2)].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError, UnsupportedMethodError
from .rng import chunked, substream

_SYM_TOL = 1e-9
# cap on the (block, rows, dim) arrays that compare every pair of rows
_DEDUPE_BLOCK_ELEMS = 1 << 20


def unit_ball_volume(n: int) -> float:
    """Lebesgue volume of the Euclidean unit ball in R^n."""
    try:
        return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
    except OverflowError:
        raise DomainError(f"unit-ball volume overflows in dimension {n}") from None


def lp_ball_volume(n: int, p: float) -> float:
    """Closed form 2^n Gamma(1 + 1/p)^n / Gamma(1 + n/p); p may be inf."""
    try:
        if math.isinf(p):
            return 2.0 ** n
        return 2.0 ** n * math.gamma(1.0 + 1.0 / p) ** n / math.gamma(1.0 + n / p)
    except OverflowError:
        raise DomainError(f"l{p}-ball volume overflows in dimension {n}") from None


@dataclass(frozen=True)
class VolumeEstimate:
    value: float
    std_error: float
    n_samples: int

    def __post_init__(self):
        if not 0.0 < self.value < math.inf:
            raise DomainError(f"volume estimate {self.value!r} is outside the positive "
                              f"float range")


class ConvexBody:
    """Base class; subclasses must be centrally symmetric with 0 interior."""

    dim: int

    def contains(self, xs: np.ndarray) -> np.ndarray:
        """Membership of rows of ``xs`` (m, dim) -> bool (m,)."""
        raise NotImplementedError

    def support(self, xi: np.ndarray) -> float:
        """Support function max_{v in body} xi . v."""
        raise NotImplementedError

    def polar(self) -> "ConvexBody":
        """Polar dual {xi : xi . v <= 1 for all v in the body}.

        Polytopes dualize to polytopes (facets <-> vertices), so exact volume
        survives polarity; ellipsoids and p-balls have closed-form duals.
        """
        raise NotImplementedError

    def exact_volume(self) -> float:
        raise UnsupportedMethodError(
            f"no exact volume for {type(self).__name__}; use the monte-carlo method")

    def describe(self) -> str:
        return type(self).__name__


class Polytope(ConvexBody):
    """Convex hull of a centrally symmetric vertex list."""

    def __init__(self, vertices: np.ndarray):
        v = np.asarray(vertices, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] < 2:
            raise ParameterError("need a (k, dim) vertex array with k >= 2")
        bad = ~np.isfinite(v).all(axis=1)
        if bad.any():
            raise ParameterError(f"vertices must be finite reals, got {v[bad][0].tolist()}")
        self.dim = v.shape[1]
        self.vertices = v
        self._check_symmetry()
        # deferred: only polytope bodies need Qhull, and importing
        # scipy.spatial would otherwise dominate every run's start-up
        from scipy.spatial import ConvexHull
        try:
            self.hull = ConvexHull(v)
        except Exception as exc:
            # the first line only: Qhull's option dump after it holds a per-run id
            first = str(exc).partition("\n")[0]
            raise ParameterError(f"degenerate vertex set: {first}") from exc
        # facet inequalities A x + b <= 0
        self._A = self.hull.equations[:, :-1]
        self._b = self.hull.equations[:, -1]
        if np.any(self._b >= 0):
            raise DomainError("the origin must be interior to the polytope")

    def _check_symmetry(self):
        v = self.vertices
        tol = _SYM_TOL * max(np.abs(v).max(), 1.0)
        # every vertex needs a negated partner: min_j |v_i + v_j| <= tol,
        # compared a block of vertices at a time
        step = max(1, _DEDUPE_BLOCK_ELEMS // v.size)
        for start in range(0, len(v), step):
            if np.any(np.abs(v[start:start + step, None] + v).max(axis=2).min(axis=1) > tol):
                raise DomainError("vertex list is not centrally symmetric")

    def contains(self, xs: np.ndarray) -> np.ndarray:
        return np.all(xs @ self._A.T + self._b <= _SYM_TOL, axis=1)

    def support(self, xi: np.ndarray) -> float:
        return float(np.max(self.vertices @ xi))

    def exact_volume(self) -> float:
        if self.dim > 3:
            raise UnsupportedMethodError("exact polytope volume is limited to dim <= 3")
        return float(self.hull.volume)

    def polar(self) -> "Polytope":
        # facet (a . x <= h, h > 0) of the body <-> vertex a/h of the polar
        verts = -self._A / self._b[:, None]
        return Polytope(_dedupe_rows(verts))

    def describe(self) -> str:
        return f"polytope(dim={self.dim},k={len(self.vertices)})"


def _dedupe_rows(rows: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Drop each row within tol*(1 + max|o|) (in max norm) of an earlier kept row o."""
    f, dim = rows.shape
    thresh = tol * (1 + np.abs(rows).max(axis=1))
    keep = np.ones(f, dtype=bool)
    # rows are compared a block at a time with every earlier row, so the
    # difference array stays O(f * dim) for each block
    step = max(1, _DEDUPE_BLOCK_ELEMS // (f * dim))
    for start in range(0, f, step):
        stop = min(start + step, f)
        near = (np.abs(rows[start:stop, None, :] - rows[None, :stop, :]).max(axis=2)
                <= thresh[None, :stop])
        near &= np.arange(stop)[None, :] < np.arange(start, stop)[:, None]
        # greedy in row order: only a kept earlier row can absorb a later one
        for j in start + np.flatnonzero(near.any(axis=1)):
            keep[j] = not np.any(near[j - start] & keep[:stop])
    return rows[keep]


class Ellipsoid(ConvexBody):
    def __init__(self, axes):
        a = np.asarray(axes, dtype=np.float64)
        if a.ndim != 1 or a.size == 0 or not np.all(np.isfinite(a) & (a > 0)):
            raise ParameterError(f"semi-axes must be finite positive reals, got {axes}")
        self.dim = len(a)
        self.semi_axes = a

    def contains(self, xs: np.ndarray) -> np.ndarray:
        return ((xs / self.semi_axes) ** 2).sum(axis=1) <= 1.0 + _SYM_TOL

    def support(self, xi: np.ndarray) -> float:
        # a scaled norm: squaring a coordinate would overflow past about 1e154
        return float(np.hypot.reduce(xi * self.semi_axes, initial=0.0))

    def exact_volume(self) -> float:
        with np.errstate(over="ignore", under="ignore"):  # volume() refuses 0 and inf
            return unit_ball_volume(self.dim) * float(np.prod(self.semi_axes))

    def polar(self) -> "Ellipsoid":
        return Ellipsoid(1.0 / self.semi_axes)

    def describe(self) -> str:
        return f"ellipsoid(axes={tuple(self.semi_axes.tolist())})"


class LpBall(ConvexBody):
    def __init__(self, dim: int = 2, p: float = 2.0):
        if dim < 1:
            raise ParameterError(f"dimension must be positive, got {dim}")
        if not p >= 1.0:
            raise ParameterError(f"p-ball needs p >= 1, got {p}")
        self.dim = int(dim)
        self.p = float(p)

    def contains(self, xs: np.ndarray) -> np.ndarray:
        a = np.abs(xs)
        if math.isinf(self.p):
            return a.max(axis=1) <= 1.0 + _SYM_TOL
        return (a ** self.p).sum(axis=1) <= 1.0 + _SYM_TOL

    def support(self, xi: np.ndarray) -> float:
        # support of the p-ball is the dual q-norm
        q = _conjugate(self.p)
        a = np.abs(xi)
        if math.isinf(q):
            return float(a.max())
        return float((a ** q).sum() ** (1.0 / q))

    def exact_volume(self) -> float:
        return lp_ball_volume(self.dim, self.p)

    def polar(self) -> "LpBall":
        return LpBall(self.dim, _conjugate(self.p))

    def describe(self) -> str:
        return f"lp-ball(dim={self.dim},p={self.p})"


def _conjugate(p: float) -> float:
    if p == 1.0:
        return math.inf
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


def volume(body: ConvexBody, method: str = "exact", n: int = 200_000,
           seed: int = 0) -> VolumeEstimate:
    """Lebesgue volume of the body.

    ``method="exact"`` uses the closed form or facet decomposition and raises
    UnsupportedMethodError where none exists; ``method="monte-carlo"`` does
    rejection sampling in the support bounding box with ``n`` samples and
    reports the binomial standard error.
    """
    if method == "exact":
        return VolumeEstimate(body.exact_volume(), 0.0, 0)
    if method != "monte-carlo":
        raise ParameterError(f"unknown volume method {method!r}")
    if n < 1:
        raise ParameterError(f"need at least one sample, got {n}")
    half = np.asarray([body.support(e) for e in np.eye(body.dim)])
    box = float(np.prod(2.0 * half))
    hits = 0
    for m, rng in chunked(seed, n, (0xB0D7,)):
        xs = rng.uniform(-half, half, size=(m, body.dim))
        hits += int(body.contains(xs).sum())
    p_hat = hits / n
    se = box * math.sqrt(max(p_hat * (1.0 - p_hat), 1.0 / n) / n)
    return VolumeEstimate(box * p_hat, se, n)


@dataclass(frozen=True)
class MahlerReport:
    value: float
    std_error: float
    lower_bound: float
    upper_bound: float
    #: the bounds widened by three combined standard errors, the interval checked
    checked: tuple[float, float]

    @property
    def ok(self) -> bool:
        return self.checked[0] <= self.value <= self.checked[1]


def mahler(body: ConvexBody, method: str = "exact", n: int = 200_000,
           seed: int = 0) -> MahlerReport:
    """Mahler volume vol(body) * vol(polar) with the classical two-sided bounds.

    Violations are flagged only beyond three combined standard errors, so the
    exact path flags any true violation.
    """
    v1 = volume(body, method, n, seed)
    v2 = volume(body.polar(), method, n, seed + 1)
    value = v1.value * v2.value
    # first-order error propagation for the product
    se = math.hypot(v1.std_error * v2.value, v2.std_error * v1.value)
    n_dim = body.dim
    eps_n = unit_ball_volume(n_dim)
    lower = eps_n ** 2 / n_dim ** (n_dim / 2.0)
    upper = eps_n ** 2
    return MahlerReport(
        value=value,
        std_error=se,
        lower_bound=lower,
        upper_bound=upper,
        checked=(lower - 3.0 * se - _SYM_TOL, upper + 3.0 * se + _SYM_TOL),
    )


@dataclass(frozen=True)
class DensityPair:
    busemann: float
    holmes_thompson: float
    ratio: float
    ratio_std_error: float


def densities(body: ConvexBody, method: str = "exact", n: int = 200_000,
              seed: int = 0) -> DensityPair:
    """Both volume densities of the norm with unit ball ``body``."""
    v = volume(body, method, n, seed)
    eps_n = unit_ball_volume(body.dim)
    busemann = eps_n / v.value
    # its relative error is v's; squaring v would leave the float range
    f = VolumeEstimate(busemann, busemann * (v.std_error / v.value), v.n_samples)
    v = volume(body.polar(), method, n, seed + 1)
    g = VolumeEstimate(v.value / eps_n, v.std_error / eps_n, v.n_samples)
    ratio = f.value / g.value
    se = ratio * math.hypot(f.std_error / f.value, g.std_error / g.value)
    return DensityPair(f.value, g.value, ratio, se)


def random_symmetric_polytope(dim: int, seed: int, k_min: int = 4, k_max: int = 40) -> Polytope:
    """Symmetrized convex hull of k uniform sphere points, k in [k_min, k_max]."""
    rng = substream(seed, 0x7017)
    k = int(rng.integers(k_min, k_max + 1))
    g = rng.normal(size=(k, dim))
    g /= np.sqrt((g * g).sum(axis=1))[:, None]
    return Polytope(np.vstack([g, -g]))
