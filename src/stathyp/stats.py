"""Monte Carlo estimators over model geometries.

Spread statistics over spheres, annuli, and balls; thickness fractions along
geodesics and rays; fellow-traveling (separation) fractions; thin-triangle
probes; and the nearest-net-point discretizer that turns geodesics into
sample paths.

Estimators are deterministic functions of ``(inputs, seed)``: all randomness
flows through the chunked substreams of :mod:`stathyp.rng`, and accumulation
is done per chunk with an exactly rounded final sum, so results are
bit-reproducible regardless of worker count.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CoverageError, DomainError, ParameterError, UnsupportedMethodError
from .rng import chunked
from .spaces import EuclideanSpace, HyperbolicPlane, ModelSpace
from .spaces.hyperbolic import _ray_direction
from .spaces.nets import _GRID_TOL, Net, _time_grid, build_net

_TRIANGLE_KEY = 0x7A1
_TRIANGLE_ROUNDS = 64
_DISCRETIZE_KEY = 0xD15


def _fmt_point(p) -> str:
    if isinstance(p, np.ndarray):
        return repr(tuple(float(v) for v in p))
    if isinstance(p, tuple):
        return "(" + ",".join(_fmt_point(q) for q in p) + ")"
    return repr(p)


def config_digest(**fields) -> str:
    """Short stable digest of an estimator configuration."""
    blob = "|".join(f"{k}={v}" for k, v in sorted(fields.items()))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class EstimateResult:
    """Monte Carlo outcome for a normalized-distance estimate."""

    mean: float
    std_error: float
    config_digest: str


def estimate_spread(space: ModelSpace, x, r: float, k: float, n: int,
                    seed: int) -> EstimateResult:
    """Average normalized distance d(y, z) / r over sampled pairs.

    ``k`` selects the sampling set: 0 for the sphere of radius ``r``, a value
    in (0, r) for the annular shell [r-k, r], and ``k = r`` for the ball.
    Radii follow the exp(h*s) weight of the model; pairs are ordered and
    independent, so on atomic models the diagonal y = z occurs with its
    natural frequency.  The triangle inequality forces the mean into [0, 2].
    """
    space.validate_point(x)
    if r <= 0:
        raise ParameterError(f"radius must be positive, got {r}")
    if not (0 <= k <= r):
        raise ParameterError(f"shell width must lie in [0, r], got {k}")
    if n < 10:
        raise ParameterError(f"need at least 10 pairs, got {n}")
    s1_parts, s2_parts = [], []
    # keys: directions of y and z, then radii of y and z
    for m, dir_y, dir_z, rad_y, rad_z in chunked(seed, n, (0,), (1,), (2,), (3,)):
        by = space.rays_chunk(x, m, dir_y, horizon=r)
        ty = space.sample_radii(rad_y, m, r, k)
        bz = space.rays_chunk(x, m, dir_z, horizon=r)
        tz = space.sample_radii(rad_z, m, r, k)
        q = space.ray_pair_distances(by, ty, bz, tz)
        q /= r
        s1_parts.append(float(q.sum()))
        q *= q
        s2_parts.append(float(q.sum()))
    s1 = math.fsum(s1_parts)
    s2 = math.fsum(s2_parts)
    mean = s1 / n
    var = max(s2 - n * mean * mean, 0.0) / max(n - 1, 1)
    if not -1e-9 <= mean <= 2.0 + 1e-9:
        raise DomainError(f"normalized mean {mean} escaped [0, 2]; metric is broken")
    digest = config_digest(op="spread", space=space.describe(), x=_fmt_point(x),
                           r=r, k=k, n=n, seed=seed)
    return EstimateResult(mean=mean, std_error=math.sqrt(var / n), config_digest=digest)


# ---------------------------------------------------------------------------
# Thickness statistics
# ---------------------------------------------------------------------------

def thick_stat(space: ModelSpace, x, y, eps: float, dt: float) -> float:
    """Fraction of time the segment [x, y] spends in the eps-thick part: the
    ray from ``x`` through ``y`` walked for d(x, y), on the grid of
    ``ray_thick_fraction_many``."""
    if dt <= 0:
        raise ParameterError(f"grid step must be positive, got {dt}")
    space.check_eps(eps)
    d = space.distance(x, y)
    if d == 0.0:
        raise DomainError("thick_stat needs a nondegenerate segment")
    if not space.has_thin_part:
        return 1.0
    if not isinstance(space, HyperbolicPlane):   # the walker's rays are upper half-plane rays
        raise UnsupportedMethodError(f"the {space.kind} model has no ray walker")
    phi = _ray_direction(complex(x), complex(y))
    return float(_thick_fractions(space, x, np.array([phi]), np.array([d]), eps, dt)[0])


def ray_thick_fraction_many(space: ModelSpace, x, length: float, eps: float,
                            dt: float, n: int, seed: int) -> np.ndarray:
    """Thickness fractions of ``n`` independent random rays.

    Quadrature on the grid {0, dt, 2 dt, ...} with a midpoint rule on the
    final partial step, within dt / length of the exact fraction.  The thin
    grid times are counted per cusp excursion (``RayWalker.excursions``), so
    the length may be arbitrarily large.  Ray ``j``'s fraction depends only
    on ``(seed, j, length, eps, dt)``.
    """
    if length <= 0:
        raise ParameterError(f"ray length must be positive, got {length}")
    if dt <= 0:
        raise ParameterError(f"grid step must be positive, got {dt}")
    if n < 1:
        raise ParameterError(f"need at least one ray, got {n}")
    space.check_eps(eps)
    space.validate_point(x)
    if not space.has_thin_part:
        return np.ones(n)
    out = []
    for m_chunk, rng in chunked(seed, n, (0,)):
        phis = rng.uniform(0.0, math.pi, size=m_chunk)
        out.append(_thick_fractions(space, x, phis, np.full(m_chunk, float(length)), eps, dt))
    return np.concatenate(out)


def _thick_fractions(space, x, phis, lengths, eps: float, dt: float) -> np.ndarray:
    """Thickness fractions of the rays from ``x`` (one point, or one per ray)
    with directions ``phis`` and ``lengths``."""
    grid = _RayGrid(lengths, dt)
    for _ in grid.thin_runs(space, x, phis, eps):
        pass
    return grid.fractions()


class _RayGrid:
    """The quadrature grid of rays of ``lengths``: ray ``j`` has the ``m[j]``
    grid times 0, dt, ..., (m[j]-1) dt and then a final partial step of
    length ``p[j]``, weighed by its midpoint; a ray with no grid time
    (m = 0) is all partial step, however short.  Grids of 2^53 steps or
    more, which no float counts, raise.

    ``thin_runs`` reads the thin grid times off the rays' cusp excursions and
    keeps the running count ``thin`` and the midpoint flags; ``fractions``
    then gives each ray's thick fraction."""

    def __init__(self, lengths: np.ndarray, dt: float):
        steps = (lengths + _GRID_TOL) // dt
        if not np.all(steps < 2.0 ** 53):
            raise ParameterError(f"a ray of length {float(np.max(lengths))!r} has 2^53 or "
                                 f"more grid steps of dt={dt!r}")
        self.lengths, self.dt = lengths, dt
        self.m = steps.astype(np.int64)
        self.p = lengths - self.m * dt
        self.thin = np.zeros(len(lengths))   # thin grid times below m, so far
        self.here = (self.p > _GRID_TOL) | (self.m == 0)   # rays with a midpoint
        self._mid_t = self.m * dt + 0.5 * self.p
        self._mid_thin = np.zeros(len(lengths), dtype=bool)

    def thin_runs(self, space, x, phis, eps: float):
        """Thin grid times of the rays, one run per cusp excursion.

        Yields ``(first, last, runs, cum)`` per batch of
        ``RayWalker.excursions``: row ``i`` of ray ``j`` holds its grid times
        ``k*dt``, ``k < m[j]``, with ``first <= k <= last``, ``runs`` of them
        (0 where ``last < first``), and ``cum`` counts the thin grid times of
        the runs up to row ``i``.  Rows are in time order per ray, and ``thin``
        is the last row of ``cum``.  Grid time 0 is the basepoint, thin by
        its own reduced height alone: at eps = 1 the basepoint i touches two
        horoballs, and rounding can put 0 inside either interval.
        """
        walker = space.ray_walker(x, phis, eps)
        first_thin = np.where(space.thick_many(np.atleast_1d(x), eps), 1.0, 0.0)
        t = self._mid_t
        for lo, hi in walker.excursions(self.lengths):
            first = np.maximum(np.floor(lo / self.dt) + 1.0, first_thin)
            last = np.minimum(np.ceil(hi / self.dt) - 1.0, self.m - 1)
            runs = np.maximum(last - first + 1.0, 0.0)
            cum = np.cumsum(runs, axis=0)
            cum += self.thin
            self.thin = cum[-1]
            self._mid_thin |= ((lo < t) & (t < hi)).any(axis=0)
            yield first, last, runs, cum

    def mid_thick(self) -> np.ndarray:
        """Thickness at the midpoints of the final partial steps, once the
        runs are read; False for rays with no partial step."""
        return self.here & ~self._mid_thin

    def fractions(self) -> np.ndarray:
        """Thick time over length, once the runs are read."""
        return (self.dt * (self.m - self.thin) + self.p * self.mid_thick()) / self.lengths


def p1_fraction(space: ModelSpace, x, r: float, k: float, eps: float,
                theta: float, sigma: float, n: int, dt: float, seed: int) -> float:
    """Fraction of sampled shell points whose ray stays statistically thick.

    Shell point ``j`` lies at distance ``l_j`` along a uniform ray, with
    ``l_j`` drawn from the shell [r-k, r] by ``space.sample_radii`` (so
    ``k = 0`` is the sphere).  It passes when the running thickness fraction
    of its ray is at least ``theta`` at every grid time t in
    [sigma * l_j, l_j], and at ``l_j`` itself (midpoint rule on the final
    partial step).

    The running fraction at grid time J*dt counts the thick grid times below
    J.  It rises on thick stretches and falls only on thin ones, so its
    minimum over J in [j_lo, m] is read at J = j_lo, at J = m and just past
    each run of thin grid times.
    """
    space.validate_point(x)
    if not (0 < sigma < 1):
        raise ParameterError(f"sigma must lie in (0, 1), got {sigma}")
    if not (0 < theta < 1):
        raise ParameterError(f"theta must lie in (0, 1), got {theta}")
    if r <= 0 or not (0 <= k <= r):
        raise ParameterError(f"bad radii r={r}, k={k}")
    if dt <= 0:
        raise ParameterError(f"grid step must be positive, got {dt}")
    if n < 1:
        raise ParameterError(f"need at least one sample, got {n}")
    space.check_eps(eps)
    if not space.has_thin_part:
        return 1.0
    low = theta - _GRID_TOL
    good_parts = []
    # keys: directions, then shell radii
    for m_chunk, rng, rng_rad in chunked(seed, n, (0,), (1,)):
        phis = rng.uniform(0.0, math.pi, size=m_chunk)
        lengths = space.sample_radii(rng_rad, m_chunk, r, k)
        grid = _RayGrid(lengths, dt)
        j_lo = np.maximum(1, np.ceil(sigma * lengths / dt - _GRID_TOL))
        ok = np.ones(m_chunk, dtype=bool)
        thin_lo = np.zeros(m_chunk)   # thin grid times below j_lo
        for first, last, runs, cum in grid.thin_runs(space, x, phis, eps):
            # the running fraction just past each run, judged from j_lo on
            past = last + 1.0
            with np.errstate(invalid="ignore", divide="ignore"):
                fall = (past - cum) / past < low
            ok &= ~((runs > 0.0) & (past >= j_lo) & fall).any(axis=0)
            thin_lo += np.maximum(np.minimum(last, j_lo - 1.0) - first + 1.0, 0.0).sum(axis=0)
            del first, last, runs, cum   # free before the next batch is built
        with np.errstate(invalid="ignore", divide="ignore"):
            judged = j_lo <= grid.m
            ok &= ~(judged & ((j_lo - thin_lo) / j_lo < low))
            ok &= ~(judged & ((grid.m - grid.thin) / grid.m < low))
        ok &= ~grid.here | (grid.fractions() >= low)
        good_parts.append(float(ok.sum()))
    return math.fsum(good_parts) / n


# ---------------------------------------------------------------------------
# Separation statistics
# ---------------------------------------------------------------------------

def separation_fraction(space: ModelSpace, x, r: float, t: float, m0: float,
                        n: int, seed: int, stream: int = 0) -> float:
    """Fraction of sampled sphere pairs still within m0 of each other at time t."""
    space.validate_point(x)
    if not (0 <= t <= r):
        raise ParameterError(f"time must lie in [0, r], got t={t}, r={r}")
    if m0 <= 0:
        raise ParameterError(f"m0 must be positive, got {m0}")
    if n < 1:
        raise ParameterError(f"need at least one sample, got {n}")
    hit_parts = []
    for m, rng_y, rng_z in chunked(seed, n, (0, stream), (1, stream)):
        by = space.rays_chunk(x, m, rng_y, horizon=r)
        bz = space.rays_chunk(x, m, rng_z, horizon=r)
        d = space.ray_pair_distances(by, t, bz, t)
        hit_parts.append(float((d < m0).sum()))
    return math.fsum(hit_parts) / n


def separation_profile(space: ModelSpace, x, r: float, ts: Sequence[float],
                       m0: float, n: int, seed: int) -> list[float]:
    """separation_fraction at each time, with independent per-time streams."""
    return [separation_fraction(space, x, r, float(t), m0, n, seed, stream=i)
            for i, t in enumerate(ts)]


def fit_log_slope(ts: Sequence[float], values: Sequence[float]) -> float:
    """Least-squares slope of log(values) against ts, ignoring zeros.

    Zero counts carry no log information, so empty-fraction entries are
    dropped from the fit.
    """
    ts = np.asarray(ts, dtype=np.float64)
    vals = np.asarray(values, dtype=np.float64)
    mask = vals > 0
    if mask.sum() < 2:
        raise ParameterError("need at least two positive values to fit a slope")
    t, y = ts[mask], np.log(vals[mask])
    slope = np.polyfit(t, y, 1)[0]
    return float(slope)


def decay_fit_report(ts: Sequence[float], values: Sequence[float]) -> dict:
    """Compare exponential (log y ~ t) and power-law (log y ~ log t) fits.

    Returns slopes and residual sums of squares for both models on the
    positive entries.
    """
    ts = np.asarray(ts, dtype=np.float64)
    vals = np.asarray(values, dtype=np.float64)
    mask = vals > 0
    if mask.sum() < 3 or np.any(ts[mask] <= 0):
        raise ParameterError("need at least three positive values at positive times")
    t, y = ts[mask], np.log(vals[mask])

    def _fit(xcoord):
        coef = np.polyfit(xcoord, y, 1)
        resid = y - np.polyval(coef, xcoord)
        return float(coef[0]), float((resid * resid).sum())

    exp_slope, exp_sse = _fit(t)
    pow_slope, pow_sse = _fit(np.log(t))
    return {
        "exp_slope": exp_slope,
        "exp_sse": exp_sse,
        "power_slope": pow_slope,
        "power_sse": pow_sse,
        "n_used": int(mask.sum()),
    }


# ---------------------------------------------------------------------------
# Thin-triangle probes
# ---------------------------------------------------------------------------

def thin_triangle_probe(space: ModelSpace, x, y, z, interval,
                        c: float) -> tuple[bool, float]:
    """Does the subinterval of [x, y] come within c of the other two sides?

    Reports the least distance from the subinterval to the sides [x, z] and
    [y, z], read at its two ends (``_side_minima``).  This is the kernel of
    ``thin_triangle_sample`` on one triangle.
    """
    s1, s2 = interval
    d_xy = space.distance(x, y)
    if d_xy == 0.0:
        raise DomainError("degenerate triangle side [x, y]")
    if not (0.0 <= s1 < s2 <= d_xy + _GRID_TOL):
        raise ParameterError(f"interval ({s1}, {s2}) must sit inside [0, {d_xy}]")
    if space.distance(x, z) == 0.0 or space.distance(y, z) == 0.0:
        raise DomainError("degenerate triangle side through z")
    best = float(_side_minima(space, space.singleton(x), space.singleton(y),
                              space.singleton(z), [s1], [min(s2, d_xy)])[0])
    return best <= c, best


def _sample_triangles(space: ModelSpace, x, r: float, n: int, seed: int):
    """Corners ``(Y, Z)``, two batches of ``n`` points, of triangles x y z
    whose sides are all at least ``r``.

    Corners lie at radii in [r, 1.25 r] along uniform rays from ``x``.
    Rejection round ``rho`` draws every chunk afresh from its own keys, and
    row ``j`` keeps its first round with d(y, z) >= r, so it depends on
    ``(seed, j)`` alone.
    """
    rows, ys, zs = [], [], []
    pending = np.ones(n, dtype=bool)
    for rho in range(_TRIANGLE_ROUNDS):
        start = 0
        for m, rng_dir, rng_rad in chunked(seed, n, (_TRIANGLE_KEY, rho, 0),
                                           (_TRIANGLE_KEY, rho, 1)):
            todo = np.flatnonzero(pending[start:start + m])
            if len(todo):
                # rays 2j and 2j + 1 carry row j
                pts = space.rays_chunk(x, 2 * m, rng_dir, horizon=1.5 * r).points_at(
                    r + 0.25 * r * rng_rad.uniform(size=2 * m))
                y = space.batch_take(pts, 2 * todo)
                z = space.batch_take(pts, 2 * todo + 1)
                keep = np.flatnonzero(space.distance_many(y, z) >= r)
                rows.append(start + todo[keep])
                ys.append(space.batch_take(y, keep))
                zs.append(space.batch_take(z, keep))
                pending[start + todo[keep]] = False
            start += m
        if not pending.any():
            order = np.argsort(np.concatenate(rows))
            return (space.batch_take(space.batch_concat(ys), order),
                    space.batch_take(space.batch_concat(zs), order))
    raise DomainError(f"could not sample a triangle with all sides >= r "
                      f"in {_TRIANGLE_ROUNDS} rounds")


def _side_minima(space: ModelSpace, X, Y, Z, lo, hi) -> np.ndarray:
    """Least distance from the stretch [lo_j, hi_j] of the side [x, Y_j] to
    the other two sides [x, Z_j] and [Y_j, Z_j] of each triangle, where
    ``X`` is the one-row batch of ``x``.

    Along [x, y] the distance to [x, z] is convex and 0 at x, so it never
    falls, and the distance to [y, z] is convex and 0 at y, so it never
    rises: the distance to a convex set is convex along geodesics in CAT(0)
    and normed spaces (Bridson-Haefliger, Prop. II.2.5), and in their
    sup-products factor by factor.  So the least distance is the smaller of
    d(lo_j, [x, Z_j]) and d(hi_j, [Y_j, Z_j])."""
    return np.minimum(space.distance_to_segment(space.geodesic_points(X, Y, lo), X, Z),
                      space.distance_to_segment(space.geodesic_points(X, Y, hi), Y, Z))


def thin_triangle_sample(space: ModelSpace, x, r: float, n: int, c: float,
                         seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``(hits, minima)`` of ``thin_triangle_probe`` on ``n`` random triangles
    x y z with all sides at least ``r``, probed on the middle third of [x, y]
    all at once (``_side_minima``).  Triangle ``j`` depends only on
    ``(seed, j)``.
    """
    if n < 1:
        raise ParameterError(f"need at least one triangle, got {n}")
    Y, Z = _sample_triangles(space, x, r, n, seed)
    X = space.singleton(x)
    d_xy = space.distance_many(X, Y)
    minima = _side_minima(space, X, Y, Z, d_xy / 3.0, 2.0 * d_xy / 3.0)
    return minima <= c, minima


# ---------------------------------------------------------------------------
# Geodesic discretization
# ---------------------------------------------------------------------------

def discretize_geodesic(space: ModelSpace, net: Net, tau: float, segment: tuple):
    """Snap marks spaced tau - 2c along the segment to nearest net points;
    the batch of those net points, one per mark, is the sample path.

    Requires tau > 4c.  Raises CoverageError when a mark has no net point
    within 2c or when snapping breaks the tau step bound (possible only for
    nets substantially sparser than the ones built by ``build_net``).
    """
    x, y = segment
    c = net.c
    if tau <= 4.0 * c:
        raise ParameterError(f"need tau > 4c, got tau={tau}, c={c}")
    times = _time_grid(0.0, space.distance(x, y), tau - 2.0 * c)
    marks = space.geodesic_points(space.singleton(x), space.singleton(y), times)
    idx, dist = net.nearest(space, marks)
    far = dist > 2.0 * c + _GRID_TOL
    if far.any():
        i = int(far.argmax())
        raise CoverageError(
            f"net does not cover the segment: mark at time {times[i]:.6g} "
            f"is {dist[i]:.6g} from the net (> 2c = {2 * c:.6g})")
    pts = space.batch_take(net.points, idx)
    gaps = space.distance_many(space.batch_take(pts, slice(None, -1)),
                               space.batch_take(pts, slice(1, None)))
    wide = gaps > tau + _GRID_TOL
    if wide.any():
        raise CoverageError(f"net too sparse: consecutive path points "
                            f"{gaps[wide.argmax()]:.6g} > tau = {tau:.6g}")
    return pts


def discretize_sample(r: float, n: int, tau: float, c: float,
                      seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``(failed, points)`` of ``discretize_geodesic`` on ``n`` random
    segments, each with its own net of separation ``c``.

    Segment ``j`` has a uniform length L in [r/2, r] and depends only on
    ``(seed, j)``.  Its net points and marks lie on a geodesic, an isometric
    copy of [0, L], so it is discretized as [0, L] on the line, in every
    model.  ``failed[j]`` says its discretization raised a CoverageError (a
    coverage or step violation); ``points[j]`` is its path's point count, 0
    where it failed.  A ``tau`` of at most 4c raises, as in
    ``discretize_geodesic``.
    """
    if n < 1:
        raise ParameterError(f"need at least one segment, got {n}")
    line = EuclideanSpace(1)
    origin = line.basepoint()
    ends = np.concatenate([r * (0.5 + 0.5 * rng_len.uniform(size=(m, 1)))
                           for m, rng_len in chunked(seed, n, (_DISCRETIZE_KEY, 1))])
    failed, points = np.zeros(n, dtype=bool), np.zeros(n, dtype=np.int64)
    for j, end in enumerate(ends):
        net = build_net(line, origin, end, c)
        try:
            points[j] = len(discretize_geodesic(line, net, tau, (origin, end)))
        except CoverageError:
            failed[j] = True
    return failed, points
