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
from typing import Any, Sequence

import numpy as np

from .errors import CoverageError, DomainError, ParameterError
from .rng import chunked, deterministic_sum
from .spaces.base import ModelSpace
from .spaces.nets import Net

_GRID_TOL = 1e-12


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
    n_pairs: int
    radius: float
    shell: float     # 0 for spheres, k for annuli, r for balls
    seed: int
    config_digest: str


@dataclass(frozen=True)
class SamplePath:
    """Nearest-net discretization of a geodesic segment."""

    points: Any      # model batch
    tau: float
    c: float


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
        q = space.ray_pair_distances(by, ty, bz, tz) / r
        s1_parts.append(float(q.sum()))
        s2_parts.append(float((q * q).sum()))
    s1 = deterministic_sum(s1_parts)
    s2 = deterministic_sum(s2_parts)
    mean = s1 / n
    var = max(s2 - n * mean * mean, 0.0) / max(n - 1, 1)
    if not -1e-9 <= mean <= 2.0 + 1e-9:
        raise DomainError(f"normalized mean {mean} escaped [0, 2]; metric is broken")
    digest = config_digest(op="spread", space=space.describe(), x=_fmt_point(x),
                           r=r, k=k, n=n, seed=seed)
    return EstimateResult(mean=mean, std_error=math.sqrt(var / n), n_pairs=n,
                          radius=float(r), shell=float(k), seed=seed,
                          config_digest=digest)


# ---------------------------------------------------------------------------
# Thickness statistics
# ---------------------------------------------------------------------------

def thick_stat(space: ModelSpace, x, y, eps: float, dt: float) -> float:
    """Fraction of time the segment [x, y] spends in the eps-thick part.

    Quadrature on the grid {0, dt, 2 dt, ...} with a midpoint rule on the
    final partial step; the error is at most dt / d(x, y) because thickness
    boundaries are crossed at unit speed.
    """
    if dt <= 0:
        raise ParameterError(f"grid step must be positive, got {dt}")
    if eps <= 0:
        raise ParameterError(f"eps must be positive, got {eps}")
    d = space.distance(x, y)
    if d == 0.0:
        raise DomainError("thick_stat needs a nondegenerate segment")
    if not space.has_thin_part:
        return 1.0
    m = int((d + _GRID_TOL) // dt)
    times = np.arange(m) * dt
    p = d - m * dt
    if p > _GRID_TOL:
        times = np.append(times, m * dt + 0.5 * p)
    flags = space.thick_many(space.geodesic_points(x, y, times), eps)
    thick_time = dt * float(flags[:m].sum())
    if p > _GRID_TOL:
        thick_time += p * float(flags[-1])
    return thick_time / d


def ray_thick_fraction(space: ModelSpace, x, length: float, eps: float,
                       dt: float, seed: int) -> float:
    """Thickness fraction of a single random ray of the given length.

    The ray direction is drawn uniformly from ``seed``; the walk is carried
    in renormalized frame coordinates so the length may be arbitrarily large.
    """
    return float(ray_thick_fraction_many(space, x, length, eps, dt, 1, seed)[0])


def ray_thick_fraction_many(space: ModelSpace, x, length: float, eps: float,
                            dt: float, n: int, seed: int) -> np.ndarray:
    """Thickness fractions of ``n`` independent random rays."""
    if length <= 0:
        raise ParameterError(f"ray length must be positive, got {length}")
    if dt <= 0:
        raise ParameterError(f"grid step must be positive, got {dt}")
    if n < 1:
        raise ParameterError(f"need at least one ray, got {n}")
    space.validate_point(x)
    if not space.has_thin_part:
        return np.ones(n)
    out = []
    for m_chunk, rng in chunked(seed, n, (0,)):
        phis = rng.uniform(0.0, math.pi, size=m_chunk)
        flags, partial, p, _ = _walk_thick_flags(space, x, phis, length, eps, dt)
        thick_time = dt * flags.sum(axis=1, dtype=np.float64)
        if partial is not None:
            thick_time += p * partial
        out.append(thick_time / length)
    return np.concatenate(out)


def _walk_thick_flags(space, x, phis, total: float, eps: float, dt: float):
    """Thickness indicators along rays at grid times 0, dt, ..., (m-1) dt,
    plus the midpoint indicator of the final partial step of length p."""
    t0 = 1.0 / (eps * eps)
    walker = space.ray_walker(x, phis)
    m = int((total + _GRID_TOL) // dt)
    flags = np.empty((len(phis), m), dtype=bool)
    _, ypos = walker.position()
    for j in range(m):
        flags[:, j] = ypos <= t0
        _, ypos = walker.step(dt)
    p = total - m * dt
    partial = None
    if p > _GRID_TOL:
        _, ypos = walker.step(0.5 * p)
        partial = ypos <= t0
    return flags, partial, p, m


def p1_fraction(space: ModelSpace, x, r: float, k: float, eps: float,
                theta: float, sigma: float, n: int, dt: float, seed: int) -> float:
    """Fraction of sampled shell points whose ray stays statistically thick.

    A ray passes when its running thickness fraction is at least ``theta`` at
    every grid time t in [sigma * r, r].
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
    if not space.has_thin_part:
        return 1.0
    j_lo = max(1, int(math.ceil(sigma * r / dt - _GRID_TOL)))
    j_hi = int((r + _GRID_TOL) // dt)
    good_parts = []
    for m_chunk, rng in chunked(seed, n, (0,)):
        phis = rng.uniform(0.0, math.pi, size=m_chunk)
        flags, partial, p, m = _walk_thick_flags(space, x, phis, r, eps, dt)
        cum = np.cumsum(flags, axis=1, dtype=np.float64)
        ratios = cum[:, j_lo - 1:j_hi] / np.arange(j_lo, j_hi + 1, dtype=np.float64)
        ok = np.all(ratios >= theta - _GRID_TOL, axis=1)
        if partial is not None:
            frac_r = (cum[:, m - 1] * dt + p * partial) / r
            ok &= frac_r >= theta - _GRID_TOL
        good_parts.append(float(ok.sum()))
    return deterministic_sum(good_parts) / n


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
    return deterministic_sum(hit_parts) / n


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

def _time_grid(a: float, b: float, ds: float) -> np.ndarray:
    ts = np.arange(a, b, ds)
    if len(ts) == 0 or b - ts[-1] > _GRID_TOL:
        ts = np.append(ts, b)
    return ts


def thin_triangle_probe(space: ModelSpace, x, y, z, interval, c: float,
                        ds: float) -> tuple[bool, float]:
    """Does the subinterval of [x, y] come within c of the other two sides?

    Grids all three sides at step ``ds`` and reports the minimum grid-to-grid
    distance, an upper bound on the true minimum with error at most ds (each
    geodesic is 1-Lipschitz in its time parameter).
    """
    s1, s2 = interval
    if ds <= 0:
        raise ParameterError(f"grid step must be positive, got {ds}")
    d_xy = space.distance(x, y)
    if d_xy == 0.0:
        raise DomainError("degenerate triangle side [x, y]")
    if not (0.0 <= s1 < s2 <= d_xy + _GRID_TOL):
        raise ParameterError(f"interval ({s1}, {s2}) must sit inside [0, {d_xy}]")
    d_xz = space.distance(x, z)
    d_yz = space.distance(y, z)
    if d_xz == 0.0 or d_yz == 0.0:
        raise DomainError("degenerate triangle side through z")
    pts_i = space.geodesic_points(x, y, _time_grid(s1, min(s2, d_xy), ds))
    side_a = space.geodesic_points(x, z, _time_grid(0.0, d_xz, ds))
    side_b = space.geodesic_points(y, z, _time_grid(0.0, d_yz, ds))
    min_a = space.cross_distance(pts_i, side_a).min(axis=1)
    min_b = space.cross_distance(pts_i, side_b).min(axis=1)
    best = float(np.minimum(min_a, min_b).min())
    return best <= c, best


# ---------------------------------------------------------------------------
# Geodesic discretization
# ---------------------------------------------------------------------------

def discretize_geodesic(space: ModelSpace, net: Net, tau: float,
                        segment: tuple) -> SamplePath:
    """Snap marks spaced tau - 2c along the segment to nearest net points.

    Requires tau > 4c.  Raises CoverageError when a mark has no net point
    within 2c or when snapping breaks the tau step bound (possible only for
    nets substantially sparser than the ones built by ``build_net``).
    """
    x, y = segment
    c = net.c
    if tau <= 4.0 * c:
        raise ParameterError(f"need tau > 4c, got tau={tau}, c={c}")
    d = space.distance(x, y)
    if d == 0.0:
        raise DomainError("degenerate segment")
    step = tau - 2.0 * c
    times = np.arange(0.0, d, step)
    if d - times[-1] > _GRID_TOL:
        times = np.append(times, d)
    marks = space.geodesic_points(x, y, times)
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
    return SamplePath(points=pts, tau=float(tau), c=float(c))
