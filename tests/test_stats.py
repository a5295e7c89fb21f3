"""Estimators: spread statistics, thickness, separation, probes, discretizer."""

import math
import os
import tracemalloc

import numpy as np
import pytest

from stathyp import rng, stats
from stathyp.errors import (CoverageError, DomainError, ParameterError,
                            UnsupportedMethodError)
from stathyp.rng import substream
from stathyp.spaces import (EuclideanSpace, HyperbolicPlane, ModularTorus,
                            Net, RegularTree, SupProduct, build_net,
                            thin_area_fraction)
from stathyp.spaces.hyperbolic import HyperbolicRays
from stathyp.spaces.nets import _GRID_TOL


def sup_plane():
    return SupProduct([EuclideanSpace(1), EuclideanSpace(1)])


def tree_exact_spread(tree: RegularTree, r: int) -> float:
    """Enumeration oracle: mean of d(y, z) / r over all ordered sphere pairs."""
    sphere = tree.sphere("", r)
    # string reference: both lengths minus twice the common prefix
    total = sum(len(y) + len(z) - 2 * len(os.path.commonprefix([y, z]))
                for y in sphere for z in sphere)
    return total / (len(sphere) ** 2 * r)


def tree_formula_spread(q: int, r: int) -> float:
    """Exact sphere spread of the q-regular tree: two walks from the root
    share their first j steps with probability (1/q)(q - 1)^(1 - j)."""
    return 2.0 - (2.0 / r) * sum((q - 1) ** (1 - j) / q for j in range(1, r + 1))


class TestTreePairs:
    """Tree spread and separation read where two walks part off their moves."""

    @pytest.mark.parametrize("q", [3, 4])
    def test_formula_matches_enumeration(self, q):
        for r in range(1, 6):
            assert tree_formula_spread(q, r) == pytest.approx(
                tree_exact_spread(RegularTree(q), r), rel=1e-12)

    @pytest.mark.parametrize("q,r", [(3, 100), (4, 60)])
    def test_spread_at_large_radius(self, q, r):
        res = stats.estimate_spread(RegularTree(q), "", float(r), 0.0, 40_000, seed=0)
        assert abs(res.mean - tree_formula_spread(q, r)) <= 4.0 * res.std_error

    def test_memory_without_label_rows(self):
        # with the label rows of points_at the peak was 31 MB
        tracemalloc.start()
        try:
            stats.estimate_spread(RegularTree(3), "", 20.0, 0.0, 65536, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 22e6

    def test_estimators_form_no_label_rows(self, monkeypatch):
        def no_rows(*args):
            raise AssertionError("label rows formed")
        monkeypatch.setattr("stathyp.spaces.tree._walk_points", no_rows)
        tree = RegularTree(3)
        assert 0.0 <= stats.estimate_spread(tree, "ab", 8.0, 4.0, 2000, seed=1).mean <= 2.0
        assert 0.0 <= stats.separation_fraction(tree, "ab", 8.0, 4.0, 2.0, 2000, seed=1) <= 1.0


class TestEstimateSpread:
    def test_mean_in_range_and_determinism(self):
        eu = EuclideanSpace(2)
        a = stats.estimate_spread(eu, eu.basepoint(), 1.0, 0.0, 5000, seed=1)
        b = stats.estimate_spread(eu, eu.basepoint(), 1.0, 0.0, 5000, seed=1)
        assert a == b
        assert 0.0 <= a.mean <= 2.0
        assert a.std_error > 0.0

    def test_euclidean_plane_value(self):
        eu = EuclideanSpace(2)
        res = stats.estimate_spread(eu, eu.basepoint(), 5.0, 0.0, 100_000, seed=2)
        assert abs(res.mean - 4.0 / math.pi) <= 3.0 * res.std_error

    def test_tree_exact_r2(self):
        tree = RegularTree(3)
        assert tree_exact_spread(tree, 2) == pytest.approx(1.5)
        res = stats.estimate_spread(tree, "", 2.0, 0.0, 40_000, seed=3)
        assert abs(res.mean - 1.5) <= 3.0 * res.std_error

    def test_tree_diagonal_included(self):
        # sphere r=1 has 3 points: 3 diagonal pairs (d=0), 6 cross pairs (d=2),
        # so the normalized mean is 12/9
        tree = RegularTree(3)
        assert tree_exact_spread(tree, 1) == pytest.approx(4.0 / 3.0)
        res = stats.estimate_spread(tree, "", 1.0, 0.0, 40_000, seed=4)
        assert abs(res.mean - 4.0 / 3.0) <= 3.0 * res.std_error

    def test_hyperbolic_growth(self):
        hyp = HyperbolicPlane()
        results = [stats.estimate_spread(hyp, 1j, r, 0.0, 20_000, seed=5)
                   for r in (10.0, 20.0, 40.0)]
        for lo, hi in zip(results, results[1:]):
            # increase at three combined standard errors
            assert hi.mean - lo.mean > 3.0 * math.hypot(lo.std_error, hi.std_error)
        assert results[2].mean > 1.9

    def test_scale_consistency(self):
        eu = EuclideanSpace(2)
        base = stats.estimate_spread(eu, eu.basepoint(), 3.0, 0.0, 20_000, seed=6)
        for lam in (0.5, 2.0):
            scaled = stats.estimate_spread(eu, eu.basepoint(), lam * 3.0, 0.0,
                                           20_000, seed=6)
            assert scaled.mean == pytest.approx(base.mean, abs=1e-12)

    def test_ball_and_annulus_forms(self):
        hyp = HyperbolicPlane()
        ball = stats.estimate_spread(hyp, 1j, 20.0, 20.0, 30_000, seed=7)
        ann = stats.estimate_spread(hyp, 1j, 20.0, 5.0, 30_000, seed=8)
        assert abs(ball.mean - ann.mean) <= 0.02 + 3.0 * math.hypot(
            ball.std_error, ann.std_error)

    def test_parameter_errors(self):
        eu = EuclideanSpace(2)
        with pytest.raises(ParameterError):
            stats.estimate_spread(eu, eu.basepoint(), 1.0, 2.0, 100, seed=0)
        with pytest.raises(ParameterError):
            stats.estimate_spread(eu, eu.basepoint(), 1.0, 0.0, 5, seed=0)

    def test_digest_tracks_config(self):
        eu = EuclideanSpace(2)
        a = stats.estimate_spread(eu, eu.basepoint(), 1.0, 0.0, 100, seed=0)
        b = stats.estimate_spread(eu, eu.basepoint(), 1.0, 0.0, 100, seed=1)
        assert a.config_digest != b.config_digest


class TestThickStat:
    def test_flat_space_fully_thick(self):
        eu = EuclideanSpace(2)
        assert stats.thick_stat(eu, eu.basepoint(), np.array([5.0, 0.0]),
                                0.5, 0.1) == 1.0

    def test_vertical_cusp_excursion(self):
        # along the imaginary axis the ray is thick exactly below height 1/eps^2
        mt = ModularTorus()
        T, eps, dt = 12.0, 0.5, 0.05
        frac = stats.thick_stat(mt, 1j, 1j * math.exp(T), eps, dt)
        assert abs(frac - math.log(4.0) / T) <= dt / T + 1e-9

    def test_tiny_eps_everything_thick(self):
        mt = ModularTorus()
        assert stats.thick_stat(mt, 1j, 1j * math.e ** 3, 1e-3, 0.1) == 1.0

    def test_degenerate_segment(self):
        mt = ModularTorus()
        with pytest.raises(DomainError):
            stats.thick_stat(mt, 1j, 1j, 0.5, 0.1)

    def test_equals_the_cartesian_grid(self):
        # 320 segments of length at most 22, from basepoints inside F and
        # outside it; the coding walker reads the grid flags of the exact
        # segment until t ~ 25
        mt = ModularTorus()
        rng = np.random.default_rng(17)
        for j in range(320):
            if j % 2:
                x = complex(rng.uniform(-3.0, 3.0), math.exp(rng.uniform(-3.0, 3.0)))
            else:
                theta = rng.uniform(-math.pi / 6, math.pi / 6)
                x = complex(math.sin(theta), math.cos(theta) / (1.0 - rng.random()))
            phi = np.array([rng.uniform(0.0, math.pi)])
            y = complex(HyperbolicRays(x, phi).points_at(rng.uniform(0.0, 22.0))[0])
            eps = (0.3, 0.5, 0.9, 1.0)[j % 4]
            assert stats.thick_stat(mt, x, y, eps, 0.1) == grid_thick_stat(mt, x, y, eps, 0.1), j

    def test_eps_above_one_raises(self):
        with pytest.raises(ParameterError, match="0 < eps <= 1"):
            stats.thick_stat(ModularTorus(), 1j, 2j, 1.5, 0.1)

    def test_product_with_a_torus_factor_has_no_walker(self):
        sp = SupProduct([ModularTorus(), HyperbolicPlane()])
        with pytest.raises(UnsupportedMethodError):
            stats.thick_stat(sp, (1j, 1j), (2j, 3j), 0.5, 0.1)

    @pytest.mark.parametrize("length", [1e-13, 2e-12])
    def test_tiny_segment_is_all_partial_step(self, length):
        # a segment shorter than the grid tolerance has no grid time, and its
        # partial step is its whole length
        assert stats.thick_stat(ModularTorus(), 1j, 1j * math.exp(length), 0.5, 0.1) == 1.0

    @pytest.mark.filterwarnings("error")
    def test_segment_past_the_squared_height_overflow(self):
        # from i straight up to 1e160 i: thick until height 1/eps^2 = 4
        frac = stats.thick_stat(ModularTorus(), 1j, 1e160j, 0.5, 0.1)
        d = math.log(1e160)
        assert abs(frac - math.log(4.0) / d) <= 0.1 / d


def liouville_fractions(eps, length, n, seed):
    """Thickness fractions of ``n`` rays of ``length`` started from the
    Liouville measure of the torus model: a point of the fundamental domain
    F with area density dx dy / y^2 (x = sin theta, y = cos theta / U, with
    theta uniform on [-pi/6, pi/6] and U uniform on (0, 1]) and a uniform
    direction; one basepoint per ray."""
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-math.pi / 6, math.pi / 6, n)
    x = np.sin(theta) + 1j * np.cos(theta) / (1.0 - rng.random(n))
    phis = rng.uniform(0.0, math.pi, n)
    return stats._thick_fractions(ModularTorus(), x, phis, np.full(n, length), eps, 0.1)


@pytest.mark.parametrize("length", [5.0, 50.0, 500.0])
@pytest.mark.parametrize("eps", [0.2, 0.5, 0.9, 1.0])
def test_liouville_rays_match_the_area_oracle(eps, length):
    # the flow keeps the Liouville measure, so every grid time of such a
    # ray is thin with probability exactly 3 eps^2 / pi; the quadrature
    # weights add up to the length, so the mean fraction is 1 - 3 eps^2 / pi
    # at every length, with no limit taken
    n = 20_000
    fracs = liouville_fractions(eps, length, n, seed=[23, int(eps * 10), int(length)])
    z = (fracs.mean() - (1.0 - thin_area_fraction(eps))) / (fracs.std(ddof=1) / math.sqrt(n))
    assert abs(z) <= 4.0


def grid_thick_stat(space, x, y, eps, dt):
    """The Cartesian rule ``thick_stat`` replaced: thickness of the points
    of ``geodesic_points`` at the grid times, and at the midpoint of the
    final partial step."""
    d = space.distance(x, y)
    grid = stats._RayGrid(np.array([d]), dt)
    m, p = grid.m[0].item(), grid.p[0].item()
    times = np.arange(m) * dt
    if p > _GRID_TOL:
        times = np.append(times, m * dt + 0.5 * p)
    flags = space.thick_many(space.geodesic_points(x, y, times), eps)
    thick_time = dt * float(flags[:m].sum())
    if p > _GRID_TOL:
        thick_time += p * float(flags[-1])
    return thick_time / d


class TestRayThickness:
    def test_flat_space(self):
        eu = EuclideanSpace(2)
        frac = stats.ray_thick_fraction_many(eu, eu.basepoint(), 100.0, 0.5, 0.1, 1, seed=0)[0]
        assert frac == 1.0

    def test_moderate_ray_matches_area_fraction(self):
        mt = ModularTorus()
        frac = stats.ray_thick_fraction_many(mt, 1j, 3000.0, 0.5, 0.1, 1, seed=3)[0]
        assert abs(frac - (1.0 - thin_area_fraction(0.5))) <= 0.04

    def test_many_matches_single(self):
        mt = ModularTorus()
        single = stats.ray_thick_fraction_many(mt, 1j, 50.0, 0.3, 0.1, 1, seed=9)[0]
        many = stats.ray_thick_fraction_many(mt, 1j, 50.0, 0.3, 0.1, 4, seed=9)
        assert many[0] == pytest.approx(single)

    def test_ray_depends_only_on_its_index(self):
        # walker blocks are fixed by dt alone, so ray j never sees the ray count
        mt = ModularTorus()
        few = stats.ray_thick_fraction_many(mt, 1j, 2000.0, 0.5, 0.1, 3, seed=4)
        many = stats.ray_thick_fraction_many(mt, 1j, 2000.0, 0.5, 0.1, 8, seed=4)
        assert few.tobytes() == many[:3].tobytes()

    def test_memory_bounded_by_the_block(self):
        # the walk keeps one block of flags, not a rays x length matrix
        # (100 rays of length 10^4 at dt 0.1 held a 9.8 MB flag matrix)
        mt = ModularTorus()
        tracemalloc.start()
        try:
            stats.ray_thick_fraction_many(mt, 1j, 1e4, 0.5, 0.1, 100, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    @pytest.mark.filterwarnings("error")
    def test_ray_from_deep_in_the_cusp(self):
        # the reduced basepoint lies at height 1e170, and no ray of length 50
        # comes down below e^-50 * 1e170 > 4 (its matrices were NaN, and the
        # walk never ended)
        mt = ModularTorus()
        assert stats.ray_thick_fraction_many(mt, 1e-170j, 50.0, 0.5, 0.1, 200, 1).tolist() \
            == [0.0] * 200

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x", [0.4 + 1e-18j, 0.3 + 1e-170j, 1e-310j])
    def test_walk_past_the_float_range_raises(self, x):
        # these used to give NaN fractions, or never return, and then up to
        # 69 RuntimeWarnings before the error
        with pytest.raises(DomainError, match="float range"):
            stats.ray_thick_fraction_many(ModularTorus(), x, 50.0, 0.5, 0.1, 200, 1)


def p1_by_grid_times(walk, lengths, theta, sigma, dt):
    """Number of rays of ``walk`` (a ``walk_flags`` result) passing the P1
    rule grid time by grid time: running thickness at least theta at every
    grid time J*dt with J >= sigma*l/dt, and at the length l itself."""
    flags, partial, p, m = walk
    good = 0
    for j, length in enumerate(lengths):
        j_lo = max(1, math.ceil(sigma * length / dt - 1e-12))
        cum = np.cumsum(flags[j, :m[j]])
        ok = all(cum[J - 1] / J >= theta - 1e-12 for J in range(j_lo, m[j] + 1))
        if p[j] > 1e-12:
            ok &= (cum[-1] * dt + p[j] * partial[j]) / length >= theta - 1e-12
        good += ok
    return good


class TestP1Fraction:
    def test_flat_space(self):
        eu = EuclideanSpace(2)
        assert stats.p1_fraction(eu, eu.basepoint(), 20.0, 2.0, 0.5, 0.9, 0.2,
                                 50, 0.1, seed=0) == 1.0

    def test_modular_small_eps(self):
        mt = ModularTorus()
        frac = stats.p1_fraction(mt, 1j, 50.0, 5.0, 0.1, 0.5, 0.2, 400, 0.1, seed=1)
        assert frac >= 0.9

    @pytest.mark.parametrize("r", [20.0, 20.05])
    def test_sphere_is_the_fixed_length_walk(self, r, walk_flags):
        # k = 0 puts every shell point at distance r: the P1 rule applied
        # ray by ray to one walk of length r
        mt = ModularTorus()
        eps, theta, sigma, dt, n, seed = 0.5, 0.75, 0.2, 0.1, 300, 7
        phis = substream(seed, 0, 0).uniform(0.0, math.pi, size=n)
        good = p1_by_grid_times(walk_flags(mt, 1j, phis, np.full(n, r), eps, dt),
                                np.full(n, r), theta, sigma, dt)
        assert stats.p1_fraction(mt, 1j, r, 0.0, eps, theta, sigma, n, dt, seed) == good / n

    def test_shell_is_the_walk_of_each_length(self, walk_flags):
        # k > 0 gives every ray its own length, off the grid: the P1 rule
        # applied ray by ray to walks of those lengths
        mt = ModularTorus()
        r, k, eps, theta, sigma, dt, n, seed = 20.0, 5.0, 0.5, 0.75, 0.2, 0.1, 300, 7
        phis = substream(seed, 0, 0).uniform(0.0, math.pi, size=n)
        lengths = mt.sample_radii(substream(seed, 1, 0), n, r, k)
        assert len(np.unique(lengths)) == n
        good = p1_by_grid_times(walk_flags(mt, 1j, phis, lengths, eps, dt),
                                lengths, theta, sigma, dt)
        assert 0 < good < n
        assert stats.p1_fraction(mt, 1j, r, k, eps, theta, sigma, n, dt, seed) == good / n

    def test_shell_width_is_sampled(self):
        # a ball holds shorter rays, which have had less time to leave the
        # thick part around the basepoint, so more of them pass
        mt = ModularTorus()
        sphere = stats.p1_fraction(mt, 1j, 5.0, 0.0, 0.5, 0.9, 0.2, 1000, 0.1, seed=1)
        ball = stats.p1_fraction(mt, 1j, 5.0, 5.0, 0.5, 0.9, 0.2, 1000, 0.1, seed=1)
        assert ball > sphere + 0.03

    def test_shell_inside_one_grid_step(self):
        # no grid time after 0: each point is judged by its midpoint alone,
        # within 0.025 of the thick basepoint i
        mt = ModularTorus()
        for k in (0.0, 0.05):
            assert stats.p1_fraction(mt, 1j, 0.05, k, 0.5, 0.5, 0.2, 100, 0.1, seed=0) == 1.0

    def test_holds_one_batch_of_runs_at_a_time(self):
        # a batch of runs is freed before the next one is built: holding two
        # peaks at 6.33 MB under tracemalloc, one at 5.24 MB
        mt = ModularTorus()
        # untraced first call: one-time allocations do not count
        stats.p1_fraction(mt, 1j, 50.0, 5.0, 0.1, 0.5, 0.2, 100, 0.1, seed=3)
        tracemalloc.start()
        try:
            frac = stats.p1_fraction(mt, 1j, 50.0, 5.0, 0.1, 0.5, 0.2, 4000, 0.1, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert frac == 0.997
        assert peak < 5.8e6

    def test_theta_near_one_with_fat_thin_part(self):
        # eps = 0.9 makes most of the domain thin, so a 0.995 running
        # thickness requirement is unattainable
        mt = ModularTorus()
        frac = stats.p1_fraction(mt, 1j, 40.0, 5.0, 0.9, 0.995, 0.2, 200, 0.1, seed=2)
        assert frac <= 0.05

    def test_bad_parameters(self):
        mt = ModularTorus()
        with pytest.raises(ParameterError):
            stats.p1_fraction(mt, 1j, 10.0, 1.0, 0.5, 1.5, 0.2, 10, 0.1, seed=0)
        with pytest.raises(ParameterError):
            stats.p1_fraction(mt, 1j, 10.0, 1.0, 0.5, 0.5, 0.0, 10, 0.1, seed=0)


class TestSeparation:
    def test_time_zero_everyone_close(self):
        hyp = HyperbolicPlane()
        assert stats.separation_fraction(hyp, 1j, 10.0, 0.0, 2.0, 2000, seed=0) == 1.0

    def test_hyperbolic_exponential_decay(self):
        hyp = HyperbolicPlane()
        ts = [5.0, 6.0, 7.0, 8.0]
        fr = stats.separation_profile(hyp, 1j, 12.0, ts, 2.0, 40_000, seed=1)
        slope = stats.fit_log_slope(ts, fr)
        assert -1.3 <= slope <= -0.7

    def test_euclidean_power_decay(self):
        eu = EuclideanSpace(2)
        ts = [5.0, 7.0, 9.0, 11.0, 13.0, 15.0]
        fr = stats.separation_profile(eu, eu.basepoint(), 20.0, ts, 2.0, 40_000, seed=2)
        # oracle: fraction = (2/pi) asin(M0 / (2t))
        for t, f in zip(ts, fr):
            target = (2.0 / math.pi) * math.asin(2.0 / (2.0 * t))
            se = math.sqrt(target * (1 - target) / 40_000)
            assert abs(f - target) <= 4.0 * se
        report = stats.decay_fit_report(ts, fr)
        assert report["power_sse"] < report["exp_sse"]
        assert -1.3 <= report["power_slope"] <= -0.7

    def test_fit_slope_drops_zero_counts(self):
        slope = stats.fit_log_slope([1.0, 2.0, 3.0, 4.0],
                                    [math.e ** -1, math.e ** -2, 0.0, math.e ** -4])
        assert slope == pytest.approx(-1.0)


TRIANGLE_SPACES = [EuclideanSpace(2), HyperbolicPlane(), ModularTorus(),
                   SupProduct([HyperbolicPlane(), HyperbolicPlane()]), sup_plane()]


# every continuous model: normed planes, the hyperbolic plane, the torus model
# and sup-products
PREMISE_SPACES = [EuclideanSpace(2), EuclideanSpace(2, p=1.0), EuclideanSpace(3, p=3.0),
                  EuclideanSpace(2, p=math.inf), HyperbolicPlane(), ModularTorus(),
                  SupProduct([HyperbolicPlane(), HyperbolicPlane()]), sup_plane(),
                  SupProduct([HyperbolicPlane(), EuclideanSpace(2, p=1.0)])]


class TestTriangleProbes:
    def test_side_overlap(self):
        eu = EuclideanSpace(2)
        u, v = np.zeros(2), np.array([8.0, 0.0])
        w = np.array([4.0, 0.0])
        hit, mind = stats.thin_triangle_probe(eu, u, v, w, (2.0, 6.0), 1e-9)
        assert hit and mind <= 1e-12

    def test_hyperbolic_long_triangles_are_thin(self):
        hyp = HyperbolicPlane()
        x = 1j
        rng = np.random.default_rng(4)
        trials = 0
        for i in range(30):
            bundle = hyp.rays_chunk(x, 2, np.random.default_rng(i), horizon=30)
            pts = bundle.points_at(np.array([22.0, 25.0]))
            y, z = complex(pts[0]), complex(pts[1])
            if hyp.distance(y, z) < 20.0:
                continue
            trials += 1
            d_xy = hyp.distance(x, y)
            hit, mind = stats.thin_triangle_probe(
                hyp, x, y, z, (d_xy / 3.0, 2.0 * d_xy / 3.0), 3.0)
            assert hit, f"triangle {i}: min distance {mind}"
        assert trials >= 25

    @pytest.mark.parametrize("r", [8.0, 16.0])
    def test_sup_product_obstruction(self, r):
        sp = sup_plane()
        x = (np.array([0.0]), np.array([0.0]))
        y = (np.array([2 * r]), np.array([r]))
        z = (np.array([2 * r]), np.array([-r]))
        d_xy = sp.distance(x, y)
        hit, mind = stats.thin_triangle_probe(
            sp, x, y, z, (d_xy / 3.0, 2.0 * d_xy / 3.0), r / 4.0)
        assert not hit
        assert mind >= r / 4.0

    def test_degenerate_side_rejected(self):
        eu = EuclideanSpace(2)
        u, v = np.zeros(2), np.array([4.0, 0.0])
        with pytest.raises(DomainError):
            stats.thin_triangle_probe(eu, u, v, u, (1.0, 2.0), 1.0)

    @pytest.mark.parametrize("space", TRIANGLE_SPACES, ids=lambda s: s.describe())
    def test_exact_probe_against_grid_to_grid(self, space):
        # gridding all three sides at step ds can only raise the minimum, and
        # by at most ds
        ds = 0.05
        x = space.basepoint()
        Y, Z = stats._sample_triangles(space, x, 8.0, 12, seed=3)
        for j in range(12):
            y, z = space.batch_get(Y, j), space.batch_get(Z, j)
            d_xy = space.distance(x, y)
            interval = (d_xy / 3.0, 2.0 * d_xy / 3.0)
            _, exact = stats.thin_triangle_probe(space, x, y, z, interval, 1.0)
            pts = space.geodesic_points(x, y, stats._time_grid(*interval, ds))
            grid = min(
                space.cross_distance(pts, space.geodesic_points(
                    a, z, stats._time_grid(0.0, space.distance(a, z), ds))).min()
                for a in (x, y))
            assert grid - ds <= exact <= grid + 1e-9

    @pytest.mark.parametrize("space", PREMISE_SPACES, ids=lambda s: s.describe())
    def test_the_ends_of_the_interval_hold_the_minimum(self, space):
        # the premise of the probe: along [x, y] the distance to [x, z] never
        # falls and the distance to [y, z] never rises, so the least distance
        # over [d/3, 2d/3] is at its ends; the probe is the grid minimum there
        x = space.basepoint()
        X = space.singleton(x)
        Y, Z = stats._sample_triangles(space, x, 8.0, 40, seed=11)
        for j in range(40):
            y, z = space.batch_get(Y, j), space.batch_get(Z, j)
            d_xy = space.distance(x, y)
            sides = [(X, space.singleton(z)), (space.singleton(y), space.singleton(z))]

            def to_sides(a, b):
                pts = space.geodesic_points(x, y, stats._time_grid(a, b, 0.01))
                return [space.distance_to_segment(pts, u, v) for u, v in sides]

            to_xz, to_yz = to_sides(0.0, d_xy)
            assert np.all(np.diff(to_xz) >= 0.0), f"triangle {j}: d(., [x, z]) falls"
            assert np.all(np.diff(to_yz) <= 0.0), f"triangle {j}: d(., [y, z]) rises"
            interval = (d_xy / 3.0, 2.0 * d_xy / 3.0)
            grid = np.minimum(*to_sides(*interval)).min()
            _, probe = stats.thin_triangle_probe(space, x, y, z, interval, 1.0)
            assert grid - 1e-12 <= probe <= grid, f"triangle {j}"

    @pytest.mark.parametrize("space", TRIANGLE_SPACES, ids=lambda s: s.describe())
    def test_triangle_depends_only_on_its_index(self, space, monkeypatch):
        x = space.basepoint()
        few = stats.thin_triangle_sample(space, x, 6.0, 3, 1.0, seed=5)
        many = stats.thin_triangle_sample(space, x, 6.0, 8, 1.0, seed=5)
        for a, b in zip(few, many):
            assert a.tobytes() == b[:3].tobytes()
        # across chunk boundaries: with chunks of 2, row 2 sits in a chunk of
        # one triangle at n = 3 and of two at n = 8
        monkeypatch.setattr(rng, "CHUNK", 2)
        few = stats.thin_triangle_sample(space, x, 6.0, 3, 1.0, seed=5)
        many = stats.thin_triangle_sample(space, x, 6.0, 8, 1.0, seed=5)
        for a, b in zip(few, many):
            assert a.tobytes() == b[:3].tobytes()

    @pytest.mark.parametrize("space", TRIANGLE_SPACES, ids=lambda s: s.describe())
    @pytest.mark.parametrize("chunk", [rng.CHUNK, 2])
    def test_blocks_do_not_change_the_result(self, space, chunk, monkeypatch):
        # a sampling chunk may end anywhere among the triangles; each
        # triangle's minimum is what the one-triangle probe reports
        monkeypatch.setattr(rng, "CHUNK", chunk)
        x = space.basepoint()
        ref = stats.thin_triangle_sample(space, x, 6.0, 5, 1.0, seed=5)
        Y, Z = stats._sample_triangles(space, x, 6.0, 5, seed=5)

        def probes():
            out = []
            for j in range(5):
                y, z = space.batch_get(Y, j), space.batch_get(Z, j)
                d_xy = space.distance(x, y)
                out.append(stats.thin_triangle_probe(
                    space, x, y, z, (d_xy / 3.0, 2.0 * d_xy / 3.0), 1.0)[1])
            return np.array(out)

        alone = probes()
        assert alone.tobytes() == ref[1].tobytes()
        # the least of all grid points' distances to the two sides: on [0, d/2]
        # that is at the first point (x lies on [x, z]), not the last
        for j in range(5):
            y, z = space.batch_get(Y, j), space.batch_get(Z, j)
            half = space.distance(x, y) / 2.0
            pts = space.geodesic_points(x, y, stats._time_grid(0.0, half, 0.1))
            assert stats.thin_triangle_probe(space, x, y, z, (0.0, half), 1.0)[1] == min(
                space.distance_to_segment(pts, space.singleton(a), space.singleton(z)).min()
                for a in (x, y))

    def test_sample_memory_bounded_by_the_triangle_ends(self):
        # 4000 triangles, each read at the two ends of its middle third: the
        # points and distances of all 8000 ends take well under 1 MB
        hyp = HyperbolicPlane()
        tracemalloc.start()
        try:
            hits, minima = stats.thin_triangle_sample(hyp, 1j, 20.0, 4000, 3.0, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert hits.all()
        assert peak < 3e6

    def test_one_probe_memory_bounded_by_its_two_ends(self):
        # a probe reads the two ends of its interval, so its memory does not
        # grow with the interval's length
        sp = SupProduct([HyperbolicPlane(), HyperbolicPlane()])
        x, y = (1j, 1j), (1j * math.exp(20.0), 5.0 + 1j)
        z = (-5.0 + 1j, 3.0 + 1j * math.exp(20.0))
        tracemalloc.start()
        try:
            hit, _ = stats.thin_triangle_probe(sp, x, y, z, (20.0 / 3.0, 40.0 / 3.0), 3.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert hit
        assert peak < 3e6

    def test_sides_at_least_r(self):
        hyp = HyperbolicPlane()
        Y, Z = stats._sample_triangles(hyp, 1j, 10.0, 50, seed=2)
        assert np.all(hyp.distance_many(Y, Z) >= 10.0)
        radii = hyp.distance_many(np.full(100, 1j), np.concatenate([Y, Z]))
        assert np.all((radii >= 10.0 - 1e-9) & (radii <= 12.5 + 1e-9))


class TestDiscretizer:
    def test_short_segment_two_points(self):
        eu = EuclideanSpace(1)
        u, v = np.array([0.0]), np.array([1.2])
        net = build_net(eu, u, v, 0.4)
        path = stats.discretize_geodesic(eu, net, 2.0, (u, v))
        assert eu.batch_size(path) == 2

    def test_integer_net_example(self):
        eu = EuclideanSpace(1)
        net = Net(points=np.arange(0.0, 11.0)[:, None], c=0.5)
        path = stats.discretize_geodesic(eu, net, 3.0, (np.array([0.0]), np.array([10.0])))
        assert path.ravel().tolist() == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]

    def test_segment_depends_only_on_its_index(self, monkeypatch):
        few = stats.discretize_sample(6.0, 3, 3.0, 0.5, seed=5)
        many = stats.discretize_sample(6.0, 8, 3.0, 0.5, seed=5)
        for a, b in zip(few, many):
            assert a.tobytes() == b[:3].tobytes()
        monkeypatch.setattr(rng, "CHUNK", 2)
        few = stats.discretize_sample(6.0, 3, 3.0, 0.5, seed=5)
        many = stats.discretize_sample(6.0, 8, 3.0, 0.5, seed=5)
        for a, b in zip(few, many):
            assert a.tobytes() == b[:3].tobytes()
        assert not many[0].any() and np.all(many[1] >= 2)

    def test_sample_reports_an_uncovered_segment(self, monkeypatch):
        # a net holding only the segment's start leaves every mark past 2c
        # uncovered: each segment fails, with no path points
        monkeypatch.setattr(stats, "build_net", lambda space, u, v, c: Net(space.singleton(u), c))
        failed, points = stats.discretize_sample(10.0, 6, 3.0, 0.5, seed=0)
        assert failed.all() and not points.any()

    def test_sample_past_the_cartesian_horizon(self):
        failed, points = stats.discretize_sample(1000.0, 20, 3.0, 0.5, seed=0)
        # lengths of at least r/2, marks spaced tau - 2c
        assert not failed.any() and np.all(points >= 500.0 / (3.0 - 2 * 0.5))

    @pytest.mark.parametrize("space_name", ["euclid", "hyperbolic"])
    def test_invariants_on_random_runs(self, space_name):
        if space_name == "euclid":
            space = EuclideanSpace(2)
        else:
            space = HyperbolicPlane()
        x = space.basepoint()
        rng = np.random.default_rng(11)
        for i in range(60):
            c = rng.uniform(0.2, 0.8)
            tau = 4.0 * c + rng.uniform(0.5, 2.0)
            bundle = space.rays_chunk(x, 1, np.random.default_rng(i), horizon=12.0)
            y = space.batch_get(bundle.points_at(rng.uniform(3.0, 10.0)), 0)
            net = build_net(space, x, y, c)
            pts = stats.discretize_geodesic(space, net, tau, (x, y))
            # step bound
            for j in range(space.batch_size(pts) - 1):
                a = space.batch_get(pts, j)
                b = space.batch_get(pts, j + 1)
                assert space.distance(a, b) <= tau + 1e-9
            # proximity bound against recomputed marks
            d = space.distance(x, y)
            times = np.arange(0.0, d, tau - 2 * c)
            if d - times[-1] > 1e-12:
                times = np.append(times, d)
            marks = space.geodesic_points(x, y, times)
            assert space.batch_size(marks) == space.batch_size(pts)
            for j in range(space.batch_size(pts)):
                gap = space.distance(space.batch_get(marks, j), space.batch_get(pts, j))
                assert gap <= 2.0 * c + 1e-9

    def test_coverage_error_when_net_elsewhere(self):
        eu = EuclideanSpace(1)
        net = Net(points=np.array([[50.0], [51.0]]), c=0.5)
        with pytest.raises(CoverageError, match="mark at time 0 is 50 from the net"):
            stats.discretize_geodesic(eu, net, 3.0, (np.array([0.0]), np.array([5.0])))

    def test_coverage_error_names_first_wide_gap(self):
        # marks every 1.5 all lie within 2c of this net, but the snapped
        # path jumps 3.0 and then 3.1 > tau
        eu = EuclideanSpace(1)
        net = Net(points=np.array([[0.9], [3.9], [7.0]]), c=0.5)
        with pytest.raises(CoverageError, match="points 3 > tau = 2.5"):
            stats.discretize_geodesic(eu, net, 2.5, (np.array([0.0]), np.array([7.0])))

    def test_sample_rejects_tau_floor(self):
        # a bad tau is the caller's error, not a violation on every segment
        with pytest.raises(ParameterError, match="need tau > 4c"):
            stats.discretize_sample(10.0, 3, 1.0, 0.5, 1)

    def test_tau_floor(self):
        eu = EuclideanSpace(1)
        net = Net(points=np.arange(0.0, 6.0)[:, None], c=0.5)
        with pytest.raises(ParameterError):
            stats.discretize_geodesic(eu, net, 2.0 - 1e-9, (np.array([0.0]), np.array([5.0])))


class TestTreeCumulativeProgress:
    def test_disjoint_subsegments_add(self):
        # on a tree the reverse-triangle slack is zero: a geodesic containing n
        # disjoint subsegments of length >= d has endpoints at distance >= n d
        tree = RegularTree(3)
        rng = np.random.default_rng(13)
        for _ in range(50):
            length = int(rng.integers(12, 40))
            bundle = tree.rays_chunk("", 1, rng, horizon=length)
            walk = [tree.batch_get(bundle.points_at(t), 0) for t in range(length + 1)]
            x, y = walk[0], walk[-1]
            assert tree.distance(x, y) == float(length)
            # carve disjoint subsegments
            n_seg = int(rng.integers(1, 4))
            d = length // (2 * n_seg)
            if d == 0:
                continue
            total = 0.0
            for j in range(n_seg):
                a, b = walk[2 * j * d], walk[2 * j * d + d]
                total += tree.distance(a, b)
                assert tree.distance(a, b) >= d
            assert tree.distance(x, y) >= n_seg * d
            assert tree.distance(x, y) >= total
