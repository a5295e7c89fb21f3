"""Metric axioms, geodesics, samplers, reduction, and nets for all models."""

import math
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats as sps

from stathyp.errors import (DomainError, ParameterError,
                            UnsupportedMethodError)
from stathyp.rng import CHUNK
from stathyp.spaces.base import RayBundle
from stathyp.spaces import (EuclideanSpace, HyperbolicPlane, ModularTorus,
                            Net, RegularTree, SupProduct, build_net,
                            make_space, space_class, thin_area_fraction)
from stathyp.spaces.euclidean import _pnorm
from stathyp.spaces.hyperbolic import HyperbolicRays, _ray_matrices, mobius_apply
from stathyp.spaces import modular
from stathyp.spaces.modular import _BOUND_TOL, _MAX_REDUCE, reduce_many
from stathyp.spaces.nets import _GRID_TOL, _time_grid

METRIC_TOL = 1e-9
SPEED_TOL = 1e-8


def euclid_line():
    return EuclideanSpace(1)


def sup_plane():
    return SupProduct([euclid_line(), euclid_line()])


def same_point(p, q):
    if isinstance(p, tuple):
        return all(same_point(a, b) for a, b in zip(p, q, strict=True))
    return np.array_equal(p, q)


def leaf_bytes(batch) -> list[bytes]:
    """The bytes of every leaf array of a batch, to compare batches bit for bit."""
    if isinstance(batch, tuple):
        return [b for leaf in batch for b in leaf_bytes(leaf)]
    return [np.ascontiguousarray(batch).tobytes()]


def random_points(space, n, seed):
    rng = np.random.default_rng(seed)
    kind = space.kind
    if kind == "euclidean-p-norm":
        return [rng.uniform(-5, 5, size=space.dim) for _ in range(n)]
    if kind in ("hyperbolic-plane", "modular-torus"):
        return [complex(rng.uniform(-5, 5), rng.uniform(0.1, 10.0)) for _ in range(n)]
    if kind == "regular-tree":
        out = []
        for _ in range(n):
            length = int(rng.integers(0, 9))
            addr = ""
            for _ in range(length):
                choices = [c for c in space.alphabet if not addr or c != addr[-1]]
                addr += choices[int(rng.integers(0, len(choices)))]
            out.append(addr)
        return out
    if kind == "sup-product":
        comps = [random_points(c, n, seed + 13 * i) for i, c in enumerate(space.components)]
        return [tuple(col[i] for col in comps) for i in range(n)]
    raise AssertionError(kind)


def space_id(value) -> str:
    """Test id: a space's descriptor, or the value itself for radii."""
    return value.describe() if hasattr(value, "describe") else str(value)


ALL_SPACES = [
    EuclideanSpace(2),
    EuclideanSpace(3, p=1.0),
    EuclideanSpace(2, p=math.inf),
    HyperbolicPlane(),
    ModularTorus(),
    RegularTree(3),
    sup_plane(),
    SupProduct([EuclideanSpace(2), HyperbolicPlane()]),
]


@pytest.mark.parametrize("space", ALL_SPACES, ids=space_id)
class TestMetricAxioms:
    def test_axioms_on_random_triples(self, space):
        pts = random_points(space, 3 * 400, seed=17)
        for i in range(0, len(pts), 3):
            u, v, w = pts[i], pts[i + 1], pts[i + 2]
            duv, dvu = space.distance(u, v), space.distance(v, u)
            assert abs(duv - dvu) <= METRIC_TOL
            assert duv >= 0.0
            assert space.distance(u, u) == 0.0
            assert space.distance(u, w) <= duv + space.distance(v, w) + METRIC_TOL

    def test_positivity(self, space):
        pts = random_points(space, 40, seed=3)
        for u, v in zip(pts[::2], pts[1::2]):
            if space.distance(u, v) == 0.0:
                # distinct representations at distance zero would break the metric
                assert repr(u) == repr(v)


@pytest.mark.parametrize("space", ALL_SPACES, ids=space_id)
def test_negative_ray_time_rejected(space):
    pts = random_points(space, 20, seed=31)
    u, v = next((u, v) for u, v in zip(pts[::2], pts[1::2]) if space.distance(u, v) > 0)
    with pytest.raises(ParameterError):
        space.geodesic_points(space.singleton(u), space.singleton(v), [-1.0])
    with pytest.raises(ParameterError):
        space.geodesic_point(u, v, -1.0)


CONTINUUM = [s for s in ALL_SPACES if not s.atomic]


@pytest.mark.parametrize("space", CONTINUUM, ids=space_id)
class TestGeodesics:
    def test_unit_speed(self, space):
        pts = random_points(space, 80, seed=23)
        rng = np.random.default_rng(5)
        for u, v in zip(pts[::2], pts[1::2]):
            d = space.distance(u, v)
            if d < 1e-6:
                continue
            s, t = sorted(rng.uniform(0.0, 1.5 * d, size=2))
            ps, pt = space.geodesic_point(u, v, s), space.geodesic_point(u, v, t)
            assert abs(space.distance(ps, pt) - (t - s)) <= SPEED_TOL

    def test_endpoints(self, space):
        pts = random_points(space, 40, seed=29)
        for u, v in zip(pts[::2], pts[1::2]):
            d = space.distance(u, v)
            if d < 1e-6:
                continue
            assert space.distance(space.geodesic_point(u, v, 0.0), u) <= METRIC_TOL
            assert space.distance(space.geodesic_point(u, v, d), v) <= 1e-7

    def test_degenerate_ray(self, space):
        u = space.basepoint()
        with pytest.raises(DomainError):
            space.geodesic_point(u, u, 1.0)

    def test_rows_match_one_row_calls(self, space):
        # row j of a many-row call is the one-row call on (U_j, V_j, T_j),
        # bit for bit, and one shared row broadcasts over every time
        pts = random_points(space, 24, seed=37)
        U, V = as_batch(space, pts[::2]), as_batch(space, pts[1::2])
        T = np.random.default_rng(6).uniform(0.0, 8.0, size=12)
        T[3] = 0.0
        rows = space.geodesic_points(U, V, T)
        shared = space.geodesic_points(space.singleton(pts[0]), space.singleton(pts[1]), T)
        for j in range(12):
            one = space.geodesic_points(space.batch_take(U, [j]), space.batch_take(V, [j]),
                                        T[j:j + 1])
            assert leaf_bytes(space.batch_take(rows, [j])) == leaf_bytes(one)
            one = space.geodesic_points(space.singleton(pts[0]), space.singleton(pts[1]),
                                        T[j:j + 1])
            assert leaf_bytes(space.batch_take(shared, [j])) == leaf_bytes(one)

    def test_time_zero_is_the_start(self, space):
        pts = random_points(space, 16, seed=41)
        U, V = as_batch(space, pts[::2]), as_batch(space, pts[1::2][:-1] + pts[-2:-1])
        # the last row's ends coincide; at time 0 it too is its start
        assert leaf_bytes(space.geodesic_points(U, V, np.zeros(8))) == leaf_bytes(U)

    def test_a_row_whose_ends_coincide_raises_past_time_0(self, space):
        pts = random_points(space, 6, seed=43)
        U, V = as_batch(space, pts[:3]), as_batch(space, [pts[3], pts[1], pts[5]])
        with pytest.raises(DomainError, match="endpoints coincide"):
            space.geodesic_points(U, V, np.array([1.0, 1e-300, 1.0]))
        moved = space.geodesic_points(U, V, np.array([1.0, 0.0, 1.0]))
        assert leaf_bytes(space.batch_take(moved, [1])) == leaf_bytes(space.singleton(pts[1]))


class TestHyperbolic:
    def test_vertical_distance(self):
        hyp = HyperbolicPlane()
        assert hyp.distance(1j, 4j) == pytest.approx(math.log(4.0), abs=1e-12)

    def test_distance_matches_arccosh_form(self):
        hyp = HyperbolicPlane()
        rng = np.random.default_rng(2)
        for _ in range(500):
            u = complex(rng.uniform(-4, 4), rng.uniform(0.05, 8))
            v = complex(rng.uniform(-4, 4), rng.uniform(0.05, 8))
            naive = math.acosh(1.0 + abs(u - v) ** 2 / (2.0 * u.imag * v.imag))
            assert hyp.distance(u, v) == pytest.approx(naive, rel=1e-10, abs=1e-12)

    def test_geodesic_examples(self):
        hyp = HyperbolicPlane()
        assert hyp.geodesic_point(1j, 4j, math.log(2.0)) == pytest.approx(2j)
        mid = EuclideanSpace(2).geodesic_point(np.zeros(2), np.array([2.0, 0.0]), 1.0)
        assert np.allclose(mid, [1.0, 0.0])

    def test_ray_continues_past_endpoint(self):
        hyp = HyperbolicPlane()
        p = hyp.geodesic_point(1j, 2j, math.log(8.0))
        assert p == pytest.approx(8j)

    def test_invalid_points_rejected(self):
        hyp = HyperbolicPlane()
        for bad in (1.0 + 0j, 2.0 - 1j, complex(math.nan, 1.0)):
            with pytest.raises(DomainError):
                hyp.distance(bad, 1j)


class TestSphereSampling:
    @pytest.mark.parametrize("space,r", [
        (EuclideanSpace(2), 3.0),
        (EuclideanSpace(3, p=1.0), 2.0),
        (HyperbolicPlane(), 5.0),
        (HyperbolicPlane(), 40.0),
        (sup_plane(), 4.0),
    ], ids=space_id)
    def test_samples_on_sphere(self, space, r):
        x = space.basepoint()
        batch = space.sample_shell(x, r, 0.0, 300, seed=8)
        for i in range(space.batch_size(batch)):
            d = space.distance(x, space.batch_get(batch, i))
            assert abs(d - r) <= 1e-9 * max(1.0, r)

    def test_tree_sphere_exact_radius(self):
        tree = RegularTree(3)
        batch = tree.sample_shell("", 4.0, 0.0, 200, seed=1)
        points = [tree.batch_get(batch, i) for i in range(tree.batch_size(batch))]
        assert all(tree.distance("", p) == 4.0 for p in points)

    def test_tree_small_sphere_hits_every_point(self):
        tree = RegularTree(3)
        samples = tree.sample_shell("", 2.0, 0.0, 2000, seed=5)
        points = {tree.batch_get(samples, i) for i in range(tree.batch_size(samples))}
        assert points == set(tree.sphere("", 2))

    def test_rotation_invariance_chi2(self):
        # angular histogram uniform at significance 0.001
        n, bins = 100_000, 36
        crit = sps.chi2.ppf(1.0 - 0.001, bins - 1)

        eu = EuclideanSpace(2)
        pts = eu.sample_shell(eu.basepoint(), 2.0, 0.0, n, seed=11)
        ang = np.arctan2(pts[:, 1], pts[:, 0])
        counts, _ = np.histogram(ang, bins=bins, range=(-math.pi, math.pi))
        chi2 = ((counts - n / bins) ** 2 / (n / bins)).sum()
        assert chi2 < crit

        hyp = HyperbolicPlane()
        x = 0.7 + 2.0j
        zs = hyp.sample_shell(x, 2.0, 0.0, n, seed=11)
        # direction seen from x, via the disk chart centered at x
        w = (zs - x) / (zs - np.conj(x))
        ang = np.angle(w)
        counts, _ = np.histogram(ang, bins=bins, range=(-math.pi, math.pi))
        chi2 = ((counts - n / bins) ** 2 / (n / bins)).sum()
        assert chi2 < crit

    def test_deterministic_in_seed(self):
        hyp = HyperbolicPlane()
        a = hyp.sample_shell(1j, 3.0, 0.0, 500, seed=4)
        b = hyp.sample_shell(1j, 3.0, 0.0, 500, seed=4)
        c = hyp.sample_shell(1j, 3.0, 0.0, 500, seed=5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("space", [EuclideanSpace(2), HyperbolicPlane(), ModularTorus(),
                                       RegularTree(3),
                                       SupProduct([EuclideanSpace(2), HyperbolicPlane()])],
                             ids=space_id)
    def test_prefix_stable_across_chunk_boundary(self, space):
        # sample j depends only on (seed, j): asking for more samples, inside
        # a chunk or past a chunk boundary, leaves the earlier ones unchanged,
        # on the sphere (k = 0), an annulus (0 < k < r) and the ball (k = r)
        x = space.basepoint()
        for k in (0.0, 1.0, 3.0):
            for n_more, n_fewer in ((CHUNK + 7, CHUNK + 1), (100, 50)):
                more = space.sample_shell(x, 3.0, k, n_more, seed=3)
                fewer = space.sample_shell(x, 3.0, k, n_fewer, seed=3)
                assert space.batch_size(fewer) == n_fewer
                for i in range(n_fewer):
                    assert same_point(space.batch_get(more, i), space.batch_get(fewer, i))

    def test_bad_radius(self):
        eu = EuclideanSpace(2)
        with pytest.raises(ParameterError):
            eu.sample_shell(eu.basepoint(), 0.0, 0.0, 10, seed=0)


class TestAnnulusSampling:
    def test_radii_within_shell(self):
        for space in (EuclideanSpace(2, h=1.0), HyperbolicPlane()):
            x = space.basepoint()
            batch = space.sample_shell(x, 6.0, 2.0, 500, seed=2)
            for i in range(space.batch_size(batch)):
                d = space.distance(x, space.batch_get(batch, i))
                assert 4.0 - 1e-9 <= d <= 6.0 + 1e-9

    def test_uniform_radius_when_h_zero(self):
        eu = EuclideanSpace(2, h=0.0)
        pts = eu.sample_shell(eu.basepoint(), 6.0, 2.0, 100_000, seed=3)
        radii = np.sqrt((pts ** 2).sum(axis=1))
        ks = sps.kstest(radii, sps.uniform(loc=4.0, scale=2.0).cdf)
        assert ks.statistic < 0.01

    def test_exponential_radius_mass(self):
        # fraction with radius >= r-1 is (e^r - e^(r-1)) / (e^r - e^(r-k)) for h=1
        r, k, n = 5.0, 3.0, 100_000
        hyp = HyperbolicPlane(h=1.0)
        pts = hyp.sample_shell(1j, r, k, n, seed=9)
        radii = hyp.distance_many(np.full(n, 1j), pts)
        target = (1.0 - math.exp(-1.0)) / (1.0 - math.exp(-k))
        frac = float((radii >= r - 1.0).mean())
        se = math.sqrt(target * (1 - target) / n)
        assert abs(frac - target) <= 4.0 * se

    def test_bad_shell(self):
        eu = EuclideanSpace(2)
        with pytest.raises(ParameterError):
            eu.sample_shell(eu.basepoint(), 2.0, 3.0, 10, seed=0)


class ReferenceWalker:
    """Frame matrices flowed by one grid step at a time and kept reduced:
    the thickness of each ray at each grid time, read off its reduced point.
    The oracle of the coding walker's flags up to t = 25.
    """

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = (np.array(v, dtype=np.float64) for v in (a, b, c, d))
        self._steps = 0
        self._reduce()

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
                a[nz] -= n[nz] * c[nz]
                b[nz] -= n[nz] * d[nz]
            x, y = self._position()
            mask = x * x + y * y < 1.0 - _BOUND_TOL
            if not np.any(mask):
                return
            a[mask], b[mask], c[mask], d[mask] = (
                -c[mask].copy(), -d[mask].copy(), a[mask].copy(), b[mask].copy())
        raise AssertionError("reference reduction did not converge")

    def step(self, dt):
        e = math.exp(0.5 * dt)
        self.a *= e
        self.b /= e
        self.c *= e
        self.d /= e
        self._steps += 1
        if self._steps % 1024 == 0:
            s = np.sqrt(self.a * self.d - self.b * self.c)
            self.a /= s
            self.b /= s
            self.c /= s
            self.d /= s
        self._reduce()
        return self._position()


def assert_flags_match_reference(walk_flags, x, eps):
    """The walk's thickness flags on 2000 rays from ``x``, at every grid time
    up to t = 25 and at the midpoint of the final partial step, are those of
    ``ReferenceWalker``.  The flow is chaotic (Lyapunov exponent 1): float
    walkers agree pointwise only until their ulp differences grow to O(1),
    near t = 30."""
    mt = ModularTorus()
    phi = np.random.default_rng(6).uniform(0.0, math.pi, 2000)
    flags, partial, p, m = walk_flags(mt, x, phi, np.full(2000, 25.05), eps, 0.1)
    assert flags.shape == (2000, 250) and np.all(m == 250)
    ref = ReferenceWalker(*_ray_matrices(x, phi))
    _, y = ref._position()
    for j in range(250):
        assert np.array_equal(flags[:, j], y <= 1.0 / eps ** 2), j
        _, y = ref.step(0.1)
    _, y = ref.step(0.5 * p[0])
    assert np.array_equal(partial, y <= 1.0 / eps ** 2)


def reference_reduce(x, y):
    """The reduction loop of ``reduce_many`` without its matrices: every pass
    translates and tests the whole array, reduced entries included."""
    x = np.array(x, dtype=np.float64)
    y = np.array(y, dtype=np.float64)
    for _ in range(_MAX_REDUCE):
        x -= np.floor(x + 0.5)
        m2 = x * x + y * y
        mask = m2 < 1.0 - _BOUND_TOL
        if not np.any(mask):
            return x, y
        inv = m2[mask]
        x[mask] = -x[mask] / inv
        y[mask] = y[mask] / inv
    raise AssertionError("reference reduction did not converge")


def membership_sample():
    rng = np.random.default_rng(21)
    return np.array([(rng.uniform(-8, 8), math.exp(rng.uniform(-6, 3)))
                     for _ in range(10_000)])


class TestModularReduction:
    def test_already_reduced(self):
        x, y, g = reduce_many([0.0, 0.1], [1.0, 10.0])
        assert x.tolist() == [0.0, 0.1] and y.tolist() == [1.0, 10.0]
        assert g.tolist() == [[1.0, 1.0], [0.0, 0.0], [0.0, 0.0], [1.0, 1.0]]

    def test_membership(self):
        pts = membership_sample()
        x, y, _ = reduce_many(pts[:, 0], pts[:, 1])
        assert np.all(np.abs(x) <= 0.5 + 1e-9)
        assert np.all(np.hypot(x, y) >= 1.0 - 1e-9)
        # the reduced point is the highest point of its orbit
        assert np.all(y >= pts[:, 1] * (1.0 - 1e-12))

    def test_reduction_matches_the_reference_in_either_order(self):
        pts = membership_sample()
        x, y, g = reduce_many(pts[:, 0], pts[:, 1])
        ref_x, ref_y = reference_reduce(pts[:, 0], pts[:, 1])
        assert x.tobytes() == ref_x.tobytes() and y.tobytes() == ref_y.tobytes()
        # a 2-D batch, in either memory order, keeps its shape, and its
        # entries are reduced independently
        for order in ("C", "F"):
            bx, by, bg = reduce_many(np.asarray(pts[:, 0].reshape(100, 100), order=order),
                                     np.asarray(pts[:, 1].reshape(100, 100), order=order))
            assert bx.shape == (100, 100) and bg.shape == (4, 100, 100)
            assert bx.ravel().tobytes() == x.tobytes() and by.ravel().tobytes() == y.tobytes()
            assert bg.reshape(4, -1).tobytes() == g.tobytes()

    def test_example_in_strip(self):
        x, y, g = reduce_many([2.3], [0.5])
        assert abs(x[0]) <= 0.5 and math.hypot(x[0], y[0]) >= 1.0 - 1e-12
        # 2.3 + 0.5i -> 0.3 + 0.5i -> its inverse -1/z, then into the strip
        assert g[:, 0].tolist() == [1.0, -3.0, 1.0, -2.0]

    def test_matrices_take_each_point_to_its_reduction(self):
        pts = membership_sample()
        x, y, (a, b, c, d) = reduce_many(pts[:, 0], pts[:, 1])
        for e in (a, b, c, d):
            assert np.array_equal(e, np.round(e))
        assert np.all(a * d - b * c == 1.0)
        # in exact arithmetic: in floats, mobius_apply's numerator cancels to
        # absolute errors near 1e-8 on these matrices (entries up to 1019)
        exact = np.vectorize(Fraction, otypes=[object])
        gx, gy = mobius_apply(*(exact(e) for e in (a, b, c, d)),
                              exact(pts[:, 0]), exact(pts[:, 1]))
        assert np.abs(gx - exact(x)).astype(float).max() <= 1e-12
        assert np.abs(gy / exact(y) - 1).astype(float).max() <= 1e-12

    @pytest.mark.filterwarnings("error")
    def test_points_high_in_the_cusp(self):
        # the squared modulus of 1e160 i overflows; the point is reduced as it is
        x, y, g = reduce_many([0.2, 3.0], [1e160, 1e300])
        assert x.tolist() == [0.2, 0.0] and y.tolist() == [1e160, 1e300]
        assert g[:, 1].tolist() == [1.0, -3.0, 0.0, 1.0]
        assert ModularTorus().thick_many(np.array([1e160j]), 0.5).tolist() == [False]

    @pytest.mark.filterwarnings("error")
    def test_points_deep_in_the_cusp(self):
        # below about 1.5e-154 the squared modulus is subnormal, and below
        # 2e-162 it is 0; the inverse still lands within 2 ulp of the exact one
        xs = [0.0, 0.0, 0.0, 0.0, 0.0, 1e-200]
        ys = [1e-150, 1e-160, 1.6e-162, 1e-170, 1e-300, 1e-170]
        x, y, g = reduce_many(xs, ys)
        for x0, y0, got in zip(xs, ys, y):
            exact = Fraction(y0) / (Fraction(x0) ** 2 + Fraction(y0) ** 2)
            assert abs(Fraction(got) - exact) <= 2 * Fraction(np.spacing(got))
        assert x.tolist() == [0.0] * 6
        assert g.T.tolist() == [[0.0, -1.0, 1.0, 0.0]] * 5 + [[1e140, -1.0, 1.0, 0.0]]
        # an image past the float range reads y = inf, outside
        x, y, _ = reduce_many([0.0, 1e-310], [1e-310, 1e-323])
        assert x.tolist() == [0.0, 0.0] and y.tolist() == [math.inf, math.inf]
        assert ModularTorus().thick_many(np.array([1e-170j, 1e-310j]), 0.5).tolist() \
            == [False, False]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("a, b, c, d", [(math.nan, 0.0, 1.0, 1.0),
                                            (1.0, 0.0, math.inf, 1.0)])
    def test_walk_refuses_a_nan_or_minus_inf_frame(self, a, b, c, d):
        # a NaN frame time never passes the length, and -inf stays -inf
        walker = modular.RayWalker(*(np.array([e]) for e in (a, b, c, d)), 0.5)
        with pytest.raises(DomainError, match="float range"):
            next(walker.excursions(np.array([10.0])))

    @pytest.mark.parametrize("x", [1j, 0.3 + 1.7j])
    @pytest.mark.parametrize("eps", [0.5, 0.1, 0.9])
    def test_coding_flags_match_reference_until_t25(self, eps, x, walk_flags):
        assert_flags_match_reference(walk_flags, x, eps)

    def test_walk_stops_after_the_last_excursion(self, walk_flags, monkeypatch):
        # a ray walked alone, one coding step per batch, stops as soon as no
        # later excursion can start before its length; at eps = 1 an
        # excursion can start up to acosh((1 + sqrt 2) / 2) before the top
        # of the frame ahead of it
        monkeypatch.setattr(modular, "_MAX_BATCH", 1)
        mt = ModularTorus()
        x, eps, n = 0.3 + 1.7j, 1.0, 500
        phi = np.random.default_rng(6).uniform(0.0, math.pi, n)
        ref = ReferenceWalker(*_ray_matrices(x, phi))
        thick = []
        for _ in range(100):
            thick.append(ref._position()[1] <= 1.0 / eps ** 2)
            ref.step(0.1)
        thick = np.array(thick).T
        for k in range(n):
            flags = walk_flags(mt, x, phi[k:k + 1], np.array([10.05]), eps, 0.1)[0]
            assert np.array_equal(flags[0], thick[k]), k

    @pytest.mark.parametrize("x, phi", [(1j, 0.0), (1j, math.pi / 2), (0.5j, 0.0),
                                        (0.5j, math.pi / 2), (0.3 + 1.7j, 0.0)])
    @pytest.mark.parametrize("eps", [0.5, 0.9, 1.0])
    def test_rays_into_a_cusp(self, eps, phi, x, walk_flags):
        # phi = 0 runs straight up and phi = pi/2 straight down, into a cusp
        # either way (from 0.5i straight up, the reduced frame comes out of
        # the cusp at infinity).  At height y the reduced height is
        # max(y, 1/y) on the imaginary axis, and y above 1.7 at real part
        # 0.3, so the ray is thick exactly where |ln y| <= ln(1/eps^2)
        mt = ModularTorus()
        flags, partial, p, m = walk_flags(mt, x, np.array([phi]), np.array([20.05]), eps, 0.1)
        t = np.arange(m[0]) * 0.1
        log_y = math.log(x.imag) + (t if phi == 0.0 else -t)
        assert np.array_equal(flags[0], np.abs(log_y) <= math.log(eps ** -2))
        assert not partial[0]

    def test_basepoint_on_the_thin_boundary_is_thick(self, walk_flags):
        # at eps = 1, i is on the boundary of the horoballs at infinity and
        # at 0: time 0 is thick on every ray, whichever interval rounding
        # would put it in
        mt = ModularTorus()
        phi = np.random.default_rng(6).uniform(0.0, math.pi, 2000)
        flags, _, _, _ = walk_flags(mt, 1j, phi, np.full(2000, 1.05), 1.0, 0.1)
        assert flags[:, 0].all()

    def test_thickness_convention(self):
        mt = ModularTorus()
        assert mt.thick_many(np.array([1j]), 0.5).tolist() == [True]           # Im 1 <= 4
        assert mt.thick_many(np.array([10j]), 0.5).tolist() == [False]         # Im 10 > 4
        assert mt.thick_many(np.array([10j + 7.0]), 0.1).tolist() == [True]    # Im 10 <= 100
        eu = EuclideanSpace(2)
        assert eu.thick_many(eu.singleton(eu.basepoint()), 0.5).tolist() == [True]

    def test_declared_thickness_interface(self):
        mt = ModularTorus()
        zs = np.array([1j, 10j, 10j + 7.0, 0.3 + 0.01j])
        # thin only where the reduced point lies above height 1/eps^2 = 4
        assert mt.thick_many(zs, 0.5).tolist() == [True, False, False, True]
        for space in (EuclideanSpace(2), HyperbolicPlane(), RegularTree(3), sup_plane()):
            batch = space.sample_shell(space.basepoint(), 3.0, 0.0, 5, seed=0)
            assert space.thick_many(batch, 0.5).tolist() == [True] * 5
            with pytest.raises(ParameterError):
                space.thick_many(batch, 0.0)
            with pytest.raises(UnsupportedMethodError):
                space.ray_walker(space.basepoint(), np.zeros(3), 0.5)
        # a product point is thick where every factor is; no ray walker
        sp = SupProduct([mt, mt])
        assert sp.has_thin_part
        batch = (np.array([1j, 10j]), np.array([1j, 1j]))
        assert sp.thick_many(batch, 0.5).tolist() == [True, False]
        with pytest.raises(UnsupportedMethodError):
            sp.ray_walker(sp.basepoint(), np.zeros(3), 0.5)

    def test_thin_area_fraction(self):
        # numeric integral of dx dy / y^2 over the thin part of the domain
        from scipy import integrate
        t0 = 4.0
        area_domain = integrate.quad(lambda x: 1.0 / math.sqrt(1 - x * x), -0.5, 0.5)[0]
        thin = integrate.quad(lambda x: 1.0 / math.sqrt(1 - x * x) - 1.0 / t0, -0.5, 0.5)[0]
        assert thin_area_fraction(0.5) == pytest.approx(1.0 - thin / area_domain, abs=1e-12)


class TestTree:
    def test_distance_examples(self):
        tree = RegularTree(3)
        assert tree.distance("ab", "ac") == 2.0
        assert tree.distance("", "ab") == 2.0
        assert tree.distance("ab", "ab") == 0.0

    @pytest.mark.parametrize("q", [3, 4])
    def test_sphere_cardinality(self, q):
        tree = RegularTree(q)
        for r in range(1, 11):
            assert len(tree.sphere("", r)) == q * (q - 1) ** (r - 1)

    def test_sphere_cardinality_off_root(self):
        tree = RegularTree(3)
        assert len(tree.sphere("ab", 3)) == 3 * 2 ** 2

    def test_address_validation(self):
        tree = RegularTree(3)
        with pytest.raises(DomainError):
            tree.validate_point("aa")
        with pytest.raises(DomainError):
            tree.validate_point("az")

    def test_geodesic_through_ancestor(self):
        tree = RegularTree(3)
        assert tree.geodesic_point("ab", "ac", 1.0) == "a"
        assert tree.geodesic_point("ab", "ac", 2.0) == "ac"
        with pytest.raises(DomainError):
            tree.geodesic_point("ab", "ac", 0.5)

    @given(st.integers(min_value=0, max_value=400))
    def test_distance_symmetry_random_addresses(self, seed):
        tree = RegularTree(4)
        u, v = random_points(tree, 2, seed)
        assert tree.distance(u, v) == tree.distance(v, u)

    def test_annulus_integer_radii(self):
        tree = RegularTree(3)
        batch = tree.sample_shell("", 5.0, 3.0, 300, seed=6)
        radii = {tree.distance("", tree.batch_get(batch, i)) for i in range(tree.batch_size(batch))}
        assert radii <= {2.0, 3.0, 4.0, 5.0}


def reference_walks(tree, x, count, rng, horizon):
    """Scalar non-backtracking walks as address strings, one step at a time."""
    def neighbors(p):
        out = [] if p == "" else [p[:-1]]
        last = p[-1] if p else None
        out.extend(p + ch for ch in tree.alphabet if ch != last)
        return out

    steps = int(math.ceil(horizon - 1e-9))
    walks = []
    u = rng.uniform(size=(count, max(steps, 1)))
    for i in range(count):
        walk = [x]
        prev = None
        for s in range(steps):
            nbrs = neighbors(walk[-1])
            if prev is not None:
                nbrs = [w for w in nbrs if w != prev]
            pick = min(int(u[i, s] * len(nbrs)), len(nbrs) - 1)
            prev = walk[-1]
            walk.append(nbrs[pick])
        walks.append(walk)
    return walks


def tree_batch(tree, points):
    return tree.batch_concat([tree.singleton(p) for p in points])


class TestTreeBatches:
    @pytest.mark.parametrize("q", [3, 4, 5])
    @pytest.mark.parametrize("x", ["", "a", "abcab"])
    def test_walks_match_scalar_reference(self, q, x):
        tree = RegularTree(q)
        for horizon in range(1, 21):
            seed = 1000 * q + horizon
            bundle = tree.rays_chunk(x, 64, np.random.default_rng(seed), horizon=horizon)
            walks = reference_walks(tree, x, 64, np.random.default_rng(seed), horizon)
            ts = np.random.default_rng(seed + 1).integers(0, horizon + 1, size=64)
            pts = bundle.points_at(ts.astype(np.float64))
            assert tree.batch_size(pts) == 64
            for i, t in enumerate(ts):
                assert tree.batch_get(pts, i) == walks[i][t]
            ends = bundle.points_at(float(horizon))
            assert [tree.batch_get(ends, i) for i in range(64)] == [w[-1] for w in walks]

    @pytest.mark.parametrize("q", [3, 4])
    def test_batch_distances_match_scalar(self, q):
        tree = RegularTree(q)
        pts = random_points(tree, 300, seed=41)
        # equal points and prefixes, next to unrelated pairs
        us = pts + pts[:50] + [p[:len(p) // 2] for p in pts[:50]] + [""] * 5
        vs = pts[::-1] + pts[:50] + pts[:50] + ["", "a", "ab", "", "b"]
        got = tree.distance_many(tree_batch(tree, us), tree_batch(tree, vs))
        assert got.dtype == np.float64
        # string reference: both lengths minus twice the common prefix
        def ref(u, v):
            return len(u) + len(v) - 2 * len(os.path.commonprefix([u, v]))
        assert got.tolist() == [ref(u, v) for u, v in zip(us, vs)]
        assert [tree.distance(u, v) for u, v in zip(us, vs)] == got.tolist()
        cross = tree.cross_distance(tree_batch(tree, us[:80]), tree_batch(tree, vs[-70:]))
        assert cross.tolist() == [[ref(u, v) for v in vs[-70:]] for u in us[:80]]

    def test_geodesic_points_match_geodesic_point(self):
        tree = RegularTree(3)
        pts = random_points(tree, 200, seed=43)
        ts = np.arange(0.0, 20.0)  # past every d(u, v) <= 16
        for u, v in zip(pts[::2], pts[1::2]):
            if u == v:
                continue
            batch = tree.geodesic_points(tree.singleton(u), tree.singleton(v), ts)
            got = [tree.batch_get(batch, i) for i in range(len(ts))]
            assert got == [tree.geodesic_point(u, v, t) for t in ts]
            assert [tree.distance(u, p) for p in got] == ts.tolist()
            assert got[int(tree.distance(u, v))] == v

    def test_points_at_rejects_bad_times(self):
        tree = RegularTree(3)
        bundle = tree.rays_chunk("ab", 4, np.random.default_rng(0), horizon=5)
        with pytest.raises(DomainError):
            bundle.points_at(0.5)
        with pytest.raises(ParameterError):
            bundle.points_at(6.0)
        with pytest.raises(ParameterError):
            bundle.points_at(np.array([1.0, 2.0, 6.0, 0.0]))

    def test_batches_are_label_arrays(self):
        tree = RegularTree(3)
        a, b = tree.singleton("ab"), tree.singleton("c")
        pts = tree.rays_chunk("ab", 4, np.random.default_rng(0), horizon=5).points_at(3.0)
        for batch in (a, tree.batch_concat([a, b]), tree.batch_take(pts, [1, 3]), pts,
                      tree.geodesic_points(a, b, [0.0, 4.0])):
            assert type(batch) is np.ndarray and batch.dtype == np.int8 and batch.ndim == 2
        # padded to the widest batch, each row with its own length
        assert tree.batch_concat([b, a]).tolist() == [[2, -1], [0, 1]]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("t,error", [(0.5, DomainError), (-1.0, ParameterError),
                                         (math.inf, DomainError), (math.nan, DomainError)])
    def test_one_rule_for_bad_times(self, t, error):
        tree = RegularTree(3)
        calls = (lambda: tree.rays_chunk("ab", 4, np.random.default_rng(0), horizon=5).points_at(t),
                 lambda: tree.geodesic_points(tree.singleton("ab"), tree.singleton("c"), [1.0, t]),
                 lambda: tree.sample_radii(np.random.default_rng(0), 3, t, 0.0))
        messages = []
        for call in calls:
            with pytest.raises(error) as info:
                call()
            messages.append(str(info.value))
        assert len(set(messages)) == 1, messages

    def test_walk_horizon_steps(self):
        tree = RegularTree(3)
        for horizon, steps in ((4 - 1e-10, 4), (4.0, 4), (4 + 1e-10, 4), (4.5, 5)):
            bundle = tree.rays_chunk("", 3, np.random.default_rng(0), horizon=horizon)
            assert (bundle.horizon, bundle.moves.shape[1]) == (steps, steps)
        for horizon in (math.inf, math.nan):
            with pytest.raises(ParameterError, match="ray horizon must be finite"):
                tree.rays_chunk("", 3, np.random.default_rng(0), horizon=horizon)

    @pytest.mark.parametrize("q", [3, 4, 5])
    @pytest.mark.parametrize("x", ["", "a", "abcab"])
    def test_pair_kernel_matches_label_rows(self, q, x):
        tree = RegularTree(q)
        for horizon in range(1, 21):
            rng = np.random.default_rng(2000 * q + horizon)
            by, bz = (tree.rays_chunk(x, 64, rng, horizon=horizon) for _ in range(2))
            ty, tz = rng.integers(0, horizon + 1, size=(2, 64)).astype(np.float64)
            ty[:3], tz[:3] = (0, horizon, horizon), (horizon, 0, horizon)
            # other walks, the same walks at other times, one scalar time
            for t_y, other, t_z in ((ty, bz, tz), (ty, by, tz), (float(horizon), bz, tz)):
                assert same_bits(tree.ray_pair_distances(by, t_y, other, t_z),
                                 tree.distance_many(by.points_at(t_y), other.points_at(t_z)))
            for t in (0.0, float(horizon // 2), float(horizon)):  # scalar times
                assert same_bits(tree.ray_pair_distances(by, t, bz, t),
                                 tree.distance_many(by.points_at(t), bz.points_at(t)))
            assert np.all(tree.ray_pair_distances(by, ty, by, ty) == 0.0)


BATCH_SPACES = [EuclideanSpace(2), HyperbolicPlane(), ModularTorus(), RegularTree(3),
                SupProduct([HyperbolicPlane(), EuclideanSpace(2)])]


@pytest.mark.parametrize("space", BATCH_SPACES, ids=space_id)
def test_batch_layer_agrees_with_batch_get(space):
    pts = random_points(space, 12, seed=7)
    if space.atomic:  # rows of different lengths, the root among them
        assert len({len(p) for p in pts}) > 3
        pts[4] = ""
    parts = [space.batch_concat([space.singleton(p) for p in pts[:5]]),
             space.batch_concat([space.singleton(p) for p in pts[5:]])]
    batch = space.batch_concat(parts)
    assert [space.batch_size(b) for b in (*parts, batch)] == [5, 7, 12]
    assert all(same_point(space.batch_get(batch, i), p) for i, p in enumerate(pts))
    for idx in (np.array([11, 0, 4, 4, 7]), np.arange(12)[::-1], np.array([], dtype=int),
                slice(3, 9), slice(None, -1)):
        rows = range(12)[idx] if isinstance(idx, slice) else idx.tolist()
        taken = space.batch_take(batch, idx)
        assert space.batch_size(taken) == len(rows)
        assert all(same_point(space.batch_get(taken, j), pts[i]) for j, i in enumerate(rows))
    # taken rows keep their distances
    idx = np.array([2, 9, 5])
    assert np.array_equal(space.cross_distance(space.batch_take(batch, idx), batch),
                          space.cross_distance(batch, batch)[idx])


H2_TYPE = [HyperbolicPlane(), ModularTorus(),
           SupProduct([HyperbolicPlane(), HyperbolicPlane()]),
           SupProduct([HyperbolicPlane(), euclid_line()])]


def ray_pair(space, x, m, r, k, seed):
    """Two bundles of ``m`` rays from ``x`` with shell radii in [r-k, r]."""
    rngs = [np.random.default_rng([seed, j]) for j in range(4)]
    by, bz = (space.rays_chunk(x, m, rng, horizon=r) for rng in rngs[:2])
    ty, tz = (space.sample_radii(rng, m, r, k) for rng in rngs[2:])
    return by, ty, bz, tz


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("space", H2_TYPE, ids=space_id)
class TestRayPairDistances:
    """The closed-form pair kernel against the Cartesian points it replaces."""

    def basepoints(self, space):
        if isinstance(space, SupProduct):
            return [space.basepoint(), tuple(0.3 + 2.5j if c.kind == "hyperbolic-plane"
                                             else c.basepoint() for c in space.components)]
        return [1j, 0.3 + 2.5j]

    @pytest.mark.parametrize("r", [0.5, 3.0, 20.0, 40.0], ids=space_id)
    def test_agrees_with_cartesian_points(self, space, r):
        for x in self.basepoints(space):
            for k in (0.0, 0.25 * r, r):  # sphere, annulus, ball
                by, ty, bz, tz = ray_pair(space, x, 4000, r, k, seed=int(8 * r))
                got = space.ray_pair_distances(by, ty, bz, tz)
                ref = space.distance_many(by.points_at(ty), bz.points_at(tz))
                assert np.allclose(got, ref, rtol=1e-11, atol=0.0)
            got = space.ray_pair_distances(by, r, bz, r)  # scalar times
            ref = space.distance_many(by.points_at(r), bz.points_at(r))
            assert np.allclose(got, ref, rtol=1e-11, atol=0.0)

    def test_equal_rays_and_time_zero_are_exactly_zero(self, space):
        by, ty, bz, _ = ray_pair(space, space.basepoint(), 200, 30.0, 30.0, seed=5)
        assert np.all(space.ray_pair_distances(by, ty, by, ty) == 0.0)
        assert np.all(space.ray_pair_distances(by, 1e4, by, 1e4) == 0.0)
        assert np.all(space.ray_pair_distances(by, 0.0, bz, np.zeros(200)) == 0.0)

    def test_finite_far_past_the_cartesian_horizon(self, space):
        by, _, bz, _ = ray_pair(space, space.basepoint(), 500, 1.0, 0.0, seed=6)
        for t in (400.0, 1e4):
            d = space.ray_pair_distances(by, t, bz, t)
            assert np.all(np.isfinite(d)) and np.all((d >= 0.0) & (d <= 2.0 * t))
            if not isinstance(space, SupProduct):  # factor speeds below 1 shorten products
                assert np.median(d) > 1.99 * t


def test_ray_pairs_need_one_basepoint():
    hyp = HyperbolicPlane()
    by = hyp.rays_chunk(1j, 4, np.random.default_rng(1), horizon=1.0)
    bz = hyp.rays_chunk(2j, 4, np.random.default_rng(2), horizon=1.0)
    with pytest.raises(DomainError, match="one basepoint"):
        hyp.ray_pair_distances(by, 1.0, bz, 1.0)


def same_bits(got, want):
    """Equal type, dtype, shape and bytes: -0.0, inf and NaN payloads included."""
    return (type(got) is type(want) and got.dtype == want.dtype
            and got.shape == want.shape and got.tobytes() == want.tobytes())


def reference_hyperbolic_pairs(by, ty, bz, tz):
    """The hyperbolic pair kernel written as whole-array expressions, one
    temporary per operation: the in-place kernel must match it bit for bit."""
    ty = np.asarray(ty, dtype=np.float64)
    tz = np.asarray(tz, dtype=np.float64)
    lo = np.minimum(ty, tz)
    gap = np.expm1(lo - np.maximum(ty, tz))
    tan2 = np.tan(by.phi - bz.phi)
    tan2 *= tan2
    sin2 = tan2 / (1.0 + tan2)
    w = np.exp(-2.0 * lo) * gap * gap + np.expm1(-2.0 * ty) * np.expm1(-2.0 * tz) * sin2
    with np.errstate(divide="ignore"):
        log_w = np.log(w)
    log_v = 0.5 * (ty + tz + log_w) - math.log(2.0)
    tail = 27.0 * math.log(2.0)
    near = 2.0 * np.arcsinh(np.exp(np.minimum(log_v, tail)))
    return np.where(log_v > tail, ty + tz + log_w, near)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("space", [HyperbolicPlane(), ModularTorus()], ids=space_id)
@pytest.mark.parametrize("x", [1j, 0.3 + 2.5j])
def test_hyperbolic_pairs_match_the_expression_bit_for_bit(space, x):
    m = 3000
    by, ty, bz, tz = ray_pair(space, x, m, 20.0, 20.0, seed=9)
    # coincident directions in the first third (w = 0, log w = -inf, d = 0
    # at equal times), the same directions written pi apart in the second
    phi = bz.phi.copy()
    phi[:m // 3] = by.phi[:m // 3]
    phi[m // 3:2 * m // 3] = by.phi[m // 3:2 * m // 3] + math.pi
    near_by = HyperbolicRays(by.x, phi)
    tiny = 1e-3 * (1.0 + np.random.default_rng(4).uniform(size=m))
    times = [(5.0, 5.0), (ty, tz), (1e4, 1e4), (1e-3, 1e-3), (tiny, tiny[::-1].copy()),
             (ty, 7.0), (1e4 + ty, tz), (ty, ty)]
    for other in (bz, near_by, by):
        for t_y, t_z in times:
            got = space.ray_pair_distances(by, t_y, other, t_z)
            assert same_bits(got, reference_hyperbolic_pairs(by, t_y, other, t_z))
    assert np.all(space.ray_pair_distances(by, ty, near_by, ty)[:m // 3] == 0.0)
    assert np.all(space.ray_pair_distances(by, 1e4, by, 1e4) == 0.0)

NORMED = ([EuclideanSpace(dim, p=p) for dim in (1, 2, 3, 7) for p in (1.0, 1.5, 2.0, math.inf)]
          + [sup_plane(), SupProduct([EuclideanSpace(2), HyperbolicPlane()])])


def cartesian_pairs(space, by, ty, bz, tz):
    """The pair kernel with every normed factor measured on its points:
    ``distance_many`` of the bundles' points, the largest over factors taken
    with ``np.max`` of the stacked factor distances."""
    if isinstance(space, SupProduct):
        ty, tz = np.asarray(ty, dtype=np.float64), np.asarray(tz, dtype=np.float64)
        per = [cartesian_pairs(c, yj, ty * by.speeds[j], zj, tz * bz.speeds[j])
               for j, (c, yj, zj) in enumerate(zip(space.components, by.bundles, bz.bundles))]
        return np.max(np.stack(per, axis=0), axis=0)
    if isinstance(space, EuclideanSpace):
        return space.distance_many(by.points_at(ty), bz.points_at(tz))
    return space.ray_pair_distances(by, ty, bz, tz)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("space", NORMED, ids=space_id)
class TestNormedRayPairDistances:
    """The coordinate-column pair kernel against the Cartesian points it
    replaces: the arithmetic is the same, so the bits are too."""

    def basepoints(self, space):
        def shifted(c):
            return 0.3 + 2.5j if c.kind == "hyperbolic-plane" else np.linspace(-1.5, 2.0, c.dim)
        if isinstance(space, SupProduct):
            return [space.basepoint(), tuple(shifted(c) for c in space.components)]
        return [space.basepoint(), shifted(space)]

    @pytest.mark.parametrize("r", [0.5, 20.0], ids=space_id)
    def test_equals_cartesian_points(self, space, r):
        for x in self.basepoints(space):
            for k in (0.0, 0.25 * r, r):  # sphere, annulus, ball
                by, ty, bz, tz = ray_pair(space, x, 3000, r, k, seed=int(4 * r))
                assert np.array_equal(space.ray_pair_distances(by, ty, bz, tz),
                                      cartesian_pairs(space, by, ty, bz, tz))
            assert np.array_equal(space.ray_pair_distances(by, r, bz, r),  # scalar times
                                  cartesian_pairs(space, by, r, bz, r))

    def test_equal_rays_and_time_zero_are_exactly_zero(self, space):
        by, ty, bz, _ = ray_pair(space, self.basepoints(space)[1], 200, 30.0, 30.0, seed=5)
        assert np.all(space.ray_pair_distances(by, ty, by, ty) == 0.0)
        assert np.all(space.ray_pair_distances(by, 1e4, by, 1e4) == 0.0)
        assert np.all(space.ray_pair_distances(by, 0.0, bz, np.zeros(200)) == 0.0)


@pytest.mark.parametrize("dim", range(1, 8))
def test_pnorm_matches_row_reductions(dim):
    # below 8 coordinates numpy's row sum adds in coordinate order, as _pnorm does
    rng = np.random.default_rng(dim)
    deltas = rng.normal(size=(4000, dim)) * np.exp(rng.uniform(-30.0, 30.0, size=(4000, dim)))
    for shaped in (deltas, deltas.reshape(40, 100, dim), deltas[0]):
        a = np.abs(shaped)
        assert np.array_equal(_pnorm(shaped, 1.0), a.sum(axis=-1))
        assert np.array_equal(_pnorm(shaped, 2.0), np.sqrt((a * a).sum(axis=-1)))
        assert np.array_equal(_pnorm(shaped, math.inf), a.max(axis=-1))



def reference_pnorm(deltas, p):
    """``_pnorm`` computed from a copy of the absolute values, column by
    column, one temporary per operation: the in-place norm must match it
    bit for bit."""
    a = np.abs(deltas)
    dim = a.shape[-1]
    if p == 2.0:
        total = a[..., 0] * a[..., 0]
        for j in range(1, dim):
            total += a[..., j] * a[..., j]
        return np.sqrt(total)
    if p == 1.0:
        total = a[..., 0]
        for j in range(1, dim):
            total = total + a[..., j]
        return total
    top = a[..., 0]
    for j in range(1, dim):
        top = np.maximum(top, a[..., j])
    if math.isinf(p):
        return top
    scale = np.where((top > 0.0) & (top < math.inf), top, 1.0)
    total = (a[..., 0] / scale) ** p
    for j in range(1, dim):
        total += (a[..., j] / scale) ** p
    return top * total ** (1.0 / p)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf, 1000.0])
@pytest.mark.parametrize("dim", [1, 2, 3, 7, 8])
def test_pnorm_matches_the_abs_copy_bit_for_bit(p, dim):
    rng = np.random.default_rng(dim)
    wide = rng.normal(size=(2000, dim)) * np.exp(rng.uniform(-30.0, 30.0, size=(2000, dim)))
    # signed zeros, subnormals, and 1e200, whose square overflows to inf
    special = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e200, -1e200, 1.0, -3.0]
    rows = np.concatenate([wide, rng.choice(special, size=(2000, dim))])
    with np.errstate(over="ignore"):
        assert same_bits(_pnorm(rows, p), reference_pnorm(rows, p))
        assert same_bits(_pnorm(rows.reshape(40, 100, dim), p),
                         reference_pnorm(rows.reshape(40, 100, dim), p))
        for row in rows[::97]:  # one vector gives a numpy scalar
            got = _pnorm(row, p)
            assert isinstance(got, np.float64)
            assert same_bits(np.asarray(got), np.asarray(reference_pnorm(row, p)))


def arrays_in(value):
    """The numpy arrays held by a point, batch or bundle, or a tuple of them."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, (tuple, list)):
        return [a for v in value for a in arrays_in(v)]
    if isinstance(value, RayBundle):
        return arrays_in(list(vars(value).values()))
    return []


@pytest.mark.parametrize("space", NORMED + [HyperbolicPlane(), ModularTorus()], ids=space_id)
def test_kernels_write_no_input(space):
    """The chunk kernels leave the bundles, the times and the basepoint as they
    were, and hand back arrays of their own."""
    x = space.basepoint()
    by, ty, bz, tz = ray_pair(space, x, 500, 20.0, 20.0, seed=2)
    scalar = np.array(7.5)
    held = arrays_in([x, by, bz, ty, tz, scalar])
    copies = [a.copy() for a in held]
    for t_y, t_z in ((ty, tz), (scalar, scalar), (ty, ty), (scalar, tz), (7.5, 7.5)):
        U, V = by.points_at(t_y), bz.points_at(t_z)
        points = arrays_in([U, V])
        kept = [a.copy() for a in points]
        for d in (space.ray_pair_distances(by, t_y, bz, t_z),
                  space.ray_pair_distances(by, t_y, by, t_y),
                  space.distance_many(U, V)):
            assert not any(np.shares_memory(d, a) for a in held + points)
        assert all(same_bits(a, b) for a, b in zip(points, kept))
    assert all(same_bits(a, b) for a, b in zip(held, copies))
    assert len(held) >= 5

@pytest.mark.filterwarnings("error")
def test_large_p_neither_overflows_nor_underflows():
    space = EuclideanSpace(2, p=1000)
    assert space.distance((0, 0), (3, 0)) == 3.0
    assert space.distance((0, 0), (0.1, 0)) == 0.1
    assert space.distance((0, 0), (1e-3, 1e-3)) == pytest.approx(1e-3 * 2 ** (1 / 1000),
                                                               rel=0.0, abs=1e-12)
    U = np.array([[1.0, 2.0], [0.0, 0.0], [-7.0, 7.0]])
    assert np.array_equal(space.distance_many(U, U), np.zeros(3))
    assert np.allclose(space.distance_many(U, np.zeros((3, 2))),
                       [2.0, 0.0, 7.0 * 2 ** (1 / 1000)], rtol=1e-15, atol=0.0)
    # an infinite coordinate gap is an infinite distance, as at p = 1, 2 and inf
    assert np.array_equal(_pnorm(np.array([[math.inf, 1.0], [0.0, -math.inf]]), 1000.0),
                          [math.inf, math.inf])


class TestFloatHorizon:
    def test_ray_points_past_the_horizon(self):
        hyp = HyperbolicPlane()
        bundle = hyp.rays_chunk(1j, 50, np.random.default_rng(3), horizon=400.0)
        with pytest.raises(DomainError, match="time 400.0 is past the float range"):
            bundle.points_at(400.0)
        assert np.all(bundle.points_at(300.0).imag > 0)

    def test_geodesic_points_past_the_horizon(self):
        hyp = HyperbolicPlane()
        for u, v in ((1j, 2j), (1j, 0.5j), (1j, 1.0 + 1j)):
            with pytest.raises(DomainError, match="time 800.0 is past the float range"):
                hyp.geodesic_points(u, v, [0.0, 5.0, 800.0])


class TestSupProduct:
    def test_distance_example(self):
        sp = sup_plane()
        u = (np.array([0.0]), np.array([0.0]))
        v = (np.array([3.0]), np.array([1.0]))
        assert sp.distance(u, v) == 3.0

    def test_straight_line_geodesic(self):
        sp = sup_plane()
        u = (np.array([0.0]), np.array([0.0]))
        v = (np.array([4.0]), np.array([2.0]))
        mid = sp.geodesic_point(u, v, 2.0)
        assert mid[0][0] == pytest.approx(2.0)
        assert mid[1][0] == pytest.approx(1.0)

    def test_tree_factor_rejected(self):
        with pytest.raises(ParameterError):
            SupProduct([EuclideanSpace(1), RegularTree(3)])

    def test_geodesic_with_a_degenerate_factor(self):
        # u and v share their hyperbolic factor: it stays at that point while
        # the plane factor runs at unit speed
        sp = SupProduct([HyperbolicPlane(), EuclideanSpace(2)])
        u, v = (2j, np.zeros(2)), (2j, np.array([3.0, 4.0]))
        hyp, plane = sp.geodesic_points(u, v, np.array([0.0, 2.5, 5.0]))
        assert hyp.tolist() == [2j, 2j, 2j]
        assert plane.tolist() == [[0.0, 0.0], [1.5, 2.0], [3.0, 4.0]]
        # two rows, only the first with a stuck factor: the second runs its
        # hyperbolic factor, of length log 2, at speed log(2) / 5
        U = as_batch(sp, [u, (1j, np.zeros(2))])
        hyp, plane = sp.geodesic_points(U, sp.singleton(v), np.array([2.5, 2.5]))
        assert hyp[0] == 2j and hyp[1] == pytest.approx(math.sqrt(2.0) * 1j)
        assert plane.tolist() == [[1.5, 2.0], [1.5, 2.0]]


SEGMENT_SPACES = [
    EuclideanSpace(2),
    EuclideanSpace(3),
    EuclideanSpace(2, p=1.0),
    EuclideanSpace(1),
    EuclideanSpace(1, p=1.0),
    HyperbolicPlane(),
    ModularTorus(),
    SupProduct([HyperbolicPlane(), HyperbolicPlane()]),
    sup_plane(),
    SupProduct([EuclideanSpace(2), HyperbolicPlane()]),
]


def as_batch(space, points):
    return space.batch_concat([space.singleton(p) for p in points])


def brute_segment_distance(space, P, u, v, h):
    """Least distance from each point of ``P`` to the points of [u, v] at spacing <= h."""
    d = space.distance(u, v)
    grid = space.geodesic_points(u, v, np.linspace(0.0, d, int(math.ceil(d / h)) + 1))
    return space.cross_distance(P, grid).min(axis=1)


def to_segment(space, P, u, v):
    """``distance_to_segment`` to the one segment [u, v], shared by every row of ``P``."""
    return space.distance_to_segment(P, space.singleton(u), space.singleton(v))


@pytest.mark.parametrize("space", SEGMENT_SPACES, ids=space_id)
class TestDistanceToSegment:
    H = 1e-3

    def test_against_dense_grid(self, space):
        # the exact distance is never above the grid minimum and at most one
        # grid spacing below it, where the grid minimum is within h/2 of the truth
        for seed in range(4):
            u, v = random_points(space, 2, 100 + seed)
            P = as_batch(space, random_points(space, 40, 200 + seed))
            exact = to_segment(space, P, u, v)
            grid = brute_segment_distance(space, P, u, v, self.H)
            assert np.all(exact <= grid + 1e-9)
            assert np.all(exact >= grid - self.H)

    def test_zero_on_the_segment(self, space):
        u, v = random_points(space, 2, 7)
        d = space.distance(u, v)
        pts = space.geodesic_points(u, v, np.linspace(0.0, d, 17))
        assert np.all(to_segment(space, pts, u, v) <= 1e-8 * max(1.0, d))

    def test_feet_beyond_either_endpoint(self, space):
        # points on the geodesic's continuation past v (or back past u) are
        # nearest to that endpoint
        u, v = random_points(space, 2, 8)
        d = space.distance(u, v)
        extra = np.array([0.25, 1.0, 2.5])
        past_v = space.geodesic_points(u, v, d + extra)
        past_u = space.geodesic_points(v, u, d + extra)
        np.testing.assert_allclose(to_segment(space, past_v, u, v), extra, atol=1e-8)
        np.testing.assert_allclose(to_segment(space, past_u, u, v), extra, atol=1e-8)

    def test_symmetric_in_the_endpoints(self, space):
        u, v = random_points(space, 2, 9)
        P = as_batch(space, random_points(space, 40, 10))
        np.testing.assert_allclose(to_segment(space, P, u, v),
                                   to_segment(space, P, v, u), rtol=0, atol=1e-9)

    def test_degenerate_segment_is_its_point(self, space):
        (u,) = random_points(space, 1, 11)
        P = as_batch(space, random_points(space, 10, 12))
        np.testing.assert_allclose(to_segment(space, P, u, u),
                                   space.cross_distance(P, space.singleton(u))[:, 0],
                                   rtol=0, atol=1e-9)

    def test_rows_match_one_segment_calls(self, space):
        # one call with a segment per row gives each row what the call for
        # its segment alone gives: short and long segments (the search stops
        # each row at its own tolerance), a degenerate one, vertical ones on
        # H^2-type models, and points whose feet lie past either endpoint
        ends, aims = random_points(space, 8, 14), random_points(space, 8, 15)
        segments = [(u, space.geodesic_point(u, w, length))
                    for u, w, length in zip(ends, aims, [0.3, 0.7, 3.0, 8.0] * 2)]
        segments.append((ends[0], ends[0]))
        if space.kind in ("hyperbolic-plane", "modular-torus"):
            segments += [(0.5 + 0.2j, 0.5 + 4.0j), (-1.0 + 3.0j, -1.0 + 0.4j)]
        P, U, V, alone = [], [], [], []
        for k, (u, v) in enumerate(segments):
            pts = random_points(space, 3, 300 + k)
            d = space.distance(u, v)
            if d > 0.0:
                # feet past either end, and feet inside, near the middle
                mid = space.geodesic_point(u, v, d / 2.0)
                pts += [space.geodesic_point(u, v, d + 0.5), space.geodesic_point(v, u, d + 1.5)]
                pts += [space.geodesic_point(mid, w, 0.1) for w in random_points(space, 2, 500 + k)]
            batch = as_batch(space, pts)
            alone.append(to_segment(space, batch, u, v))
            if d > 0.0:
                grid = brute_segment_distance(space, batch, u, v, self.H)
                assert np.all((alone[-1] <= grid + 1e-9) & (alone[-1] >= grid - self.H))
            P.append(batch)
            U += [u] * len(pts)
            V += [v] * len(pts)
        rows = space.distance_to_segment(space.batch_concat(P), as_batch(space, U),
                                         as_batch(space, V))
        np.testing.assert_allclose(rows, np.concatenate(alone), rtol=1e-12, atol=0.0,
                                   equal_nan=False)


@pytest.mark.parametrize("space", [HyperbolicPlane(), ModularTorus(), EuclideanSpace(1),
                                   EuclideanSpace(2), EuclideanSpace(3)], ids=space_id)
def test_foot_matches_the_search_with_the_foot_hidden(space, monkeypatch):
    # where a model knows its foot, distance_to_segment reads the profile at
    # the clamped foot; the golden search over the same profile, with the
    # foot hidden, must agree to its own tolerance of 1e-9 * max(1, d_j) in
    # time (the profile is 1-Lipschitz), and the foot is never above it.
    # Segments run both ways, with feet inside and past either end
    ends, aims = random_points(space, 12, 40), random_points(space, 12, 41)
    segments = [(u, space.geodesic_point(u, w, length))
                for u, w, length in zip(ends, aims, [0.2, 1.0, 4.0, 12.0] * 3)]
    segments += [(v, u) for u, v in segments]
    P, U, V = [], [], []
    for k, (u, v) in enumerate(segments):
        mid = space.geodesic_point(u, v, space.distance(u, v) / 2.0)
        pts = random_points(space, 4, 600 + k)
        pts += [space.geodesic_point(mid, w, 0.3) for w in random_points(space, 4, 700 + k)]
        P += pts
        U += [u] * len(pts)
        V += [v] * len(pts)
    P, U, V = as_batch(space, P), as_batch(space, U), as_batch(space, V)
    d, _, s0 = space.segment_profile(P, U, V)
    assert ((s0 > 0.0) & (s0 < d)).any() and (s0 < 0.0).any() and (s0 > d).any()
    foot = space.distance_to_segment(P, U, V)
    profile = space.segment_profile
    monkeypatch.setattr(space, "segment_profile", lambda *args: profile(*args)[:2] + (None,))
    search = space.distance_to_segment(P, U, V)
    assert np.all(foot <= search + 1e-14 * np.maximum(1.0, search))
    assert np.all(search - foot <= 1e-9 * np.maximum(1.0, d))


def test_tree_has_no_segment_profile():
    tree = RegularTree(3)
    P = tree.batch_concat([tree.singleton("a"), tree.singleton("b")])
    with pytest.raises(UnsupportedMethodError):
        tree.distance_to_segment(P, tree.singleton(""), tree.singleton("ab"))


def metric_greedy_net(space, u, v, c):
    """Reference net: the greedy pass measured in the model.  Of the
    candidates spaced c/2 along [u, v], each at least c from every kept one
    is kept; in exact arithmetic every other candidate lies exactly c from
    the last kept one, so ties within ``_GRID_TOL`` count as c, as in
    ``build_net``."""
    d = space.distance(u, v)
    candidates = space.geodesic_points(u, v, _time_grid(0.0, d, c / 2.0))
    n = space.batch_size(candidates)
    kept: list[int] = []
    min_dist = np.full(n, np.inf)
    for i in range(n):
        if min_dist[i] >= c - _GRID_TOL:
            kept.append(i)
            row = space.cross_distance(space.batch_take(candidates, slice(i, i + 1)),
                                       candidates)
            np.minimum(min_dist, row[0], out=min_dist)
    return space.batch_take(candidates, np.array(kept))


# each space with its fixed segments (u, v, c)
NET_CASES = [
    (EuclideanSpace(2), [(np.array([0.0, 0.0]), np.array([4.0, 3.0]), 0.7)]),
    (EuclideanSpace(2, p=1.0), []),
    (HyperbolicPlane(), [(1j, 2.0 + 5.0j, 0.4)]),
    (SupProduct([HyperbolicPlane(), EuclideanSpace(2)]), []),
]


class TestNets:
    def test_interval_net_size(self):
        eu = euclid_line()
        net = build_net(eu, np.array([0.0]), np.array([10.0]), 1.0)
        # the candidates 0, 0.5, ..., 10 hold the endpoint once, and the
        # greedy pass keeps every other one
        assert eu.batch_size(net.points) == 11
        assert net.points.ravel().tolist() == [float(i) for i in range(11)]

    @pytest.mark.parametrize("space, segments", NET_CASES,
                             ids=[space.describe() for space, _ in NET_CASES])
    def test_keeps_the_points_of_the_metric_greedy(self, space, segments):
        # build_net compares times; the reference measures in the model, and
        # its construction makes the net c-separated and 2c-dense
        x = space.basepoint()
        rng = np.random.default_rng(3)
        segments = segments + [
            (x, space.batch_get(space.rays_chunk(x, 1, rng, horizon=12.0).points_at(length), 0), c)
            for length in np.linspace(3.0, 10.0, 8) for c in (0.3, 0.5, 0.7)]
        for u, v, c in segments:
            assert same_point(build_net(space, u, v, c).points, metric_greedy_net(space, u, v, c))

    def test_single_point_segment(self):
        eu = EuclideanSpace(2)
        net = build_net(eu, np.ones(2), np.ones(2), 0.5)
        assert net.points.tolist() == [[1.0, 1.0]]

    def test_nearest(self):
        eu = euclid_line()
        net = Net(points=np.arange(0.0, 11.0)[:, None], c=0.5)
        # 5.5 ties between 5 and 6; the first net point wins
        idx, dist = net.nearest(eu, np.array([[3.4], [9.9], [-2.0], [5.5]]))
        assert idx.tolist() == [3, 10, 0, 5]
        assert dist == pytest.approx([0.4, 0.1, 2.0, 0.5])


class TestFactory:
    def test_aliases(self):
        assert make_space("euclidean").kind == "euclidean-p-norm"
        assert make_space("hyperbolic-plane").kind == "hyperbolic-plane"
        assert make_space("modular").kind == "modular-torus"
        assert make_space("tree", q=4).q == 4

    def test_default_growth_exponents(self):
        assert make_space("euclidean").h == 0.0
        assert make_space("hyperbolic").h == 1.0
        assert make_space("tree", q=3).h == pytest.approx(math.log(2.0))

    def test_every_name_is_its_class(self):
        for short, cls in [("euclidean", EuclideanSpace), ("hyperbolic", HyperbolicPlane),
                           ("modular", ModularTorus), ("tree", RegularTree)]:
            assert space_class(short) is cls and space_class(cls.kind) is cls
        assert space_class("sup-product") is SupProduct

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            make_space("minkowski")
        with pytest.raises(ParameterError):
            space_class("minkowski")

    def test_parameters_are_the_constructors(self):
        # a key the kind does not take is an error, not dropped
        with pytest.raises(TypeError):
            make_space("hyperbolic", dim=3)
