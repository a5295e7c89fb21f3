"""Volumes, polar duality, Mahler bounds, and the two Finsler densities."""

import itertools
import math
import warnings

import numpy as np
import pytest

from stathyp import convex
from stathyp.errors import DomainError, ParameterError, UnsupportedMethodError


def square():
    return convex.Polytope([[1, 1], [1, -1], [-1, 1], [-1, -1]])


class TestVolume:
    def test_unit_disk(self):
        assert convex.volume(convex.Ellipsoid([1.0, 1.0])).value == pytest.approx(math.pi)

    def test_square(self):
        assert convex.volume(square()).value == pytest.approx(4.0, abs=1e-12)

    def test_cross_polytope_3d(self):
        # L1 ball in R^3: 2^n / n! = 8/6
        assert convex.volume(convex.LpBall(3, 1.0)).value == pytest.approx(4.0 / 3.0)
        verts = np.vstack([np.eye(3), -np.eye(3)])
        assert convex.volume(convex.Polytope(verts)).value == pytest.approx(4.0 / 3.0)

    @pytest.mark.parametrize("dim,p", [(2, 1.0), (2, 3.0), (3, 1.5), (4, math.inf)])
    def test_monte_carlo_matches_exact(self, dim, p):
        body = convex.LpBall(dim, p)
        exact = convex.volume(body).value
        mc = convex.volume(body, "monte-carlo", n=100_000, seed=5)
        assert abs(mc.value - exact) <= 3.0 * mc.std_error

    def test_exact_polytope_limited_to_3d(self):
        verts = np.vstack([np.eye(4), -np.eye(4)])
        with pytest.raises(UnsupportedMethodError):
            convex.volume(convex.Polytope(verts))

    def test_asymmetric_vertices_rejected(self):
        with pytest.raises(DomainError):
            convex.Polytope([[1, 0], [0, 1], [-1, -1], [2, 2]])

    def test_symmetry_check_spans_blocks(self, monkeypatch):
        # a block bound of 120 elements compares two of the 20 vertices at a
        # time, so the vertex without an antipode sits in the last block
        monkeypatch.setattr(convex, "_DEDUPE_BLOCK_ELEMS", 120)
        g = np.random.default_rng(5).normal(size=(10, 3))
        verts = np.vstack([g, -g])
        assert len(convex.Polytope(verts).vertices) == 20
        verts[19] *= 1.01
        with pytest.raises(DomainError, match="centrally symmetric"):
            convex.Polytope(verts)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_vertices_rejected(self, bad):
        # before the symmetry scan, whose sums of inf and -inf warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="finite"):
                convex.Polytope([[bad, 0.0], [-bad, 0.0], [0.0, 1.0], [0.0, -1.0]])

    def test_flat_vertices_fail_with_one_line(self):
        with pytest.raises(ParameterError) as info:
            convex.Polytope([[1.0, 0.0], [-1.0, 0.0], [2.0, 0.0], [-2.0, 0.0]])
        assert "\n" not in str(info.value)
        assert "QH6154" in str(info.value)


class TestPolar:
    def test_disk_self_polar(self):
        disk = convex.Ellipsoid([1.0, 1.0])
        pol = disk.polar()
        assert np.allclose(pol.semi_axes, [1.0, 1.0])

    def test_square_to_diamond(self):
        pol = square().polar()
        got = sorted(map(tuple, np.round(pol.vertices, 9)))
        assert got == [(-1.0, -0.0), (0.0, -1.0), (0.0, 1.0), (1.0, 0.0)]
        assert convex.volume(pol).value == pytest.approx(2.0, abs=1e-12)

    def test_ellipse_axes_reciprocal(self):
        pol = convex.Ellipsoid([2.0, 0.5]).polar()
        assert np.allclose(pol.semi_axes, [0.5, 2.0])

    def test_lp_duality(self):
        assert convex.LpBall(2, 1.0).polar().p == math.inf
        assert convex.LpBall(2, math.inf).polar().p == 1.0
        assert convex.LpBall(3, 3.0).polar().p == pytest.approx(1.5)

    @pytest.mark.parametrize("body", [
        square(),
        convex.Ellipsoid([2.0, 0.5]),
        convex.LpBall(2, 3.0),
        convex.random_symmetric_polytope(3, seed=12),
    ])
    def test_bipolar_membership(self, body):
        back = body.polar().polar()
        rng = np.random.default_rng(1)
        xs = rng.uniform(-1.5, 1.5, size=(10_000, body.dim))
        a = body.contains(xs)
        b = back.contains(xs)
        # disagreement only possible within a hair of the boundary
        disagree = xs[a != b]
        assert len(disagree) <= 3

    @pytest.mark.parametrize("scale", [1.0, 1e-6, 1e6])
    def test_cube_polar_merges_coplanar_facets(self, scale):
        # Qhull splits each square face into two triangles; both give the
        # same polar vertex, which must be kept once
        cube = convex.Polytope(scale * np.array(list(itertools.product([-1.0, 1.0], repeat=3))))
        assert len(cube.hull.equations) == 12
        pol = cube.polar()
        assert len(pol.vertices) == 6
        assert convex.mahler(cube).value == pytest.approx(32.0 / 3.0, rel=1e-12)

    def test_octahedron_polar_is_cube(self):
        octa = convex.Polytope(np.vstack([np.eye(3), -np.eye(3)]))
        assert len(octa.polar().vertices) == 8
        assert convex.mahler(octa).value == pytest.approx(32.0 / 3.0, rel=1e-12)

    def test_dedupe_keeps_first_of_near_rows(self):
        r = np.array([3.0, -2.0, 0.5])
        rows = np.vstack([r, r * (1 + 1e-14), -r, r * (1 + 1e-3)])
        got = convex._dedupe_rows(rows)
        assert got.tobytes() == rows[[0, 2, 3]].tobytes()

    def test_dedupe_keeps_close_but_distinct_rows(self):
        # distinct facet normals of a finely faceted body can differ by less
        # than 1e-5 relative; each must survive, and so must its antipode
        r = np.array([3.0, -2.0, 0.5])
        rows = np.vstack([r, -r, r * (1 + 5e-6), -r * (1 + 5e-6)])
        assert convex._dedupe_rows(rows).tobytes() == rows.tobytes()

    def test_dedupe_independent_of_block_size(self, monkeypatch):
        rng = np.random.default_rng(4)
        base = rng.normal(size=(40, 4))
        rows = np.vstack([base, base[rng.integers(0, 40, size=40)] * (1 + 1e-14)])
        rows = rows[rng.permutation(80)]
        whole = convex._dedupe_rows(rows)
        assert len(whole) == 40
        monkeypatch.setattr(convex, "_DEDUPE_BLOCK_ELEMS", 12)
        assert convex._dedupe_rows(rows).tobytes() == whole.tobytes()

    def test_monotone_under_inclusion(self):
        small = convex.Ellipsoid([1.0, 0.5])
        large = convex.Ellipsoid([2.0, 1.0])
        assert convex.volume(small).value < convex.volume(large).value
        rng = np.random.default_rng(3)
        xs = rng.uniform(-3, 3, size=(5000, 2))
        # polar reverses inclusion
        ps, pl = small.polar(), large.polar()
        inside_pl = pl.contains(xs)
        assert np.all(ps.contains(xs[inside_pl]))


class TestMahler:
    def test_ellipsoid_describes_plain_floats(self):
        # numpy 2 scalars print as np.float64(2.0), which went into the CSV
        assert convex.Ellipsoid([2.0, 0.5]).describe() == "ellipsoid(axes=(2.0, 0.5))"
        assert convex.Ellipsoid([3]).describe() == "ellipsoid(axes=(3.0,))"

    def test_disk(self):
        report = convex.mahler(convex.Ellipsoid([1.0, 1.0]))
        assert report.value == pytest.approx(math.pi ** 2, abs=1e-6)
        # the round body achieves the upper bound
        assert report.value == pytest.approx(report.upper_bound, abs=1e-9)
        assert report.ok

    def test_square(self):
        report = convex.mahler(square())
        assert report.value == pytest.approx(8.0, abs=1e-9)
        assert report.lower_bound == pytest.approx(math.pi ** 2 / 2.0)
        assert report.lower_bound <= report.value <= report.upper_bound

    @pytest.mark.parametrize("dim", [2, 3])
    def test_random_polytopes_within_bounds(self, dim):
        for seed in range(100):
            body = convex.random_symmetric_polytope(dim, seed=seed)
            assert convex.mahler(body).ok

    def test_identity_with_densities(self):
        # Mahler volume equals (unit-ball volume)^2 * g / f
        for body in (square(), convex.Ellipsoid([1.5, 0.25]), convex.LpBall(2, 4.0),
                     convex.random_symmetric_polytope(2, seed=5)):
            pair = convex.densities(body)
            eps_n = convex.unit_ball_volume(body.dim)
            expected = eps_n ** 2 * pair.holmes_thompson / pair.busemann
            assert convex.mahler(body).value == pytest.approx(expected, rel=1e-9)


class TestDensities:
    def test_euclidean_ball(self):
        pair = convex.densities(convex.Ellipsoid([1.0, 1.0]))
        assert pair.busemann == pytest.approx(1.0)
        assert pair.holmes_thompson == pytest.approx(1.0)

    def test_sup_norm_plane(self):
        pair = convex.densities(convex.LpBall(2, math.inf))
        assert pair.busemann == pytest.approx(math.pi / 4.0)
        assert pair.holmes_thompson == pytest.approx(2.0 / math.pi)
        assert pair.ratio == pytest.approx(math.pi ** 2 / 8.0)

    def test_l1_plane(self):
        pair = convex.densities(convex.LpBall(2, 1.0))
        assert pair.busemann == pytest.approx(math.pi / 2.0)
        assert pair.holmes_thompson == pytest.approx(4.0 / math.pi)

    def test_ellipsoids_are_ratio_one(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            dim = int(rng.integers(2, 5))
            axes = np.exp(rng.uniform(-1.5, 1.5, size=dim))
            pair = convex.densities(convex.Ellipsoid(axes))
            assert pair.ratio == pytest.approx(1.0, abs=1e-12)

    def test_sandwich(self):
        bodies = [square(), convex.LpBall(2, 1.0), convex.LpBall(3, 5.0),
                  convex.Ellipsoid([3.0, 0.2])]
        bodies += [convex.random_symmetric_polytope(2, seed=s) for s in range(20)]
        bodies += [convex.random_symmetric_polytope(3, seed=s) for s in range(20)]
        for body in bodies:
            ratio = convex.densities(body).ratio
            cap = body.dim ** (body.dim / 2.0)
            assert 1.0 - 1e-9 <= ratio <= cap + 1e-9

    def test_seeds_of_the_two_volumes(self):
        # an exact volume reads no seed; a Monte Carlo body volume reads the
        # seed and its polar's volume the seed + 1, in mahler and densities
        bodies = [square(), convex.Ellipsoid([1.5, 0.25]), convex.LpBall(3, 5.0),
                  convex.random_symmetric_polytope(3, seed=2)]
        for body in bodies:
            for run in (convex.mahler, convex.densities):
                assert repr(run(body, "exact", 1000, 0)) == repr(run(body, "exact", 1000, 7))
            eps_n = convex.unit_ball_volume(body.dim)
            for seed in (0, 7):
                v = convex.volume(body, "monte-carlo", 5000, seed).value
                w = convex.volume(body.polar(), "monte-carlo", 5000, seed + 1).value
                pair = convex.densities(body, "monte-carlo", 5000, seed)
                assert (pair.busemann, pair.holmes_thompson) == (eps_n / v, w / eps_n)
                assert convex.mahler(body, "monte-carlo", 5000, seed).value == v * w
