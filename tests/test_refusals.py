"""Refusals: each bad input the library or the CLI turns away, one row each,
with the error it raises and the words of its message."""

import numpy as np
import pytest

from stathyp import cli, coarse, convex, stats
from stathyp.errors import DomainError, ParameterError, UnsupportedMethodError
from stathyp.rng import substream
from stathyp.spaces import (EuclideanSpace, HyperbolicPlane, ModularTorus, RegularTree,
                            SupProduct, build_net, thin_area_fraction)

LINE, PLANE, TREE = EuclideanSpace(1), EuclideanSpace(2), RegularTree(3)
H2, TORUS, ORIGIN = HyperbolicPlane(), ModularTorus(), np.zeros(2)


def tree_pairs(ty, tz, z_start=""):
    """The tree pair kernel on walks of horizon 4 from ``""`` and ``z_start``."""
    by = TREE.rays_chunk("", 2, substream(0, 0), horizon=4)
    bz = TREE.rays_chunk(z_start, 2, substream(0, 1), horizon=4)
    return TREE.ray_pair_distances(by, ty, bz, tz)


REFUSALS = {
    "cli-unparsable-ini": (
        lambda: cli.parse_config("kind = mahler\n"),
        cli.ConfigError, "cannot parse config"),
    "cli-unknown-body-kind": (
        lambda: cli.run_config(cli.parse_config(
            "[body]\nkind = cone\n[experiment]\nkind = mahler\n")),
        cli.ConfigError, "unknown body kind 'cone'"),
    # a section the kind never reads: each used to be ignored, with a PASS
    "cli-mahler-reads-no-space": (
        lambda: cli.parse_config("[space]\nkind = minkowski\n[experiment]\nkind = mahler\n"),
        cli.ConfigError, "kind 'mahler' does not read a \\[space\\] section; "
                         "it reads \\[experiment\\] and \\[body\\]"),
    "cli-densities-reads-no-space": (
        lambda: cli.parse_config(
            "[space]\nkind = hyperbolic\ndim = 3\n[experiment]\nkind = densities\n"),
        cli.ConfigError, "kind 'densities' does not read a \\[space\\] section"),
    "cli-estimate-reads-no-body": (
        lambda: cli.parse_config(
            "[body]\nkind = lp\naxes = 1, 2\n[experiment]\nkind = estimate-e\n"),
        cli.ConfigError, "kind 'estimate-e' does not read a \\[body\\] section; "
                         "it reads \\[experiment\\] and \\[space\\]"),
    "coarse-negative-twist": (
        lambda: coarse.twist_only_distance(np.array([1.0, -2.0])),
        DomainError, "twist must be nonnegative, got -2.0"),
    "coarse-identity-m0": (
        lambda: coarse.max_log_identity(2.0, 2.0, 2.0, 1.0),
        ParameterError, "m0 must exceed 1"),
    # a NaN threshold used to make every comparison False, and both checks pass
    "coarse-identity-m0-nan": (
        lambda: coarse.max_log_identity(2.0, 2.0, 2.0, np.nan),
        ParameterError, "m0 must exceed 1, got nan"),
    "coarse-chain-m0-nan": (
        lambda: coarse.chain_inequality_holds(np.array([3.0]), np.array([2.0]), np.nan),
        ParameterError, "threshold m0 must be positive, got nan"),
    "convex-one-vertex": (
        lambda: convex.Polytope(np.zeros((1, 2))),
        ParameterError, "need a \\(k, dim\\) vertex array"),
    # symmetric within the tolerance, with the origin on an edge of the hull
    "convex-origin-on-boundary": (
        lambda: convex.Polytope(np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 1e-10], [-1.0, 1e-10]])),
        DomainError, "origin must be interior"),
    "convex-lp-dim": (
        lambda: convex.LpBall(0, 2.0),
        ParameterError, "dimension must be positive"),
    "convex-lp-p": (
        lambda: convex.LpBall(2, 0.5),
        ParameterError, "p-ball needs p >= 1"),
    "convex-volume-method": (
        lambda: convex.volume(convex.LpBall(2, 2.0), "grid"),
        ParameterError, "unknown volume method 'grid'"),
    "convex-volume-samples": (
        lambda: convex.volume(convex.LpBall(2, 2.0), "monte-carlo", n=0),
        ParameterError, "need at least one sample"),
    "euclidean-dim": (
        lambda: EuclideanSpace(0),
        ParameterError, "dimension must be at least 1"),
    "euclidean-p": (
        lambda: EuclideanSpace(2, p=0.5),
        ParameterError, "p >= 1"),
    "euclidean-point-shape": (
        lambda: PLANE.validate_point(np.zeros(3)),
        DomainError, "expected a length-2 vector"),
    "euclidean-point-nan": (
        lambda: PLANE.validate_point(np.array([np.nan, 0.0])),
        DomainError, "coordinates must be finite"),
    "modular-thick-eps": (
        lambda: ModularTorus().thick_many(np.array([1j]), 0.0),
        ParameterError, "eps must be positive"),
    # a NaN eps read every point as thick
    "modular-thick-eps-nan": (
        lambda: ModularTorus().thick_many(np.array([1j, 2j, 0.1 + 5j]), np.nan),
        ParameterError, "eps must be positive, got nan"),
    "modular-thin-area-eps": (
        lambda: thin_area_fraction(1.5),
        ParameterError, "need 0 < eps <= 1"),
    "nets-separation": (
        lambda: build_net(LINE, np.zeros(1), np.ones(1), 0.0),
        ParameterError, "net separation must be positive"),
    "shell-samples": (
        lambda: PLANE.sample_shell(PLANE.basepoint(), 1.0, 0.0, 0, seed=0),
        ParameterError, "need at least one sample"),
    "product-one-factor": (
        lambda: SupProduct([LINE]),
        ParameterError, "at least two components"),
    "product-point-shape": (
        lambda: SupProduct([LINE, LINE]).validate_point(np.zeros(2)),
        DomainError, "2-tuples of factor points"),
    "stats-spread-radius": (
        lambda: stats.estimate_spread(PLANE, ORIGIN, 0.0, 0.0, 10, seed=0),
        ParameterError, "radius must be positive"),
    # used to return points at infinity on normed spaces
    "model-shell-infinite-radius": (
        lambda: PLANE.sample_shell(PLANE.basepoint(), np.inf, 0.0, 10, seed=0),
        ParameterError, "radius must be positive and finite, got inf"),
    # used to warn, then blame the metric
    "stats-spread-infinite-radius": (
        lambda: stats.estimate_spread(H2, 1j, np.inf, 0.0, 100, seed=0),
        ParameterError, "radius must be positive and finite, got inf"),
    "stats-thick-step": (
        lambda: stats.thick_stat(TORUS, 1j, 2j, 0.5, 0.0),
        ParameterError, "grid step must be positive"),
    # used to read the ray's length as 2^53 or more grid steps
    "stats-thick-step-nan": (
        lambda: stats.thick_stat(TORUS, 1j, 2j, 0.5, np.nan),
        ParameterError, "grid step must be positive and finite, got nan"),
    "stats-thick-eps": (
        lambda: stats.thick_stat(TORUS, 1j, 2j, 0.0, 0.1),
        ParameterError, "eps must be positive"),
    # on the flat models these used to read as all thick: fraction 1
    "stats-thick-flat-eps-nan": (
        lambda: stats.thick_stat(PLANE, ORIGIN, np.ones(2), np.nan, 0.1),
        ParameterError, "eps must be positive, got nan"),
    "stats-rays-flat-eps-negative": (
        lambda: stats.ray_thick_fraction_many(PLANE, ORIGIN, 10.0, -1.0, 0.1, 3, seed=0),
        ParameterError, "eps must be positive, got -1.0"),
    "stats-rays-flat-eps-zero": (
        lambda: stats.ray_thick_fraction_many(PLANE, ORIGIN, 10.0, 0.0, 0.1, 3, seed=0),
        ParameterError, "eps must be positive, got 0.0"),
    "stats-rays-flat-eps-nan": (
        lambda: stats.ray_thick_fraction_many(PLANE, ORIGIN, 10.0, np.nan, 0.1, 3, seed=0),
        ParameterError, "eps must be positive, got nan"),
    "stats-p1-flat-eps-negative": (
        lambda: stats.p1_fraction(PLANE, ORIGIN, 5.0, 1.0, -1.0, 0.5, 0.2, 10, 0.1, seed=0),
        ParameterError, "eps must be positive, got -1.0"),
    "stats-p1-flat-eps-zero": (
        lambda: stats.p1_fraction(PLANE, ORIGIN, 5.0, 1.0, 0.0, 0.5, 0.2, 10, 0.1, seed=0),
        ParameterError, "eps must be positive, got 0.0"),
    "stats-p1-flat-eps-nan": (
        lambda: stats.p1_fraction(PLANE, ORIGIN, 5.0, 1.0, np.nan, 0.5, 0.2, 10, 0.1, seed=0),
        ParameterError, "eps must be positive, got nan"),
    "stats-rays-length": (
        lambda: stats.ray_thick_fraction_many(TORUS, 1j, 0.0, 0.5, 0.1, 1, seed=0),
        ParameterError, "ray length must be positive"),
    # an infinite ray on a flat model used to read as all thick
    "stats-rays-flat-infinite-length": (
        lambda: stats.ray_thick_fraction_many(PLANE, ORIGIN, np.inf, 0.5, 0.1, 5, seed=0),
        ParameterError, "ray length must be positive and finite, got inf"),
    "stats-rays-step": (
        lambda: stats.ray_thick_fraction_many(TORUS, 1j, 1.0, 0.5, 0.0, 1, seed=0),
        ParameterError, "grid step must be positive"),
    # a NaN step on a flat model used to read as all thick
    "stats-rays-flat-step-nan": (
        lambda: stats.ray_thick_fraction_many(PLANE, ORIGIN, 5.0, 0.5, np.nan, 5, seed=0),
        ParameterError, "grid step must be positive and finite, got nan"),
    # an infinite step used to give NaN fractions
    "stats-rays-step-inf": (
        lambda: stats.ray_thick_fraction_many(TORUS, 1j, 5.0, 0.5, np.inf, 3, seed=0),
        ParameterError, "grid step must be positive and finite, got inf"),
    "stats-rays-count": (
        lambda: stats.ray_thick_fraction_many(TORUS, 1j, 1.0, 0.5, 0.1, 0, seed=0),
        ParameterError, "need at least one ray"),
    "stats-p1-radii": (
        lambda: stats.p1_fraction(TORUS, 1j, 5.0, 6.0, 0.5, 0.5, 0.2, 10, 0.1, seed=0),
        ParameterError, "bad radii r=5.0, k=6.0"),
    # used to warn before it refused
    "stats-p1-infinite-radius": (
        lambda: stats.p1_fraction(TORUS, 1j, np.inf, 0.0, 0.5, 0.5, 0.5, 10, 0.1, seed=0),
        ParameterError, "bad radii r=inf, k=0.0"),
    "stats-p1-step": (
        lambda: stats.p1_fraction(TORUS, 1j, 5.0, 1.0, 0.5, 0.5, 0.2, 10, 0.0, seed=0),
        ParameterError, "grid step must be positive"),
    "stats-p1-flat-step-nan": (
        lambda: stats.p1_fraction(PLANE, ORIGIN, 5.0, 1.0, 0.5, 0.5, 0.2, 10, np.nan, seed=0),
        ParameterError, "grid step must be positive and finite, got nan"),
    "stats-p1-count": (
        lambda: stats.p1_fraction(TORUS, 1j, 5.0, 1.0, 0.5, 0.5, 0.2, 0, 0.1, seed=0),
        ParameterError, "need at least one sample"),
    # used to sample rays of infinite horizon and report a fraction
    "stats-separation-infinite-radius": (
        lambda: stats.separation_fraction(H2, 1j, np.inf, 1.0, 1.0, 50, seed=0),
        ParameterError, "radius must be positive and finite, got inf"),
    "stats-separation-time": (
        lambda: stats.separation_fraction(PLANE, ORIGIN, 5.0, 6.0, 1.0, 10, seed=0),
        ParameterError, "time must lie in \\[0, r\\]"),
    "stats-separation-m0": (
        lambda: stats.separation_fraction(PLANE, ORIGIN, 5.0, 1.0, 0.0, 10, seed=0),
        ParameterError, "m0 must be positive"),
    # a NaN m0 used to count no pair as close, and report 0.0
    "stats-separation-m0-nan": (
        lambda: stats.separation_fraction(H2, 1j, 20.0, 10.0, np.nan, 1000, seed=0),
        ParameterError, "m0 must be positive, got nan"),
    "stats-separation-count": (
        lambda: stats.separation_fraction(PLANE, ORIGIN, 5.0, 1.0, 1.0, 0, seed=0),
        ParameterError, "need at least one sample"),
    "stats-slope-points": (
        lambda: stats.fit_log_slope([1.0, 2.0], [0.5, 0.0]),
        ParameterError, "at least two positive values"),
    "stats-decay-points": (
        lambda: stats.decay_fit_report([1.0, 2.0], [0.5, 0.25]),
        ParameterError, "at least three positive values"),
    "stats-probe-degenerate-side": (
        lambda: stats.thin_triangle_probe(H2, 1j, 1j, 2j, (0.0, 1.0), 1.0),
        DomainError, "degenerate triangle side \\[x, y\\]"),
    "stats-probe-interval": (
        lambda: stats.thin_triangle_probe(H2, 1j, 2j, 1.0 + 1j, (0.0, 1.0), 1.0),
        ParameterError, "must sit inside"),
    # used to report every triangle as thin
    "stats-triangle-radius": (
        lambda: stats.thin_triangle_sample(PLANE, ORIGIN, -1.0, 5, 3.0, seed=0),
        ParameterError, "radius must be positive and finite, got -1.0"),
    "stats-triangle-count": (
        lambda: stats.thin_triangle_sample(H2, 1j, 5.0, 0, 1.0, seed=0),
        ParameterError, "need at least one triangle"),
    # a NaN c used to report no triangle as thin
    "stats-triangle-c-nan": (
        lambda: stats.thin_triangle_sample(H2, 1j, 5.0, 20, np.nan, seed=0),
        ParameterError, "c must be positive, got nan"),
    "stats-probe-c-nan": (
        lambda: stats.thin_triangle_probe(H2, 1j, 2j, 1.0 + 1j, (0.0, 0.5), np.nan),
        ParameterError, "c must be positive, got nan"),
    "stats-discretize-count": (
        lambda: stats.discretize_sample(5.0, 0, 3.0, 0.5, seed=0),
        ParameterError, "need at least one segment"),
    # used to report no failure
    "stats-discretize-radius": (
        lambda: stats.discretize_sample(-5.0, 5, 3.0, 0.5, seed=0),
        ParameterError, "radius must be positive and finite, got -5.0"),
    "tree-ray-negative-time": (
        lambda: TREE.rays_chunk("", 2, substream(0, 0), horizon=4).points_at(-1.0),
        ParameterError, "ray time must be nonnegative"),
    "tree-pair-off-grid": (
        lambda: tree_pairs(2.0, np.array([1.0, 1.5])),
        DomainError, "tree rays are defined at integer times, got 1.5"),
    "tree-pair-negative-time": (
        lambda: tree_pairs(-1.0, 2.0),
        ParameterError, "ray time must be nonnegative, got -1.0"),
    "tree-pair-past-horizon": (
        lambda: tree_pairs(2.0, 5.0),
        ParameterError, "ray horizon 4 exceeded at time 5"),
    "tree-pair-two-starts": (
        lambda: tree_pairs(2.0, 2.0, z_start="a"),
        DomainError, "ray pairs need one basepoint, got '' and 'a'"),
    "tree-valence-low": (
        lambda: RegularTree(2),
        ParameterError, "valence must be at least 3"),
    "tree-valence-high": (
        lambda: RegularTree(27),
        ParameterError, "valence above 26"),
    "tree-point-type": (
        lambda: TREE.validate_point(3),
        DomainError, "address strings, got int"),
    "tree-degenerate-ray": (
        lambda: TREE.geodesic_points(TREE.singleton("a"), TREE.singleton("a"), np.array([0.0])),
        DomainError, "endpoints coincide"),
    "tree-sphere-radius": (
        lambda: TREE.sample_radii(substream(0, 0), 3, 0.0, 0.0),
        ParameterError, "sphere radius must be a positive integer"),
    "tree-annulus-empty": (
        lambda: TREE.sample_radii(substream(0, 0), 3, 2.5, 0.2),
        ParameterError, "contains no integer radius"),
    "tree-annulus-infinite": (
        lambda: TREE.sample_radii(substream(0, 0), 3, np.inf, 1.0),
        ParameterError, "annulus \\[inf, inf\\] must have finite ends"),
    "tree-sphere-enumeration": (
        lambda: TREE.sphere("", -1),
        ParameterError, "radius must be nonnegative"),
    "tree-sphere-enumeration-off-grid": (
        lambda: TREE.sphere("", np.inf),
        DomainError, "tree rays are defined at integer times, got inf"),
    # refused before the (50, 10^7) draw is made
    "tree-walk-cap": (
        lambda: TREE.rays_chunk("", 50, substream(0, 0), horizon=1e7),
        ParameterError, "50 tree walks to radius 10000000.0 take 500000000 steps, "
                        "above the cap of 8388608"),
    "tree-geodesic-two-rows": (
        lambda: TREE.geodesic_points(TREE.batch_concat([TREE.singleton("a"), TREE.singleton("b")]),
                                     TREE.singleton("c"), np.array([1.0, 2.0])),
        UnsupportedMethodError, "one-row batches"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call,error,match", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal(call, error, match):
    with pytest.raises(error, match=match):
        call()
