"""Acceptance criteria, one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Every
tolerance is fixed here; oracles (enumeration, quadrature, closed forms) are
computed independently of the code paths they check.
"""

import math
import os
import time

import numpy as np
import pytest
from scipy import integrate

from stathyp import cli, coarse, convex, stats
from stathyp.spaces import (EuclideanSpace, HyperbolicPlane, ModularTorus,
                            RegularTree, SupProduct, build_net)


def report(num: int, label: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num:02d} [{label}]: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# -- 1 ----------------------------------------------------------------------

def test_01_euclidean_plane_spread():
    t0 = time.monotonic()
    eu = EuclideanSpace(2)
    res = stats.estimate_spread(eu, eu.basepoint(), 1.0, 0.0, 1_000_000, seed=42)
    elapsed = time.monotonic() - t0
    err = abs(res.mean - 1.273240)
    ok = err <= 0.005 and elapsed < 30.0

    # spheres in low dimensions all stay below sqrt(2)
    below = []
    for dim in (2, 3, 4):
        r = stats.estimate_spread(EuclideanSpace(dim), np.zeros(dim), 1.0, 0.0,
                                  100_000, seed=7)
        below.append(r.mean + 3.0 * r.std_error < math.sqrt(2.0))
    ok = ok and all(below)
    assert report(1, "flat plane spread = 4/pi", ok,
                  f"mean={res.mean:.6f} err={err:.2e} time={elapsed:.1f}s "
                  f"sqrt2_margins={below}")


# -- 2 ----------------------------------------------------------------------

def hyperbolic_spread_oracle(r: float) -> float:
    """Quadrature of the chord formula 2 asinh(sinh r sin(theta/2)) over
    uniformly distributed direction pairs, with asinh(e^L) written as
    logaddexp(L, log sqrt(e^(2L) + 1)) so that it holds at any radius."""
    log_sinh_r = r + math.log1p(-math.exp(-2.0 * r)) - math.log(2.0)

    def chord(th):
        lv = log_sinh_r + math.log(math.sin(0.5 * th))
        return 2.0 * float(np.logaddexp(lv, 0.5 * np.logaddexp(2.0 * lv, 0.0)))

    val, err = integrate.quad(chord, 0.0, math.pi, limit=200)
    assert err / (math.pi * r) < 1e-6  # far below the Monte Carlo tolerance
    return val / (math.pi * r)


def test_02_hyperbolic_plane_spread_approaches_two():
    t0 = time.monotonic()
    hyp = HyperbolicPlane()
    means, ses, gaps = [], [], []
    for r in (10.0, 20.0, 40.0):
        res = stats.estimate_spread(hyp, 1j, r, 0.0, 100_000, seed=17)
        means.append(res.mean)
        ses.append(res.std_error)
        gaps.append(abs(res.mean - hyperbolic_spread_oracle(r)))
    elapsed = time.monotonic() - t0
    ok = (means[0] < means[1] < means[2]
          and means[2] >= 1.90
          and all(g <= 3.0 * se for g, se in zip(gaps, ses))
          and elapsed < 120.0)
    assert report(2, "hyperbolic spread -> 2", ok,
                  f"means={[f'{m:.4f}' for m in means]} "
                  f"oracle_gaps={[f'{g:.1e}' for g in gaps]} time={elapsed:.1f}s")


# -- 3 ----------------------------------------------------------------------

def test_03_tree_exactness():
    tree = RegularTree(3)

    def exact(r: int) -> float:
        # string reference: both lengths minus twice the common prefix
        sphere = tree.sphere("", r)
        total = sum(len(y) + len(z) - 2 * len(os.path.commonprefix([y, z]))
                    for y in sphere for z in sphere)
        return total / (len(sphere) ** 2 * r)

    assert exact(2) == pytest.approx(1.5)
    gaps = []
    ok = True
    for r in range(1, 9):
        res = stats.estimate_spread(tree, "", float(r), 0.0, 30_000, seed=100 + r)
        gap = abs(res.mean - exact(r))
        gaps.append(gap / max(res.std_error, 1e-12))
        ok = ok and gap <= 3.0 * res.std_error
    assert report(3, "tree spread matches enumeration", ok,
                  f"gap_sigmas={[f'{g:.2f}' for g in gaps]} exact(2)=1.5")


# -- 4 ----------------------------------------------------------------------

def test_04_mahler_suite():
    t0 = time.monotonic()
    disk = convex.mahler(convex.Ellipsoid([1.0, 1.0]))
    square = convex.mahler(convex.Polytope([[1, 1], [1, -1], [-1, 1], [-1, -1]]))
    violations = 0
    for dim in (2, 3):
        for seed in range(500):
            if not convex.mahler(convex.random_symmetric_polytope(dim, seed=seed)).ok:
                violations += 1
    elapsed = time.monotonic() - t0
    ok = (abs(disk.value - math.pi ** 2) <= 1e-6
          and abs(disk.value - disk.upper_bound) <= 1e-9
          and abs(square.value - 8.0) <= 1e-9
          and violations == 0
          and elapsed < 60.0)
    assert report(4, "Mahler volumes and bounds", ok,
                  f"disk={disk.value:.8f} square={square.value:.12f} "
                  f"violations={violations}/1000 time={elapsed:.1f}s")


# -- 5 ----------------------------------------------------------------------

def test_05_density_sandwich():
    rng = np.random.default_rng(23)
    worst_ellipsoid = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 5))
        axes = np.exp(rng.uniform(-2.0, 2.0, size=dim))
        ratio = convex.densities(convex.Ellipsoid(axes)).ratio
        worst_ellipsoid = max(worst_ellipsoid, abs(ratio - 1.0))
    sup_ratio = convex.densities(convex.LpBall(2, math.inf)).ratio
    sandwich_ok = True
    bodies = [convex.LpBall(2, p) for p in (1.0, 1.5, 3.0, math.inf)]
    bodies += [convex.LpBall(3, p) for p in (1.0, 2.5, math.inf)]
    bodies += [convex.random_symmetric_polytope(d, seed=s)
               for d in (2, 3) for s in range(50)]
    for body in bodies:
        ratio = convex.densities(body).ratio
        cap = body.dim ** (body.dim / 2.0)
        sandwich_ok = sandwich_ok and (1.0 - 1e-9 <= ratio <= cap + 1e-9)
    ok = (worst_ellipsoid <= 1e-3
          and abs(sup_ratio - math.pi ** 2 / 8.0) <= 1e-3
          and sandwich_ok)
    assert report(5, "Busemann / Holmes-Thompson sandwich", ok,
                  f"ellipsoid_dev={worst_ellipsoid:.1e} "
                  f"sup_ratio={sup_ratio:.6f} (target {math.pi ** 2 / 8:.6f}) "
                  f"sandwich_ok={sandwich_ok}")


# -- 6 ----------------------------------------------------------------------

def test_06_proxy_sandwich():
    t0 = time.monotonic()
    eps0 = math.exp(-10.0)
    floor = coarse.threshold_floor(eps0)
    pairs = coarse.random_pairs(100_000, seed=31, eps0=eps0)
    d, p = coarse.horoball_distance(pairs), coarse.log_max_proxy(pairs)
    above = np.maximum(d, p) >= floor
    tested = np.count_nonzero(above)
    violations = np.count_nonzero(above & ~coarse.proxy_sandwich_holds(d, p))
    rng = np.random.default_rng(37)
    d_c = np.exp(rng.uniform(-5.0, 300.0, size=100_000))
    b = coarse.twist_only_distance(d_c)
    in_range = (b >= 3.0) | (d_c >= 3.0)
    lp = coarse.log_plus(d_c)
    b_tested = np.count_nonzero(in_range)
    b_fails = np.count_nonzero(in_range & ~((lp <= b + 1e-12) & (b <= 4.0 * lp + 1e-12)))
    elapsed = time.monotonic() - t0
    ok = violations == 0 and b_fails == 0 and tested > 10_000 and elapsed < 10.0
    assert report(6, "factor-6 proxy sandwich", ok,
                  f"violations={violations}/{tested} b_fails={b_fails}/{b_tested} "
                  f"time={elapsed:.1f}s")


# -- 7 ----------------------------------------------------------------------

def test_07_distance_formula_arithmetic():
    eps0 = math.exp(-10.0)
    m0 = 400.0
    chain_fails = 0
    n_profiles = 2500  # 40 pairs per profile: 1e5 annular terms in total
    for seed in range(n_profiles):
        pairs = coarse.random_pairs(40, seed=seed, eps0=eps0)
        d, p = coarse.horoball_distance(pairs), coarse.log_max_proxy(pairs)
        if not coarse.chain_inequality_holds(d, p, m0):
            chain_fails += 1
    rng = np.random.default_rng(41)
    f, g, h = np.exp(rng.uniform(-7.0, 20.0, size=(100_000, 3))).T
    ident_fails = np.count_nonzero(~coarse.max_log_identity(f, g, h, math.e ** 3)[2])
    ok = chain_fails == 0 and ident_fails == 0
    assert report(7, "threshold chain and factor-3 identity", ok,
                  f"chain_fails={chain_fails}/{n_profiles} "
                  f"identity_fails={ident_fails}/100000")


# -- 8 ----------------------------------------------------------------------

def test_08_exponential_separation():
    ts = [float(t) for t in range(5, 16)]
    hyp = HyperbolicPlane()
    fr_h = stats.separation_profile(hyp, 1j, 20.0, ts, 2.0, 100_000, seed=53)
    slope = stats.fit_log_slope(ts, fr_h)
    eu = EuclideanSpace(2)
    fr_e = stats.separation_profile(eu, eu.basepoint(), 20.0, ts, 2.0, 100_000, seed=53)
    control = stats.decay_fit_report(ts, fr_e)
    power_like = (control["power_sse"] < control["exp_sse"]
                  and -1.3 <= control["power_slope"] <= -0.7)
    ok = -1.3 <= slope <= -0.7 and power_like
    assert report(8, "exponential decay of fellow travelers", ok,
                  f"hyperbolic_slope={slope:.3f} "
                  f"euclid_power_slope={control['power_slope']:.3f} "
                  f"sse_power={control['power_sse']:.3g} < sse_exp={control['exp_sse']:.3g}")


# -- 9 ----------------------------------------------------------------------

def test_09_thick_stat_ergodic_and_p1():
    mt = ModularTorus()
    eps = 0.5
    # oracle: numeric integration of dx dy / y^2 over the fundamental domain
    t0_height = 1.0 / eps ** 2
    area_total = integrate.quad(lambda x: 1.0 / math.sqrt(1.0 - x * x), -0.5, 0.5)[0]
    area_thin = integrate.quad(lambda x: 1.0 / math.sqrt(1.0 - x * x) - 1.0 / t0_height,
                               -0.5, 0.5)[0]
    oracle = area_thin / area_total
    frac = stats.ray_thick_fraction_many(mt, 1j, 10_000.0, eps, 0.1, 1, seed=3)[0]
    gap = abs(frac - oracle)

    p1 = stats.p1_fraction(mt, 1j, 50.0, 5.0, 0.1, 0.5, 0.2, 2000, 0.1, seed=5)
    ok = gap <= 0.02 and p1 >= 0.9
    assert report(9, "ergodic thickness and property P1", ok,
                  f"ray_fraction={frac:.4f} oracle={oracle:.4f} gap={gap:.4f} "
                  f"p1={p1:.4f}")


# -- 10 ---------------------------------------------------------------------

def test_10_thin_triangle_dichotomy():
    hyp = HyperbolicPlane()
    x = 1j
    hits = 0
    trials = 1000
    from stathyp.rng import substream
    for i in range(trials):
        rng = substream(900, i)
        while True:
            bundle = hyp.rays_chunk(x, 2, rng, horizon=30.0)
            radii = 20.0 + 5.0 * rng.uniform(size=2)
            pts = bundle.points_at(radii)
            y, z = complex(pts[0]), complex(pts[1])
            if hyp.distance(y, z) >= 20.0:
                break
        d_xy = hyp.distance(x, y)
        hit, _ = stats.thin_triangle_probe(hyp, x, y, z,
                                           (d_xy / 3.0, 2.0 * d_xy / 3.0), 3.0)
        hits += int(hit)

    sp = SupProduct([EuclideanSpace(1), EuclideanSpace(1)])
    product_ok = True
    worst = []
    for r in (8.0, 12.0, 16.0, 24.0):
        u = (np.array([0.0]), np.array([0.0]))
        v = (np.array([2 * r]), np.array([r]))
        w = (np.array([2 * r]), np.array([-r]))
        d_uv = sp.distance(u, v)
        hit, mind = stats.thin_triangle_probe(sp, u, v, w,
                                              (d_uv / 3.0, 2.0 * d_uv / 3.0), r / 4.0)
        worst.append(mind / r)
        product_ok = product_ok and (not hit) and mind >= r / 4.0
    ok = hits == trials and product_ok
    assert report(10, "thin-triangle dichotomy", ok,
                  f"hyperbolic_hits={hits}/{trials} "
                  f"product_min_over_r={[f'{m:.3f}' for m in worst]} (>= 0.25)")


# -- 11 ---------------------------------------------------------------------

def test_11_annulus_ball_reduction():
    details = []
    ok = True
    # exponential radial growth is the hypothesis here, so the flat model
    # carries the visual weight h = 1
    for space, x in ((EuclideanSpace(2, h=1.0), np.zeros(2)),
                     (HyperbolicPlane(), 1j)):
        ball = stats.estimate_spread(space, x, 20.0, 20.0, 100_000, seed=61)
        ann = stats.estimate_spread(space, x, 20.0, 5.0, 100_000, seed=62)
        gap = abs(ball.mean - ann.mean)
        bound = 0.02 + 3.0 * math.hypot(ball.std_error, ann.std_error)
        ok = ok and gap <= bound
        details.append(f"{space.kind}: gap={gap:.4f} bound={bound:.4f}")
    assert report(11, "ball model reduces to annuli", ok, "; ".join(details))


# -- 12 ---------------------------------------------------------------------

def test_12_discretizer_invariants():
    from stathyp.rng import substream
    violations = 0
    runs = 0
    for space in (EuclideanSpace(2), HyperbolicPlane()):
        x = space.basepoint()
        for i in range(500):
            rng = substream(777, i)
            c = float(rng.uniform(0.2, 0.8))
            tau = 4.0 * c + float(rng.uniform(0.5, 2.0))
            length = float(rng.uniform(3.0, 10.0))
            y = space.batch_get(space.rays_chunk(x, 1, rng, horizon=12.0)
                                .points_at(length), 0)
            net = build_net(space, x, y, c)
            runs += 1
            try:
                pts = stats.discretize_geodesic(space, net, tau, (x, y))
            except Exception:
                violations += 1
                continue
            steps_ok = all(
                space.distance(space.batch_get(pts, j), space.batch_get(pts, j + 1))
                <= tau + 1e-9
                for j in range(space.batch_size(pts) - 1))
            d = space.distance(x, y)
            times = np.arange(0.0, d, tau - 2 * c)
            if d - times[-1] > 1e-12:
                times = np.append(times, d)
            marks = space.geodesic_points(x, y, times)
            marks_ok = all(
                space.distance(space.batch_get(marks, j), space.batch_get(pts, j))
                <= 2.0 * c + 1e-9
                for j in range(space.batch_size(pts)))
            if not (steps_ok and marks_ok):
                violations += 1
    ok = violations == 0 and runs == 1000
    assert report(12, "discretizer invariants", ok,
                  f"violations={violations}/{runs}")


# -- 13 ---------------------------------------------------------------------

@pytest.mark.filterwarnings("error")
def test_13_spread_exact_at_any_radius(tmp_path, capsys):
    # the Cartesian points overflow near r = 355; the pair kernel does not
    details = []
    ok = True
    for kind in ("hyperbolic", "modular"):
        for r in (356.0, 400.0, 1e3, 1e4):
            path = tmp_path / "far.ini"
            path.write_text(f"[space]\nkind = {kind}\n\n[experiment]\n"
                            f"kind = estimate-e\nr = {r!r}\n")
            code = cli.main(["run", "--config", str(path), "--out", str(tmp_path),
                             "--format", "csv"])
            row = capsys.readouterr().out.splitlines()[-1].split(",")
            mean, se = float(row[-7]), float(row[-6])
            z = (mean - hyperbolic_spread_oracle(r)) / se
            ok = ok and code == 0 and abs(z) <= 3.0
            details.append(f"{kind}@{r:g}: z={z:+.2f}")
    assert report(13, "hyperbolic spread exact at any radius", ok, " ".join(details))
