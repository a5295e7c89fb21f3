"""Seeded workload generator.

``generate(workload, seed)`` returns the workload's configs: for each one the
INI text the program runs, a tiny variant of it for the warm-up pass, and the
closed-form check (if any) that its output must satisfy.  Everything is a
function of ``(workload, seed)``; the program only ever sees the INI files
that ``write`` puts on disk.

Writing the tiny variants in place of the full configs gives the smoke mode,
in which a whole workload runs in about a second.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

PAIRS = 1_000_000          # spread-bulk pairs per config
POLYTOPE_COUNT = 6         # exact Mahler bodies in coarse-convex
POLYTOPE_K = 30            # the i-th body has 2 * (POLYTOPE_K + i) vertices

HYP2 = "hyperbolic ; hyperbolic"
LINE2 = "euclidean dim=1 ; euclidean dim=1"


@dataclass
class Config:
    name: str
    sections: dict
    warm: dict = field(default_factory=dict)     # per-section overrides
    check: str = ""                              # closed-form check, if any

    def text(self, tiny: bool = False) -> str:
        out = []
        for section, items in self.sections.items():
            merged = {**items, **(self.warm.get(section, {}) if tiny else {})}
            out.append(f"[{section}]")
            out.extend(f"{k} = {v}" for k, v in merged.items())
            out.append("")
        return "\n".join(out)


def _cfg(name, space, experiment, warm, check="", body=None):
    sections = {}
    if space is not None:
        sections["space"] = space
    if body is not None:
        sections["body"] = body
    sections["experiment"] = experiment
    return Config(name, sections, warm, check)


def _spread_bulk(rng):
    def seed():
        return rng.randrange(1, 2 ** 31)

    def est(name, space, r, k, pairs=PAIRS, check=""):
        exp = {"kind": "estimate-e", "r": r, "k": k, "n": pairs, "seed": seed()}
        return _cfg(name, space, exp, {"experiment": {"n": 1000}}, check)

    def sep(name, space, r, pairs=PAIRS):
        exp = {"kind": "separation", "r": r, "sigma": 0.5, "M0": 2.0,
               "n": pairs, "seed": seed()}
        return _cfg(name, space, exp, {"experiment": {"n": 1000}})

    hyp_r = float(rng.randint(30, 40))
    return [
        est("flat-sphere", {"kind": "euclidean", "dim": 2, "p": 2}, 1.0, 0.0,
            check="flat-plane"),
        est("l1-ball", {"kind": "euclidean", "dim": 2, "p": 1}, 5.0, 5.0),
        est("hyp-sphere", {"kind": "hyperbolic"}, hyp_r, 0.0),
        est("hyp-annulus", {"kind": "hyperbolic"}, 20.0, 5.0),
        est("modular-ball", {"kind": "modular"}, 10.0, 10.0),
        est("product-sphere", {"kind": "sup-product", "components": HYP2},
            10.0, 0.0, pairs=PAIRS // 2),
        sep("sep-euclid", {"kind": "euclidean", "dim": 2, "p": 2}, 20.0),
        sep("sep-hyp", {"kind": "hyperbolic"}, hyp_r),
        sep("sep-modular", {"kind": "modular"}, 20.0),
        sep("sep-product", {"kind": "sup-product", "components": LINE2}, 20.0,
            pairs=PAIRS // 2),
    ]


def _tree_walks(rng):
    tree = {"kind": "tree", "q": 3}
    return [
        _cfg("tree-sphere", tree,
             {"kind": "estimate-e", "r": 8.0, "k": 0.0, "n": 15000,
              "seed": rng.randrange(1, 2 ** 31)},
             {"experiment": {"n": 200}}, "tree-sphere"),
        _cfg("tree-annulus", tree,
             {"kind": "estimate-e", "r": 8.0, "k": 4.0, "n": 8000,
              "seed": rng.randrange(1, 2 ** 31)},
             {"experiment": {"n": 200}}),
        _cfg("tree-separation", tree,
             {"kind": "separation", "r": 20.0, "sigma": 0.5, "M0": 2.0,
              "n": 6000, "seed": rng.randrange(1, 2 ** 31)},
             {"experiment": {"n": 100}}),
    ]


def _geodesic_probes(rng):
    def seed():
        return rng.randrange(1, 2 ** 31)

    def tri(name, space, n):
        exp = {"kind": "thin-triangle", "r": 20.0, "n": n, "C": 3.0,
               "ds": 0.05, "seed": seed()}
        return _cfg(name, space, exp, {"experiment": {"n": 2}})

    def disc(name, space, n):
        exp = {"kind": "discretize", "r": 10.0, "tau": 3.0, "c": 0.5, "n": n,
               "seed": seed()}
        return _cfg(name, space, exp, {"experiment": {"n": 2}},
                    "zero-failures")

    modular = {"kind": "modular"}
    return [
        tri("tri-hyp", {"kind": "hyperbolic"}, 40),
        tri("tri-product", {"kind": "sup-product", "components": HYP2}, 20),
        tri("tri-euclid", {"kind": "euclidean", "dim": 2, "p": 2}, 20),
        disc("disc-hyp", {"kind": "hyperbolic"}, 100),
        disc("disc-euclid", {"kind": "euclidean", "dim": 2, "p": 2}, 100),
        _cfg("thick-long-ray", modular,
             {"kind": "thick-stat", "r": 2000.0, "n": 8, "eps": 0.5, "dt": 0.1,
              "seed": seed()},
             {"experiment": {"r": 200.0}},
             "torus-thick"),
        _cfg("p1-modular", modular,
             {"kind": "p1", "r": 50.0, "k": 5.0, "n": 4000, "eps": 0.1,
              "theta": 0.5, "sigma": 0.2, "dt": 0.1, "seed": seed()},
             {"experiment": {"n": 50}}),
    ]


def _coarse_convex(rng):
    from stathyp import convex  # vertex lists come from the package's own generator

    def seed():
        return rng.randrange(1, 2 ** 31)

    out = [_cfg("coarse-check", None,
                {"kind": "coarse-check", "n": 20000, "seed": seed()},
                {"experiment": {"n": 200}}, "zero-failures")]
    cube = "1 1 1; 1 1 -1; 1 -1 1; 1 -1 -1; -1 1 1; -1 1 -1; -1 -1 1; -1 -1 -1"
    for i in range(POLYTOPE_COUNT):
        k = POLYTOPE_K + i
        body = convex.random_symmetric_polytope(3, seed(), k_min=k, k_max=k)
        verts = "; ".join(" ".join(repr(float(v)) for v in row) for row in body.vertices)
        out.append(_cfg(f"mahler-poly{i}", None, {"kind": "mahler", "seed": 0},
                        {"body": {"vertices": cube}}, "mahler-bounds",
                        body={"kind": "polytope", "vertices": verts,
                              "method": "exact"}))
    p = rng.choice((1.5, 3.0, 4.0))
    out.append(_cfg("mahler-mc", None, {"kind": "mahler", "n": 200000, "seed": seed()},
                    {"experiment": {"n": 1000}},
                    body={"kind": "lp", "dim": 3, "p": p, "method": "monte-carlo"}))
    axes = ", ".join(f"{rng.uniform(0.5, 2.0):.3f}" for _ in range(3))
    out.append(_cfg("densities-mc", None, {"kind": "densities", "n": 200000, "seed": seed()},
                    {"experiment": {"n": 1000}},
                    body={"kind": "ellipsoid", "axes": axes, "method": "monte-carlo"}))
    return out


_GENERATORS = {
    "spread-bulk": _spread_bulk,
    "tree-walks": _tree_walks,
    "geodesic-probes": _geodesic_probes,
    "coarse-convex": _coarse_convex,
}
WORKLOADS = tuple(_GENERATORS)


def generate(workload: str, seed: int) -> list[Config]:
    """The configs of ``workload`` for ``seed``, in run order."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}")
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def write(configs: list[Config], directory: str, tiny: bool = False) -> list[str]:
    """Write one INI file per config; return the paths in run order."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for i, c in enumerate(configs):
        path = os.path.join(directory, f"{i:02d}-{c.name}.ini")
        with open(path, "w") as fh:
            fh.write(c.text(tiny))
        paths.append(path)
    return paths
