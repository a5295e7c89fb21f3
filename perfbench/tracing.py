"""Timing wrappers installed around the package's public functions.

``install(tracer)`` replaces each traced function or method with a wrapper,
in every module or class where callers look the name up (``substream``, for
example, is bound separately in ``stats``, ``cli``, ``spaces.base``,
``convex`` and ``coarse``).  Nothing in the package itself changes.

Three kinds of wrapper, cheapest last:

* span: records ``(id, name, start, end, parent id)`` in memory and adds to
  the per-name totals;
* aggregate: adds to the per-name totals only (scalar hot paths with tens
  of thousands of calls a pass);
* count: increments a call counter (``log_plus`` and the scalar
  ``distance`` methods, up to a quarter million calls a pass).

Every timed wrapper keeps a frame on one stack, so self time (duration minus
the time of timed children, spans or aggregates) is derived as calls return.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter, defaultdict

MODEL = {
    "euclidean-p-norm": "euclidean",
    "hyperbolic-plane": "hyperbolic",
    "modular-torus": "modular",
    "regular-tree": "tree",
    "sup-product": "sup-product",
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.items: defaultdict = defaultdict(float)
        self._stack: list[list] = []   # [child time, id of nearest span]
        self._next_id = 1

    def wrap(self, fn, name, span=True, items=None):
        """Timed wrapper; ``name`` is a string or a function of the call's
        first argument, ``items(args, kwargs, result)`` adds to ``items``."""
        stack, spans, perf = self._stack, self.spans, time.perf_counter
        static = name if isinstance(name, str) else None

        def wrapper(*args, **kwargs):
            label = static or name(args[0])
            parent = stack[-1][1] if stack else 0
            if span:
                sid = self._next_id
                self._next_id += 1
            else:
                sid = parent
            frame = [0.0, sid]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                self.calls[label] += 1
                self.total[label] += dur
                self.self_time[label] += dur - frame[0]
                if span:
                    spans.append((sid, label, t0, t1, parent))
            if items is not None:
                self.items[label] += items(args, kwargs, result)
            return result

        return wrapper

    def counter(self, fn, name):
        calls = self.calls
        static = name if isinstance(name, str) else None

        def wrapper(*args, **kwargs):
            calls[static or name(args[0])] += 1
            return fn(*args, **kwargs)

        return wrapper

    def dump_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, label, t0, t1, parent in self.spans:
                fh.write(json.dumps({"id": sid, "name": label, "start": t0,
                                     "end": t1, "parent": parent}) + "\n")


class _Patches:
    """Installed wrappers, with what they replaced, so they can be removed."""

    def __init__(self):
        self._undo: list[tuple] = []

    def _set(self, target, attr, value):
        self._undo.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def function(self, module, attr, wrapper_factory):
        """Replace ``attr`` in every loaded stathyp module that binds the same object."""
        original = getattr(sys.modules[module], attr)
        wrapped = wrapper_factory(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("stathyp") and getattr(mod, attr, None) is original:
                self._set(mod, attr, wrapped)

    def method(self, cls, attr, wrapper_factory):
        self._set(cls, attr, wrapper_factory(cls.__dict__[attr]))

    def restore(self):
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()


def _model(space) -> str:
    return MODEL[space.kind]


def _arg(fn, param):
    """items function returning the bound value of ``param``."""
    sig = inspect.signature(fn)

    def get(args, kwargs, result):
        return float(sig.bind(*args, **kwargs).arguments[param])
    return get


def install(tracer: Tracer):
    """Install the wrappers; return a function that removes them again."""
    import numpy as np
    from stathyp import cli, convex, stats
    from stathyp.spaces import euclidean, hyperbolic, modular, nets, product, tree
    from stathyp.spaces.base import ModelSpace

    span = tracer.wrap
    patch = _Patches()

    # cli: parse, dispatch and output (render plus atomic writes)
    for attr in ("parse_config", "run_config"):
        patch.function("stathyp.cli", attr, lambda f, a=attr: span(f, f"cli.{a}"))
    for attr in ("render_csv", "render_summary", "_atomic_write"):
        patch.function("stathyp.cli", attr, lambda f: span(f, "cli.output"))
    runners = dict(cli._RUNNERS)
    cli._RUNNERS.update({kind: span(f, f"cli.run.{kind}") for kind, f in runners.items()})

    # stats: estimator entry points
    for attr, n_param in (("estimate_spread", "n"), ("separation_fraction", "n"),
                          ("ray_thick_fraction_many", "n"), ("p1_fraction", "n"),
                          ("thin_triangle_probe", None), ("discretize_geodesic", None)):
        fn = getattr(stats, attr)
        samples = _arg(fn, n_param) if n_param else (lambda a, k, r: 1.0)
        patch.function("stathyp.stats", attr,
                       lambda f, a=attr, s=samples: span(f, f"stats.{a}", items=s))

    # rng
    patch.function("stathyp.rng", "substream",
                   lambda f: span(f, "rng.substream", span=False))

    # spaces: per-model batch kernels and scalar distance
    def op_name(op):
        return lambda self: f"spaces.{_model(self)}.{op}"

    def tag_bundle(args, kwargs, bundle):
        bundle._perfbench_model = _model(args[0])
        return float(bundle.size)

    op_items = {
        "rays_chunk": tag_bundle,
        "distance_many": lambda a, k, r: float(len(r)),
        "cross_distance": lambda a, k, r: float(r.size),
        "geodesic_points": lambda a, k, r: float(np.size(a[3])),
    }
    for cls in (euclidean.EuclideanSpace, hyperbolic.HyperbolicPlane,
                tree.RegularTree, product.SupProduct):
        for op, items in op_items.items():
            patch.method(cls, op, lambda f, o=op, i=items: span(f, op_name(o), items=i))
        patch.method(cls, "distance", lambda f: tracer.counter(f, op_name("distance")))
    for cls in (euclidean.EuclideanRays, hyperbolic.HyperbolicRays,
                tree.TreeRays, product.ProductRays):
        patch.method(cls, "points_at", lambda f: span(
            f, lambda b: f"spaces.{getattr(b, '_perfbench_model', 'untagged')}.points_at",
            items=lambda a, k, r: float(a[0].size)))
    for cls in (ModelSpace, tree.RegularTree):
        patch.method(cls, "sample_radii", lambda f: span(f, "spaces.sample_radii"))
    patch.method(modular.RayWalker, "step",
                 lambda f: span(f, "spaces.modular.RayWalker.step", span=False))
    patch.function("stathyp.spaces.nets", "build_net",
                   lambda f: span(f, "spaces.build_net"))
    patch.method(nets.Net, "nearest",
                 lambda f: span(f, "spaces.Net.nearest", span=False))

    # convex: bodies, polars, volumes
    patch.method(convex.Polytope, "__init__", lambda f: span(f, "convex.Polytope.init"))

    def polar_rows(args, kwargs, result):
        tracer.items["convex.polar.rows_in"] += len(args[0]._A)
        return float(len(result.vertices))
    patch.method(convex.Polytope, "polar",
                 lambda f: span(f, "convex.Polytope.polar", items=polar_rows))

    def volume_samples(args, kwargs, result):
        body = args[0]
        if result.n_samples:
            # volume() reports box * hits / n; recover hits from the same box
            box = float(np.prod([2.0 * body.support(e) for e in np.eye(body.dim)]))
            tracer.items["convex.volume.mc_hits"] += result.value / box * result.n_samples
        return float(result.n_samples)
    patch.function("stathyp.convex", "volume",
                   lambda f: span(f, "convex.volume", items=volume_samples))

    # coarse: pair generation, scalar distance-formula arithmetic
    patch.function("stathyp.coarse", "random_pairs", lambda f: span(
        f, "coarse.random_pairs", items=lambda a, k, r: float(len(r))))
    patch.function("stathyp.coarse", "chain_inequality_holds",
                   lambda f: span(f, "coarse.chain_inequality_holds"))
    for attr in ("horoball_distance", "log_max_proxy", "proxy_sandwich_holds",
                 "max_log_identity"):
        patch.function("stathyp.coarse", attr,
                       lambda f, a=attr: span(f, f"coarse.{a}", span=False))
    patch.function("stathyp.coarse", "log_plus",
                   lambda f: tracer.counter(f, "coarse.log_plus"))

    def restore():
        patch.restore()
        cli._RUNNERS.update(runners)
    return restore


ESTIMATORS = ("estimate_spread", "separation_fraction", "ray_thick_fraction_many",
              "p1_fraction", "thin_triangle_probe", "discretize_geodesic")
OPS = ("rays_chunk", "points_at", "distance_many", "cross_distance", "geodesic_points")
COARSE_SELF = ("random_pairs", "proxy_sandwich_holds", "chain_inequality_holds",
               "max_log_identity")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _thin_triangle_accept(spans) -> float:
    """Triangles kept over ``rays_chunk`` attempts made by the thin-triangle runner."""
    runners = {sid for sid, label, _, _, _ in spans if label == "cli.run.thin-triangle"}
    attempts = kept = 0
    for _, label, _, _, parent in spans:
        if parent in runners:
            attempts += label.endswith(".rays_chunk")
            kept += label == "stats.thin_triangle_probe"
    return _ratio(kept, attempts)


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-pass layer metrics as ``{name: (value, unit)}``; 0 where no call reached."""
    calls, total, self_t, items = tracer.calls, tracer.total, tracer.self_time, tracer.items
    per = 1.0 / passes
    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    put("cli.parse_config.s", total["cli.parse_config"] * per, "s")
    put("cli.run_config.s", total["cli.run_config"] * per, "s")
    put("cli.output.s", total["cli.output"] * per, "s")
    put("cli.thin_triangle.accept_ratio", _thin_triangle_accept(tracer.spans), "ratio")

    for est in ESTIMATORS:
        put(f"stats.{est}.self_s", self_t[f"stats.{est}"] * per, "s")
    put("stats.thin_triangle_probe.calls", calls["stats.thin_triangle_probe"] * per, "count")
    put("stats.samples_per_s",
        _ratio(sum(items[f"stats.{e}"] for e in ESTIMATORS),
               sum(total[f"stats.{e}"] for e in ESTIMATORS)), "1/s")

    put("rng.substream.calls", calls["rng.substream"] * per, "count")
    put("rng.substream.s", total["rng.substream"] * per, "s")

    for model in MODEL.values():
        for op in OPS:
            name = f"spaces.{model}.{op}"
            put(f"{name}.self_s", self_t[name] * per, "s")
            put(f"{name}.items", items[name] * per, "count")
        put(f"spaces.{model}.distance.calls", calls[f"spaces.{model}.distance"] * per, "count")
    put("spaces.sample_radii.self_s", self_t["spaces.sample_radii"] * per, "s")
    step = "spaces.modular.RayWalker.step"
    put(f"{step}.self_s", self_t[step] * per, "s")
    put(f"{step}.calls", calls[step] * per, "count")
    put("spaces.build_net.s", total["spaces.build_net"] * per, "s")
    put("spaces.Net.nearest.s", total["spaces.Net.nearest"] * per, "s")
    put("spaces.Net.nearest.calls", calls["spaces.Net.nearest"] * per, "count")

    put("convex.Polytope.init.s", total["convex.Polytope.init"] * per, "s")
    put("convex.Polytope.polar.self_s", self_t["convex.Polytope.polar"] * per, "s")
    put("convex.Polytope.polar.calls", calls["convex.Polytope.polar"] * per, "count")
    put("convex.polar.kept_ratio",
        _ratio(items["convex.Polytope.polar"], items["convex.polar.rows_in"]), "ratio")
    put("convex.volume.self_s", self_t["convex.volume"] * per, "s")
    put("convex.volume.calls", calls["convex.volume"] * per, "count")
    put("convex.volume.mc_samples", items["convex.volume"] * per, "count")
    put("convex.volume.accept_ratio",
        _ratio(items["convex.volume.mc_hits"], items["convex.volume"]), "ratio")

    for fn in COARSE_SELF:
        put(f"coarse.{fn}.self_s", self_t[f"coarse.{fn}"] * per, "s")
    put("coarse.random_pairs.items", items["coarse.random_pairs"] * per, "count")
    for fn in ("horoball_distance", "log_max_proxy"):
        put(f"coarse.{fn}.calls", calls[f"coarse.{fn}"] * per, "count")
        put(f"coarse.{fn}.s", total[f"coarse.{fn}"] * per, "s")
    put("coarse.horoball_distance.per_pair",
        _ratio(calls["coarse.horoball_distance"], items["coarse.random_pairs"]), "ratio")
    put("coarse.log_plus.calls", calls["coarse.log_plus"] * per, "count")
    return out
