"""The benchmark's tracer installs onto the package and comes off again."""

import importlib.util
from pathlib import Path

from stathyp import cli, coarse, rng, stats
from stathyp.spaces import EuclideanSpace, RegularTree

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_and_restore():
    # the tracer patches methods by name, so deleting or renaming one of
    # them shows up here instead of only in a benchmark run
    tracing = load_tracing()
    runners = dict(cli._RUNNERS)
    patched = (EuclideanSpace.__dict__["distance_many"], RegularTree.__dict__["sample_radii"],
               stats.estimate_spread, rng.substream)
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        assert cli._RUNNERS != runners
        cfg = cli.parse_config("[experiment]\nkind = estimate-e\nn = 100\n")
        cli.run_config(cfg)
        assert tracer.calls["cli.run.estimate-e"] == 1
        assert tracer.calls["spaces.euclidean.distance_many"] == 1
    finally:
        restore()
    assert cli._RUNNERS == runners
    assert (EuclideanSpace.__dict__["distance_many"], RegularTree.__dict__["sample_radii"],
            stats.estimate_spread, rng.substream) == patched


COARSE_HOOKS = ("random_pairs", "chain_inequality_holds", "horoball_distance", "log_max_proxy",
                "proxy_sandwich_holds", "max_log_identity", "log_plus")


def test_tracer_counts_coarse_hooks():
    # the coarse layer works on batches, so its counters count calls per
    # chunk; random_pairs' items still count every pair drawn
    tracing = load_tracing()
    originals = {name: getattr(coarse, name) for name in COARSE_HOOKS}
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        cfg = cli.parse_config("[experiment]\nkind = coarse-check\nn = 300\n")
        assert cli.run_config(cfg).ok
        assert tracer.calls["coarse.random_pairs"] >= 1
        assert tracer.items["coarse.random_pairs"] == 300
        assert tracer.calls["coarse.log_plus"] >= 1
    finally:
        restore()
    assert {name: getattr(coarse, name) for name in COARSE_HOOKS} == originals
