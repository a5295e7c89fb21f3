"""One fresh, single-threaded workload process.

    python3 perfbench/child.py --workdir DIR --mode setup|measure
                               [--seconds S] [--trace 0|1] [--spans FILE]

``setup`` imports the package, parses every config, builds its space or body
and runs the warm-up pass, then reports the time that took.  ``measure``
does the same set-up and then runs all configs through ``stathyp.cli.main``
in repeated passes for about ``--seconds`` seconds, checking every output.
With ``--trace 1`` the passes alternate between untraced and traced with the
timing wrappers of ``tracing.py``.  The result is one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def setup(workdir: str) -> tuple[float, list[dict]]:
    """Import, parse, build and warm up; return (seconds, configs)."""
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import stathyp
    from stathyp import cli
    if not os.path.abspath(stathyp.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"stathyp imported from {stathyp.__file__}, not from {SRC}")
    with open(os.path.join(workdir, "configs.json")) as fh:
        configs = json.load(fh)
    for c in configs:
        with open(c["path"]) as fh:
            cfg = cli.parse_config(fh.read())
        kind = cfg["experiment"]["kind"]
        if kind in ("mahler", "densities"):
            cli._body(cfg)
        elif kind != "coarse-check":
            cli._space(cfg)
    warm_out = os.path.join(workdir, "warm-out")
    for c in configs:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["run", "--config", c["warm"], "--out", warm_out])
        if rc != 0:
            raise SystemExit(f"warm-up config {c['warm']} exited with {rc}")
    return time.perf_counter() - t0, configs


def run_pass(configs, out_dir, checker) -> list[float]:
    """Run every config once through the CLI; return each one's wall time."""
    from stathyp import cli
    walls = []
    for c in configs:
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["run", "--config", c["path"], "--out", out_dir])
        walls.append(time.perf_counter() - t0)
        checker.run(c, rc, buf.getvalue(), out_dir)
    return walls


def time_left(start: float, seconds: float, passes: list[list[float]],
              per_round: int = 1) -> bool:
    """Whether another round of passes ends within ``seconds`` of ``start``."""
    need = per_round * min(sum(p) for p in passes)
    return time.perf_counter() - start + need <= seconds


def quartile_wall(passes: list[list[float]]) -> float:
    """Sum over configs of the upper quartile of each config's wall times.

    The shared host has spells, from seconds to minutes long, in which it
    runs up to 40% faster than its normal speed.  The upper quartile reads
    the normal speed whenever a quarter of a config's runs see it, and still
    ignores the rare run that another tenant slowed down.
    """
    return sum(statistics.quantiles(walls, n=4)[2] for walls in zip(*passes))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--mode", choices=("setup", "measure"), required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    setup_s, configs = setup(args.workdir)
    result = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    sys.path.insert(0, HERE)
    from checks import Checker

    checker = Checker()
    out_dir = os.path.join(args.workdir, "out")
    start = time.perf_counter()
    plain, traced = [], []
    if not args.trace:
        while len(plain) < 3 or time_left(start, args.seconds, plain):
            plain.append(run_pass(configs, out_dir, checker))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        # alternate untraced and traced passes, so both see the same machine
        import tracing
        tracer = tracing.Tracer()
        while len(traced) < 2 or time_left(start, args.seconds, plain + traced, 2):
            plain.append(run_pass(configs, out_dir, checker))
            uninstall = tracing.install(tracer)
            traced.append(run_pass(configs, out_dir, checker))
            uninstall()
        result["layers"] = tracing.layer_metrics(tracer, len(traced))
        result["layers"]["trace.overhead_s"] = (quartile_wall(traced) - quartile_wall(plain), "s")
        if args.spans:
            tracer.dump_spans(args.spans)
    result.update(wall_s=quartile_wall(plain), passes=[sum(p) for p in plain],
                  traced_passes=[sum(p) for p in traced], config_walls=plain)
    result.update(attempted=checker.attempted, failed=checker.failed,
                  problems=checker.problems[:20])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
