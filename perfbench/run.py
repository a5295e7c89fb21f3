"""stathyp benchmark: four CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a source checkout (the package is imported from
``src/``).  The seeded generator in ``workloads.py`` writes the workload's
INI configs; fresh single-threaded interpreters (``child.py``) then set up
and run them through ``stathyp.cli.main``.  With ``--trace 0`` the last
stdout line is a JSON object with the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it carries the per-layer metrics of a
traced run instead.  ``--smoke`` runs every workload at tiny sizes in both
modes and checks that every metric is printed with its unit.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")

SETUP_SAMPLES = 3          # fresh interpreters whose set-up time is timed
CHILD_TIMEOUT_S = 150

# single-threaded numerics; the package must take its seeds from the configs
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "STATHYP_SEED"}
CHILD_ENV.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
                 PYTHONHASHSEED="0")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def child(workdir: str, mode: str, seconds: float = 0.0, trace: int = 0,
          spans: str | None = None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workdir", workdir,
           "--mode", mode, "--seconds", repr(seconds), "--trace", str(trace)]
    if spans:
        cmd += ["--spans", spans]
    proc = subprocess.run(cmd, env=CHILD_ENV, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} process failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def prepare(workload: str, seed: int, smoke: bool) -> tuple[str, list[str]]:
    """Generate the workload's configs into a fresh work directory.

    Returns the directory and the config names in run order.
    """
    workdir = os.path.join(STATE, f"work-{workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    configs = workloads.generate(workload, seed)
    paths = workloads.write(configs, os.path.join(workdir, "configs"), tiny=smoke)
    warm = workloads.write(configs, os.path.join(workdir, "warm"), tiny=True)
    with open(os.path.join(workdir, "configs.json"), "w") as fh:
        json.dump([{"path": p, "warm": w, "check": c.check}
                   for c, p, w in zip(configs, paths, warm)], fh, indent=1)
    return workdir, [c.name for c in configs]


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 spec: dict, smoke: bool = False) -> dict:
    """Set up, measure and check one workload; return the result object."""
    workdir, names = prepare(workload, seed, smoke)
    try:
        if trace:
            spans = os.path.join(STATE, f"spans-{workload}-seed{seed}.jsonl")
            res = child(workdir, "measure", seconds, 1, spans)
            layers = res["layers"]
            metrics = {m["name"]: {"value": layers.get(m["name"], (0.0,))[0],
                                   "unit": m["unit"]} for m in spec["per_layer"]}
        else:
            samples = 1 if smoke else SETUP_SAMPLES
            setups = [child(workdir, "setup")["setup_s"] for _ in range(samples - 1)]
            res = child(workdir, "measure", seconds, 0)
            setups.append(res["setup_s"])
            values = {
                "wall_s": res["wall_s"],
                "setup_s": statistics.median(setups),
                "peak_rss_mb": res["peak_rss_mb"],
                "pass_frac": 1.0 - res["failed"] / res["attempted"],
            }
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                       for m in spec["end_to_end"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"# workload {workload} seed {seed} trace {trace}: {res['attempted']} config runs")
    for kind in ("passes", "traced_passes"):
        if res[kind]:
            print(f"# {kind} (s): {' '.join(f'{t:.3f}' for t in res[kind])}")
    for name, walls in zip(names, zip(*res["config_walls"])):
        print(f"# config {name} (s): {' '.join(f'{t:.3f}' for t in walls)}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"fail_frac = {res['failed'] / res['attempted']:.6g} "
          f"({res['failed']}/{res['attempted']})")
    for problem in res["problems"]:
        print(f"FAILED CHECK {problem}", file=sys.stderr)
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def smoke(spec: dict) -> int:
    """Tiny run of every workload in both modes; check names, units, values."""
    problems = []
    reached = set()
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for workload in workloads.WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            result = run_workload(workload, 0, 1.0, trace, spec, smoke=True)
            if not result["correct"]:
                problems.append(f"{workload} trace {trace}: output checks failed")
            for m in spec[group]:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"] or not math.isfinite(got["value"]):
                    problems.append(f"{workload}: metric {m['name']} missing or bad: {got}")
                elif got["value"] != 0:
                    reached.add(m["name"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        if m["name"] not in reached:
            problems.append(f"metric {m['name']} is 0 on every workload")
    for p in problems:
        print(f"SMOKE PROBLEM {p}")
    print("smoke:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "stathyp", "__init__.py")):
        print(f"error: no package source at {SRC}/stathyp; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    spec = load_spec()
    if args.smoke:
        return smoke(spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    try:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace, spec)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
