"""The benchmark's tracer installs onto the package and comes off again, its
workloads build and run through the CLI, every kind writes its CSV row and
summary head from its parameters, a run that builds no polytope never imports
scipy, the README's layout table and example config hold, every public
name has a caller, and no runner builds the section its kind reads."""

import ast
import csv
import importlib
import importlib.util
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path
from types import FunctionType

import numpy as np
import pytest

import stathyp
from stathyp import cli, coarse, rng, stats
from stathyp.spaces import EuclideanSpace, RegularTree

ROOT = Path(__file__).resolve().parents[1]


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_tracer_install_and_restore():
    # the tracer patches methods by name, so deleting or renaming one of
    # them shows up here instead of only in a benchmark run
    tracing = load_perfbench("tracing")
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
        # estimate-e measures normed pairs with ray_pair_distances, which the
        # tracer does not wrap, so the wrapped method is called directly
        EuclideanSpace().distance_many(np.zeros((3, 2)), np.ones((3, 2)))
        assert tracer.calls["spaces.euclidean.distance_many"] == 1
    finally:
        restore()
    assert cli._RUNNERS == runners
    assert (EuclideanSpace.__dict__["distance_many"], RegularTree.__dict__["sample_radii"],
            stats.estimate_spread, rng.substream) == patched


@pytest.mark.parametrize("experiment", [
    "kind = thick-stat\nr = 20\nn = 2\n",
    "kind = p1\nr = 10\nk = 2\nn = 20\n",
], ids=["thick-stat", "p1"])
def test_tracer_counts_coding_steps(experiment):
    # the smoke gate reads the walker's step counter on geodesic-probes; an
    # estimator that stops calling RayWalker.step leaves it at 0
    tracing = load_perfbench("tracing")
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        cfg = cli.parse_config(f"[space]\nkind = modular\n[experiment]\n{experiment}")
        assert cli.run_config(cfg).ok
        assert tracer.calls["spaces.modular.RayWalker.step"] > 0
    finally:
        restore()


COARSE_HOOKS = ("random_pairs", "chain_inequality_holds", "horoball_distance", "log_max_proxy",
                "proxy_sandwich_holds", "max_log_identity", "log_plus")


def test_tracer_counts_coarse_hooks():
    # the coarse layer works on batches, so its counters count calls per
    # chunk; random_pairs' items still count every pair drawn
    tracing = load_perfbench("tracing")
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


TINY_CONFIGS = {
    "estimate-e": "[space]\nkind = hyperbolic\n[experiment]\nkind = estimate-e\nn = 100\n",
    "thick-stat": "[space]\nkind = modular\n[experiment]\nkind = thick-stat\nr = 5\nn = 2\n",
    "p1": "[space]\nkind = modular\n[experiment]\nkind = p1\nr = 5\nk = 1\nn = 10\n",
    "separation": "[experiment]\nkind = separation\nn = 100\n",
    "thin-triangle": "[space]\nkind = hyperbolic\n[experiment]\nkind = thin-triangle\n"
                     "r = 5\nn = 2\n",
    "discretize": "[space]\nkind = hyperbolic\n[experiment]\nkind = discretize\nr = 3\nn = 2\n",
    "coarse-check": "[experiment]\nkind = coarse-check\nn = 200\n",
    "mahler": "[experiment]\nkind = mahler\n",
    "densities": "[experiment]\nkind = densities\n",
    "cube": "[body]\nkind = polytope\nvertices = " + "; ".join(
        f"{x} {y} {z}" for x in (-1, 1) for y in (-1, 1) for z in (-1, 1))
            + "\n[experiment]\nkind = mahler\n",
}


@pytest.mark.parametrize("kind", sorted(cli.CATALOG))
def test_every_kind_runs_traced(kind):
    # the benchmark's traced passes run every kind through the wrappers; a
    # refactor that breaks a wrapped call for one kind shows up here
    tracing = load_perfbench("tracing")
    runners = dict(cli._RUNNERS)
    patched = (EuclideanSpace.__dict__["distance_many"], stats.thin_triangle_probe,
               coarse.log_plus, rng.substream)
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        assert cli.run_config(cli.parse_config(TINY_CONFIGS[kind])).ok
        assert tracer.calls[f"cli.run.{kind}"] == 1
        assert tracing.layer_metrics(tracer, 1)
    finally:
        restore()
    assert cli._RUNNERS == runners
    assert (EuclideanSpace.__dict__["distance_many"], stats.thin_triangle_probe,
            coarse.log_plus, rng.substream) == patched


def test_traced_discretize_reaches_the_net_builder():
    # discretize measures on the line, but through the library: the
    # benchmark's per-layer net metrics would read 0 if a rewrite bypassed it
    tracing = load_perfbench("tracing")
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        assert cli.run_config(cli.parse_config(TINY_CONFIGS["discretize"])).ok
    finally:
        restore()
    for name in ("stats.discretize_geodesic", "spaces.build_net", "spaces.Net.nearest"):
        assert tracer.calls[name] == 2, name


@pytest.mark.parametrize("kind", sorted(cli.CATALOG))
def test_row_and_head_follow_the_parameters(tmp_path, capsys, kind):
    # run_config writes every kind's row and head line: r and k from the
    # parameters (0.0 where the kind has none), n and seed as parsed, and
    # pass as the exit code says
    text = TINY_CONFIGS[kind]
    path = tmp_path / "c.ini"
    path.write_text(text)
    code = cli.main(["run", "--config", str(path), "--out", str(tmp_path)])
    assert code in (0, 3)
    params = cli._params(cli.parse_config(text), kind, None)
    with open(tmp_path / "c.csv") as fh:
        (row,) = csv.DictReader(fh)
    assert row["experiment"] == kind
    assert row["r"] == repr(float(params.get("r", 0.0)))
    assert row["k"] == repr(float(params.get("k", 0.0)))
    assert (row["n"], row["seed"]) == (str(params["n"]), str(params["seed"]))
    assert row["pass"] == ("1" if code == 0 else "0")
    head = (tmp_path / "c.summary.txt").read_text().splitlines()[1]
    assert head.startswith(f"{kind}: ")
    assert capsys.readouterr().out.splitlines()[1] == head


# catalog parameters that no runner reads: the benchmark's geodesic-probes
# configs (tri-hyp, tri-euclid, tri-product) still set thin-triangle's ds
INERT_PARAMETERS = {("thin-triangle", "ds")}


@pytest.mark.parametrize("kind", sorted(cli.CATALOG))
def test_every_catalog_parameter_is_read(kind):
    # a parameter that its runner never reads as pr["..."] is a flag that
    # does nothing
    tree = ast.parse(inspect.getsource(cli._RUNNERS[kind]))
    read = {node.slice.value for node in ast.walk(tree)
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == "pr" and isinstance(node.slice, ast.Constant)}
    unread = {name for name in cli.CATALOG[kind]["parameters"] if name not in read}
    assert unread == {name for k, name in INERT_PARAMETERS if k == kind}


@pytest.mark.parametrize("kind", sorted(cli.CATALOG))
def test_no_runner_builds_a_section(kind):
    # run_config builds the [space] or [body] that the catalog names; a runner
    # that built one again, itself or through a cli helper, would state a
    # second time what its kind reads
    called, todo = set(), [cli._RUNNERS[kind]]
    while todo:
        for node in ast.walk(ast.parse(inspect.getsource(todo.pop()))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                helper = getattr(cli, node.func.id, None)
                if node.func.id not in called and isinstance(helper, FunctionType):
                    todo.append(helper)
                called.add(node.func.id)
    assert not called & {"_space", "_body", "_model", "parse_config"}


def test_benchmark_workloads_build_and_run(tmp_path, capsys):
    # the benchmark builds every config's space or body through cli._space
    # and cli._body, then runs the tiny variants through cli.main; a CLI
    # change that breaks either shows up here instead of in a benchmark run
    workloads = load_perfbench("workloads")
    for name in workloads.WORKLOADS:
        configs = workloads.generate(name, 1)
        paths = workloads.write(configs, str(tmp_path / name), tiny=True)
        for config, path in zip(configs, paths):
            cfg = cli.parse_config(config.text())
            kind = cfg["experiment"]["kind"]
            if kind in ("mahler", "densities"):
                cli._body(cfg)
            elif kind != "coarse-check":
                cli._space(cfg)
            assert cli.main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 0, path
    capsys.readouterr()


COLD_START = """
import contextlib, csv, io, json, os, sys
import stathyp, stathyp.cli as cli

out_dir, configs = sys.argv[1], json.loads(sys.argv[2])
result = {"codes": {}, "means": {}, "scipy": {}}
for name, text in configs.items():
    path = os.path.join(out_dir, name + ".ini")
    with open(path, "w") as fh:
        fh.write(text)
    with contextlib.redirect_stdout(io.StringIO()):
        result["codes"][name] = cli.main(["run", "--config", path, "--out", out_dir])
    with open(os.path.join(out_dir, name + ".csv")) as fh:
        result["means"][name] = float(next(csv.DictReader(fh))["mean"])
    result["scipy"][name] = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps(result))
"""


def test_cold_start_loads_scipy_only_for_polytopes(tmp_path):
    # scipy.spatial once took more than half of every run's start-up time
    # and 30 MB of memory, for the one Qhull call that builds a polytope
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", COLD_START, str(tmp_path),
                           json.dumps(TINY_CONFIGS)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == {name: 0 for name in TINY_CONFIGS}
    for name in TINY_CONFIGS:
        if name != "cube":
            assert result["scipy"][name] == [], name
    # the cube's polar is the octahedron: 8 * 4/3
    assert abs(result["means"]["cube"] - 32.0 / 3.0) <= 1e-12
    assert "scipy.spatial" in result["scipy"]["cube"]


@pytest.mark.parametrize("module_name", ["stathyp", "stathyp.spaces"])
def test_star_import_resolves_every_public_name(module_name):
    # a name left in __all__ after its definition is gone breaks the star
    # import, so a deletion that misses an export fails here
    namespace = {}
    exec(f"from {module_name} import *", namespace)
    public = importlib.import_module(module_name).__all__
    assert [name for name in public if name not in namespace] == []


def used_names(paths) -> set[str]:
    """Every name and attribute the sources read; imports, definitions and
    ``__all__`` strings are not reads."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_name_has_a_caller():
    # a public function or class, or a public method or property of a public
    # class, that src/ does not use, the README does not name in backticks
    # and the acceptance suite does not use is dead code
    used = used_names([*(ROOT / "src").rglob("*.py"), ROOT / "tests" / "test_acceptance.py"])
    used |= {word for span in re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text())
             for word in re.findall(r"[A-Za-z_]\w*", span)}
    unused = []
    for info in pkgutil.walk_packages(stathyp.__path__, "stathyp."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if (name.startswith("_") or not (inspect.isfunction(obj) or inspect.isclass(obj))
                    or obj.__module__ != info.name):
                continue
            names = [(name, name)]
            if inspect.isclass(obj):
                names += [(f"{name}.{attr}", attr) for attr, member in vars(obj).items()
                          if not attr.startswith("_") and isinstance(
                              member, (FunctionType, property, staticmethod, classmethod))]
            unused += [f"{info.name}.{label}" for label, word in names if word not in used]
    assert unused == []


def test_src_reads_no_environment_variable():
    # a run is set by its config file and its flags alone
    reads = [f"{path.relative_to(ROOT)}:{node.lineno}"
             for path in sorted((ROOT / "src").rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if {getattr(node, "attr", None), getattr(node, "id", None)} & {"environ", "getenv"}]
    assert reads == []


def test_readme_layout_names_resolve():
    # each row reads "| `stathyp.<module>` | contents |"; a backticked dotted
    # name in the contents is a module of the package or an attribute path
    # (such as `Class.method`) of the row's module, any other backticked
    # identifier an attribute of the row's module
    text = (ROOT / "README.md").read_text()
    table = text.split("## Layout", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(stathyp[\w.]*)` \| (.*) \|$", table, re.M)
    assert len(rows) == 5
    missing = []
    for module_name, contents in rows:
        module = importlib.import_module(module_name)
        for name in re.findall(r"`([A-Za-z_][\w.]*)`", contents):
            if "." in name:
                try:
                    importlib.import_module(name)
                except ImportError:
                    head, *rest = name.split(".")
                    target = getattr(module, head, None)
                    for attr in rest:
                        target = getattr(target, attr, None)
                    if target is None:
                        missing.append(name)
            elif not hasattr(module, name):
                missing.append(f"{module_name}.{name}")
    assert missing == []


def test_readme_example_config_runs(tmp_path, capsys):
    # configparser reads a ';' after a value as part of the value, so the
    # example keeps its comments on lines of their own
    (block,) = re.findall(r"^```ini\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)
    path = tmp_path / "example.ini"
    path.write_text(block)
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert "PASS" in capsys.readouterr().out
