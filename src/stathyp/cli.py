"""Config-driven experiment runner.

Experiments are described by INI-style config files with a ``[space]``
section (model geometry), an ``[experiment]`` section (kind plus numeric
parameters), and for the convex-body experiments a ``[body]`` section.  Each
run writes a CSV data file with a fixed column schema and a human-readable
summary with per-invariant pass/fail lines; both writes are atomic
(write-then-rename).  Identical config and seed produce identical output
bytes, also regardless of the ``sweep --workers`` thread count.

Exit codes: 0 success, 2 config/parameter error, 3 invariant failure.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import inspect
import io
import json
import math
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import coarse, convex, stats
from .errors import StathypError
from .rng import chunked
from .spaces import SPACE_CLASSES, HyperbolicPlane, space_class, thin_area_fraction

# triangles in the hyperbolic plane are H2_SLIM-slim: each side lies within
# H2_SLIM of the union of the other two
H2_SLIM = math.log(1.0 + math.sqrt(2.0))

CSV_COLUMNS = ("experiment", "space", "r", "k", "n", "seed", "mean",
               "std_error", "extra1_name", "extra1_value", "extra2_name",
               "extra2_value", "pass")


class ConfigError(StathypError):
    """Bad config file or parameter set."""


# ---------------------------------------------------------------------------
# Experiment catalog
# ---------------------------------------------------------------------------

# as `stathyp list` shows them; the model and body constructors hold the defaults
_SPACE_DEFAULTS = {"kind": "euclidean", "dim": 2, "p": 2.0, "q": 3}
_BODIES = {"lp": convex.LpBall, "ellipsoid": convex.Ellipsoid, "polytope": convex.Polytope}


def _signature(cls) -> dict:
    """Key -> default (``inspect.Parameter.empty`` if none) of ``cls``'s constructor."""
    return {key: param.default for key, param in inspect.signature(cls).parameters.items()}


# key -> default per kind, read once: a wrapper later put around a constructor hides none
_SPACE_RECORDS = {kind: _signature(cls) for kind, cls in SPACE_CLASSES.items()}
_BODY_RECORDS = {kind: {**_signature(cls), "method": "exact"} for kind, cls in _BODIES.items()}
_BODY_DEFAULTS = {"kind": "lp", **_BODY_RECORDS["lp"]}
# the keys each section may hold, checked per kind where the section is read
_SECTION_KEYS = {
    "experiment": None,
    "space": ("kind", *dict.fromkeys(key for rec in _SPACE_RECORDS.values() for key in rec)),
    "body": ("kind", *dict.fromkeys(key for rec in _BODY_RECORDS.values() for key in rec))}

# "positive" names the parameters that must be finite and > 0; any other
# value is a ConfigError before the experiment starts.  "sections" names the
# sections a kind reads; a config with any other is a ConfigError.
_READS_SPACE, _READS_BODY = ("experiment", "space"), ("experiment", "body")
CATALOG = {
    "estimate-e": {
        "sections": _READS_SPACE,
        "claim": "average normalized pair distance over spheres/annuli/balls: "
                 "4/pi on the round plane, approaching 2 on hyperbolic models",
        "parameters": {"r": 1.0, "k": 0.0, "n": 100000, "seed": 0},
        "positive": ("r", "n"),
    },
    "thick-stat": {
        "sections": _READS_SPACE,
        "claim": "time fraction a geodesic ray spends in the thick part; "
                 "long rays match the thick-region area fraction",
        "parameters": {"r": 100.0, "n": 50, "eps": 0.5, "dt": 0.1, "seed": 0},
        "positive": ("r", "n", "eps", "dt"),
    },
    "p1": {
        "sections": _READS_SPACE,
        "claim": "typical rays to the shell [r-k, r] keep their running "
                 "thickness fraction above theta from time sigma*l to their "
                 "length l",
        "parameters": {"r": 50.0, "k": 5.0, "n": 1000, "eps": 0.1,
                       "theta": 0.5, "sigma": 0.2, "dt": 0.1, "seed": 0},
        "positive": ("r", "n", "eps", "dt"),
    },
    "separation": {
        "sections": _READS_SPACE,
        "claim": "probability that two random rays are still M0-close at time "
                 "t = sigma*r; decays exponentially on hyperbolic models, "
                 "polynomially on flat ones",
        "parameters": {"r": 20.0, "sigma": 0.5, "M0": 2.0, "n": 100000, "seed": 0},
        "positive": ("r", "n", "M0"),
    },
    "thin-triangle": {
        "sections": _READS_SPACE,
        "claim": "the middle of one side of a long random triangle comes "
                 "within C of the other two sides when the space is "
                 "hyperbolic-like",
        "parameters": {"r": 20.0, "n": 100, "C": 3.0, "ds": 0.05, "seed": 0},
        "positive": ("r", "n", "C", "ds"),
    },
    "mahler": {
        "sections": _READS_BODY,
        "claim": "product of the volumes of a symmetric convex body and its "
                 "polar lies between the cube-lower and ball-upper bounds",
        "parameters": {"n": 200000, "seed": 0},
    },
    "densities": {
        "sections": _READS_BODY,
        "claim": "ratio of the inverse-volume and polar-volume densities of "
                 "a norm lies in [1, n^(n/2)]",
        "parameters": {"n": 200000, "seed": 0},
    },
    "coarse-check": {
        "sections": ("experiment",),
        "claim": "horoball distance and its log-max proxy are 6-bilipschitz "
                 "above the threshold floor, thresholded sums chain "
                 "accordingly, and the max/sum log identity has factor 3",
        "parameters": {"n": 100000, "eps": 4.5399929762484854e-05,  # exp(-10)
                       "M0": 400.0, "seed": 0},
        "positive": ("n", "M0"),
    },
    "discretize": {
        "sections": _READS_SPACE,
        "claim": "snapping marks spaced tau-2c to a c-separated, 2c-dense net "
                 "yields paths with steps at most tau and marks within 2c; "
                 "checks the net builder in arc length, the same on every model",
        "parameters": {"r": 10.0, "tau": 3.0, "c": 0.5, "n": 200, "seed": 0},
        "positive": ("r", "n", "tau", "c"),
    },
}


def list_experiments() -> dict:
    """Machine-readable catalog of experiment kinds, parameters, and claims."""
    out = {}
    for kind, entry in CATALOG.items():
        out[kind] = {
            "claim": entry["claim"],
            "parameters": dict(entry["parameters"]),
            "space_defaults": dict(_SPACE_DEFAULTS),
        }
        if "body" in entry["sections"]:
            out[kind]["body_defaults"] = dict(_BODY_DEFAULTS)
    return out


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def _new_parser() -> configparser.ConfigParser:
    cp = configparser.ConfigParser()
    cp.optionxform = str  # keep key case: C (threshold) vs c (net separation)
    return cp


def parse_config(text: str) -> dict:
    """Parse INI text into {section: {key: string}} with validation."""
    cp = _new_parser()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    cfg = {s: dict(cp.items(s)) for s in cp.sections()}
    for section, items in cfg.items():
        if section not in _SECTION_KEYS:
            raise ConfigError(f"unknown section [{section}]; use [space], [experiment] or [body]")
        _check_keys(f"[{section}]", items, _SECTION_KEYS[section] or items)
    if "experiment" not in cfg or "kind" not in cfg["experiment"]:
        raise ConfigError("config needs an [experiment] section with a kind")
    kind = cfg["experiment"]["kind"]
    if kind not in CATALOG:
        raise ConfigError(f"unknown experiment kind {kind!r}; see `stathyp list`")
    reads = CATALOG[kind]["sections"]
    for section in cfg:
        if section not in reads:
            raise ConfigError(f"kind {kind!r} does not read a [{section}] section; it reads "
                              + " and ".join(f"[{s}]" for s in reads))
    return cfg


def _check_keys(where: str, items, known, kind: str = "") -> None:
    unknown = [key for key in items if key not in known]
    if unknown:
        of = f" for kind {kind!r}" if kind else ""
        raise ConfigError(f"{where} has no key {unknown[0]!r}{of}; "
                          f"known keys: {' '.join(known)}")


def serialize_config(cfg: dict) -> str:
    cp = _new_parser()
    for section, items in cfg.items():
        cp[section] = {k: str(v) for k, v in items.items()}
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def _section(where: str, sec: dict, record: dict, kind: str) -> dict:
    """``record``, a map of key -> default, with the values that section
    ``where`` (such as ``[space]``) of ``kind`` gives in ``sec``: whole numbers
    where the default is an int, text where it is text, floats otherwise, and
    ``components``, ``axes`` and ``vertices`` by their own readers.  A blank
    ``h`` keeps its default.  A stray key, a missing key with no default and a
    value that does not convert are ConfigErrors naming section and key."""
    _check_keys(where, [key for key in sec if key != "kind"], record, kind)
    out = {}
    for key, default in record.items():
        raw = sec.get(key)
        if raw is None or (key == "h" and not raw):
            if default is inspect.Parameter.empty:
                raise ConfigError(f"{where} has no {key} entry")
            out[key] = default
        elif key == "components":
            out[key] = [_factor(f"{where} components = {token!r}:", token)
                        for token in map(str.strip, raw.split(";")) if token]
        else:
            convert = _READERS.get(key) or {int: _int, str: str}.get(type(default), float)
            try:
                out[key] = convert(raw)
            except (ValueError, OverflowError) as exc:
                raise ConfigError(f"{where} {key} = {raw!r} is not valid: {exc}") from exc
    return out


def _int(text: str) -> int:
    try:
        return int(text)  # exact at any size
    except ValueError:
        value = float(text)  # whole-number spellings such as 1e5 or 100000.0
    if not value.is_integer():
        raise ValueError("not a whole number")
    return int(value)


def _floats(text: str) -> list[float]:
    return [float(a) for a in text.replace(",", " ").split()]


_READERS = {"axes": _floats,
            "vertices": lambda text: np.asarray([_floats(row) for row in text.split(";")
                                                 if row.strip()])}


def _params(cfg: dict, kind: str, seed_override: int | None) -> dict:
    out = _section("[experiment]", cfg["experiment"], CATALOG[kind]["parameters"], kind)
    if seed_override is not None:
        out["seed"] = int(seed_override)
    if out["seed"] < 0:
        raise ConfigError(f"{kind} needs a seed >= 0, got seed={out['seed']}")
    for name in CATALOG[kind].get("positive", ()):
        if not (math.isfinite(out[name]) and out[name] > 0):
            raise ConfigError(f"{kind} needs a finite {name} > 0, got {name}={out[name]}")
    return out


def _space(cfg: dict):
    try:
        return _model("[space]", cfg.get("space", {}))
    except StathypError as exc:
        raise ConfigError(str(exc)) from exc


def _model(where: str, sec: dict, **defaults):
    """The model space of section ``sec``: ``kind`` plus the parameters of its
    class's constructor, ``defaults`` before the constructor's."""
    kind = sec.get("kind", _SPACE_DEFAULTS["kind"])
    cls = space_class(kind)
    record = {key: defaults.get(key, default) for key, default in _SPACE_RECORDS[kind].items()}
    return cls(**_section(where, sec, record, kind))


def _factor(where: str, token: str):
    """The product factor of one components token, ``kind k=v ...``."""
    kind, *pairs = token.split()
    items = {}
    for pair in pairs:
        key, eq, value = pair.partition("=")
        if not eq:
            raise ConfigError(f"{where} {pair!r} is not key=value")
        items[key] = value
    return _model(where, {"kind": kind, **items}, dim=1)  # a line unless it says otherwise


def _continuous_space(cfg: dict, kind: str):
    space = _space(cfg)
    if space.atomic:  # geodesics only at integer times
        raise ConfigError(f"{kind} needs continuous geodesics; {space.kind} has none")
    return space


def _body(cfg: dict) -> tuple[convex.ConvexBody, str]:
    """The ``[body]`` of ``cfg``, read as ``[space]`` is, and the volume ``method`` it names."""
    sec = cfg.get("body", {})
    kind = sec.get("kind", _BODY_DEFAULTS["kind"])
    if kind not in _BODIES:
        raise ConfigError(f"unknown body kind {kind!r}")
    args = _section("[body]", sec, _BODY_RECORDS[kind], kind)
    method = args.pop("method")
    return _BODIES[kind](**args), method


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------

@dataclass
class Report:
    row: tuple = ()
    lines: list[str] = field(default_factory=list)
    ok: bool = True

    def check(self, label: str, passed: bool, detail: str = "") -> None:
        tag = "PASS" if passed else "FAIL"
        self.lines.append(f"{tag}: {label}" + (f" ({detail})" if detail else ""))
        self.ok = self.ok and passed


def _fmt(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


def _binomial_se(frac: float, n: float) -> float:
    """Standard error of a fraction of ``n`` trials, floored at one count."""
    return math.sqrt(max(frac * (1 - frac), 1.0 / n) / n)


def _run_estimate_e(cfg, pr, rep):
    space = _space(cfg)
    res = stats.estimate_spread(space, space.basepoint(), pr["r"], pr["k"], pr["n"], pr["seed"])
    form = "sphere" if pr["k"] == 0 else ("ball" if pr["k"] == pr["r"] else "annulus")
    rep.check("normalized mean within [0, 2]", 0.0 <= res.mean <= 2.0,
              f"mean={res.mean:.6f} se={res.std_error:.2e}")
    return (space.describe(), res.mean, res.std_error, ("form", form),
            ("digest", res.config_digest),
            f"mean={res.mean!r} std_error={res.std_error!r} digest={res.config_digest}")


def _run_thick_stat(cfg, pr, rep):
    space = _space(cfg)
    n = pr["n"]
    fracs = stats.ray_thick_fraction_many(space, space.basepoint(), pr["r"],
                                          pr["eps"], pr["dt"], n, pr["seed"])
    mean = float(np.mean(fracs))
    se = float(np.std(fracs, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    rep.check("thick fractions within [0, 1]",
              bool(np.all((fracs >= 0) & (fracs <= 1 + 1e-12))), f"mean={mean:.6f}")
    extra = ("", "")
    if space.has_thin_part:
        extra = ("thick_area_fraction", 1.0 - thin_area_fraction(pr["eps"]))
    return (space.describe(), mean, se, extra, ("eps", pr["eps"]),
            f"mean={mean!r} std_error={se!r}")


def _run_p1(cfg, pr, rep):
    space = _space(cfg)
    frac = stats.p1_fraction(space, space.basepoint(), pr["r"], pr["k"],
                             pr["eps"], pr["theta"], pr["sigma"], pr["n"],
                             pr["dt"], pr["seed"])
    rep.check("fraction within [0, 1]", 0.0 <= frac <= 1.0, f"fraction={frac:.4f}")
    return (space.describe(), frac, _binomial_se(frac, pr["n"]), ("theta", pr["theta"]),
            ("sigma", pr["sigma"]), f"fraction={frac!r}")


def _run_separation(cfg, pr, rep):
    space = _space(cfg)
    t = pr["sigma"] * pr["r"]
    frac = stats.separation_fraction(space, space.basepoint(), pr["r"], t,
                                     pr["M0"], pr["n"], pr["seed"])
    rep.check("fraction within [0, 1]", 0.0 <= frac <= 1.0,
              f"fraction={frac:.6f} at t={t:.3f}")
    return (space.describe(), frac, _binomial_se(frac, pr["n"]), ("t", t),
            ("M0", pr["M0"]), f"fraction={frac!r} at t={t!r}")


def _run_thin_triangle(cfg, pr, rep):
    space = _continuous_space(cfg, "thin-triangle")
    n, c = pr["n"], pr["C"]
    hits, minima = stats.thin_triangle_sample(space, space.basepoint(), pr["r"], n, c, pr["seed"])
    misses = n - int(hits.sum())
    rate, worst = (n - misses) / n, float(minima.min())
    rep.check("reported minima nonnegative", worst >= 0.0,
              f"hit_rate={rate:.3f} min={worst:.4f}")
    if isinstance(space, HyperbolicPlane) and c >= H2_SLIM:
        rep.check(f"hit_rate 1 at C >= ln(1+sqrt2) = {H2_SLIM:.4f}", misses == 0,
                  f"{misses} of {n} triangles missed")
    return (space.describe(), rate, 0.0, ("C", c), ("min_distance", worst),
            f"hit_rate={rate!r} min_distance={worst!r}")


def _run_mahler(cfg, pr, rep):
    body, method = _body(cfg)
    report = convex.mahler(body, method, pr["n"], pr["seed"])
    lo, hi = report.checked
    rep.check("Mahler volume within bounds", report.ok,
              f"{lo:.6f} <= {report.value:.6f} <= {hi:.6f}")
    return (body.describe(), report.value, report.std_error, ("lower", report.lower_bound),
            ("upper", report.upper_bound),
            f"value={report.value!r} std_error={report.std_error!r}")


def _run_densities(cfg, pr, rep):
    body, method = _body(cfg)
    pair = convex.densities(body, method, pr["n"], pr["seed"])
    ratio, se = pair.ratio, pair.ratio_std_error
    cap = body.dim ** (body.dim / 2.0)
    rep.check("density ratio within [1, n^(n/2)]",
              1.0 - 3.0 * se - 1e-9 <= ratio <= cap + 3.0 * se + 1e-9,
              f"ratio={ratio:.6f}")
    return (body.describe(), ratio, se, ("busemann", pair.busemann),
            ("holmes_thompson", pair.holmes_thompson),
            f"ratio={ratio!r} busemann={pair.busemann!r} "
            f"holmes_thompson={pair.holmes_thompson!r}")


def _run_coarse_check(cfg, pr, rep):
    n, seed, eps0, m0 = pr["n"], pr["seed"], pr["eps"], pr["M0"]
    if not (math.isfinite(eps0) and 0.0 < eps0 < 1.0):
        raise ConfigError(f"coarse-check needs 0 < eps < 1, got eps={eps0}")
    floor = coarse.threshold_floor(eps0)
    counts = np.zeros(4, dtype=np.int64)
    for i, (m, rng_twist, rng_ident) in enumerate(chunked(seed, n, (0xB1,), (0xB2,))):
        pairs = coarse.random_pairs(m, seed, eps0, first=i)
        d_c = np.exp(rng_twist.uniform(-5.0, 300.0, m))
        b, lp = coarse.twist_only_distance(d_c), coarse.log_plus(d_c)
        f, g, h = np.exp(rng_ident.uniform(-7.0, 20.0, (3, m)))
        d, p = coarse.horoball_distance(pairs), coarse.log_max_proxy(pairs)
        counts += [
            np.count_nonzero(~coarse.proxy_sandwich_holds(d, p, floor)),
            np.count_nonzero(((b >= 3.0) | (d_c >= 3.0))
                             & ~((lp <= b + 1e-12) & (b <= 4.0 * lp + 1e-12))),
            np.count_nonzero(~coarse.chain_inequality_holds(d, p, m0, profile_size=40)),
            np.count_nonzero(~coarse.max_log_identity(f, g, h, math.e ** 3)[2]),
        ]
    labels = ("proxy sandwich (factor 6) above the floor",
              "twist-distance log bounds (factor 4)", "thresholded-sum chain",
              "max/sum log identity (factor 3)")
    for label, count in zip(labels, counts.tolist()):
        rep.check(label, count == 0, f"{count} failures")
    fails = int(counts.sum())
    if m0 < floor:
        rep.lines.append(f"NOTE: M0={m0} is below the documented floor {floor:.1f}; "
                         "sandwich guarantees do not apply")
    return (f"horoball-pairs(eps0={eps0!r})", fails, 0.0, ("M0", m0), ("floor", floor),
            f"failures={fails}")


def _run_discretize(cfg, pr, rep):
    space = _continuous_space(cfg, "discretize")
    n, tau, c = pr["n"], pr["tau"], pr["c"]
    failed, points = stats.discretize_sample(pr["r"], n, tau, c, pr["seed"])
    violations = int(failed.sum())
    rep.check("step-tau and 2c-proximity invariants", violations == 0,
              f"{violations} violations over {n} runs")
    return (space.describe(), violations, 0.0, ("tau", tau), ("c", c),
            f"violations={violations} path_points={int(points.sum())}")


_RUNNERS = {
    "estimate-e": _run_estimate_e,
    "thick-stat": _run_thick_stat,
    "p1": _run_p1,
    "separation": _run_separation,
    "thin-triangle": _run_thin_triangle,
    "mahler": _run_mahler,
    "densities": _run_densities,
    "coarse-check": _run_coarse_check,
    "discretize": _run_discretize,
}


def run_config(cfg: dict, seed_override: int | None = None) -> Report:
    """Run ``cfg``.  Its runner adds the PASS/FAIL lines to the report and
    returns ``(descriptor, mean, std_error, extra1, extra2, headline)``, each
    extra a ``(name, value)`` pair or ``("", "")``; the head line and the CSV
    row are written here, with ``r`` and ``k`` 0.0 where a kind has none."""
    kind = cfg["experiment"]["kind"]
    pr = _params(cfg, kind, seed_override)
    rep = Report()
    try:
        descriptor, mean, se, extra1, extra2, headline = _RUNNERS[kind](cfg, pr, rep)
    except ConfigError:
        raise
    except StathypError as exc:
        raise ConfigError(f"parameter error in {kind}: {exc}") from exc
    rep.lines.insert(0, f"{kind}: {headline}")
    rep.row = (kind, descriptor, _fmt(pr.get("r", 0.0)), _fmt(pr.get("k", 0.0)), str(pr["n"]),
               str(pr["seed"]), _fmt(float(mean)), _fmt(float(se)), extra1[0],
               _fmt(extra1[1]), extra2[0], _fmt(extra2[1]), "1" if rep.ok else "0")
    return rep


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".stathyp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def render_csv(report: Report) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows([CSV_COLUMNS, report.row])
    return buf.getvalue()


def render_summary(cfg: dict, report: Report) -> str:
    head = [f"config digest: {stats.config_digest(config=serialize_config(cfg))}"]
    return "\n".join(head + report.lines) + "\n"


def _run_one(config_path: str, out_dir: str, seed_override, fmt: str) -> tuple[str, Report]:
    with open(config_path) as fh:
        cfg = parse_config(fh.read())
    report = run_config(cfg, seed_override)
    stem = os.path.splitext(os.path.basename(config_path))[0]
    csv_text, summary = render_csv(report), render_summary(cfg, report)
    _atomic_write(os.path.join(out_dir, stem + ".csv"), csv_text)
    _atomic_write(os.path.join(out_dir, stem + ".summary.txt"), summary)
    return (csv_text if fmt == "csv" else summary), report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="stathyp",
        description="run statistical-hyperbolicity experiments from config files")
    sub = parser.add_subparsers(dest="command", required=True)
    outputs = argparse.ArgumentParser(add_help=False)
    outputs.add_argument("--out", default=".")
    outputs.add_argument("--seed", type=int, default=None)
    outputs.add_argument("--format", choices=("csv", "summary"), default="summary")

    p_run = sub.add_parser("run", parents=[outputs], help="run one experiment config")
    p_run.add_argument("--config", required=True)

    sub.add_parser("list", help="print the machine-readable experiment catalog")

    p_sweep = sub.add_parser("sweep", parents=[outputs],
                             help="run every *.ini config in a directory")
    p_sweep.add_argument("--config", required=True, help="directory of configs")
    p_sweep.add_argument("--workers", type=int, default=1)

    args = parser.parse_args(argv)

    if args.command == "list":
        print(json.dumps(list_experiments(), indent=2, sort_keys=True))
        return 0
    if args.command == "sweep" and args.workers < 1:
        print(f"error: --workers must be at least 1, got {args.workers}", file=sys.stderr)
        return 2

    try:
        if args.command == "run":
            echo, report = _run_one(args.config, args.out, args.seed, args.format)
            print(echo, end="")
            return 0 if report.ok else 3

        # sweep
        paths = sorted(
            os.path.join(args.config, f) for f in os.listdir(args.config)
            if f.endswith(".ini"))
        if not paths:
            print(f"error: no .ini configs in {args.config}", file=sys.stderr)
            return 2
        with ThreadPoolExecutor(max_workers=args.workers) as pool:
            futures = [pool.submit(_run_one, p, args.out, args.seed, args.format)
                       for p in paths]
        code = 0
        for path, future in zip(paths, futures):
            print(f"== {os.path.basename(path)}")
            try:
                echo, report = future.result()
            except (ConfigError, OSError) as exc:
                print(f"error: {exc}")
                code = 2
                continue
            print(echo, end="")
            if not report.ok and code == 0:
                code = 3
        return code
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
