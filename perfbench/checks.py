"""Output checks for every config run; failures feed ``fail_frac``.

Every run must exit 0, print only ``PASS`` check lines and write a one-row
CSV in the documented schema with ``pass = 1``.  Repeat runs of a config
(same file, same seed) must write byte-identical CSV and summary files.
Configs that carry a closed-form check must also match it:

* ``flat-plane``: the Euclidean plane's sphere spread is 4/pi;
* ``torus-thick``: long rays on the torus model spend 1 - 3 eps^2 / pi of
  their time in the eps-thick part;
* ``tree-sphere``: the tree's sphere spread equals the exact average over
  ``RegularTree.sphere``;
* ``mahler-bounds``: exact Mahler volumes lie in the classical interval
  [eps_n^2 / n^(n/2), eps_n^2] (eps_n the volume of the unit n-ball);
* ``zero-failures``: ``coarse-check`` failures and ``discretize``
  violations (both reported in the ``mean`` column) are 0.

Statistical checks allow ``Z_LIMIT`` standard errors.  No check compares
against stored output bytes, since draws may legitimately change.
"""

from __future__ import annotations

import configparser
import csv
import io
import math
import os

Z_LIMIT = 4.0
CSV_COLUMNS = ["experiment", "space", "r", "k", "n", "seed", "mean", "std_error",
               "extra1_name", "extra1_value", "extra2_name", "extra2_value", "pass"]


def _ini(path: str) -> configparser.ConfigParser:
    cp = configparser.ConfigParser()
    cp.optionxform = str
    cp.read(path)
    return cp


def tree_sphere_spread(q: int, r: int) -> float:
    """Exact mean of d(y, z) / r over ordered pairs of the sphere."""
    from stathyp.spaces import RegularTree
    sphere = RegularTree(q).sphere("", r)
    total = 0
    for y in sphere:
        for z in sphere:
            k = 0
            while k < r and y[k] == z[k]:
                k += 1
            total += 2 * (r - k)
    return total / (len(sphere) ** 2 * r)


class Checker:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._first: dict[str, tuple[bytes, bytes]] = {}
        self._exact: dict[tuple, float] = {}

    def run(self, config: dict, rc: int, stdout: str, out_dir: str) -> None:
        """Check one run of ``config`` and count it."""
        self.attempted += 1
        stem = os.path.splitext(os.path.basename(config["path"]))[0]
        try:
            problem = self._problem(config, rc, stdout, out_dir, stem)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problem = f"unreadable output: {exc!r}"
        if problem is not None:
            self.failed += 1
            self.problems.append(f"{stem}: {problem}")

    def _problem(self, config, rc, stdout, out_dir, stem):
        if rc != 0:
            return f"exit code {rc}"
        tags = [line.split(":", 1)[0] for line in stdout.splitlines()
                if line.startswith(("PASS", "FAIL"))]
        if not tags or any(t != "PASS" for t in tags):
            return f"check lines {tags}"
        with open(os.path.join(out_dir, stem + ".csv"), "rb") as fh:
            csv_bytes = fh.read()
        with open(os.path.join(out_dir, stem + ".summary.txt"), "rb") as fh:
            summary_bytes = fh.read()
        first = self._first.setdefault(stem, (csv_bytes, summary_bytes))
        if first != (csv_bytes, summary_bytes):
            return "output differs from an earlier run with the same seed"
        rows = list(csv.reader(io.StringIO(csv_bytes.decode())))
        if rows[0] != CSV_COLUMNS or len(rows) != 2:
            return f"CSV layout {rows[0]} with {len(rows) - 1} rows"
        row = dict(zip(CSV_COLUMNS, rows[1]))
        mean, se = float(row["mean"]), float(row["std_error"])
        if row["pass"] != "1" or not math.isfinite(mean):
            return f"row pass={row['pass']} mean={mean}"
        return self._closed_form(config, row, mean, se)

    def _closed_form(self, config, row, mean, se):
        kind = config["check"]
        if not kind:
            return None
        cp = _ini(config["path"])
        if kind == "flat-plane":
            target, slack = 4.0 / math.pi, 0.0
        elif kind == "torus-thick":
            eps, dt = float(cp["experiment"]["eps"]), float(cp["experiment"]["dt"])
            # grid quadrature error is at most dt / r (unit-speed crossings)
            target, slack = 1.0 - 3.0 * eps * eps / math.pi, dt / float(row["r"])
        elif kind == "tree-sphere":
            key = (int(cp["space"]["q"]), int(float(row["r"])))
            if key not in self._exact:
                self._exact[key] = tree_sphere_spread(*key)
            target, slack = self._exact[key], 0.0
        elif kind == "mahler-bounds":
            first_row = cp["body"]["vertices"].split(";")[0]
            n = len(first_row.replace(",", " ").split())
            ball = math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
            lower, upper = ball * ball / n ** (n / 2.0), ball * ball
            ok = lower <= mean <= upper
            return None if ok else f"Mahler volume {mean} outside [{lower}, {upper}]"
        elif kind == "zero-failures":
            return None if mean == 0.0 else f"{mean} failures"
        else:
            raise KeyError(f"unknown check {kind!r}")
        if abs(mean - target) <= Z_LIMIT * se + slack:
            return None
        return f"{kind}: {mean} vs {target} (se {se}, limit {Z_LIMIT} se + {slack})"
