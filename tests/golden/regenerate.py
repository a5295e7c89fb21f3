"""Golden sweep: every ``*.ini`` config here, run through ``stathyp run`` in
process, with its expected output bytes under ``expected/``.

For config ``NAME.ini`` the run writes ``NAME.csv`` and ``NAME.summary.txt``
(absent where the run exits 2) and prints that summary, or nothing;
``MANIFEST.json`` holds each exit code, stderr text and warning messages,
plus the numpy version and the platform the files were made on.
``tests/test_golden.py`` compares every byte, printed ones against the
summary the run wrote.

Regenerate after a change that is meant to move printed values, and list
each moved value, old -> new, with the change:

    PYTHONPATH=src python tests/golden/regenerate.py
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from stathyp import cli

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected"
OUTPUTS = (".csv", ".summary.txt")


def environment() -> dict:
    """What the last digits of the outputs may depend on."""
    return {"numpy": np.__version__, "platform": f"{platform.system()}-{platform.machine()}"}


def configs() -> list[Path]:
    return sorted(HERE.glob("*.ini"))


def run(config: Path, out_dir: Path) -> dict:
    """Run ``config`` through ``cli.main`` into ``out_dir``; return its exit
    code, stdout, stderr, warning messages and written files."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["run", "--config", str(config), "--out", str(out_dir)])
    files = {}
    for suffix in OUTPUTS:
        path = out_dir / (config.stem + suffix)
        if path.exists():
            files[suffix] = path.read_bytes().decode()
    return {"exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
            "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
            "files": files}


def main() -> int:
    EXPECTED.mkdir(exist_ok=True)
    for old in EXPECTED.iterdir():
        old.unlink()
    entries = {}
    with tempfile.TemporaryDirectory() as tmp:
        for config in configs():
            got = run(config, Path(tmp))
            for suffix, text in got["files"].items():
                (EXPECTED / (config.stem + suffix)).write_bytes(text.encode())
            entries[config.stem] = {key: got[key] for key in ("exit", "stderr", "warnings")}
    manifest = {**environment(), "configs": entries}
    (EXPECTED / "MANIFEST.json").write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print(f"wrote the expected outputs of {len(entries)} configs to {EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
