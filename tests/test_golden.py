"""Golden sweep: the committed configs of ``tests/golden`` write and exit
exactly as recorded, byte for byte, and print the summary they write.  A
change that moves an output regenerates the files with
``tests/golden/regenerate.py`` and lists each moved value."""

import difflib
import importlib.util
import json
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"


def load_regenerate():
    spec = importlib.util.spec_from_file_location("golden_regenerate", GOLDEN / "regenerate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def changed_lines(name, want, got):
    """The lines of ``want`` that ``got`` changes, as a unified diff; a
    missing text is ``None``."""
    if want is None or got is None:
        return [f"{name}: expected {want!r}, got {got!r}"]
    diff = difflib.unified_diff(want.splitlines(), got.splitlines(), lineterm="", n=0)
    return [f"{name}: {line}" for line in list(diff)[2:]]


def test_golden_sweep(tmp_path):
    golden = load_regenerate()
    manifest = json.loads((golden.EXPECTED / "MANIFEST.json").read_text())
    recorded = {key: manifest[key] for key in golden.environment()}
    # another numpy or libm may move last digits: that is a finding to
    # review, so the sweep fails and says so rather than skipping
    assert recorded == golden.environment(), (
        f"the golden files were made with {recorded}, this is {golden.environment()}; "
        "review the diff of tests/golden/regenerate.py's output before committing it")
    assert sorted(manifest["configs"]) == sorted(c.stem for c in golden.configs())
    moved = []
    for config in golden.configs():
        got = golden.run(config, tmp_path)
        want = manifest["configs"][config.stem]
        for key in ("exit", "stderr", "warnings"):
            if got[key] != want[key]:
                moved.append(f"{config.stem} {key}: {want[key]!r} -> {got[key]!r}")
        for suffix in golden.OUTPUTS:
            path = golden.EXPECTED / (config.stem + suffix)
            want_text = path.read_bytes().decode() if path.exists() else None
            if got["files"].get(suffix) != want_text:
                moved += changed_lines(config.stem + suffix, want_text, got["files"].get(suffix))
        # stdout is the summary the run wrote, or empty where it wrote none
        summary = got["files"].get(".summary.txt", "")
        if got["stdout"] != summary:
            moved += changed_lines(config.stem + " stdout", summary, got["stdout"])
    assert not moved, "\n".join(moved)
