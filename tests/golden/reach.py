"""Runs every golden config through ``cli.main``, then ``tests/test_acceptance.py``
under pytest, both under ``sys.settrace``; prints per ``src/`` module the first
lines of the statements neither run reaches, then the raw and code-only (no
blank, comment or docstring lines) line counts of ``src/``.

    PYTHONPATH=src python tests/golden/reach.py
"""

import ast
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
reached = set()


def trace(frame, event, arg):
    if frame.f_code.co_filename.startswith(str(SRC)):
        reached.add((frame.f_code.co_filename, frame.f_lineno))
        return trace


def is_docstring(node) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def main() -> int:
    sys.settrace(trace)
    sys.path.insert(0, str(HERE))
    import regenerate  # imports the package under the tracer
    with tempfile.TemporaryDirectory() as tmp:
        for config in regenerate.configs():
            regenerate.run(config, Path(tmp))
    pytest.main(["-q", "-p", "no:cacheprovider", str(HERE.parent / "test_acceptance.py")])
    sys.settrace(None)
    raw = code = 0
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        tree = ast.parse(text)
        docs = {i for node in ast.walk(tree) if is_docstring(node)
                for i in range(node.lineno, node.end_lineno + 1)}
        lines = [line.strip() for line in text.splitlines()]
        raw += len(lines)
        code += sum(1 for i, line in enumerate(lines, 1)
                    if line and not line.startswith("#") and i not in docs)
        missed = []
        for node in ast.walk(tree):
            if isinstance(node, ast.stmt) and not is_docstring(node):
                # a compound statement owns its decorators and its header
                first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
                last = node.body[0].lineno - 1 if hasattr(node, "body") else node.end_lineno
                if all((str(path), i) not in reached for i in range(first, max(first, last) + 1)):
                    missed.append(node.lineno)
        if missed:
            print(f"{path.relative_to(SRC)}:", *sorted(missed))
    print(f"src/: {raw} raw lines, {code} code-only")
    return 0


if __name__ == "__main__":
    sys.exit(main())
