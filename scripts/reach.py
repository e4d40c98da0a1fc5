#!/usr/bin/env python3
"""List the statements of src/foldedrs that a pytest run never executes.

Runs pytest in this process, with the given pytest arguments, under
sys.settrace and threading.settrace limited to frames of src/foldedrs, then
prints, module by module, each statement that never ran, and a total line.
Docstrings and def, class and import statements are not counted.  A compound
statement counts as run when a line of its header (the lines before its
first nested statement) ran.

    python scripts/reach.py tests -q              # all of tier-1
    python scripts/reach.py tests/test_frs.py -q  # one file
"""

import ast
import pathlib
import sys
import threading

import pytest

PKG = pathlib.Path(__file__).resolve().parent.parent / "src" / "foldedrs"
_SKIP = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)


def statements(source: str):
    """(first line, header lines) of each counted statement of a module."""
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, _SKIP):
            continue
        if isinstance(node, ast.Expr) and isinstance(getattr(node.value, "value", None), str):
            continue  # a docstring
        nested = [c.lineno for c in ast.iter_child_nodes(node) if isinstance(c, ast.stmt)]
        nested += [c.lineno for h in getattr(node, "handlers", []) for c in h.body]
        last = min(nested) - 1 if nested else node.end_lineno
        yield node.lineno, range(node.lineno, max(last, node.lineno) + 1)


def main() -> int:
    sys.path.insert(0, str(PKG.parent))
    ran: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def start(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(str(PKG)) else None

    threading.settrace(start)
    sys.settrace(start)
    try:
        status = pytest.main(sys.argv[1:])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = 0
    for path in sorted(PKG.rglob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        dark = [n for n, header in statements(source) if not any((str(path), i) in ran for i in header)]
        total += len(dark)
        for n in sorted(dark):
            print(f"{path.relative_to(PKG.parent.parent)}:{n}: {lines[n - 1].strip()}")
    print(f"total: {total} statements of src/foldedrs never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
