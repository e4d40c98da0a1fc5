#!/usr/bin/env python3
"""Count the lines of each module of src/foldedrs (or of the given files and directories).

For each .py file it prints physical lines and code lines: the lines that
hold a token of code, so neither docstrings, comments nor blank lines count.
A docstring is the string statement that opens a module, class or function.
Run it on two checkouts and subtract the totals to get a change's net LOC:

    python scripts/loc.py            # src/foldedrs
    python scripts/loc.py tests      # any other files or directories
"""

import argparse
import ast
import io
import pathlib
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def count(source: str) -> tuple[int, int]:
    """(physical lines, code lines) of Python source."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(getattr(first.value, "value", None), str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstrings)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("paths", nargs="*", type=pathlib.Path, default=[ROOT / "src" / "foldedrs"])
    args = ap.parse_args()
    files = sorted(f for p in args.paths for f in (p.rglob("*.py") if p.is_dir() else [p]))
    total_physical = total_code = 0
    print(f"{'physical':>9} {'code':>6}  file")
    for f in files:
        physical, code = count(f.read_text())
        total_physical += physical
        total_code += code
        print(f"{physical:9d} {code:6d}  {f.relative_to(ROOT) if f.is_relative_to(ROOT) else f}")
    print(f"{total_physical:9d} {total_code:6d}  total")


if __name__ == "__main__":
    main()
