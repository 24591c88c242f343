#!/usr/bin/env python3
"""Line counts of the package's modules, for a change's net src/ lines.

For each module of src/nomalab it prints the physical lines and the
code lines: the physical lines less blank lines, comment-only lines and
the lines of docstrings (the first string statement of a module, class
or function body, found from the AST). With --base <git ref>, it also
prints each module's change against that ref's copy, read with
`git show <ref>:src/nomalab/<module>.py`; a module missing on one side
counts 0 lines there.

Usage:
    python scripts/src_lines.py
    python scripts/src_lines.py --base HEAD~1
"""

import argparse
import ast
import subprocess
import sys
from pathlib import Path

PACKAGE = "src/nomalab"
ROOT = Path(__file__).resolve().parent.parent


def count_lines(text: str) -> tuple[int, int]:
    """(physical lines, code lines) of one module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = text.splitlines()
    code = sum(1 for number, line in enumerate(lines, 1)
               if number not in docstrings and line.strip()
               and not line.lstrip().startswith("#"))
    return len(lines), code


def _git(*args: str) -> str:
    done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                          text=True, check=False)
    if done.returncode:
        raise SystemExit(f"git {' '.join(args)}: {done.stderr.strip()}")
    return done.stdout


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", help="git ref to count each module's change against")
    args = ap.parse_args()

    here = {p.name: count_lines(p.read_text(encoding="utf-8"))
            for p in sorted((ROOT / PACKAGE).glob("*.py"))}
    base = {}
    if args.base is not None:
        listed = _git("ls-tree", "--name-only", f"{args.base}:{PACKAGE}")
        base = {name: count_lines(_git("show", f"{args.base}:{PACKAGE}/{name}"))
                for name in listed.split() if name.endswith(".py")}

    header = f"{'module':<18}{'lines':>7}{'code':>7}"
    if args.base is not None:
        header += f"{'d_lines':>9}{'d_code':>8}"
    print(header)
    totals = [0, 0, 0, 0]
    for name in sorted(set(here) | set(base)):
        lines, code = here.get(name, (0, 0))
        old_lines, old_code = base.get(name, (0, 0))
        row = [lines, code, lines - old_lines, code - old_code]
        totals = [t + v for t, v in zip(totals, row)]
        print(_format(name, row, args.base is not None))
    print(_format("total", totals, args.base is not None))
    return 0


def _format(name: str, row, with_base: bool) -> str:
    out = f"{name:<18}{row[0]:>7}{row[1]:>7}"
    if with_base:
        out += f"{row[2]:>+9}{row[3]:>+8}"
    return out


if __name__ == "__main__":
    sys.exit(main())
