"""Count the code lines of the package and the benchmark.

A code line is a line that is not blank, not a comment line and not part
of a docstring (a string that is the first statement of a module, class or
function).  Every line of any other string counts, a multi-line one
included.  The counts are printed per file and in total for
``src/ricciwarp`` and ``bench``:

    python tools/code_lines.py
    python tools/code_lines.py --against HEAD~1

``--against REV`` also prints the counts of the files at the git revision
REV, read with ``git show``, and the change from REV.  Stdlib only.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import subprocess
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TREES = ("src/ricciwarp", "bench")
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def count(source: str) -> int:
    """The code lines of the Python ``source``."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def _git(*args) -> str:
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True)
    if proc.returncode:
        raise SystemExit(f"code_lines: git {' '.join(args)}: "
                         f"{proc.stderr.strip()}")
    return proc.stdout


def counts(tree: str, rev=None) -> dict:
    """Path -> code lines of the ``.py`` files under ``tree``: those of the
    working tree that git does not ignore, or those at the revision
    ``rev``."""
    if rev is None:
        paths = _git("ls-files", "--cached", "--others", "--exclude-standard",
                     "--", tree).split()
    else:
        paths = _git("ls-tree", "-r", "--name-only", rev, "--", tree).split()
    out = {}
    for path in sorted(p for p in paths if p.endswith(".py")):
        if rev is not None:
            out[path] = count(_git("show", f"{rev}:{path}"))
        elif os.path.exists(os.path.join(ROOT, path)):   # not deleted
            with open(os.path.join(ROOT, path)) as fh:
                out[path] = count(fh.read())
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", metavar="REV",
                        help="also count the files at the git revision REV")
    args = parser.parse_args(argv)
    for tree in TREES:
        now = counts(tree)
        if args.against is None:
            for path, n in [*now.items(), (f"{tree} total", sum(now.values()))]:
                print(f"{n:7,d}  {path}")
            continue
        before = counts(tree, args.against)
        rows = [(path, before.get(path, 0), now.get(path, 0))
                for path in sorted({*now, *before})]
        rows.append((f"{tree} total", sum(before.values()), sum(now.values())))
        for path, a, b in rows:
            print(f"{a:7,d} {b:7,d} {b - a:+6,d}  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
