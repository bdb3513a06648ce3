"""Count the lines of ``src/btdfuse/*.py`` that hold code.

A line holds code when a token other than a comment or a line break starts
on it or runs across it.  Blank lines, comment-only lines and the docstrings
of modules, classes and functions are left out; any other string literal is
code, every line of it.

Usage::

    python tools/count_code.py                 # per module and in total
    python tools/count_code.py --against REV   # the same, plus code lines added
                                               # and removed since git revision REV

``--against`` reads each module at ``REV`` with ``git show`` and matches the
code lines of the two versions with ``difflib``, so a reworded docstring or
comment adds and removes nothing.  Run it from the root of the repository.
"""

import argparse
import ast
import difflib
import glob
import io
import os
import subprocess
import sys
import tokenize

SRC = os.path.join("src", "btdfuse")
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> list:
    """The stripped text of each line of ``source`` that holds code, in order."""
    skip = _docstring_lines(ast.parse(source))
    numbers = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            numbers.update(range(tok.start[0], tok.end[0] + 1))
    text = source.splitlines()
    return [text[n - 1].strip() for n in sorted(numbers - skip)]


def _at(rev: str, path: str) -> str:
    out = subprocess.run(["git", "show", f"{rev}:{path}"], capture_output=True, text=True)
    return out.stdout if out.returncode == 0 else ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV", help="git revision to compare with")
    args = parser.parse_args(argv)
    paths = sorted(glob.glob(os.path.join(SRC, "*.py")))
    if args.against:
        listed = subprocess.run(["git", "ls-tree", "--name-only", f"{args.against}:{SRC}"],
                                capture_output=True, text=True)
        if listed.returncode != 0:
            print(f"error: no {SRC} at git revision {args.against!r}", file=sys.stderr)
            return 2
        listed = listed.stdout.split()
        paths = sorted(set(paths) | {os.path.join(SRC, n) for n in listed if n.endswith(".py")})
        print(f"{'module':<16}{'before':>8}{'after':>8}{'added':>8}{'removed':>8}")
    else:
        print(f"{'module':<16}{'code':>8}")
    totals = [0, 0, 0, 0]
    for path in paths:
        now = code_lines(open(path, encoding="utf-8").read()) if os.path.exists(path) else []
        name = os.path.basename(path)
        if not args.against:
            totals[1] += len(now)
            print(f"{name:<16}{len(now):>8}")
            continue
        before = code_lines(_at(args.against, path))
        ops = difflib.SequenceMatcher(None, before, now, autojunk=False).get_opcodes()
        added = sum(j2 - j1 for tag, _, _, j1, j2 in ops if tag in ("insert", "replace"))
        removed = sum(i2 - i1 for tag, i1, i2, _, _ in ops if tag in ("delete", "replace"))
        row = [len(before), len(now), added, removed]
        totals = [t + r for t, r in zip(totals, row)]
        print(f"{name:<16}" + "".join(f"{v:>8}" for v in row))
    if args.against:
        print(f"{'total':<16}" + "".join(f"{v:>8}" for v in totals))
    else:
        print(f"{'total':<16}{totals[1]:>8}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
