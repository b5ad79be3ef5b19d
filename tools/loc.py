"""Count the code lines of Python sources.

    python tools/loc.py PATH...

Each PATH is a .py file or a directory searched for them.  A line counts
when it holds a token of code: blank lines, comment-only lines and the
lines of docstrings (a string that is the first statement of a module,
class or function) are left out.  Prints one count per file and the total
on the last line.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
             tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
             tokenize.ENDMARKER}


def _docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of `source` that hold code."""
    skip = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1)
                         if n not in skip)
    return len(lines)


def python_files(paths):
    """The .py files under `paths`, sorted within each directory."""
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(d for d in dirs if d != "__pycache__")
                for name in sorted(files):
                    if name.endswith(".py"):
                        yield os.path.join(root, name)
        else:
            yield path


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        sys.stderr.write("usage: loc.py PATH...\n")
        return 1
    total = 0
    for path in python_files(paths):
        with open(path, encoding="utf-8") as fh:
            count = code_lines(fh.read())
        total += count
        print("%6d %s" % (count, path))
    print("%6d total" % total)
    return 0


if __name__ == "__main__":
    sys.exit(main())
