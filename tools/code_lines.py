"""Count the code lines of Python files.

A code line holds at least one token of code: blank lines, comment lines
and the lines of docstrings (the string that opens a module, class or
function body) do not count.  A statement that spans several lines counts
each of them.

Run as `python tools/code_lines.py PATH...`: prints each file's count and,
for more than one file, the total.  A directory stands for every `.py`
file under it, in sorted order; a missing path is an error (exit code 2).
"""
import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every docstring in `tree`."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    docs = docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main(args: list[str]) -> int:
    if not args:
        print("usage: python tools/code_lines.py PATH...", file=sys.stderr)
        return 2
    paths = []
    for arg in args:
        path = Path(arg)
        if not path.exists():
            print(f"error: no such file or directory: {arg}", file=sys.stderr)
            return 2
        paths += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    total = 0
    for path in paths:
        with open(path, encoding="utf-8") as f:
            count = code_lines(f.read())
        total += count
        print(f"{count:6d} {path}")
    if len(paths) > 1:
        print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
