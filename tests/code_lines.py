"""Code lines of each ``src/axoball`` module and their total: the lines that
hold a token of code, so docstrings, comments and blank lines are not
counted.  A docstring is the string statement that opens a module, a class
or a function, as ``ast`` reads it; every line it spans is left out.  A
line that holds code and a trailing comment counts once.

    python tests/code_lines.py

prints one ``<count> <module>`` line per module, in name order, then
``<total> total``.
"""

import ast
import io
import pathlib
import sys
import tokenize

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "axoball"

# tokens that hold no code of their own
LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree):
    """The line numbers that the docstrings in ``tree`` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines in the Python text ``source``."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main():
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count} {path.name}")
    print(f"{total} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
