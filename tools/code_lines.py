"""Count the code lines of each module under src/.

    python tools/code_lines.py [ROOT]

A code line holds at least one token that is not a comment, and lies
outside every docstring (the first statement of a module, class or
function when it is a string).  Blank lines, comment lines and docstring
lines do not count.  Prints one `count path` line per module, sorted by
path, then `total`.  ROOT defaults to the src/ next to this tool.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    """The number of code lines in the Python source `text`."""
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docs.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else SRC
    counts = {path.relative_to(root).as_posix(): code_lines(path.read_text())
              for path in sorted(root.rglob("*.py"))}
    for path, count in counts.items():
        print(f"{count:6d} {path}")
    print(f"{sum(counts.values()):6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
