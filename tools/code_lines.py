"""Count the code lines of the ikmig package.

A code line is a source line that holds a token other than a comment,
NL, NEWLINE, INDENT or DEDENT; module, class and function docstrings do
not count.  Prints one count per module of ``src/ikmig`` and the total.

    python tools/code_lines.py [package_dir]
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

# ENCODING and ENDMARKER mark the file's ends, not a line of code.
_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set[int]:
    """Line numbers covered by module, class and function docstrings."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text()
    lines = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _SKIPPED:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(source))


def main(argv: list[str]) -> int:
    default = Path(__file__).resolve().parents[1] / "src" / "ikmig"
    package = Path(argv[1]) if len(argv) > 1 else default
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.stem:12s} {count:5d}")
    print(f"{'total':12s} {total:5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
