"""Print the code lines of each module of src/hdqkd and their total.

A code line is a non-blank line that is neither a comment nor part of a
docstring (the string that opens a module, class or function body).
Run from anywhere: `python scripts/code_lines.py`.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hdqkd"


def code_lines(path: Path) -> int:
    text = path.read_text()
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        body = getattr(node, "body", None)
        if (isinstance(body, list) and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docstrings.update(range(body[0].lineno, body[0].end_lineno + 1))
    return sum(1 for number, line in enumerate(text.splitlines(), 1)
               if line.strip() and not line.lstrip().startswith("#")
               and number not in docstrings)


def main() -> int:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.name:16} {count:5}")
    print(f"{'total':16} {total:5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
