"""Line counts of each aoisched module by kind: code, docstring, comment
and blank.

    python tests/line_counts.py [package_dir]

package_dir defaults to this checkout's src/aoisched. A docstring line is
any line of a module, class or function docstring; a comment line holds
only a comment; a blank line holds only whitespace; every other line is
code, a multi-line string that is not a docstring included. pytest does not
collect this file (its name does not start with test_).
"""

import ast
import sys
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.Module) -> set:
    """The line numbers of every docstring in the module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path: Path) -> dict:
    text = path.read_text()
    docs = docstring_lines(ast.parse(text))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if number in docs:
            kind = "docstring"
        elif not stripped:
            kind = "blank"
        elif stripped.startswith("#"):
            kind = "comment"
        else:
            kind = "code"
        counts[kind] += 1
    return counts


def main(argv) -> int:
    package = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "aoisched"
    rows = {path.name: count(path) for path in sorted(package.glob("*.py"))}
    rows["total"] = {kind: sum(row[kind] for row in rows.values()) for kind in KINDS}
    print(f"{'module':<16}" + "".join(f"{kind:>10}" for kind in KINDS) + f"{'all':>8}")
    for name, row in rows.items():
        print(f"{name:<16}" + "".join(f"{row[kind]:>10}" for kind in KINDS) + f"{sum(row.values()):>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
