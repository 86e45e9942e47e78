"""Line counts of each aoisched module by kind: code, docstring, comment
and blank; and its parameter count.

    python tests/line_counts.py [package_dir]

package_dir defaults to this checkout's src/aoisched. A docstring line is
any line of a module, class or function docstring; a comment line holds
only a comment; a blank line holds only whitespace; every other line is
code, a multi-line string that is not a docstring included. The parameter
count adds up the parameters of every def, nested ones and methods
included, *args and **kwargs counting one each, and self and cls not at
all; it is not part of "all", which counts lines. pytest does not collect
this file (its name does not start with test_).
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


def parameter_count(tree: ast.Module) -> int:
    """The parameters of every def in the module, but self and cls."""
    total = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = [*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs, args.kwarg]
            total += sum(1 for a in params if a is not None and a.arg not in ("self", "cls"))
    return total


def count(path: Path) -> tuple:
    """(line counts by kind, parameter count) of one module."""
    text = path.read_text()
    tree = ast.parse(text)
    docs = docstring_lines(tree)
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
    return counts, parameter_count(tree)


def main(argv) -> int:
    package = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "aoisched"
    rows = {path.name: count(path) for path in sorted(package.glob("*.py"))}
    rows["total"] = (
        {kind: sum(row[kind] for row, _ in rows.values()) for kind in KINDS},
        sum(params for _, params in rows.values()),
    )
    header = "".join(f"{kind:>10}" for kind in KINDS)
    print(f"{'module':<16}{header}{'all':>8}{'params':>8}")
    for name, (row, params) in rows.items():
        cells = "".join(f"{row[kind]:>10}" for kind in KINDS)
        print(f"{name:<16}{cells}{sum(row.values()):>8}{params:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
