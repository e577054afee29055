"""Source-level checks on the package."""

import ast
from pathlib import Path

import gbsyz

PACKAGE = Path(gbsyz.__file__).resolve().parent


def test_no_assert_statements_in_the_package():
    # `python -O` strips asserts; broken invariants raise InternalError
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found
