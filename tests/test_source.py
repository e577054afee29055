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


# private helpers that `cli` still imports from `syzygy`; the benchmark's
# tracer wraps them by these names
PRIVATE_IMPORT_ALLOWLIST = {"_buchberger_level0", "_pseudo_reduce_labeled"}


def test_no_private_imports_between_package_modules():
    found, allowed = [], set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("gbsyz"):
                continue
            for alias in node.names:
                if not alias.name.startswith("_"):
                    continue
                if alias.name in PRIVATE_IMPORT_ALLOWLIST:
                    allowed.add(alias.name)
                else:
                    found.append(f"{path.name}:{node.lineno} {alias.name}")
    assert not found, found
    # an entry that is no longer imported must leave the allowlist
    assert allowed == PRIVATE_IMPORT_ALLOWLIST
