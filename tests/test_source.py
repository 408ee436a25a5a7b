"""Source checks that keep the package's guards explicit."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "subshift_algebra"


def test_no_bare_assert_in_package():
    # ``python -O`` strips assert statements, so a check that guards a
    # result must be an explicit raise.
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) > 5
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
