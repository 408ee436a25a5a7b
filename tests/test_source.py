"""Source checks that keep the package's guards explicit."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "subshift_algebra"


def test_no_bare_assert_in_package():
    # ``python -O`` strips assert statements, so a check that guards a
    # result, in the package or in its scripts, must be explicit.
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) > 5
    scripts = sorted((ROOT / "scripts").glob("*.py"))
    assert len(scripts) >= 2
    paths += scripts
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
