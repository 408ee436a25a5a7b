"""Source checks that keep the package's guards explicit."""

import ast
from pathlib import Path

import subshift_algebra

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


def test_package_exports_what_it_imports():
    # A name imported into ``__init__`` but not listed in ``__all__``, or
    # listed but no longer imported, is a stale or silent export.
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names]
    (listed,) = [ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)]
    assert len(imported) == len(set(imported))
    assert len(listed) == len(set(listed))
    assert set(imported) == set(listed)
    assert all(hasattr(subshift_algebra, name) for name in listed)
