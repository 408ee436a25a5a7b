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


def _callers(name: str) -> set[str]:
    """``module:Class.function`` of every package function that calls
    ``name``, as a plain name or as an attribute."""
    found = set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, scope + [child.name])
                continue
            if isinstance(child, ast.Call):
                f = child.func
                if (f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)) == name:
                    found.add(f"{module}:{'.'.join(scope)}")
            visit(child, module, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, [])
    return found


def test_only_operations_skip_the_support_check():
    # The public constructors check a support where it enters; the
    # merge-only constructors (``_merged``) skip that check, which is sound
    # only for results that operations build from checked supports.  A new
    # caller, such as an entry point in parsing, cli, structure or
    # reduction, must be added here on purpose.  ``mono``'s words come from
    # a checked set and the graph's own code, filtered by the tail memo.
    assert _callers("_merged") == {
        "algebra:SubshiftAlgebra.gen_p", "algebra:SubshiftAlgebra.elem_s",
        "algebra:SubshiftAlgebra.elem_s_star", "algebra:SubshiftAlgebra.mono",
        "algebra:AlgebraElement.z_grade_component",
        "algebra:AlgebraElement.support_set", "algebra:AlgebraElement._sum",
        "algebra:AlgebraElement._map_values", "algebra:AlgebraElement.mul",
        "algebra:AlgebraElement.star", "clopen:ClopenSet.union", "clopen:ClopenSet.intersect",
        "clopen:ClopenSet.difference", "clopen:ClopenSet.complement", "clopen:relative_range",
    }
    # The merge itself runs behind the check or inside a merge-only constructor.
    assert _callers("merge_siblings") == {
        "clopen:canonical", "clopen:ClopenSet._merged", "algebra:AlgebraElement._merged"}
