"""The public surface stays reachable: every name `heatlab` exports, and every
public top-level function or class of its modules, is used by the package
itself outside its own definition, or is listed below with the acceptance
criterion or roadmap item it backs."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "heatlab"

LIBRARY_ONLY = {
    "telescope_check": "backs acceptance criterion 06 (telescoped observability)",
    "phung_wang_times": "backs acceptance criterion 11 (Phung-Wang times on a fat Cantor set)",
    "hausdorff_content": "the paper's d - delta content hypothesis on E; run telemetry "
                         "(ROADMAP item 4) records it",
}


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.module is not None
            for alias in node.names}


def module_trees():
    return {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))
            if p.name != "__init__.py"}


def public_definitions(trees):
    return {node.name for tree in trees.values() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def references(node, inside=None):
    """Names and attributes used under `node`, skipping each use that sits
    inside the definition of the name it refers to."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        inside = (inside or frozenset()) | {node.name}
    used = set()
    if isinstance(node, ast.Name):
        used.add(node.id)
    elif isinstance(node, ast.Attribute):
        used.add(node.attr)
    for child in ast.iter_child_nodes(node):
        used |= references(child, inside)
    return used - (inside or frozenset())


def test_every_public_name_has_a_caller_or_a_reason():
    trees = module_trees()
    used = set().union(*(references(tree) for tree in trees.values()))
    surface = exported_names() | public_definitions(trees)
    unreached = sorted(surface - used - set(LIBRARY_ONLY))
    assert unreached == [], f"public names nothing in the package uses: {unreached}"


def test_library_only_names_are_exported_and_still_unused():
    # an allow-listed name that gains a caller, or leaves the surface, comes off the list
    trees = module_trees()
    used = set().union(*(references(tree) for tree in trees.values()))
    assert set(LIBRARY_ONLY) <= exported_names()
    assert not set(LIBRARY_ONLY) & used
