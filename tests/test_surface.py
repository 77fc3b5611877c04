"""The public surface stays reachable: every name `heatlab` exports, and every
public top-level function or class of its modules, is used by the package
itself outside its own definition, and every field of its dataclasses is read
by the package, its tests or the benchmark; or the name is listed below with
the acceptance criterion or roadmap item it backs. Every module-level
constant is read by the package."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "heatlab"

LIBRARY_ONLY = {
    "telescope_check": "backs acceptance criterion 06 (telescoped observability)",
    "phung_wang_times": "backs acceptance criterion 11 (Phung-Wang times on a fat Cantor set)",
    "hausdorff_content": "the paper's d - delta content hypothesis on E; run telemetry "
                         "(ROADMAP item 4) records it",
}

_TELESCOPE = ("the fit that telescope_check reports for criterion 06: the weighted "
              "observation terms and the two-time constants behind step_residuals")
UNREAD_FIELDS = {
    "ObservationSet.boundary_margin": "run telemetry (ROADMAP item 4) records it",
    **{f"TelescopeReport.{f}": _TELESCOPE
       for f in ("obs_terms", "fitted_a", "fitted_b", "d_multiple", "c_steps")},
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


def dataclass_fields(trees):
    return {f"{node.name}.{item.target.id}" for tree in trees.values() for node in tree.body
            if isinstance(node, ast.ClassDef)
            and any("dataclass" in ast.unparse(d) for d in node.decorator_list)
            for item in node.body if isinstance(item, ast.AnnAssign)}


def attributes_read():
    """Every attribute name loaded in the package, its tests or the benchmark."""
    return {node.attr for folder in ("src", "tests", "perfbench")
            for path in (ROOT / folder).rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_dataclass_field_is_read_or_has_a_reason():
    # A field counts as read when any attribute load names it, on any object,
    # so a field this test flags is read nowhere at all.
    read = attributes_read()
    unread = {f for f in dataclass_fields(module_trees()) if f.split(".")[1] not in read}
    assert sorted(unread - set(UNREAD_FIELDS)) == [], "dataclass fields nothing reads"
    # an allow-listed field that gains a reader, or is deleted, comes off the list
    assert sorted(set(UNREAD_FIELDS) - unread) == []


def module_constants(trees):
    """Module-level UPPER_CASE names bound by an assignment, by module."""
    return {f"{module}.{target.id}" for module, tree in trees.items() for node in tree.body
            if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name) and target.id.lstrip("_").isupper()}


def test_every_module_constant_is_read():
    # a read is a load of the name, or of an attribute of that name, anywhere
    # in the package; an assignment only stores it
    trees = module_trees()
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    constants = module_constants(trees)
    assert len(constants) >= 20
    assert sorted(c for c in constants if c.split(".")[1] not in read) == [], \
        "module constants nothing reads"
