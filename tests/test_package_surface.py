"""The package holds what a run calls: every public top-level function and
class of anesmpc has a reference in the package outside its own
definition, or an export from anesmpc/__init__.py. Helpers only tests
call live in tests/oracles.py."""

import ast
from pathlib import Path

import anesmpc

PACKAGE = Path(anesmpc.__file__).parent

# module.name -> why it stays without a caller in the package
ALLOWED = {
    "geometry.is_empty": "a bench pin (bench/tracing.py PATCHES and "
                         "check_cohort_build) until ROADMAP item 1 repoints it",
}


def _referenced(node) -> set:
    """The names node uses: bare names, attributes and imported names."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.asname or sub.name)
            names.add(sub.name)
    return names


def unreferenced() -> list:
    """module.name of each public top-level function or class that no
    other top-level statement of the package names."""
    statements = []  # (module, node)
    for path in sorted(PACKAGE.glob("*.py")):
        statements += [(path.stem, node) for node in ast.parse(path.read_text()).body]
    uses = [_referenced(node) for _, node in statements]
    found = []
    for i, (module, node) in enumerate(statements):
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        if not any(node.name in names for j, names in enumerate(uses) if j != i):
            found.append(f"{module}.{node.name}")
    return found


def test_every_public_definition_has_a_package_caller():
    found = unreferenced()
    assert sorted(set(found) - set(ALLOWED)) == []
    # an allowlisted name that gains a caller, or goes, leaves the list
    assert sorted(set(ALLOWED) - set(found)) == []
