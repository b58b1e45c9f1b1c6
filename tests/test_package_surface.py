"""The package holds what a run calls: every top-level function, class
and module constant of anesmpc, public or private, has a reference in the
package outside its own definition, or an export from
anesmpc/__init__.py. Helpers only tests call live in tests/oracles.py."""

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


def _defined(node) -> list:
    """The names a top-level statement defines: a function, a class or
    the plain names it assigns (module constants), dunders aside."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [t.id for t in targets if isinstance(t, ast.Name)]
    else:
        names = []
    return [name for name in names if not name.startswith("__")]


def _statements() -> list:
    """(module, node) of each top-level statement of the package."""
    return [(path.stem, node) for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.parse(path.read_text()).body]


def unreferenced() -> list:
    """module.name of each top-level function, class or module constant
    that no other top-level statement of the package names."""
    statements = _statements()
    uses = [_referenced(node) for _, node in statements]
    return [f"{module}.{name}" for i, (module, node) in enumerate(statements)
            for name in _defined(node)
            if not any(name in names for j, names in enumerate(uses) if j != i)]


def test_private_helpers_and_constants_are_checked():
    defined = {f"{module}.{name}" for module, node in _statements() for name in _defined(node)}
    assert {"qp._most_negative", "qp.WorkingSet", "qp._FEAS_TOL", "mpc.CLAMP_TOL",
            "sim.CSV_HEADER", "mpc.logger"} <= defined
    assert "anesmpc.__version__" not in defined


def test_every_public_definition_has_a_package_caller():
    found = unreferenced()
    assert sorted(set(found) - set(ALLOWED)) == []
    # an allowlisted name that gains a caller, or goes, leaves the list
    assert sorted(set(ALLOWED) - set(found)) == []
