"""What the package's modules may import, and what they may export.

Only ``certify`` (which compares against them) and ``cli`` (which applies
``--tol``) import ``holostar.config``.  Library code that judged a threshold
of its own would be a second owner of it, out of ``--tol``'s reach.

The package ``__init__`` imports nothing and exports nothing, so every name
has one import path: the module that defines it.

Every public name is used as code by the package, the acceptance suite or the
benchmark.  A name that only its own unit test calls is surface to maintain
with no command, criterion or benchmark behind it.
"""

import ast
import pathlib

import holostar

PACKAGE = pathlib.Path(holostar.__file__).parent
CONFIG_READERS = {"certify", "cli"}
REPO = pathlib.Path(__file__).resolve().parent.parent
# Public names that need no user: the documented circuit format, which the
# serialization round-trip tests pin the parser against.
UNUSED_EXPORTS = {("serialization", "circuit_to_dict")}


def _imported_modules(path: pathlib.Path) -> set[str]:
    """Absolute names of the modules (and module members) a file imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # relative to the package, whose modules all sit at the top
                base = f"holostar.{base}" if base else "holostar"
            names.add(base)
            names.update(f"{base}.{a.name}" for a in node.names)
    return names


def test_only_certify_and_cli_read_the_thresholds():
    modules = {p.stem: _imported_modules(p) for p in PACKAGE.glob("*.py")}
    assert CONFIG_READERS | {"two_qubit_holonomy", "pulse"} <= set(modules)
    readers = {name for name, imported in modules.items() if "holostar.config" in imported}
    assert readers == CONFIG_READERS, f"{sorted(readers)} import holostar.config"


def test_the_package_holds_only_its_version():
    # no import and no __all__: ``holostar.simulate`` would be a second import path
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert ast.get_docstring(tree) and len(tree.body) == 2, "holostar/__init__.py grew"
    version = tree.body[1]
    assert isinstance(version, ast.Assign) and [t.id for t in version.targets] == ["__version__"]


def _loaded_names(node: ast.AST) -> set[str]:
    """Every name and attribute name the code under ``node`` reads."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            names.add(n.attr)
    return names


def _exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [e.value for e in node.value.elts]
    return []


def test_every_export_has_a_user():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in PACKAGE.glob("*.py") if p.stem != "__init__"}
    outside = [REPO / "tests" / "test_acceptance.py", *sorted((REPO / "perfbench").glob("*.py"))]
    assert len(outside) > 1 and all(p.is_file() for p in outside)
    used_outside = set().union(*(_loaded_names(ast.parse(p.read_text(encoding="utf-8")))
                                 for p in outside))
    unused = set()
    for stem, tree in trees.items():
        used = used_outside.union(*(_loaded_names(t) for s, t in trees.items() if s != stem))
        for name in _exports(tree):
            # the module's own code counts, outside the definition of the name itself
            own = set().union(*(_loaded_names(node) for node in tree.body
                                if getattr(node, "name", None) != name))
            if name not in used | own:
                unused.add((stem, name))
    assert unused == UNUSED_EXPORTS, f"exported with no user: {sorted(unused - UNUSED_EXPORTS)}"
