"""Which modules may read the certification thresholds.

Only ``certify`` (which compares against them), ``cli`` (which applies
``--tol``) and the package ``__init__`` (which exports them) import
``holostar.config``.  Library code that judged a threshold of its own would
be a second owner of it, out of ``--tol``'s reach.
"""

import ast
import pathlib

import holostar

PACKAGE = pathlib.Path(holostar.__file__).parent
CONFIG_READERS = {"certify", "cli", "__init__"}


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
    assert readers <= CONFIG_READERS, f"{sorted(readers - CONFIG_READERS)} import holostar.config"
    assert {"certify", "cli"} <= readers
