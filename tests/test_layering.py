"""The package's modules import each other along the documented layers.

Each ``src/bloomsim/*.py`` is read with :mod:`ast`, so no module is
executed; function-level imports count too.  The layering (README, "Module
layering"):

* ``_textio`` and ``bdf`` import nothing of the package; ``mesh`` and
  ``wind`` import at most ``_textio``;
* ``vtkio`` imports only ``mesh`` and ``_textio``, so the writer does not
  depend on a solver;
* ``cli`` is the only importer of ``vtkio``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bloomsim"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def _dotted_imports(module: str) -> list[str]:
    """Every name that ``module`` imports, as an absolute dotted path."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    dotted = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            dotted += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["bloomsim" if node.level else "", node.module]))
            dotted += [f"{base}.{alias.name}" for alias in node.names]
    return dotted


def _internal_imports(module: str) -> set[str]:
    """The package modules that ``module`` imports; ``__init__`` stands for
    a name taken from the package itself (``from . import __version__``)."""
    parts = [name.split(".") + [""] for name in _dotted_imports(module)]
    found = {p[1] if p[1] in MODULES else "__init__" for p in parts if p[0] == "bloomsim"}
    return found - {module}


IMPORTS = {module: _internal_imports(module) for module in MODULES}


def test_every_module_is_read():
    assert {"_textio", "bdf", "cli", "core", "mesh", "solver2d", "vtkio", "wind"} <= set(MODULES)


@pytest.mark.parametrize("module, allowed", [
    ("_textio", set()),
    ("mesh", {"_textio"}),
    ("wind", {"_textio"}),
    ("vtkio", {"mesh", "_textio"}),
    ("bdf", set()),
])
def test_low_layers_import_only_below_them(module, allowed):
    assert IMPORTS[module] <= allowed, f"{module} imports {sorted(IMPORTS[module] - allowed)}"


def test_only_the_cli_imports_the_vtk_writer():
    importers = {module for module, imported in IMPORTS.items() if "vtkio" in imported}
    assert importers == {"cli"}


def test_no_module_imports_scipy_integrate():
    # the package integrates with its own BDF (bdf.py)
    importers = {module for module in MODULES
                 if any(name.startswith("scipy.integrate") for name in _dotted_imports(module))}
    assert not importers
