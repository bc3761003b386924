"""Static checks on the package source, made with ``ast`` alone."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "subspacekit"
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(path: Path) -> list:
    """Names a module imports but never uses.

    A name counts as used when it is read anywhere in the module or listed
    in ``__all__``.  In a package ``__init__.py`` every relative import is
    a re-export and counts as used.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            if path.name == "__init__.py" and node.level > 0:
                continue
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_package_modules_are_found():
    assert {"linalg.py", "brenner.py", "__init__.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_detects_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "from .linalg import meet, join\n"
        "__all__ = ['join']\n"
        "def f():\n"
        "    return np.zeros(1)\n"
    )
    assert unused_imports(module) == ["meet (line 4)", "os (line 2)"]
