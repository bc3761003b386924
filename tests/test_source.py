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


def warnings_uses(path: Path) -> list:
    """Every name a module takes from the ``warnings`` module, as
    ``(name, enclosing function, line)``; ``<module>`` is the top level.

    Both ``warnings.<name>`` and ``from warnings import <name>`` count.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and isinstance(child.value, ast.Name):
                if child.value.id == "warnings":
                    found.append((child.attr, scope, child.lineno))
            elif isinstance(child, ast.ImportFrom) and child.module == "warnings":
                found.extend((alias.name, scope, child.lineno) for alias in child.names)
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else scope)

    visit(tree, "<module>")
    return sorted(found, key=lambda use: use[2])


def package_warnings_uses(name: str) -> list:
    return [
        (path.name, scope)
        for path in MODULES
        for used, scope, _ in warnings_uses(path)
        if used == name
    ]


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


def test_one_conditioning_emitter():
    # every conditioning note leaves through linalg._note
    assert package_warnings_uses("warn") == [("linalg.py", "_note")]


def test_no_process_global_warnings_capture():
    # notes are collected per call by linalg._collect_notes
    assert package_warnings_uses("catch_warnings") == []


def test_detects_a_second_warnings_route(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import warnings\n"
        "from warnings import warn as emit\n"
        "def _note(message):\n"
        "    warnings.warn(message)\n"
        "def decompose():\n"
        "    with warnings.catch_warnings(record=True):\n"
        "        warnings.warn('again')\n"
    )
    assert warnings_uses(module) == [
        ("warn", "<module>", 2),
        ("warn", "_note", 4),
        ("catch_warnings", "decompose", 6),
        ("warn", "decompose", 7),
    ]
