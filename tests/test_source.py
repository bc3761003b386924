"""Static checks on the package source, made with ``ast`` alone, and the
runtime count that backs the pin of the orthonormality-checked sites."""

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


def pair_factorizations(path: Path) -> list:
    """Functions that factor the two bases of a pair side by side, as
    ``(function, line)``: they stack exactly two ``.basis`` arrays (either
    may be negated) with ``hstack`` and call ``svd`` or ``_column_span``."""
    tree = ast.parse(path.read_text(), filename=str(path))

    def is_basis(node):
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            node = node.operand
        return isinstance(node, ast.Attribute) and node.attr == "basis"

    def called(node):
        func = node.func
        return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)

    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        calls = [n for n in ast.walk(func) if isinstance(n, ast.Call)]
        pairs = [
            n for n in calls
            if called(n) == "hstack" and n.args and isinstance(n.args[0], ast.List)
            and len(n.args[0].elts) == 2 and all(map(is_basis, n.args[0].elts))
        ]
        if pairs and any(called(n) in ("svd", "_column_span") for n in calls):
            found.append((func.name, pairs[0].lineno))
    return found


def test_one_pair_factorization():
    # meet and join of a pair come off one SVD in linalg._meet_join
    found = [(path.name, name) for path in MODULES for name, _ in pair_factorizations(path)]
    assert found == [("linalg.py", "_meet_join")]


def test_detects_a_second_pair_factorization(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import numpy as np\n"
        "def meet(a, b):\n"
        "    stacked = np.hstack([a.basis, -b.basis])\n"
        "    return np.linalg.svd(stacked)\n"
        "def join(a, b):\n"
        "    return _column_span(np.hstack([a.basis, b.basis]))\n"
        "def stack(parts):\n"
        "    return np.linalg.svd(np.hstack([p.basis for p in parts]))\n"
    )
    assert pair_factorizations(module) == [("meet", 3), ("join", 6)]


def function_calls(path: Path) -> list:
    """Every call in a module, as ``(callee, enclosing function, line)``;
    the callee is the last name of a dotted call (``np.linalg.solve`` is
    ``solve``) or the original name of a name imported under another one,
    and ``<module>`` is the top level."""
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases = {
        alias.asname: alias.name
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names if alias.asname
    }
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                if isinstance(func, ast.Attribute):
                    found.append((func.attr, scope, child.lineno))
                elif isinstance(func, ast.Name):
                    found.append((aliases.get(func.id, func.id), scope, child.lineno))
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else scope)

    visit(tree, "<module>")
    return sorted(found, key=lambda call: call[2])


def package_calls(name: str) -> list:
    return [
        (path.name, scope)
        for path in MODULES
        for callee, scope, _ in function_calls(path)
        if callee == name
    ]


def test_no_linear_solve():
    # the oblique split lifts by the pseudo-inverse of the pair's one SVD,
    # and the isomorphism witness inverts one block matrix
    assert package_calls("solve") == []


def test_sum_operator_matrix_is_formed_only_on_request():
    # the restricted sum operator's spectrum and inverse come off the
    # pair's SVD; its matrix is the public sum_operator_matrix and the
    # per-angle determinant certificate
    assert package_calls("_sum_operator_on") == [
        ("two_subspaces.py", "sum_operator_matrix"),
        ("two_subspaces.py", "restricted_sum_operator"),
    ]


def test_detects_a_solve_and_a_sum_operator_matrix(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import numpy as np\n"
        "from numpy.linalg import solve as lift\n"
        "def split(t, u):\n"
        "    return np.linalg.solve(t, u)\n"
        "def oblique(first, second, frame, u):\n"
        "    matrix = _sum_operator_on(first, second, frame)\n"
        "    return lift(matrix, u)\n"
        "X = np.linalg.solve(np.eye(2), np.ones(2))\n"
    )
    calls = [(callee, scope, line) for callee, scope, line in function_calls(module)
             if callee in ("solve", "_sum_operator_on")]
    assert calls == [
        ("solve", "split", 4),
        ("_sum_operator_on", "oblique", 6),
        ("solve", "oblique", 7),
        ("solve", "<module>", 8),
    ]


def test_no_projection_matrix():
    # every pair fact (gap, containment, angles, commutativity) comes off
    # thin products of the two bases; Subspace.projection stays public
    assert package_calls("projection") == []


def test_detects_a_projection_matrix(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from .linalg import Subspace\n"
        "def is_commutative(system):\n"
        "    projections = [s.projection() for s in system.subspaces]\n"
        "    return projections\n"
        "def gap(a, b):\n"
        "    return Subspace.projection(a) - b.projection()\n"
        "P = Subspace.zero(2).projection()\n"
    )
    calls = [(scope, line) for callee, scope, line in function_calls(module) if callee == "projection"]
    assert calls == [("is_commutative", 3), ("gap", 6), ("gap", 6), ("<module>", 7)]


def test_complements_come_off_the_pair_svd():
    # the join complements of the skeleton and the in_neither part are
    # read off a pair SVD's full u; an n x n SVD of one basis serves only
    # the constraints of hom_basis
    assert package_calls("complement") == [("systems.py", "hom_basis")]


def test_detects_a_second_complement(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from . import linalg\n"
        "from .linalg import complement as perp\n"
        "def _beyond(joined, factors):\n"
        "    return linalg.complement(joined) if factors is None else factors[0]\n"
        "def _halmos_parts(u, k):\n"
        "    return perp(Subspace(u[:, :k]))\n"
    )
    calls = [(scope, line) for callee, scope, line in function_calls(module) if callee == "complement"]
    assert calls == [("_beyond", 4), ("_halmos_parts", 6)]


def test_one_lattice_route():
    # both constructions read the lattice of E1, E2 and E3 one way: the
    # skeleton's one meet is common, E_i ∩ (E_j + E_k) comes off a pair
    # SVD's join complement by _split, and a complement that holds by
    # construction goes through linalg._complement_in
    assert package_calls("meet") == [("brenner.py", "_skeleton")]
    assert package_calls("_split") == [("brenner.py", "_skeleton")] * 3 + [("pentagon.py", "pentagon_split")]
    assert package_calls("complement_within") == [("linalg.py", "_complement_in")]


@pytest.mark.parametrize("name, expected", [
    ("meet", [("_skeleton", 4), ("pentagon_split", 8)]),
    ("_split", [("_skeleton", 5), ("_halmos_parts", 11)]),
    ("complement_within", [("pentagon_split", 9), ("_complement_in", 13)]),
])
def test_detects_a_second_lattice_site(tmp_path, name, expected):
    module = tmp_path / "module.py"
    module.write_text(
        "from . import linalg\n"
        "from .linalg import complement_within as rest, meet as cap\n"
        "def _skeleton(e1, e2, e3, c, tol):\n"
        "    common = cap(e1, e3, tol)\n"
        "    return common, _split(e1, c, tol)\n"
        "def pentagon_split(e1, e2, e3, tol):\n"
        "    share = linalg.join(e1, e2, tol)\n"
        "    inside = linalg.meet(e3, share, tol)\n"
        "    return rest(inside, e2, tol)\n"
        "def _halmos_parts(a, c, tol):\n"
        "    return linalg._split(a, c, tol)\n"
        "def _complement_in(whole, part, tol):\n"
        "    return complement_within(whole, part, tol)\n"
    )
    calls = [(scope, line) for callee, scope, line in function_calls(module) if callee == name]
    assert calls == expected


def test_one_end_route():
    # a system's endomorphism facts come off one private dispatcher: the
    # Brenner decomposition for a triple, one hom basis and the seeded
    # search for any other arity; the CLI reaches neither route directly
    assert package_calls("_search_idempotent") == [("brenner.py", "_endomorphisms")]
    assert package_calls("_atom_idempotent") == [("brenner.py", "_endomorphisms")]
    cli_calls = {callee for callee, _, _ in function_calls(PACKAGE / "cli.py")}
    assert cli_calls & {"_search_idempotent", "_atom_idempotent", "hom_basis"} == set()


def test_detects_a_second_end_route(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from .systems import hom_basis as endomorphisms\n"
        "from . import brenner, systems\n"
        "def cmd_analyze(system, tol, seed):\n"
        "    endos = endomorphisms(system, system, tol)\n"
        "    return systems._search_idempotent(system, endos, tol, 8, seed)\n"
        "def find_nontrivial_idempotent(system, decomposition, tol):\n"
        "    return brenner._atom_idempotent(system, decomposition, tol)\n"
    )
    calls = [(callee, scope, line) for callee, scope, line in function_calls(module)
             if callee in ("_search_idempotent", "_atom_idempotent", "hom_basis")]
    assert calls == [
        ("hom_basis", "cmd_analyze", 4),
        ("_search_idempotent", "cmd_analyze", 5),
        ("_atom_idempotent", "find_nontrivial_idempotent", 7),
    ]


def folded_direct_sums(path: Path) -> list:
    """Calls that fold ``direct_sum`` with ``reduce``, as ``(enclosing
    function, line)``: ``reduce`` or ``functools.reduce``, under any name it
    is imported as, whose first argument is ``direct_sum`` by any name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    reducers, sums = {"reduce"}, {"direct_sum"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name == "reduce":
                    reducers.add(alias.asname or alias.name)
                elif alias.name == "direct_sum":
                    sums.add(alias.asname or alias.name)

    def named(node, names):
        if isinstance(node, ast.Attribute):
            return node.attr in names
        return isinstance(node, ast.Name) and node.id in names

    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and named(child.func, reducers):
                if child.args and named(child.args[0], sums):
                    found.append((scope, child.lineno))
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else scope)

    visit(tree, "<module>")
    return found


def test_no_folded_direct_sum():
    # direct_sum takes every member at once and builds each basis once
    assert [(path.name, scope) for path in MODULES for scope, _ in folded_direct_sums(path)] == []


def test_detects_a_folded_direct_sum(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import functools\n"
        "from functools import reduce as fold\n"
        "from .systems import direct_sum as plus\n"
        "from . import systems\n"
        "def compose(blocks):\n"
        "    return functools.reduce(systems.direct_sum, blocks)\n"
        "def stack(blocks):\n"
        "    return fold(plus, blocks), fold(max, blocks), plus(*blocks)\n"
        "BASE = reduce(direct_sum, [])\n"
    )
    assert folded_direct_sums(module) == [("compose", 6), ("stack", 8), ("<module>", 9)]


def indented_json_writes(path: Path) -> list:
    """Calls of ``json.dump`` or ``json.dumps`` that pass ``indent``, or
    unpack keywords that may hold it, as ``(enclosing function, line)``.
    With ``indent`` set the json module skips its C encoder and writes every
    float in Python; ``cli._json_text`` writes that layout instead."""
    tree = ast.parse(path.read_text(), filename=str(path))
    modules, functions = {"json"}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.asname for a in node.names if a.name == "json" and a.asname)
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            functions.update(a.asname or a.name for a in node.names if a.name in ("dump", "dumps"))

    def is_json_write(func):
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            return func.value.id in modules and func.attr in ("dump", "dumps")
        return isinstance(func, ast.Name) and func.id in functions

    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and is_json_write(child.func):
                if any(keyword.arg in ("indent", None) for keyword in child.keywords):
                    found.append((scope, child.lineno))
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else scope)

    visit(tree, "<module>")
    return found


def test_no_indented_json_encoder():
    # reports and generated files are written by cli._json_text
    assert [(path.name, scope) for path in MODULES for scope, _ in indented_json_writes(path)] == []


def test_detects_an_indented_json_write(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import json\n"
        "import json as j\n"
        "from json import dumps as render\n"
        "def emit(report):\n"
        "    return json.dumps(report, indent=2, sort_keys=True)\n"
        "def save(report, handle, options):\n"
        "    json.dump(report, handle, indent=None)\n"
        "    j.dumps(report, **options)\n"
        "def show(report):\n"
        "    return render(report, indent=1)\n"
        "def fast(report):\n"
        "    return json.dumps(report, sort_keys=True) + render(report, separators=(',', ':'))\n"
        "TEXT = json.dumps({}, indent=4)\n"
    )
    assert indented_json_writes(module) == [
        ("emit", 5),
        ("save", 7),
        ("save", 8),
        ("show", 10),
        ("<module>", 13),
    ]


def stacklevel_uses(path: Path) -> list:
    """Every ``stacklevel`` a module declares as a function parameter or
    passes as a keyword, as ``(kind, enclosing function, line)`` with kind
    ``"parameter"`` or ``"keyword"``; ``<module>`` is the top level."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            if is_def:
                arguments = child.args
                names = arguments.posonlyargs + arguments.args + arguments.kwonlyargs
                names += [a for a in (arguments.vararg, arguments.kwarg) if a is not None]
                if any(a.arg == "stacklevel" for a in names):
                    found.append(("parameter", getattr(child, "name", "<lambda>"), child.lineno))
            elif isinstance(child, ast.Call):
                if any(keyword.arg == "stacklevel" for keyword in child.keywords):
                    found.append(("keyword", scope, child.lineno))
            visit(child, getattr(child, "name", scope) if is_def else scope)

    visit(tree, "<module>")
    return sorted(found, key=lambda use: use[2])


def test_only_the_emitter_places_warnings():
    # linalg._note attributes every warning to the first frame outside the
    # package, so no function below it counts frames
    found = [(path.name, kind, scope) for path in MODULES for kind, scope, _ in stacklevel_uses(path)]
    assert found == [("linalg.py", "keyword", "_note")]


def test_detects_stacklevel_plumbing(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import warnings\n"
        "def _rank(s, tol, stacklevel=2):\n"
        "    warnings.warn('near', stacklevel=stacklevel + 1)\n"
        "def meet(a, b, *, stacklevel):\n"
        "    return _rank(a, b, stacklevel=stacklevel)\n"
        "emit = lambda message, stacklevel: warnings.warn(message, stacklevel=stacklevel)\n"
        "def _note(message):\n"
        "    warnings.warn(message, stacklevel=3)\n"
    )
    assert stacklevel_uses(module) == [
        ("parameter", "_rank", 2),
        ("keyword", "_rank", 3),
        ("parameter", "meet", 4),
        ("keyword", "meet", 5),
        ("parameter", "<lambda>", 6),
        ("keyword", "<module>", 6),
        ("keyword", "_note", 8),
    ]


def test_one_decomposition_certificate():
    # brenner_decompose certifies its change of basis through
    # systems.verify_isomorphism; only the independent verifier measures
    # gaps in brenner.py itself
    calls = {scope for callee, scope, _ in function_calls(PACKAGE / "brenner.py") if callee == "gap"}
    assert calls == {"verify_brenner"}


def test_detects_a_copied_certificate(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from .linalg import gap as distance\n"
        "from . import linalg\n"
        "def verify_brenner(system, d):\n"
        "    return gap(d.common, system.subspaces[0])\n"
        "def _normal_form_residual(c, subspaces, targets):\n"
        "    return max(distance(e, f) for e, f in zip(subspaces, targets))\n"
        "def _assemble(a, b):\n"
        "    return linalg.gap(a, b)\n"
    )
    calls = [(scope, line) for callee, scope, line in function_calls(module) if callee == "gap"]
    assert calls == [("verify_brenner", 4), ("_normal_form_residual", 6), ("_assemble", 8)]


def name_uses(path: Path, name: str) -> list:
    """Where a module reaches ``name``, as ``(how, line)``: ``import`` for
    a ``from ... import`` of it (under any alias), ``call`` for a call of
    it, bare or dotted or through that alias, and ``reference`` for any
    other read of it as a name or an attribute."""
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases = {name}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name == name:
                    found.append(("import", node.lineno))
                    aliases.add(alias.asname or alias.name)
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        used = (isinstance(node, ast.Name) and node.id in aliases) or (
            isinstance(node, ast.Attribute) and node.attr == name
        )
        if used:
            found.append(("call" if id(node) in called else "reference", node.lineno))
    return sorted(found, key=lambda use: use[1])


def test_decompose_runs_one_verifier():
    # the decompose report reads its verdict off the normal-form
    # certificate that brenner_decompose computes; verify_brenner stays the
    # library's independent verifier
    assert name_uses(PACKAGE / "cli.py", "verify_brenner") == []


def test_detects_a_second_verifier(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from .brenner import verify_brenner as check, brenner_decompose\n"
        "from . import brenner\n"
        "def cmd_decompose(system, tol):\n"
        "    d = brenner_decompose(system, tol)\n"
        "    return check(system, d, tol).passed, brenner.verify_brenner(system, d)\n"
        "VERIFIERS = (check,)\n"
    )
    assert name_uses(module, "verify_brenner") == [
        ("import", 1), ("call", 5), ("call", 5), ("reference", 6),
    ]


def dictionary_key_writes(path: Path, keys) -> list:
    """Where a module writes one of ``keys`` as a dictionary key, as
    ``(key, enclosing function, line)``: a string key of a dict literal, a
    keyword of a ``dict(...)`` or ``.update(...)`` call, or a string
    subscript assigned to; ``<module>`` is the top level."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            written = []
            if isinstance(child, ast.Dict):
                written = [(k.value, k) for k in child.keys if isinstance(k, ast.Constant)]
            elif isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in ("dict", "update"):
                    written = [(k.arg, k) for k in child.keywords if k.arg is not None]
            elif isinstance(child, ast.Subscript) and isinstance(child.ctx, ast.Store):
                if isinstance(child.slice, ast.Constant):
                    written = [(child.slice.value, child)]
            found.extend((key, scope, at.lineno, at.col_offset) for key, at in written if key in keys)
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else scope)

    visit(tree, "<module>")
    return [write[:3] for write in sorted(found, key=lambda write: write[2:])]


HEADER_KEYS = ("command", "input", "ambient_dim", "subspace_dims", "tolerances")


def test_one_report_header():
    # the fields a report on one system opens with are written by
    # cli._header; isomorphic names its command and shared tolerances over
    # two inputs, and the system file generate writes has its ambient_dim
    writers = {}
    for key, scope, _ in dictionary_key_writes(PACKAGE / "cli.py", HEADER_KEYS):
        writers.setdefault(key, []).append(scope)
    assert writers == {
        "ambient_dim": ["_header", "cmd_generate"],
        "subspace_dims": ["_header"],
        "command": ["_header", "cmd_isomorphic"],
        "input": ["_header"],
        "tolerances": ["_header", "cmd_isomorphic"],
    }


def test_detects_a_second_report_header(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "def _header(system, command):\n"
        "    return {'command': command, 'ambient_dim': system.ambient_dim}\n"
        "def cmd_decompose(args, system, tol):\n"
        "    report = dict(input=args.file, tolerances=tol, seed=0)\n"
        "    report['subspace_dims'] = list(system.dims())\n"
        "    report.update(command='decompose')\n"
        "    return {**report, 'input': args.file, args.key: 1}, report.get('input')\n"
        "DEFAULTS = {'tolerances': {}}\n"
    )
    assert dictionary_key_writes(module, HEADER_KEYS) == [
        ("command", "_header", 2),
        ("ambient_dim", "_header", 2),
        ("input", "cmd_decompose", 4),
        ("tolerances", "cmd_decompose", 4),
        ("subspace_dims", "cmd_decompose", 5),
        ("command", "cmd_decompose", 6),
        ("input", "cmd_decompose", 7),
        ("tolerances", "<module>", 8),
    ]


def test_one_pentagon_split_constructor():
    # pentagon_split builds its result in one call; each case branch gives
    # only the fields that differ between the cases
    assert package_calls("PentagonSplit") == [("pentagon.py", "pentagon_split")]


def test_detects_a_second_pentagon_split_constructor(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from .pentagon import PentagonSplit as Split\n"
        "from . import pentagon\n"
        "def pentagon_split(parts, pentagonal):\n"
        "    if not pentagonal:\n"
        "        return PentagonSplit(case='distributive', **parts)\n"
        "    return Split(case='pentagon', **parts)\n"
        "def copy(split):\n"
        "    return pentagon.PentagonSplit(**vars(split))\n"
    )
    calls = [(scope, line) for callee, scope, line in function_calls(module) if callee == "PentagonSplit"]
    assert calls == [("pentagon_split", 5), ("pentagon_split", 6), ("copy", 8)]


def span_count_checks(path: Path) -> list:
    """Comparisons that read the column count of a ``_column_span`` result,
    as ``(function, line)``.  The result is the call itself, bare or wrapped
    in one call (``Subspace(_column_span(...))``), or a name the function
    binds to either; its count is ``.shape[1]``, ``.shape[-1]`` or ``.dim``."""
    tree = ast.parse(path.read_text(), filename=str(path))

    def called(node):
        func = node.func
        return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)

    def spans(node):
        if isinstance(node, ast.Call) and node.args and called(node) != "_column_span":
            node = node.args[0]
        return isinstance(node, ast.Call) and called(node) == "_column_span"

    def counted(node, names):
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute):
            if node.value.attr != "shape" or ast.unparse(node.slice) not in ("1", "-1"):
                return False
            node = node.value.value
        elif isinstance(node, ast.Attribute) and node.attr == "dim":
            node = node.value
        else:
            return False
        return spans(node) or (isinstance(node, ast.Name) and node.id in names)

    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        names = {
            target.id
            for node in ast.walk(func) if isinstance(node, ast.Assign) and spans(node.value)
            for target in node.targets if isinstance(target, ast.Name)
        }
        found.extend(
            (func.name, node.lineno)
            for node in ast.walk(func)
            if isinstance(node, ast.Compare)
            and any(counted(side, names) for side in [node.left, *node.comparators])
        )
    return sorted(found, key=lambda check: check[1])


def test_one_span_count_check():
    # a span a construction must keep at its column count (triangle
    # families, the pentagon bridge, the example-9 residual, map_system's
    # images) is checked by two_subspaces._part_span alone
    found = [(path.name, name) for path in MODULES for name, _ in span_count_checks(path)]
    assert found == [("two_subspaces.py", "_part_span")]


def test_detects_a_second_span_count_check(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from .linalg import Subspace, _column_span\n"
        "def _part_span(part, tol, label):\n"
        "    span = _column_span(part, tol)\n"
        "    if span.shape[1] != part.shape[1]:\n"
        "        raise ValueError(label)\n"
        "def map_system(matrix, system, tol):\n"
        "    for s in system.subspaces:\n"
        "        image = Subspace(_column_span(matrix @ s.basis, tol))\n"
        "        assert image.dim == s.dim\n"
        "def example9(extra, tol):\n"
        "    if _column_span(extra, tol).shape[-1] < 2:\n"
        "        raise ValueError('short')\n"
        "    outside = _column_span(extra, tol)\n"
        "    return outside.shape[0] == extra.shape[0], outside.shape[1] + 1\n"
    )
    assert span_count_checks(module) == [("_part_span", 4), ("map_system", 9), ("example9", 11)]


# Bases built orthonormal by construction: one factorization's unitary factor
# (an SVD's U or V sliced, a QR's Q, an orthonormal basis times either) or an
# exact closed form.  tests/test_unchecked_bases.py runs each of them through
# the public check.
UNCHECKED_SITES = [
    ("brenner.py", "_normal_form"),  # identity columns and (q1 + q2) / sqrt(2)
    ("brenner.py", "verify_brenner"),
    ("catalog.py", "_build_atom"),
    ("catalog.py", "_build_atom"),
    ("catalog.py", "_build_atom"),
    ("linalg.py", "zero"),
    ("linalg.py", "full"),
    ("linalg.py", "orthonormalize"),
    ("linalg.py", "_meet_join"),
    ("linalg.py", "_meet_join"),
    ("linalg.py", "_split"),
    ("linalg.py", "_split"),
    ("linalg.py", "_split"),
    ("linalg.py", "complement"),
    ("linalg.py", "complement_within"),
    ("pentagon.py", "example9_truncated"),
    ("pentagon.py", "example9_truncated"),
    ("pentagon.py", "diagonal_graph_pair"),
    ("pentagon.py", "diagonal_graph_pair"),
    ("systems.py", "direct_sum"),  # disjoint blocks of orthonormal bases
    ("systems.py", "_accept_idempotent"),
    ("systems.py", "_accept_idempotent"),
    ("systems.py", "_in_carrier_coords"),
    ("systems.py", "verify_isomorphism"),
    ("two_subspaces.py", "_halmos_parts"),
    ("two_subspaces.py", "_halmos_parts"),
    ("two_subspaces.py", "_halmos_parts"),
    ("two_subspaces.py", "_halmos_parts"),
    ("two_subspaces.py", "_part_span"),
]

# Internal bases whose blocks are orthogonal only through an earlier rank
# decision, or rescaled, keep the public check.
CHECKED_SITES = [
    ("pentagon.py", "pentagon_split"),  # third_core = [E2 | third_outside]
    ("pentagon.py", "example9_truncated"),  # E3 = [graph | residual span]
    ("two_subspaces.py", "_halmos_parts"),  # only_second, divided by sqrt(1 - sigma^2)
]


def test_bases_are_checked_where_they_enter():
    assert package_calls("_unchecked") == UNCHECKED_SITES
    assert package_calls("Subspace") == CHECKED_SITES


def test_detects_both_construction_routes(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from .linalg import Subspace as Basis\n"
        "class Subspace:\n"
        "    @classmethod\n"
        "    def zero(cls, n):\n"
        "        return cls._unchecked(np.zeros((n, 0)))\n"
        "def meet(q, u, rank):\n"
        "    return Subspace._unchecked(q), Subspace(u[:, :rank])\n"
        "def stack(a, b):\n"
        "    return [Basis(np.hstack([a.basis, b.basis])) for _ in range(2)]\n"
    )
    calls = [(callee, scope, line) for callee, scope, line in function_calls(module)
             if callee in ("_unchecked", "Subspace")]
    assert calls == [("_unchecked", "zero", 5), ("_unchecked", "meet", 7), ("Subspace", "meet", 7),
                     ("Subspace", "stack", 9)]


@pytest.mark.parametrize("argv, expected", [
    (["pentagon", "--example9", "50"], {"checked": 1, "unchecked": 15}),  # E3 alone is checked
    (["decompose", "{system}"], {"checked": 0, "unchecked": 34}),
], ids=["pentagon --example9 50", "decompose"])
def test_checked_constructions_per_op(monkeypatch, tmp_path, capsys, argv, expected):
    from subspacekit import Subspace, cli

    system = str(tmp_path / "system.json")
    assert cli.main(["generate", "--mult", "1,1,1,1,1,1,1,1,1", "--seed", "3", "--cond", "10", "-o", system]) == 0
    built = {"checked": 0, "unchecked": 0}
    post_init, unchecked = Subspace.__post_init__, Subspace._unchecked.__func__

    def checked_route(subspace):
        built["checked"] += 1
        post_init(subspace)

    def unchecked_route(cls, basis):
        built["unchecked"] += 1
        return unchecked(cls, basis)

    monkeypatch.setattr(Subspace, "__post_init__", checked_route)
    monkeypatch.setattr(Subspace, "_unchecked", classmethod(unchecked_route))
    assert cli.main([arg.format(system=system) for arg in argv]) == 0
    capsys.readouterr()
    assert built == expected
