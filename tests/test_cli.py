"""Command-line interface tests, in process through cli.main but for one
run of ``python -m subspacekit.cli`` in a subprocess."""

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import subspacekit

from conftest import corpus_spec
from subspacekit import (
    DEFAULT_TOL,
    ConditioningWarning,
    InvariantVector,
    brenner,
    brenner_decompose,
    brenner_invariants,
    catalog,
    cli,
    closedness_margin,
    compose_from_multiplicities,
    detect_double_triangle,
    hom_basis,
    orthonormalize,
    principal_angles,
    split_by_idempotent,
    systems,
)
from subspacekit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


def write_system(path, ambient, spans, names=None, tolerances=None):
    payload = {
        "ambient_dim": ambient,
        "subspaces": [
            {"spanning_vectors": vectors} for vectors in spans
        ],
    }
    if names:
        for entry, name in zip(payload["subspaces"], names):
            entry["name"] = name
    if tolerances:
        payload["tolerances"] = tolerances
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def remark_file(tmp_path):
    return write_system(
        tmp_path / "remark.json",
        3,
        [
            [[1, 0, 0], [0, 0, 1]],
            [[0, 1, 0], [0, 0, 1]],
            [[1, 1, 1]],
        ],
        names=["E1", "E2", "E3"],
    )


class TestAnalyze:
    def test_remark_report(self, capsys, remark_file):
        code, report = run_json(capsys, "analyze", remark_file)
        assert code == 0
        assert report["ambient_dim"] == 3
        assert report["subspace_dims"] == [2, 2, 1]
        assert report["labels"] == ["E1", "E2", "E3"]
        # one flat atom plus one triangle atom: decomposable, not transitive
        assert report["transitive"] is False
        assert report["decomposable"] is True
        assert sorted(report["split_dims"]) == [1, 2]
        assert report["commutative"] is False
        assert report["double_triangle"] is False
        assert report["pentagon"] is False
        assert report["invariants"]["pair_12"] == 1
        assert report["invariants"]["triangle"] == 1

    def test_two_subspace_systems_allowed(self, capsys, tmp_path):
        path = write_system(tmp_path / "pair.json", 2, [[[1, 0]], [[0, 1]]])
        code, report = run_json(capsys, "analyze", path)
        assert code == 0
        assert report["commutative"] is True
        assert "invariants" not in report

    def test_decomposable_reports_split(self, capsys, tmp_path):
        path = write_system(tmp_path / "sum.json", 2, [[[1, 0]], [[0, 1]], [[0, 1]]])
        code, report = run_json(capsys, "analyze", path)
        assert code == 0
        assert report["decomposable"] is True
        assert sorted(report["split_dims"]) == [1, 1]

    def test_zero_subspace_from_empty_span(self, capsys, tmp_path):
        path = write_system(tmp_path / "zero.json", 2, [[], [[1, 0]], [[1, 0]]])
        code, report = run_json(capsys, "analyze", path)
        assert code == 0
        assert report["subspace_dims"] == [0, 1, 1]
        assert report["pairwise_angles"]["1-2"] is None

    def test_pair_table_over_four_subspaces(self, capsys, tmp_path):
        spans = [[[1, 0, 0]], [], [[0, 1, 0], [1, 1, 0]], [[1, 1, 1]]]
        path = write_system(tmp_path / "four.json", 3, spans)
        code, report = run_json(capsys, "analyze", path)
        assert code == 0
        angles = report["pairwise_angles"]
        assert list(angles) == ["1-2", "1-3", "1-4", "2-3", "2-4", "3-4"]
        assert angles["1-2"] is None and angles["2-3"] is None and angles["2-4"] is None
        for key in ("1-3", "1-4", "3-4"):
            a, b = (orthonormalize(spans[int(i) - 1]) for i in key.split("-"))
            assert angles[key] == [cli._sci(t) for t in principal_angles(a, b)]

    def test_text_format(self, capsys, remark_file):
        code, out, err = run(capsys, "analyze", remark_file, "--text")
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert "ambient_dim: 3" in lines
        assert lines == sorted(lines, key=lambda s: s.split(":")[0])

    def test_complex_entries(self, capsys, tmp_path):
        path = write_system(
            tmp_path / "cx.json", 2, [[[[0, 1], 0]], [[0, 1]], [[1, 0]]]
        )
        code, report = run_json(capsys, "analyze", path)
        assert code == 0
        # i*e1 spans the same line as e1
        assert report["invariants"]["pair_13"] == 1


def count_hom_basis_calls(monkeypatch):
    """Route every call of ``systems.hom_basis``, from whichever module
    binds it, through a counter; returns the list of calls."""
    calls = []
    original = systems.hom_basis

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (systems, brenner, cli):
        if getattr(module, "hom_basis", None) is original:
            monkeypatch.setattr(module, "hom_basis", counted)
    return calls


def count_detector_calls(monkeypatch):
    """Route every call of ``systems.detect_double_triangle``, from
    whichever module binds it, through a counter; returns the list of
    calls."""
    calls = []
    original = systems.detect_double_triangle

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (subspacekit, systems, brenner, cli):
        if getattr(module, "detect_double_triangle", None) is original:
            monkeypatch.setattr(module, "detect_double_triangle", counted)
    return calls


def generate(capsys, path, vector, seed, cond):
    mult = ",".join(str(c) for c in vector.as_tuple())
    code, _ = run_json(
        capsys, "generate", "--mult", mult, "--seed", str(seed), "--cond", str(cond), "-o", str(path),
    )
    assert code == 0
    return str(path)


class TestAnalyzeRoutes:
    """A triple's endomorphism structure is read off its Brenner
    decomposition; other arities solve for one hom basis."""

    def test_triple_solves_no_hom_basis(self, capsys, monkeypatch, remark_file):
        calls = count_hom_basis_calls(monkeypatch)
        code, report = run_json(capsys, "analyze", remark_file)
        assert code == 0
        assert report["decomposable"] is True
        assert calls == []

    def test_four_subspaces_solve_one_hom_basis(self, capsys, monkeypatch, tmp_path):
        path = write_system(
            tmp_path / "four.json", 3, [[[1, 0, 0]], [[0, 1, 0]], [[1, 1, 0]], [[0, 0, 1]]]
        )
        calls = count_hom_basis_calls(monkeypatch)
        code, report = run_json(capsys, "analyze", path)
        assert code == 0
        assert report["transitive"] is False
        assert report["decomposable"] is True
        assert sorted(report["split_dims"]) == [1, 2]
        assert len(calls) == 1

    def test_large_triple(self, capsys, monkeypatch, tmp_path):
        # n = 90: the Kronecker constraint would have 8100 columns.
        vector = InvariantVector(10, 10, 10, 10, 10, 10, 10, 5, 10)
        assert vector.total_dim == 90
        path = generate(capsys, tmp_path / "large.json", vector, 5, 10.0)
        calls = count_hom_basis_calls(monkeypatch)
        code, report = run_json(capsys, "analyze", path)
        assert code == 0
        assert report["invariants"] == dict(zip(brenner.SLOT_NAMES, vector.as_tuple()))
        assert report["transitive"] is False
        assert report["decomposable"] is True
        assert sum(report["split_dims"]) == 90
        assert calls == []

    def test_agrees_with_kronecker_route_on_corpus(self, capsys, corpus, tmp_path):
        problems = []
        for i, (vector, seed, cond, system) in enumerate(corpus):
            spans = [
                [[[z.real, z.imag] for z in column] for column in s.basis.T]
                for s in system.subspaces
            ]
            path = write_system(tmp_path / f"s{i}.json", system.ambient_dim, spans)
            code, report = run_json(capsys, "analyze", path)
            assert code == 0, f"system {i}"
            decomposable = vector.total_atoms > 1
            # is_transitive and find_nontrivial_idempotent, sharing one hom basis
            endos = hom_basis(system, system)
            searched = systems._search_idempotent(system, endos, DEFAULT_TOL, systems._SEARCH_TRIALS, 0)
            by_hom = (endos.dim == 1, searched is not None)
            if (report["transitive"], report["decomposable"]) != by_hom:
                problems.append(f"system {i}: analyze {report['transitive'], report['decomposable']}, "
                                f"hom_basis route {by_hom}")
            if by_hom != (not decomposable, decomposable):
                problems.append(f"system {i}: {vector.total_atoms} atoms, hom_basis route {by_hom}")
            if report["double_triangle"] != detect_double_triangle(system):
                problems.append(f"system {i}: double_triangle {report['double_triangle']}")
            if not decomposable:
                continue
            witness = brenner._atom_idempotent(system, brenner_decompose(system), DEFAULT_TOL)
            first, second = split_by_idempotent(system, witness)
            if brenner_invariants(first) + brenner_invariants(second) != vector:
                problems.append(f"system {i}: split parts do not add up to {vector.as_tuple()}")
        assert problems == []

    @pytest.mark.parametrize("index", [2, 50, 76, 120, 125, 135, 149, 173])
    def test_ill_conditioned_triple_never_denies_a_split(self, capsys, tmp_path, index):
        # These corpus entries at condition up to 1e9 were once reported
        # with the right invariants but as neither transitive nor
        # decomposable.  Now they split, or are refused.
        vector, seed, cond = corpus_spec(max_cond=1e9)[index]
        path = generate(capsys, tmp_path / "ill.json", vector, seed, cond)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConditioningWarning)
            code, out, err = run(capsys, "analyze", path)
        if code == 1:
            assert "conditioning failure" in err
            assert out == ""
            return
        assert code == 0
        report = json.loads(out)
        assert report["invariants"] == dict(zip(brenner.SLOT_NAMES, vector.as_tuple()))
        assert report["decomposable"] is True
        assert sum(report["split_dims"]) == vector.total_dim
        assert 0 not in report["split_dims"]

    @pytest.mark.parametrize("index", [3, 4, 25, 31, 50, 102, 125, 149])
    def test_best_conditioned_copy_splits(self, capsys, tmp_path, index):
        # On these corpus entries at condition up to 1e6 the projector onto
        # the first block copy in slot order is not idempotent within
        # residual_tol; the one of smallest norm is.
        vector, seed, cond = corpus_spec(max_cond=1e6)[index]
        path = generate(capsys, tmp_path / "scrambled.json", vector, seed, cond)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConditioningWarning)
            code, out, err = run(capsys, "analyze", path)
        assert code == 0, err
        report = json.loads(out)
        assert report["decomposable"] is True
        assert sum(report["split_dims"]) == vector.total_dim

    def test_witness_kernel_takes_the_count_of_its_image(self, capsys, tmp_path):
        # The block projector here is idempotent to 1.6e-10: inside
        # residual_tol, but over the rank cutoff, so a rank decision of its
        # own on I - P would keep all n directions.  The kernel, and each
        # subspace's kernel part, take the count the image leaves.
        vector = InvariantVector(1, 2, 3, 1, 1, 2, 3, 3, 2)
        path = generate(capsys, tmp_path / "defect.json", vector, 17326, 1e8)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConditioningWarning)
            code, out, err = run(capsys, "analyze", path)
            assert code == 0, err
            report = json.loads(out)
            system, tol = cli._load_system(path, {})
            witness = brenner._atom_idempotent(system, brenner_decompose(system, tol), tol)
            first, second = split_by_idempotent(system, witness, tol)
        assert report["decomposable"] is True
        assert report["split_dims"] == [1, 20]
        assert brenner_invariants(first) + brenner_invariants(second) == vector

    def test_double_triangle_read_off_the_decomposition(self, capsys, monkeypatch, remark_file, tmp_path):
        triangles = InvariantVector(0, 0, 0, 0, 0, 0, 0, 2, 0)
        path = generate(capsys, tmp_path / "triangles.json", triangles, 3, 8.0)
        calls = count_detector_calls(monkeypatch)
        for file, expected in ((remark_file, False), (path, True)):
            code, report = run_json(capsys, "analyze", file)
            assert code == 0
            assert report["double_triangle"] is expected
        assert calls == []

    @pytest.mark.parametrize("k", [1, 2, 3, 6])
    @pytest.mark.parametrize("extra", [None, 4, 8], ids=["alone", "single_1", "outside"])
    def test_double_triangle_agrees_with_detector(self, capsys, tmp_path, k, extra):
        # scrambled multiples of the triangle, alone or beside one more
        # block, from unitary to condition 1e9; refusals are allowed
        counts = [0] * 9
        counts[7] = k
        if extra is not None:
            counts[extra] = 1
        vector = InvariantVector.from_iterable(counts)
        for seed, cond in ((10 + k, 1.0), (20 + k, 1e3), (30 + k, 1e6), (40 + k, 1e9)):
            path = generate(capsys, tmp_path / f"t{seed}.json", vector, seed, cond)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ConditioningWarning)
                code, out, err = run(capsys, "analyze", path)
                system, tol = cli._load_system(path, {})
                detected = detect_double_triangle(system, tol)
            if code == 1:
                assert err.startswith("conditioning failure")
                continue
            assert code == 0
            assert json.loads(out)["double_triangle"] is detected
            if cond < 1e9:
                assert detected is (extra is None)

    def test_skeleton_warning_reaches_caller(self, capsys, tmp_path):
        # Seed 34 at condition 1e9 puts a singular value of the skeleton
        # within a decade of the rank cutoff, while analyze succeeds.
        vector = InvariantVector(1, 1, 1, 1, 1, 1, 1, 1, 1)
        path = generate(capsys, tmp_path / "warned.json", vector, 34, 1e9)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, _ = run(capsys, "analyze", path)
        assert code == 0
        assert json.loads(out)["decomposable"] is True
        assert any(
            issubclass(w.category, ConditioningWarning) and "rank decision is fragile" in str(w.message)
            for w in caught
        )
        assert {w.filename for w in caught if issubclass(w.category, ConditioningWarning)} == {__file__}

    def test_module_run_warning_names_the_cli(self, capsys, tmp_path):
        # Run as ``python -m subspacekit.cli``, cli.py is the __main__
        # module inside the package: its warnings name cli.py, not the
        # interpreter's runpy.  Seed 1 at condition 1e9 gives a restricted
        # sum operator of condition 3.6e10.
        vector = InvariantVector(1, 1, 1, 1, 1, 1, 1, 2, 1)
        path = generate(capsys, tmp_path / "warned.json", vector, 1, 1e9)
        src = os.path.dirname(os.path.dirname(subspacekit.__file__))
        env = {key: value for key, value in os.environ.items() if key != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "subspacekit.cli", "analyze", path],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert result.returncode == 0
        located = [line for line in result.stderr.splitlines() if "ConditioningWarning" in line]
        assert any("restricted sum operator has condition" in line for line in located)
        assert all(line.startswith(cli.__file__ + ":") for line in located)
        assert "runpy" not in result.stderr


class TestInputErrors:
    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "analyze", "/nonexistent/x.json")
        assert code == 2
        assert "no such file" in err

    def test_invalid_json_reports_position(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"ambient_dim": 2,,}')
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 2
        assert "line 1" in err and "column" in err

    def test_wrong_vector_length(self, capsys, tmp_path):
        path = write_system(tmp_path / "bad.json", 3, [[[1, 0]]])
        code, out, err = run(capsys, "analyze", path)
        assert code == 2
        assert "spanning_vectors[0]" in err and "length 3" in err

    def test_bad_entry_is_located(self, capsys, tmp_path):
        path = write_system(tmp_path / "bad2.json", 2, [[[1, "x"]]])
        code, out, err = run(capsys, "analyze", path)
        assert code == 2
        assert "spanning_vectors[0][1]" in err

    @pytest.mark.parametrize("vectors", [
        [[1, 10**400], [0, 1]],
        [[[1, 0], [0, 10**400]], [[0, 0], [1, 0]]],
    ], ids=["real", "pair"])
    def test_oversized_integer_entry_is_located(self, capsys, tmp_path, vectors):
        # json reads the 401-digit literal as an int that no float holds
        path = write_system(tmp_path / "big.json", 2, [vectors, [], []])
        code, out, err = run(capsys, "decompose", path)
        assert code == 2
        assert out == ""
        assert err == (
            f"error: {path}: subspaces[0].spanning_vectors[0][1]: expected a number "
            "or [re, im] pair, got an integer too large for a float\n"
        )

    @pytest.mark.parametrize("text, entry, shown", [
        ("[[1e400, 0], [0, 1]]", "[0][0]", "inf"),
        ("[[1, 0], [0, -1e400]]", "[1][1]", "-inf"),
        ("[[[1, 0], [0, 1e400]], [[0, 0], [1, 0]]]", "[0][1]", "[0, inf]"),
        ("[[1, [NaN, 0]], [0, 1]]", "[0][1]", "[nan, 0]"),
    ], ids=["real", "negative", "pair", "mixed-nan"])
    def test_non_finite_entry_is_located(self, capsys, tmp_path, text, entry, shown):
        # json reads 1e400 as infinity and accepts the NaN literal
        path = tmp_path / "inf.json"
        path.write_text(
            '{"ambient_dim": 2, "subspaces": [{"spanning_vectors": [[1, 0]]}, '
            f'{{"spanning_vectors": {text}}}, {{"spanning_vectors": []}}]}}'
        )
        for command in ("decompose", "analyze"):
            code, out, err = run(capsys, command, str(path))
            assert code == 2
            assert out == ""
            assert err == (
                f"error: {path}: subspaces[1].spanning_vectors{entry}: expected a finite "
                f"number or [re, im] pair, got {shown}\n"
            )

    @pytest.mark.parametrize("ambient", [10**30, 10**12])
    def test_unsizeable_ambient_dim_is_refused_at_load(self, capsys, tmp_path, monkeypatch, ambient):
        # refused by arithmetic on the integer, before any array is built
        path = write_system(tmp_path / "huge.json", ambient, [[], [], []])
        monkeypatch.setattr(cli, "Subspace", None)
        monkeypatch.setattr(cli, "orthonormalize", None)
        code, out, err = run(capsys, "decompose", path)
        assert code == 2
        assert out == ""
        assert err == (
            f"error: {path}: 'ambient_dim' {ambient} is too large: numpy cannot size "
            f"a {ambient} x {ambient} complex matrix\n"
        )

    @pytest.mark.parametrize("command", ["decompose", "analyze", "isomorphic"])
    @pytest.mark.parametrize("ambient", [759250124, 4 * 10**8])
    def test_ambient_dim_numpy_refuses_is_located(self, capsys, tmp_path, command, ambient):
        # numpy sizes these n x n matrices (8.00 and 2.22 EiB) but no address
        # space holds them, so the allocation is refused at once
        path = write_system(tmp_path / "huge.json", ambient, [[], [], []])
        small = write_system(tmp_path / "small.json", 2, [[[1, 0]], [[0, 1]], [[1, 1]]])
        files = [small, path] if command == "isomorphic" else [path]
        code, out, err = run(capsys, command, *files)
        assert code == 2
        assert out == ""
        assert err.startswith(
            f"error: {path}: 'ambient_dim' {ambient} is too large for this machine: "
            "Unable to allocate "
        )
        assert err.count("\n") == 1

    def test_oversized_integer_tolerance(self, capsys, tmp_path):
        path = write_system(
            tmp_path / "tol.json", 2, [[[1, 0]], [], []], tolerances={"rank_rtol": 10**400}
        )
        code, out, err = run(capsys, "decompose", path)
        assert code == 2
        assert err == f"error: {path}: tolerance rank_rtol is too large for a float\n"

    def test_unknown_tolerance_key(self, capsys, tmp_path):
        path = write_system(
            tmp_path / "tol.json", 2, [[[1, 0]]], tolerances={"bogus": 1e-9}
        )
        code, out, err = run(capsys, "analyze", path)
        assert code == 2
        assert "unknown tolerance" in err

    def test_unknown_command(self, capsys):
        code, out, err = run(capsys, "frobnicate")
        assert code == 2

    def test_decompose_needs_three(self, capsys, tmp_path):
        path = write_system(tmp_path / "pair.json", 2, [[[1, 0]], [[0, 1]]])
        code, out, err = run(capsys, "decompose", path)
        assert code == 2
        assert "three" in err

    @pytest.mark.parametrize("payload, message", [
        ([1, 2], "top level must be a JSON object"),
        ({"ambient_dim": 0, "subspaces": [{"spanning_vectors": []}]},
         "'ambient_dim' must be a positive integer"),
        ({"ambient_dim": True, "subspaces": [{"spanning_vectors": []}]},
         "'ambient_dim' must be a positive integer"),
        ({"ambient_dim": 2.0, "subspaces": [{"spanning_vectors": []}]},
         "'ambient_dim' must be a positive integer"),
        ({"ambient_dim": 2, "subspaces": []}, "'subspaces' must be a nonempty array"),
        ({"ambient_dim": 2, "subspaces": [[1, 0]]}, "subspaces[0] must be an object"),
        ({"ambient_dim": 2, "subspaces": [{"name": 3, "spanning_vectors": []}]},
         "subspaces[0].name must be a string"),
        ({"ambient_dim": 2, "subspaces": [{"spanning_vectors": {"a": 1}}]},
         "subspaces[0].spanning_vectors must be an array"),
        ({"ambient_dim": 2, "subspaces": [{"spanning_vectors": []}], "tolerances": [1e-9]},
         "'tolerances' must be an object"),
        ({"ambient_dim": 2, "subspaces": [{"spanning_vectors": []}], "tolerances": {"gap_tol": "small"}},
         "tolerance gap_tol must be a number"),
        ({"ambient_dim": 2, "subspaces": [{"spanning_vectors": []}], "tolerances": {"gap_tol": True}},
         "tolerance gap_tol must be a number"),
    ], ids=["top-level", "ambient-zero", "ambient-bool", "ambient-float", "no-subspaces",
            "entry", "name", "vectors", "tolerances", "tolerance-string", "tolerance-bool"])
    def test_malformed_file_is_named(self, capsys, tmp_path, payload, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        assert run(capsys, "analyze", str(path)) == (2, "", f"error: {path}: {message}\n")

    def test_refused_tolerances(self, capsys, tmp_path, remark_file):
        # ToleranceConfig's own ValueError on a file block names the file;
        # a valid flag over the refused key wins
        path = write_system(tmp_path / "tol.json", 2, [[[1, 0]], [], []], tolerances={"rank_rtol": 2.0})
        refused = f"error: {path}: rank_rtol must be below 1, got 2.0\n"
        assert run(capsys, "analyze", path) == (2, "", refused)
        assert run(capsys, "analyze", path, "--residual-tol=1e-7") == (2, "", refused)
        triple = write_system(tmp_path / "triple.json", 3, [[[1, 0, 0]], [], []],
                              tolerances={"rank_rtol": 2.0})
        assert run(capsys, "isomorphic", remark_file, triple) == (
            2, "", f"error: {triple}: rank_rtol must be below 1, got 2.0\n"
        )
        assert run(capsys, "analyze", path, "--rank-rtol=1e-9")[0] == 0

    @pytest.mark.parametrize("command", ["analyze", "decompose", "isomorphic", "generate", "pentagon"])
    def test_refused_tolerance_flag_is_named(self, capsys, tmp_path, remark_file, command):
        out = tmp_path / "g.json"
        argv = seed_argv(command, remark_file, out)
        assert run(capsys, command, *argv, "--residual-tol=-1") == (
            2, "", "error: --residual-tol: residual_tol must be finite and strictly positive, got -1.0\n"
        )
        assert run(capsys, command, *argv, "--rank-rtol", "2") == (
            2, "", "error: --rank-rtol: rank_rtol must be below 1, got 2.0\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["analyze", "{file}"], ["pentagon", "--example9", "3"]],
                             ids=["analyze", "example9"])
    def test_refused_tolerance_variable_is_named(self, capsys, remark_file, monkeypatch, argv):
        argv = [arg.format(file=remark_file) for arg in argv]
        monkeypatch.setenv("SUBSPACEKIT_GAP_TOL", "0")
        assert run(capsys, *argv) == (
            2, "", "error: SUBSPACEKIT_GAP_TOL: gap_tol must be finite and strictly positive, got 0.0\n"
        )
        # a flag for the setting wins, so the variable is never read
        code, report = run_json(capsys, *argv, "--gap-tol", "1e-9")
        assert code == 0

    def test_isomorphic_needs_two_triples(self, capsys, tmp_path, remark_file):
        pair = write_system(tmp_path / "pair.json", 2, [[[1, 0]], [[0, 1]]])
        assert run(capsys, "isomorphic", pair, remark_file) == (
            2, "", "error: isomorphic needs two systems of exactly three subspaces\n"
        )

    def test_example9_needs_two_coordinates(self, capsys):
        assert run(capsys, "pentagon", "--example9", "1") == (2, "", "error: --example9 needs N >= 2, got 1\n")

    def test_unknown_format_variable(self, capsys, remark_file, monkeypatch):
        monkeypatch.setenv("SUBSPACEKIT_FORMAT", "xml")
        assert run(capsys, "analyze", remark_file) == (
            2, "", "error: SUBSPACEKIT_FORMAT must be 'json' or 'text', got 'xml'\n"
        )


class TestDecompose:
    def test_remark(self, capsys, remark_file):
        code, report = run_json(capsys, "decompose", remark_file)
        assert code == 0
        assert report["verified"] is True
        assert report["block_dims"]["pair_12"] == 1
        assert report["block_dims"]["triangle"] == 1
        assert float(report["residual"]) < 1e-10
        assert report["warnings"] == []
        assert "blocks" not in report

    def test_emit_basis(self, capsys, remark_file):
        code, report = run_json(capsys, "decompose", remark_file, "--emit-basis")
        assert code == 0
        blocks = report["blocks"]
        assert set(blocks) == {
            "common", "pair_23", "pair_13", "pair_12",
            "single_1", "single_2", "single_3",
            "triangle_1", "triangle_2", "triangle_3", "outside",
        }
        assert len(blocks["pair_12"]) == 1
        assert len(blocks["pair_12"][0]) == 3
        # entries are [re, im] pairs
        assert all(len(entry) == 2 for entry in blocks["pair_12"][0])
        n = report["ambient_dim"]
        assert len(report["change_of_basis"]) == n
        assert all(len(row) == n for row in report["change_of_basis"])

    @pytest.mark.parametrize("seed, cond, verified", [(3, 10.0, True), (0, 1e9, False)],
                             ids=["passing", "flagged"])
    def test_verdict_is_the_certificate(self, capsys, tmp_path, seed, cond, verified):
        # the verdict is the normal-form certificate's: its worst gap is the
        # residual, and the exit code is 0 exactly when it passed
        vector = InvariantVector(1, 1, 1, 1, 1, 1, 1, 4, 1)
        path = generate(capsys, tmp_path / "f.json", vector, seed, cond)
        code, report = run_json(capsys, "decompose", path)
        assert report["block_dims"] == dict(zip(brenner.SLOT_NAMES, vector.as_tuple()))
        assert report["max_verification_gap"] == report["residual"]
        assert (report["verified"], code) == (verified, 0 if verified else 1)
        assert (float(report["residual"]) <= DEFAULT_TOL.residual_tol) is verified

    def test_byte_determinism(self, capsys, remark_file):
        _, first, _ = run(capsys, "decompose", remark_file, "--emit-basis")
        _, second, _ = run(capsys, "decompose", remark_file, "--emit-basis")
        assert first == second

    def test_matrix_entries_match_entrywise_reference(self):
        rng = np.random.default_rng(5)
        matrix = rng.standard_normal((7, 4)) + 1j * rng.standard_normal((7, 4))
        matrix[0, 0] = complex(-0.0, 0.0)
        matrix[1, 2] = complex(3.0, -0.0)
        rows = [[[float(z.real), float(z.imag)] for z in row] for row in matrix]
        vectors = [[[float(z.real), float(z.imag)] for z in matrix[:, j]] for j in range(4)]
        assert json.dumps(cli._matrix_entries(matrix)) == json.dumps(rows)
        assert json.dumps(cli._matrix_entries(matrix.T)) == json.dumps(vectors)
        assert json.dumps(cli._matrix_entries(np.zeros((3, 0)).T)) == "[]"

    @pytest.mark.parametrize("command, vector, seed, cond", [
        # entry 330 of corpus_spec(count=400, max_cond=1e9): a containment
        # that holds by construction fails numerically in the skeleton
        pytest.param("decompose", (1, 0, 0, 1, 1, 1, 0, 3, 1), 1769612510, 922864058.6694026, id="decompose"),
        pytest.param("analyze", (1, 0, 0, 1, 1, 1, 0, 3, 1), 1769612510, 922864058.6694026, id="analyze"),
        # E1 ∩ E2 = 0 and E2 < E3, yet E2 fails to lie numerically in E3's
        # share of E1 + E2: the file is valid, the split ill-conditioned
        pytest.param("pentagon", (0, 4, 4, 0, 1, 0, 0, 0, 1), 765229680, 1.79e8, id="pentagon"),
    ])
    def test_failed_containment_is_a_conditioning_failure(self, capsys, tmp_path, command, vector, seed, cond):
        path = generate(capsys, tmp_path / "f.json", InvariantVector(*vector), seed, cond)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConditioningWarning)
            code, out, err = run(capsys, command, path)
        assert code == 1
        assert err.startswith("conditioning failure")
        assert out == ""


class TestIsomorphic:
    def make_pair(self, capsys, tmp_path, mult_a, mult_b, seed_a=1, seed_b=2):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        code, _ = run_json(
            capsys, "generate", "--mult", mult_a, "--seed", str(seed_a),
            "--cond", "6", "-o", str(a),
        )
        assert code == 0
        code, _ = run_json(
            capsys, "generate", "--mult", mult_b, "--seed", str(seed_b),
            "--cond", "2", "-o", str(b),
        )
        assert code == 0
        return str(a), str(b)

    def test_isomorphic_pair(self, capsys, tmp_path):
        mult = "1,0,0,1,0,0,0,1,0"
        a, b = self.make_pair(capsys, tmp_path, mult, mult)
        code, report = run_json(capsys, "isomorphic", a, b, "--emit-map")
        assert code == 0
        assert report["isomorphic"] is True
        assert report["witness_verified"] is True
        assert float(report["witness_max_gap"]) < 1e-8
        assert len(report["map"]) == report_dim(report)

    def test_non_isomorphic_pair(self, capsys, tmp_path):
        a, b = self.make_pair(
            capsys, tmp_path, "1,0,0,1,0,0,0,1,0", "0,1,0,1,0,0,0,1,0"
        )
        code, report = run_json(capsys, "isomorphic", a, b)
        assert code == 1
        assert report["isomorphic"] is False
        assert "witness_verified" not in report

    def test_ambient_mismatch(self, capsys, tmp_path):
        a, b = self.make_pair(
            capsys, tmp_path, "1,0,0,0,0,0,0,0,0", "1,1,0,0,0,0,0,0,0"
        )
        code, report = run_json(capsys, "isomorphic", a, b)
        assert code == 1
        assert report["isomorphic"] is False
        assert report["reason"] == "ambient dimensions differ"

    @pytest.mark.parametrize("mult_b,expected_code", [
        ("1,0,0,1,0,0,0,1,0", 0),
        ("0,1,0,1,0,0,0,1,0", 1),
    ], ids=["isomorphic", "non-isomorphic"])
    def test_one_skeleton_per_system(self, capsys, tmp_path, monkeypatch, mult_b, expected_code):
        a, b = self.make_pair(capsys, tmp_path, "1,0,0,1,0,0,0,1,0", mult_b)
        calls = []
        skeleton = brenner._skeleton
        monkeypatch.setattr(brenner, "_skeleton", lambda *args: calls.append(1) or skeleton(*args))
        code, _ = run_json(capsys, "isomorphic", a, b, "--emit-map")
        assert code == expected_code
        assert len(calls) == 2

    def test_skeleton_warning_reaches_caller(self, capsys, tmp_path):
        # Seed 34 at condition 1e9 puts a singular value of the first
        # system's skeleton within a decade of the rank cutoff, while the
        # comparison itself succeeds: the warning is the only flag.
        paths = []
        for name, seed in (("a.json", 34), ("b.json", 1034)):
            path = tmp_path / name
            code, _ = run_json(
                capsys, "generate", "--mult", "1,1,1,1,1,1,1,1,1", "--seed", str(seed),
                "--cond", "1e9", "-o", str(path),
            )
            assert code == 0
            paths.append(str(path))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, report = run_json(capsys, "isomorphic", *paths, "--emit-map")
        assert code == 0
        assert report["isomorphic"] is True
        assert any(issubclass(w.category, ConditioningWarning) for w in caught)
        # attributed to the line that called cli.main, not to a package line
        assert {w.filename for w in caught if issubclass(w.category, ConditioningWarning)} == {__file__}


def report_dim(report):
    first = report["invariants_first"]
    return (
        first["common"] + first["pair_23"] + first["pair_13"] + first["pair_12"]
        + first["single_1"] + first["single_2"] + first["single_3"]
        + 2 * first["triangle"] + first["outside"]
    )


class TestGenerate:
    def test_writes_system_and_truth(self, capsys, tmp_path):
        out = tmp_path / "sys.json"
        code, report = run_json(
            capsys, "generate", "--mult", "0,0,1,0,0,0,0,1,1",
            "--seed", "3", "--cond", "4", "-o", str(out),
        )
        assert code == 0
        assert report["ambient_dim"] == 4
        payload = json.loads(out.read_text())
        assert payload["ambient_dim"] == 4
        assert len(payload["subspaces"]) == 3
        truth = json.loads((tmp_path / "sys.truth.json").read_text())
        assert truth["multiplicities"] == [0, 0, 1, 0, 0, 0, 0, 1, 1]
        assert truth["seed"] == 3
        assert truth["subspace_dims"] == report["subspace_dims"]

    def test_roundtrip_through_decompose(self, capsys, tmp_path):
        out = tmp_path / "sys.json"
        run_json(
            capsys, "generate", "--mult", "1,0,2,0,1,0,0,2,1",
            "--seed", "12", "--cond", "10", "-o", str(out),
        )
        code, report = run_json(capsys, "decompose", str(out))
        assert code == 0
        truth = json.loads((tmp_path / "sys.truth.json").read_text())
        recovered = [report["block_dims"][name] for name in truth["slot_names"]]
        assert recovered == truth["multiplicities"]

    def test_mult_validation(self, capsys, tmp_path):
        out = str(tmp_path / "x.json")
        for bad in ("1,2,3", "a,b,c,d,e,f,g,h,i", "0,0,0,0,0,0,0,0,0",
                    "-1,0,0,0,0,0,0,0,1"):
            # --mult= form keeps argparse from eating values starting with -
            code, _, err = run(capsys, "generate", f"--mult={bad}", "-o", out)
            assert code == 2, bad
            assert err.startswith("error:")

    @pytest.mark.parametrize("mult, message", [
        ("-1,0,0,0,0,0,0,0,1", "common must be a nonnegative integer, got -1"),
        ("0,0,0,0,0,0,0,0,0", "at least one multiplicity must be positive"),
    ])
    def test_library_refusal_is_reported(self, capsys, tmp_path, mult, message):
        # the ValueErrors of InvariantVector and compose_from_multiplicities
        out = tmp_path / "x.json"
        assert run(capsys, "generate", f"--mult={mult}", "-o", str(out)) == (2, "", f"error: {message}\n")
        assert not out.exists()

    def test_cond_validation(self, capsys, tmp_path):
        out = str(tmp_path / "x.json")
        code, _, err = run(
            capsys, "generate", "--mult", "1,0,0,0,0,0,0,0,0",
            "--cond", "0.5", "-o", out,
        )
        assert code == 2

    # 759250125 is the least n whose n x n complex matrix numpy cannot size;
    # 379625063 triangles cross it only through their two dimensions each.
    @pytest.mark.parametrize("mult, ambient", [
        ("759250125,0,0,0,0,0,0,0,0", 759250125),
        ("0,0,0,0,0,0,0,379625063,0", 759250126),
        ("0,0,0,0,0,0,0,0," + str(10**30), 10**30),
    ])
    def test_unsizeable_ambient_dim_is_refused_before_composing(self, capsys, tmp_path, monkeypatch,
                                                                mult, ambient):
        # refused by arithmetic on the integer, as a file's ambient_dim is
        monkeypatch.setattr(cli, "compose_from_multiplicities", None)
        out = tmp_path / "x.json"
        code, stdout, err = run(capsys, "generate", "--mult", mult, "-o", str(out))
        assert code == 2
        assert stdout == ""
        assert err == (
            f"error: --mult: 'ambient_dim' {ambient} is too large: numpy cannot size "
            f"a {ambient} x {ambient} complex matrix\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("mult", ["759250124,0,0,0,0,0,0,0,0", "0,0,0,0,0,0,0,379625062,0"])
    def test_ambient_dim_numpy_refuses_is_located(self, capsys, tmp_path, monkeypatch, mult):
        # numpy sizes the 759250124 x 759250124 scramble (8 EiB) but no
        # address space holds it; it is drawn before any atom is listed, so
        # the atoms are never reached
        monkeypatch.setattr(catalog, "_SLOT_SYSTEMS", None)
        out = tmp_path / "x.json"
        code, stdout, err = run(capsys, "generate", "--mult", mult, "-o", str(out))
        assert code == 2
        assert stdout == ""
        assert err.startswith(
            "error: --mult: 'ambient_dim' 759250124 is too large for this machine: Unable to allocate "
        )
        assert err.count("\n") == 1
        assert not out.exists()


def as_lists(value):
    """A report with every matrix replaced by its ``_matrix_entries`` list,
    the form the indenting json encoder is the reference for."""
    if isinstance(value, np.ndarray):
        return cli._matrix_entries(value)
    if isinstance(value, dict):
        return {key: as_lists(item) for key, item in value.items()}
    if isinstance(value, list):
        return [as_lists(item) for item in value]
    return value


def reference_text(report):
    return json.dumps(as_lists(report), indent=2, sort_keys=True)


def handler_report(*argv):
    args = cli._PARSER.parse_args(list(argv))
    return cli._HANDLERS[args.command](args, cli._gather_overrides(args))


EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, 0.1 + 0.2, -2.0, 3.0,
               1e16, 2.0**53, 123456789.0, 1e-7, 2.5e-300]


class TestJsonWriter:
    """``_json_text`` writes exactly what ``json.dumps(..., indent=2,
    sort_keys=True)`` writes for the list form of a report."""

    @pytest.mark.parametrize("shape", [(15, 1), (1, 15), (5, 3), (3, 5)])
    def test_edge_floats(self, shape):
        values = np.array(EDGE_FLOATS)
        matrix = (values + 1j * values[::-1]).reshape(shape)
        for report in (matrix, {"m": matrix}, [{"m": [matrix]}]):
            assert cli._json_text(report) == reference_text(report)

    def test_non_finite_floats(self):
        matrix = np.array([[complex(np.nan, np.inf), complex(-np.inf, 0.0)]])
        text = cli._json_text({"m": matrix})
        assert text == reference_text({"m": matrix})
        assert "NaN" in text and "-Infinity" in text

    def test_small_fields_and_degenerate_matrices(self):
        report = {
            "empty_block": np.zeros((0, 4), dtype=np.complex128),
            "map": np.array([[complex(-0.0, 1.0)]]),
            "real_matrix": np.eye(2),
            "labels": ["E1", None, "caf\u00e9 \"q\"\n"],
            "flags": [True, False],
            "nested": {"b": {}, "a": [], "c": [[1, 2.5], {"z": None}]},
            "count": 3,
            "residual": "1.00e-15",
        }
        assert cli._json_text(report) == reference_text(report)
        assert cli._json_text({}) == "{}"
        assert cli._json_text([]) == "[]"

    def test_matrix_is_not_a_placeholder(self):
        # a label that looks like a matrix marker is written as a string
        report = {"input": "__matrix_0__", "map": np.ones((1, 1)), "label": "[]"}
        assert cli._json_text(report) == reference_text(report)

    def test_decompose_report(self, capsys, tmp_path, remark_file):
        vector = InvariantVector(1, 1, 1, 1, 1, 1, 1, 2, 1)
        path = generate(capsys, tmp_path / "g.json", vector, 8, 30.0)
        for source in (remark_file, path):  # the remark triple has empty blocks
            report, code = handler_report("decompose", source, "--emit-basis")
            assert isinstance(report["change_of_basis"], np.ndarray)
            expected = reference_text(report) + "\n"
            got_code, out, err = run(capsys, "decompose", source, "--emit-basis")
            assert (got_code, out, err) == (code, expected, "")

    def test_isomorphic_report(self, capsys, tmp_path):
        vector = InvariantVector(1, 0, 1, 0, 1, 0, 1, 1, 1)
        a = generate(capsys, tmp_path / "a.json", vector, 3, 5.0)
        b = generate(capsys, tmp_path / "b.json", vector, 4, 2.0)
        report, code = handler_report("isomorphic", a, b, "--emit-map")
        assert code == 0 and isinstance(report["map"], np.ndarray)
        got_code, out, err = run(capsys, "isomorphic", a, b, "--emit-map")
        assert (got_code, out, err) == (0, reference_text(report) + "\n", "")

    def test_one_by_one_map(self, capsys, tmp_path):
        a = write_system(tmp_path / "a.json", 1, [[[1]], [[1]], [[[0, 2]]]])
        b = write_system(tmp_path / "b.json", 1, [[[-3]], [[0.5]], [[1]]])
        report, code = handler_report("isomorphic", a, b, "--emit-map")
        assert code == 0 and report["map"].shape == (1, 1)
        assert run(capsys, "isomorphic", a, b, "--emit-map")[1] == reference_text(report) + "\n"

    @pytest.mark.parametrize("command", ["decompose", "isomorphic"])
    def test_text_format_matches_list_reference(self, capsys, tmp_path, command):
        vector = InvariantVector(1, 0, 0, 1, 0, 1, 0, 1, 1)
        a = generate(capsys, tmp_path / "a.json", vector, 5, 3.0)
        b = generate(capsys, tmp_path / "b.json", vector, 6, 3.0)
        if command == "decompose":
            argv, key = ["decompose", a, "--emit-basis"], "change_of_basis"
        else:
            argv, key = ["isomorphic", a, b, "--emit-map"], "map"
        report, code = handler_report(*argv)
        expected = []
        cli._flatten("", as_lists(report), expected)
        got_code, out, err = run(capsys, *argv, "--text")
        assert (got_code, err) == (code, "")
        assert out == "\n".join(expected) + "\n"
        z = report[key][1, 2]
        assert f"{key}[1][2]: {float(z.real)} {float(z.imag)}" in out.splitlines()
        if command == "decompose":
            assert "blocks.pair_23: " in out.splitlines()  # an empty block

    def test_generated_files_are_reference_text(self, capsys, tmp_path):
        # n = 168 with every slot populated, the largest large_dense shape
        vector = InvariantVector(11, 11, 11, 11, 10, 10, 10, 42, 10)
        path = tmp_path / "big.json"
        generate(capsys, path, vector, 5, 30.0)
        system, _ = compose_from_multiplicities(vector, 5, 30.0, DEFAULT_TOL)
        assert system.ambient_dim == 168
        payload = {
            "ambient_dim": system.ambient_dim,
            "subspaces": [
                {"name": f"E{i + 1}", "spanning_vectors": cli._matrix_entries(s.basis.T)}
                for i, s in enumerate(system.subspaces)
            ],
        }
        assert path.read_text() == json.dumps(payload, indent=2, sort_keys=True) + "\n"
        truth = (tmp_path / "big.truth.json").read_text()
        assert truth == json.dumps(json.loads(truth), indent=2, sort_keys=True) + "\n"


def entrywise(vectors):
    """The spanning vectors parsed one entry at a time, the reference for
    the bulk conversion."""
    return np.array(
        [[cli._parse_entry(v, "entry") for v in vector] for vector in vectors],
        dtype=np.complex128,
    )


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.uint64), np.ascontiguousarray(b).view(np.uint64)
    )


class TestBulkEntries:
    def test_generated_files_match_entrywise_reference(self, capsys, tmp_path):
        for seed, (vector, cond) in enumerate([
            (InvariantVector(2, 1, 1, 1, 1, 1, 1, 2, 1), 50.0),
            (InvariantVector(0, 0, 3, 0, 0, 2, 0, 0, 1), 1e6),
        ]):
            path = generate(capsys, tmp_path / f"g{seed}.json", vector, seed, cond)
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
            for entry in payload["subspaces"]:
                vectors = entry["spanning_vectors"]
                if not vectors:
                    continue
                bulk = cli._bulk_vectors(vectors, payload["ambient_dim"])
                assert bulk is not None
                assert np.array_equal(bulk, entrywise(vectors))
                assert same_bits(bulk, entrywise(vectors))

    @pytest.mark.parametrize("vectors", [
        [[1, -2, 0], [2**64 + 3, -2**70, 10**300], [2**53 + 1, 0.5, -0.0]],
        [[[1, -2], [0, 3], [-0.0, 2**63 + 1]], [[0.25, 0], [7, -7], [10**300, 1]]],
    ], ids=["real", "pairs"])
    def test_integer_entries(self, vectors):
        bulk = cli._bulk_vectors(vectors, 3)
        assert bulk is not None
        assert same_bits(bulk, entrywise(vectors))

    def test_mixed_vectors_are_accepted(self, capsys, tmp_path):
        mixed = [[1, [0, 1], 0.5], [[2, 0], 0, [0, -1]]]
        pairs = [[[1, 0], [0, 1], [0.5, 0]], [[2, 0], [0, 0], [0, -1]]]
        assert cli._bulk_vectors(mixed, 3) is None
        assert same_bits(cli._parse_vectors(mixed, 3, "f"), entrywise(pairs))
        a = write_system(tmp_path / "a.json", 3, [mixed, [[0, 0, 1]], [[1, 1, 1]]])
        b = write_system(tmp_path / "b.json", 3, [pairs, [[0, 0, 1]], [[1, 1, 1]]])
        code_a, out_a, _ = run(capsys, "analyze", a)
        code_b, out_b, _ = run(capsys, "analyze", b)
        assert code_a == code_b == 0
        assert out_a.replace(a, b) == out_b

    @pytest.mark.parametrize("vectors,where,got", [
        ([[1, 0], [0.5, True]], "[1][1]", "a boolean"),
        ([[[1, 0], [0, 0]], [[0.5, 0], [True, 0]]], "[1][1]", "[True, 0]"),
        ([[[1, 0], [0, 0]], [[0.5, 0], [0, False]]], "[1][1]", "[0, False]"),
        ([[[1, 0], [1, 2, 3]]], "[0][1]", "[1, 2, 3]"),
        ([[[1, 0, 0], [1, 2, 3]]], "[0][0]", "[1, 0, 0]"),
        ([[1, "x"]], "[0][1]", "'x'"),
        ([[[1, 0], {}]], "[0][1]", "{}"),
        ([[1, True], 5], "[0][1]", "a boolean"),  # the first bad entry in file order
    ], ids=["real-bool", "re-bool", "im-bool", "length-3", "all-length-3", "string", "object",
            "order"])
    def test_bad_entry_messages(self, capsys, tmp_path, vectors, where, got):
        path = write_system(tmp_path / "bad.json", 2, [vectors, [], []])
        code, out, err = run(capsys, "decompose", path)
        assert code == 2
        assert err == (
            f"error: {path}: subspaces[0].spanning_vectors{where}: expected a number "
            f"or [re, im] pair, got {got}\n"
        )

    @pytest.mark.parametrize("vectors,j", [
        ([[1, 0], [1]], 1),
        ([[[1, 0], [0, 1], [0, 0]]], 0),
        ([[1, 0], 5], 1),
    ], ids=["short", "long", "not-a-list"])
    def test_ragged_vector_is_located(self, capsys, tmp_path, vectors, j):
        path = write_system(tmp_path / "bad.json", 2, [[[1, 0]], vectors, []])
        code, out, err = run(capsys, "decompose", path)
        assert code == 2
        assert err == f"error: {path}: subspaces[1].spanning_vectors[{j}] must be an array of length 2\n"


class TestPentagonCommand:
    def test_example9_table(self, capsys):
        code, report = run_json(capsys, "pentagon", "--example9", "10")
        assert code == 0
        assert report["pentagon_detected"] is False
        assert report["ambient_dim"] == 20
        rows = report["margins"]
        assert [r["n"] for r in rows] == [2, 3, 5, 10]
        for row in rows:
            assert float(row["margin"]) == pytest.approx(
                float(row["arctan_1_over_n"]), rel=1e-2
            )

    def test_example9_runs_nine_real_svds_and_nothing_else(self, capsys, monkeypatch):
        # eight margin rows and the truncation's two-column residual, all
        # on the real bases the graph pairs are built from
        calls = []
        for name in ("svd", "qr", "solve", "inv", "eig", "eigh", "eigvals", "eigvalsh", "det",
                     "lstsq", "pinv", "cholesky", "matrix_rank"):
            original = getattr(np.linalg, name)

            def counted(a, *args, _name=name, _original=original, **kwargs):
                calls.append((_name, np.asarray(a).dtype))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        code, out, err = run(capsys, "pentagon", "--example9", "200")
        assert code == 0 and err == ""
        assert calls == [("svd", np.dtype(np.float64))] * 9

    @pytest.mark.parametrize("n", ["10", "200"])
    def test_example9_report_equals_the_complex_route(self, capsys, monkeypatch, n):
        code, real_out, err = run(capsys, "pentagon", "--example9", n)
        assert code == 0

        def as_complex(subspace):
            assert subspace.basis.dtype == np.float64
            return subspacekit.Subspace(subspace.basis.astype(np.complex128))

        pair, truncation = cli.diagonal_graph_pair, cli.example9_truncated
        monkeypatch.setattr(cli, "diagonal_graph_pair", lambda m: tuple(map(as_complex, pair(m))))
        monkeypatch.setattr(cli, "example9_truncated",
                            lambda m: subspacekit.SubspaceSystem.of(*map(as_complex, truncation(m).subspaces)))
        code, complex_out, err = run(capsys, "pentagon", "--example9", n)
        assert code == 0
        assert complex_out == real_out

    # the truncation lives in C^(2N), and 759250125 (N = 379625063) is the
    # least ambient dimension whose n x n complex matrix numpy cannot size
    @pytest.mark.parametrize("n", [379625063, 10**9, 10**30])
    def test_unsizeable_example9_is_refused_before_building(self, capsys, monkeypatch, n):
        # refused by arithmetic on the integer, as a file's ambient_dim is;
        # a regression that builds the pairs fails here instead of allocating
        monkeypatch.setattr(cli, "diagonal_graph_pair", None)
        monkeypatch.setattr(cli, "example9_truncated", None)
        code, stdout, err = run(capsys, "pentagon", "--example9", str(n))
        assert code == 2
        assert stdout == ""
        assert err == (
            f"error: --example9: 'ambient_dim' {2 * n} is too large: numpy cannot size "
            f"a {2 * n} x {2 * n} complex matrix\n"
        )

    def test_example9_numpy_refuses_is_located(self, capsys, monkeypatch):
        # N = 379625062 is admitted (C^759250124); numpy's refusal of a
        # later array is reported against --example9
        def refuse(m):
            raise MemoryError("Unable to allocate 8.00 EiB")

        monkeypatch.setattr(cli, "diagonal_graph_pair", refuse)
        monkeypatch.setattr(cli, "example9_truncated", None)
        code, stdout, err = run(capsys, "pentagon", "--example9", "379625062")
        assert code == 2
        assert stdout == ""
        assert err == (
            "error: --example9: 'ambient_dim' 759250124 is too large for this machine: "
            "Unable to allocate 8.00 EiB\n"
        )

    def test_distributive_file(self, capsys, tmp_path):
        path = write_system(
            tmp_path / "dist.json", 3,
            [[[1, 0, 0], [0, 1, 0]], [[0, 0, 1]], [[0, 0, 1], [1, 0, 0]]],
        )
        code, report = run_json(capsys, "pentagon", path)
        assert code == 0
        assert report["case"] == "distributive"
        assert report["bridge_dim"] == 1
        assert report["base_dim"] == 1
        assert report["first_remainder_dim"] == 1
        assert report["third_outside_dim"] is None

    def test_pentagon_file(self, capsys, tmp_path):
        path = write_system(
            tmp_path / "pent.json", 3,
            [[[1, 0, 0]], [[0, 0, 1]], [[0, 0, 1], [0, 1, 1]]],
        )
        code, report = run_json(capsys, "pentagon", path)
        assert code == 0
        assert report["case"] == "pentagon"
        assert report["third_outside_dim"] == 1
        assert report["pentagon_part_dims"] == [1, 1, 2]

    def test_file_margins_per_pair(self, capsys, tmp_path):
        # E2 lies inside E3, so 2-3 has no positive angle and no margin
        spans = [[[1, 1, 0]], [[0, 0, 1]], [[0, 0, 1], [0, 1, 1]]]
        path = write_system(tmp_path / "pent.json", 3, spans)
        code, report = run_json(capsys, "pentagon", path)
        assert code == 0
        margins = report["margins"]
        assert list(margins) == ["1-2", "1-3", "2-3"]
        assert margins["2-3"] is None
        for key in ("1-2", "1-3"):
            a, b = (orthonormalize(spans[int(i) - 1]) for i in key.split("-"))
            assert margins[key] == cli._sci(closedness_margin(a, b).min_positive_angle)
        assert margins["1-2"] != margins["1-3"]

    def test_hypothesis_failure_exits_2(self, capsys, tmp_path):
        path = write_system(
            tmp_path / "bad.json", 2, [[[1, 0]], [[1, 0]], [[1, 0], [0, 1]]]
        )
        code, out, err = run(capsys, "pentagon", path)
        assert code == 2
        assert "nontrivial intersection" in err

    def test_file_and_example9_are_exclusive(self, capsys, tmp_path):
        path = write_system(tmp_path / "s.json", 2, [[[1, 0]], [[0, 1]], [[1, 1]]])
        code, out, err = run(capsys, "pentagon", path, "--example9", "5")
        assert code == 2
        code, out, err = run(capsys, "pentagon")
        assert code == 2


def test_parser_is_built_once(capsys, monkeypatch, remark_file):
    monkeypatch.setattr(cli, "_build_parser", lambda: pytest.fail("parser rebuilt per call"))
    code, report = run_json(capsys, "analyze", remark_file)
    assert code == 0
    code, _, _ = run(capsys, "analyze", remark_file, "--text")
    assert code == 0


def seed_argv(command, remark_file, out):
    """Arguments that run ``command`` on the remark triple, or ``generate``
    a one-atom system into ``out``."""
    if command == "generate":
        return ["--mult", "1,0,0,0,0,0,0,0,0", "-o", str(out)]
    return [remark_file] * (2 if command == "isomorphic" else 1)


class TestToleranceHandling:
    """Precedence is flags over environment over the file block over
    defaults, observable in every report's tolerances section."""

    def test_flag_shows_in_report(self, capsys, remark_file):
        code, report = run_json(
            capsys, "decompose", remark_file, "--residual-tol", "5e-7"
        )
        assert code == 0
        assert report["tolerances"]["residual_tol"] == 5e-7

    def test_env_applies(self, capsys, remark_file, monkeypatch):
        monkeypatch.setenv("SUBSPACEKIT_RESIDUAL_TOL", "3e-7")
        code, report = run_json(capsys, "decompose", remark_file)
        assert code == 0
        assert report["tolerances"]["residual_tol"] == 3e-7

    def test_flag_beats_env(self, capsys, remark_file, monkeypatch):
        monkeypatch.setenv("SUBSPACEKIT_RESIDUAL_TOL", "3e-7")
        code, report = run_json(
            capsys, "decompose", remark_file, "--residual-tol", "5e-7"
        )
        assert report["tolerances"]["residual_tol"] == 5e-7

    def test_env_beats_file_block(self, capsys, tmp_path, monkeypatch):
        path = write_system(
            tmp_path / "t.json", 3,
            [[[1, 0, 0], [0, 0, 1]], [[0, 1, 0], [0, 0, 1]], [[1, 1, 1]]],
            tolerances={"residual_tol": 2e-7},
        )
        code, report = run_json(capsys, "decompose", path)
        assert report["tolerances"]["residual_tol"] == 2e-7
        monkeypatch.setenv("SUBSPACEKIT_RESIDUAL_TOL", "3e-7")
        code, report = run_json(capsys, "decompose", path)
        assert report["tolerances"]["residual_tol"] == 3e-7

    def test_unusable_tolerance_fails(self, capsys, remark_file):
        # 1e-30 is below machine noise; the run must not report success
        code, out, err = run(capsys, "decompose", remark_file,
                             "--residual-tol", "1e-30")
        assert code != 0

    def test_seed_env_and_flag(self, capsys, remark_file, monkeypatch):
        code, report = run_json(capsys, "analyze", remark_file)
        assert report["seed"] == 0
        monkeypatch.setenv("SUBSPACEKIT_SEED", "17")
        code, report = run_json(capsys, "analyze", remark_file)
        assert report["seed"] == 17
        code, report = run_json(capsys, "analyze", remark_file, "--seed", "4")
        assert report["seed"] == 4

    @pytest.mark.parametrize("command", ["analyze", "decompose", "isomorphic", "generate", "pentagon"])
    def test_negative_seed_flag_is_named(self, capsys, tmp_path, remark_file, command):
        out = tmp_path / "g.json"
        argv = seed_argv(command, remark_file, out)
        assert run(capsys, command, *argv, "--seed=-1") == (
            2, "", "error: --seed must be a non-negative integer, got -1\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["analyze", "generate"])
    def test_negative_seed_variable_is_named(self, capsys, tmp_path, remark_file, monkeypatch, command):
        out = tmp_path / "g.json"
        argv = seed_argv(command, remark_file, out)
        monkeypatch.setenv("SUBSPACEKIT_SEED", "-3")
        assert run(capsys, command, *argv) == (
            2, "", "error: SUBSPACEKIT_SEED must be a non-negative integer, got -3\n"
        )
        assert not out.exists()
        # a flag wins, so the variable is never read
        code, report = run_json(capsys, command, *argv, "--seed", "2")
        assert (code, report["seed"]) == (0, 2)

    @pytest.mark.parametrize("command", ["analyze", "generate"])
    def test_seed_zero_is_accepted(self, capsys, tmp_path, remark_file, monkeypatch, command):
        argv = seed_argv(command, remark_file, tmp_path / "g.json")
        code, report = run_json(capsys, command, *argv, "--seed", "0")
        assert (code, report["seed"]) == (0, 0)
        monkeypatch.setenv("SUBSPACEKIT_SEED", "0")
        code, report = run_json(capsys, command, *argv)
        assert (code, report["seed"]) == (0, 0)

    def test_bad_env_value(self, capsys, remark_file, monkeypatch):
        monkeypatch.setenv("SUBSPACEKIT_RANK_RTOL", "soft")
        code, out, err = run(capsys, "analyze", remark_file)
        assert code == 2
        assert "SUBSPACEKIT_RANK_RTOL" in err
        assert (out, err) == ("", "error: SUBSPACEKIT_RANK_RTOL is not a number: 'soft'\n")

    @pytest.mark.parametrize("key", ["rank_rtol", "gap_tol", "residual_tol"])
    def test_tolerance_precedence(self, capsys, tmp_path, monkeypatch, key):
        spans = [[[1, 0, 0], [0, 0, 1]], [[0, 1, 0], [0, 0, 1]], [[1, 1, 1]]]
        plain = write_system(tmp_path / "plain.json", 3, spans)
        block = write_system(tmp_path / "block.json", 3, spans, tolerances={key: 2e-9})

        def reported(*argv):
            code, report = run_json(capsys, "analyze", *argv)
            assert code == 0
            return report["tolerances"][key]

        assert reported(plain) == getattr(DEFAULT_TOL, key)
        assert reported(block) == 2e-9
        monkeypatch.setenv("SUBSPACEKIT_" + key.upper(), "3e-9")
        assert reported(plain) == reported(block) == 3e-9
        flag = "--" + key.replace("_", "-")
        assert reported(plain, flag, "4e-9") == reported(block, flag, "4e-9") == 4e-9

    @pytest.mark.parametrize("name, kind, raw", [
        ("GAP_TOL", "a number", "1e-8x"),
        ("RESIDUAL_TOL", "a number", ""),
        ("SEED", "an integer", "1.5"),
    ])
    def test_unparsable_env_value_is_named(self, capsys, remark_file, monkeypatch, name, kind, raw):
        monkeypatch.setenv("SUBSPACEKIT_" + name, raw)
        code, out, err = run(capsys, "analyze", remark_file)
        assert (code, out) == (2, "")
        assert err == f"error: SUBSPACEKIT_{name} is not {kind}: {raw!r}\n"
        # a flag for the setting wins, so the variable is never read
        flag = "--" + name.lower().replace("_", "-")
        code, report = run_json(capsys, "analyze", remark_file, flag, "3" if name == "SEED" else "3e-9")
        assert code == 0

    def test_env_format(self, capsys, remark_file, monkeypatch):
        monkeypatch.setenv("SUBSPACEKIT_FORMAT", "text")
        code, out, err = run(capsys, "analyze", remark_file)
        assert code == 0
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)
