"""Generated inputs, the tracer and the factorization counter, on small
pools run through the real CLI."""

import numpy as np
import pytest

import oracle
import run
import spans
import subspacekit
import subspacekit.brenner as brenner
import subspacekit.cli as cli
import subspacekit.linalg as linalg
import workloads


def small_pools(directory, seed):
    """A twelve-entry small_mixed pool and a one-entry large_dense pool at n = 16."""
    (directory / "small").mkdir(parents=True)
    (directory / "dense").mkdir()
    small = workloads.small_mixed(str(directory / "small"), seed, entries=12)
    dense = workloads.large_dense(str(directory / "dense"), seed, dims=(16,))
    return small.ops + dense.ops


def test_generated_inputs_are_answered_right(tmp_path):
    ops = small_pools(tmp_path, 3)
    for op in ops:
        _, verdict, _ = run.run_op(cli, op, oracle)
        assert verdict.outcome != oracle.WRONG, (op.argv, verdict)
    assert {op.command for op in ops} == {"decompose", "isomorphic"}
    assert any(op.truth["mult"] != op.truth["mult_b"] for op in ops if op.command == "isomorphic")


def test_analyze_lab_inputs_are_answered_right(tmp_path):
    pool = workloads.analyze_lab(str(tmp_path), 5)
    commands = [op.command for op in pool.ops]
    assert commands.count("analyze") == 24 and commands.count("pentagon") == 16
    cases = set()
    for op in pool.ops:
        _, verdict, _ = run.run_op(cli, op, oracle)
        assert verdict.outcome == oracle.OK, (op.argv, verdict)
        if "mult" in op.truth and op.command == "pentagon":
            cases.add(op.truth["mult"][6] == 0)
    assert cases == {True, False}


def test_same_seed_same_inputs(tmp_path):
    first = [(op.argv[0], op.truth, op.cond) for op in small_pools(tmp_path / "first", 7)]
    second = [(op.argv[0], op.truth, op.cond) for op in small_pools(tmp_path / "second", 7)]
    assert first == second


def lapack_counts(ops):
    """Per-op factorization counts of one traced pass."""
    with spans.Tracer() as tracer:
        phase = run.measure(workloads.Pool(ops), 0.0, cli, oracle, tracer)
    return phase.pass_counts[0], tracer


def test_factorization_counts_repeat_exactly(tmp_path):
    first, tracer = lapack_counts(small_pools(tmp_path / "first", 11))
    second, _ = lapack_counts(small_pools(tmp_path / "second", 11))
    assert first == second
    assert sum(c[run.LAPACK_KEYS.index("lapack.svd")] for c in first) > 0
    assert tracer.calls["systems.hom_basis"] == 0
    assert tracer.calls["brenner.invariants"] > 0


def test_tracer_restores_everything():
    originals = (np.linalg.svd, np.linalg.norm, brenner.meet, linalg.meet, subspacekit.meet,
                 linalg.Subspace.__post_init__, cli.main, cli.json)
    with spans.Tracer():
        assert brenner.meet is not originals[2] and brenner.meet is linalg.meet
        assert np.linalg.svd is not originals[0]
    assert (np.linalg.svd, np.linalg.norm, brenner.meet, linalg.meet, subspacekit.meet,
            linalg.Subspace.__post_init__, cli.main, cli.json) == originals


def test_norm2_counts_matrix_two_norms_only():
    matrix = np.arange(6.0).reshape(2, 3)
    with spans.Tracer() as tracer:
        expected = np.linalg.svd(matrix, compute_uv=False)[0]
        assert np.linalg.norm(matrix, 2) == pytest.approx(expected)
        np.linalg.norm(matrix)
        np.linalg.norm(matrix[0], 2)
    assert tracer.calls["lapack.norm2"] == 1
    assert tracer.calls["lapack.svd"] == 1
    assert tracer.elements == 12


def test_self_time_excludes_children():
    with spans.Tracer() as tracer:
        a = linalg.orthonormalize(np.eye(4)[:2])
        b = linalg.orthonormalize(np.eye(4)[1:3])
        brenner.meet(a, b)
    assert tracer.calls["linalg.meet"] == 1
    assert tracer.self_seconds["linalg"] < tracer.seconds["linalg.meet"] + tracer.seconds["linalg.orthonormalize"]
    assert tracer.seconds["lapack.svd"] > 0.0



def test_bytes_in_counts_what_the_cli_reads(tmp_path):
    pool = workloads.large_dense(str(tmp_path), 2, dims=(8,))
    decompose, isomorphic = pool.ops[:2]
    with spans.Tracer() as tracer:
        run.run_op(cli, decompose, oracle)
    assert tracer.bytes_in == decompose.bytes_in
    with spans.Tracer() as tracer:
        run.run_op(cli, isomorphic, oracle)
    assert tracer.bytes_in == isomorphic.bytes_in
