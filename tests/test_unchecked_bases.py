"""Reference test for the bases the package stores without the
orthonormality check.

``Subspace._unchecked`` keeps a basis that is orthonormal by construction
without the k x k Gram check of ``Subspace(...)``.  Here every such
construction runs through the public check instead, as ``kronecker_hom``
serves ``hom_basis``, on the corpora, the example-9 truncations and
scrambled four-subspace sums, and no construction may fail it.
"""

import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import corpus_spec
from subspacekit import (
    DEFAULT_TOL,
    ConditioningError,
    Subspace,
    SubspaceSystem,
    brenner,
    brenner_decompose,
    compose_from_multiplicities,
    diagonal_graph_pair,
    direct_sum,
    example9_truncated,
    halmos_decompose,
    haar_unitary,
    hom_basis,
    map_system,
    margin_sample_points,
    orthonormalize,
    split_by_idempotent,
    systems,
    verify_brenner,
)
from subspacekit.catalog import _build_atom
from test_source import package_calls
from test_systems import four_lines

# (four-lines blocks, one-dimensional blocks) of the scrambled
# four-subspace sums, the shapes the analyze_lab benchmark draws
FOUR_SUBSPACE_SHAPES = ((1, 0), (0, 1), (1, 2), (2, 2), (2, 4), (3, 4), (4, 4), (5, 4), (6, 4), (6, 2), (8, 0))


@pytest.fixture
def checked(monkeypatch):
    """Route ``Subspace._unchecked`` through ``Subspace(...)``; yields the
    record of the sites reached, as ``(module file, function)``, and of the
    constructions the check refused, with its message.  A refused basis is
    stored unchecked so that the computation, and the record, go on."""
    unchecked = Subspace._unchecked.__func__
    record = {"sites": set(), "failures": []}

    def through_the_check(cls, basis):
        caller = sys._getframe(1)
        while caller.f_code.co_name in ("<genexpr>", "<listcomp>"):  # the enclosing function, as the AST reads it
            caller = caller.f_back
        site = (Path(caller.f_code.co_filename).name, caller.f_code.co_name)
        record["sites"].add(site)
        try:
            return cls(basis)
        except ValueError as exc:
            record["failures"].append((site, str(exc)))
            return unchecked(cls, basis)

    monkeypatch.setattr(Subspace, "_unchecked", classmethod(through_the_check))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield record


def refused_or_done(call):
    """Run ``call``; a :class:`ConditioningError` is an answer here, since
    only the constructions made before it are under test."""
    try:
        return call()
    except ConditioningError:
        return None


def exercise_triple(system):
    """Every route a triple takes: the decomposition and its verifier, the
    idempotent witness, the isomorphism witness and the three Halmos pairs."""
    decomposition = refused_or_done(lambda: brenner_decompose(system))
    if decomposition is not None:
        verify_brenner(system, decomposition)
        refused_or_done(lambda: brenner._atom_idempotent(system, decomposition, DEFAULT_TOL))
    refused_or_done(lambda: brenner._invariants_and_witness(system, system, DEFAULT_TOL))
    e1, e2, e3 = system.subspaces
    for a, b in ((e1, e2), (e1, e3), (e2, e3)):
        refused_or_done(lambda: halmos_decompose(a, b))


def point_block(membership):
    """The four-subspace atom in C^1 that each subspace holds or misses."""
    return SubspaceSystem.of(*(Subspace.full(1) if held else Subspace.zero(1) for held in membership))


def four_subspace_sum(rng, lines_blocks, point_blocks, cond):
    """A direct sum of four-lines blocks (random slopes) and point blocks,
    scrambled by a random map of condition at most ``cond``."""
    blocks = [four_lines(complex(*rng.standard_normal(2))) for _ in range(lines_blocks)]
    blocks += [point_block(rng.integers(0, 2, size=4)) for _ in range(point_blocks)]
    base = direct_sum(*(blocks[i] for i in rng.permutation(len(blocks))))
    n = base.ambient_dim
    stretch = np.exp(rng.uniform(0.0, np.log(cond), size=n))
    return map_system(haar_unitary(n, rng) @ (stretch[:, None] * haar_unitary(n, rng)), base)


def exercise_four_subspace_sum(system, seed):
    endos = hom_basis(system, system)
    witness = systems._search_idempotent(system, endos, DEFAULT_TOL, systems._SEARCH_TRIALS, seed)
    if witness is not None:
        refused_or_done(lambda: split_by_idempotent(system, witness))


@pytest.mark.parametrize("max_cond", [20.0, 1e6, 1e9, 1e10], ids=lambda m: f"cond {m:g}")
def test_corpus_passes_the_public_check(checked, max_cond):
    for vector, seed, cond in corpus_spec(max_cond=max_cond):
        system, _ = compose_from_multiplicities(vector, seed, cond)
        exercise_triple(system)
    assert checked["failures"] == []
    assert {("brenner.py", "_normal_form"), ("two_subspaces.py", "_halmos_parts")} <= checked["sites"]


def test_truncations_pass_the_public_check(checked):
    for m in margin_sample_points(200):
        diagonal_graph_pair(m)
        example9_truncated(m)
    assert checked["failures"] == []
    assert {("pentagon.py", "diagonal_graph_pair"), ("pentagon.py", "example9_truncated")} <= checked["sites"]


def test_four_subspace_sums_pass_the_public_check(checked):
    rng = np.random.default_rng(28)
    for draw in range(2):
        for lines_blocks, point_blocks in FOUR_SUBSPACE_SHAPES:
            system = four_subspace_sum(rng, lines_blocks, point_blocks, float(rng.uniform(1.0, 20.0)))
            exercise_four_subspace_sum(system, draw)
    assert checked["failures"] == []
    assert {("systems.py", "_accept_idempotent"), ("systems.py", "_in_carrier_coords")} <= checked["sites"]


def test_reference_inputs_reach_every_unchecked_site(checked):
    # a few of each input above, plus the constructions they do not reach:
    # the catalog atoms (built at import), the full space and orthonormalize
    for vector, seed, cond in corpus_spec(count=30):
        exercise_triple(compose_from_multiplicities(vector, seed, cond)[0])
    example9_truncated(5)
    diagonal_graph_pair(5)
    rng = np.random.default_rng(3)
    exercise_four_subspace_sum(four_subspace_sum(rng, 2, 2, 5.0), 0)
    _build_atom("triangle")
    Subspace.full(3)
    orthonormalize(rng.standard_normal((2, 4)))
    assert checked["failures"] == []
    assert checked["sites"] == set(package_calls("_unchecked"))
