import warnings
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, strategies as st

from subspacekit import (
    DEFAULT_TOL,
    SLOT_ATOMS,
    SLOT_NAMES,
    ConditioningError,
    ConditioningWarning,
    IdempotentWitness,
    InvariantVector,
    Subspace,
    SubspaceSystem,
    are_linearly_independent,
    atom,
    brenner_invariants,
    complement,
    compose_from_multiplicities,
    detect_double_triangle,
    detect_pentagon,
    direct_sum,
    example9_truncated,
    find_nontrivial_idempotent,
    gap,
    haar_unitary,
    hom_basis,
    is_commutative,
    is_transitive,
    map_system,
    orthonormalize,
    restrict_system,
    same_subspace,
    split_by_idempotent,
    verify_isomorphism,
)
from subspacekit.brenner import _is_double_triangle
from subspacekit.linalg import _numerical_rank
from subspacekit.systems import _eigenvalue_clusters
from conftest import corpus_spec, random_subspace


def line(*entries):
    return orthonormalize([list(entries)])


def angled_pair(theta):
    """(C^2; first axis, line at angle theta)."""
    return SubspaceSystem.of(line(1.0, 0.0), line(np.cos(theta), np.sin(theta)))


def four_lines(slope):
    """Four lines of C^2: the two axes, the diagonal and a line of the given
    slope.  Any three of the first lines already force every endomorphism
    to be scalar, so the system is indecomposable."""
    return SubspaceSystem.of(line(1, 0), line(0, 1), line(1, 1), line(1, slope))


class TestSubspaceSystem:
    def test_validates_ambient(self):
        with pytest.raises(ValueError):
            SubspaceSystem(3, (line(1, 0),))

    def test_labels_must_match_arity(self):
        with pytest.raises(ValueError):
            SubspaceSystem.of(line(1, 0), labels=("a", "b"))

    def test_direct_sum_dims(self):
        s = direct_sum(atom(2), atom(9))
        assert s.ambient_dim == 3
        assert s.dims() == (2, 1, 1)

    def test_direct_sum_arity_mismatch(self):
        pair = SubspaceSystem.of(line(1, 0), line(0, 1))
        with pytest.raises(ValueError):
            direct_sum(pair, atom(1))

    def test_map_system_preserves_dims(self):
        rng = np.random.default_rng(3)
        t = haar_unitary(3, rng) * 2.0
        mapped = map_system(t, direct_sum(atom(2), atom(9)))
        assert mapped.dims() == (2, 1, 1)

    def test_map_system_refuses_a_dropped_dimension(self):
        # a singular map folds the plane of e1 and e3 onto a line
        system = SubspaceSystem.of(orthonormalize([[1, 0, 0], [0, 0, 1]]), line(0, 1, 0))
        with pytest.raises(ConditioningError,
                           match="^image of a 2-dimensional subspace came out 1-dimensional, expected 2$"):
            map_system(np.diag([1.0, 1.0, 0.0]), system)

    def test_map_system_needs_a_square_map_of_the_ambient_size(self):
        with pytest.raises(ValueError, match=r"^map must be 3x3, got \(3, 2\)$"):
            map_system(np.ones((3, 2)), direct_sum(atom(2), atom(9)))

    def test_restrict_system_round_trip(self):
        plane = orthonormalize([[1, 0, 0], [0, 1, 0]])
        system = SubspaceSystem.of(line(1, 0, 0), line(1, 1, 0))
        restricted = restrict_system(system, plane)
        assert restricted.ambient_dim == 2
        assert restricted.dims() == (1, 1)

    def test_restrict_requires_containment(self):
        plane = orthonormalize([[1, 0, 0], [0, 1, 0]])
        with pytest.raises(ValueError):
            restrict_system(SubspaceSystem.of(line(0, 0, 1)), plane)


def labelled(system, labels):
    return SubspaceSystem(system.ambient_dim, system.subspaces, labels)


class TestNaryDirectSum:
    @staticmethod
    def assert_same_bits(a, b):
        assert (a.ambient_dim, a.labels) == (b.ambient_dim, b.labels)
        for x, y in zip(a.subspaces, b.subspaces, strict=True):
            assert (x.basis.dtype, x.basis.shape) == (y.basis.dtype, y.basis.shape)
            assert x.basis.tobytes() == y.basis.tobytes()

    def members(self):
        rng = np.random.default_rng(21)
        randoms = [
            SubspaceSystem.of(*(random_subspace(rng, n, d) for d in dims))
            for n, dims in ((4, (2, 0, 3)), (3, (3, 1, 0)), (5, (2, 2, 2)))
        ]
        real = SubspaceSystem.of(Subspace(np.eye(2)[:, :1]), Subspace.zero(2), Subspace(np.eye(2)))
        return [atom(9), randoms[0], atom(1), real, randoms[1], atom(8), randoms[2]]

    def test_equals_the_nested_two_argument_sums(self):
        # ((a + b) + c) + ... and a + (b + (c + ...))
        members = self.members()
        self.assert_same_bits(direct_sum(*members), reduce(direct_sum, members))
        right = members[-1]
        for system in reversed(members[:-1]):
            right = direct_sum(system, right)
        self.assert_same_bits(direct_sum(*members), right)

    def test_one_member(self):
        for system in self.members():
            alone = direct_sum(system)
            assert (alone.ambient_dim, alone.labels) == (system.ambient_dim, system.labels)
            for x, y in zip(alone.subspaces, system.subspaces, strict=True):
                assert x.basis.dtype == np.complex128
                assert np.array_equal(x.basis, y.basis)

    @pytest.mark.parametrize("labels", [
        (("a", "b", "c"),) * 3,
        (("a", "b", "c"), ("a", "b", "c"), ("a", "b", "x")),
        (("a", "b", "c"), None, ("a", "b", "c")),
        (None, ("a", "b", "c"), ("a", "b", "c")),
        (None, None, None),
    ])
    def test_labels_follow_the_fold(self, labels):
        members = [labelled(atom(i), given) for i, given in zip((9, 2, 7), labels)]
        expected = labels[0] if len(set(labels)) == 1 else None
        assert direct_sum(*members).labels == reduce(direct_sum, members).labels == expected

    @pytest.mark.parametrize("position", [0, 1, 3])
    def test_arity_mismatch_at_any_position(self, position):
        members = [atom(9), atom(2), atom(5), atom(8)]
        members[position] = SubspaceSystem.of(line(1, 0), line(0, 1))
        with pytest.raises(ValueError, match="cannot sum systems of arity") as folded:
            reduce(direct_sum, members)
        with pytest.raises(ValueError) as summed:
            direct_sum(*members)
        assert str(summed.value) == str(folded.value)

    def test_no_members(self):
        with pytest.raises(ValueError, match="at least one system"):
            direct_sum()


class TestHom:
    def test_no_morphisms_between_opposite_atoms(self):
        assert hom_basis(atom(2), atom(3)).dim == 0

    def test_one_morphism_into_larger_atom(self):
        assert hom_basis(atom(1), atom(2)).dim == 1

    def test_endomorphisms_of_double_triangle_are_scalars(self):
        assert hom_basis(atom(9), atom(9)).dim == 1

    def test_unconstrained_hom_is_full_matrix_space(self):
        empty = SubspaceSystem.of(Subspace.zero(2))
        full = SubspaceSystem.of(Subspace.full(3))
        basis = hom_basis(empty, SubspaceSystem.of(Subspace.zero(3)))
        assert basis.dim == 6  # all 3x2 matrices
        assert hom_basis(SubspaceSystem.of(Subspace.full(2)), full).dim == 6
        assert hom_basis(SubspaceSystem(2, ()), SubspaceSystem(3, ())).dim == 6

    def test_hom_members_are_morphisms(self):
        rng = np.random.default_rng(8)
        source = SubspaceSystem.of(random_subspace(rng, 4, 2), random_subspace(rng, 4, 1))
        target = SubspaceSystem.of(random_subspace(rng, 5, 3), random_subspace(rng, 5, 2))
        basis = hom_basis(source, target)
        for x in basis.maps:
            for e, f in zip(source.subspaces, target.subspaces):
                image = x @ e.basis
                residual = image - f.projection() @ image
                assert np.linalg.norm(residual) < 1e-8

    def test_hom_composition_lands_in_hom(self):
        # functoriality spot check on atoms with known hom spaces
        ab = hom_basis(atom(1), atom(2))
        bc = hom_basis(atom(2), atom(8))
        assert ab.dim == 1 and bc.dim == 1
        composed = bc.maps[0] @ ab.maps[0]
        # composition must satisfy the Hom(atom(1), atom(8)) constraints
        for e, f in zip(atom(1).subspaces, atom(8).subspaces):
            image = composed @ e.basis
            assert np.linalg.norm(image - f.projection() @ image) < 1e-12

    def test_transitive_examples(self):
        assert is_transitive(atom(9))
        assert is_transitive(atom(5))
        assert not is_transitive(direct_sum(atom(9), atom(9)))
        assert not is_transitive(direct_sum(atom(2), atom(3)))


def kronecker_hom(source, target, tol=DEFAULT_TOL):
    """Reference basis of Hom(source, target): the null space of all the
    constraints (B_i^T kron C_i^H) vec(X) = 0 stacked, from one SVD of
    the whole n^2-column stack at the relative rank rule."""
    m, n = target.ambient_dim, source.ambient_dim
    blocks = [np.zeros((0, m * n))]
    for e, f in zip(source.subspaces, target.subspaces):
        blocks.append(np.kron(e.basis.T, complement(f).basis.conj().T))
    _, s, vh = np.linalg.svd(np.vstack(blocks), full_matrices=True)
    return [np.reshape(row, (m, n), order="F") for row in vh[_numerical_rank(s, tol) :].conj()]


def map_space(maps, m, n):
    """The span of a list of m x n maps as a subspace of C^(mn)."""
    return Subspace(np.array([x.ravel() for x in maps]).T) if maps else Subspace.zero(m * n)


def random_hom_pair(seed):
    """Source and target systems of one arity 0-4 in C^n and C^m, m and n
    from 1 to 5, with zero and full members among the random ones."""
    rng = np.random.default_rng(seed)
    m, n, arity = (int(x) for x in rng.integers([1, 1, 0], [6, 6, 5]))
    source = SubspaceSystem(n, tuple(random_subspace(rng, n, int(rng.integers(0, n + 1))) for _ in range(arity)))
    target = SubspaceSystem(m, tuple(random_subspace(rng, m, int(rng.integers(0, m + 1))) for _ in range(arity)))
    return source, target


def four_equal_planes():
    plane = random_subspace(np.random.default_rng(6), 6, 3)
    return SubspaceSystem.of(plane, plane, plane, plane)


# Brenner's table: the index sets of the distributive atoms, and h(a, b) =
# dim Hom(atom a, atom b) over the nine atoms, the triangle among them.
INDEX_SETS = {"common": {1, 2, 3}, "pair_23": {2, 3}, "pair_13": {1, 3}, "pair_12": {1, 2},
              "single_1": {1}, "single_2": {2}, "single_3": {3}, "outside": set()}


def atom_hom_dim(a, b):
    if a == b == "triangle":
        return 1
    if b == "triangle":
        return max(0, 2 - len(INDEX_SETS[a]))
    if a == "triangle":
        return max(0, 2 - (3 - len(INDEX_SETS[b])))
    return int(INDEX_SETS[a] <= INDEX_SETS[b])


def table_end_dim(vector):
    counts = dict(zip(SLOT_NAMES, vector.as_tuple()))
    return sum(counts[a] * counts[b] * atom_hom_dim(a, b) for a in SLOT_NAMES for b in SLOT_NAMES)


class TestHomRoute:
    """hom_basis solves its largest constraint exactly and takes one SVD of
    the others, against the full Kronecker stack as reference."""

    @pytest.mark.parametrize("seed", range(60))
    def test_agrees_with_kronecker_stack(self, seed):
        source, target = random_hom_pair(seed)
        m, n = target.ambient_dim, source.ambient_dim
        basis = hom_basis(source, target)
        reference = kronecker_hom(source, target)
        assert basis.dim == len(reference)
        flat = np.array([x.ravel() for x in basis.maps]).reshape(basis.dim, m * n)
        assert np.abs(flat.conj() @ flat.T - np.eye(basis.dim)).max(initial=0.0) <= 1e-12
        for x in basis.maps:
            for e, f in zip(source.subspaces, target.subspaces):
                image = x @ e.basis
                assert np.linalg.norm(image - f.basis @ (f.basis.conj().T @ image)) <= 1e-8
        assert gap(map_space(list(basis.maps), m, n), map_space(reference, m, n)) <= DEFAULT_TOL.gap_tol

    def test_sample_covers_the_edge_cases(self):
        pairs = [random_hom_pair(seed) for seed in range(60)]
        assert any(s.ambient_dim != t.ambient_dim for s, t in pairs)
        assert any(s.arity == 0 for s, _ in pairs)
        members = [x for s, t in pairs for x in s.subspaces + t.subspaces]
        assert any(x.is_zero for x in members) and any(x.is_full for x in members)

    def test_implied_constraints_leave_a_zero_stack(self):
        # X E = E once is X E = E four times: the three repeats reduce to a
        # stack of rounding, which a relative cutoff would read as rank
        system = four_equal_planes()
        basis = hom_basis(system, system)
        assert basis.dim == 36 - 9 == len(kronecker_hom(system, system))

    @pytest.mark.parametrize("max_cond", [20.0, 1e6])
    def test_triples_match_brenner_table(self, max_cond):
        problems = []
        for i, (vector, seed, cond) in enumerate(corpus_spec(max_cond=max_cond)):
            system, _ = compose_from_multiplicities(vector, seed, cond)
            found, expected = hom_basis(system, system).dim, table_end_dim(vector)
            if found != expected:
                problems.append(f"system {i}: dim End {found}, table {expected}")
        assert problems == []

    def test_table_on_atoms(self):
        for name_a, a in zip(SLOT_NAMES, SLOT_ATOMS):
            for name_b, b in zip(SLOT_NAMES, SLOT_ATOMS):
                assert hom_basis(atom(a), atom(b)).dim == atom_hom_dim(name_a, name_b)

    @pytest.mark.parametrize("same", [True, False], ids=["endomorphisms", "between"])
    def test_one_svd_of_the_reduced_stack(self, monkeypatch, same):
        # beyond one complement of each target subspace (and of the chosen
        # source subspace unless it is the target's), one SVD with
        # mn - max (m - f_i) d_i columns
        rng = np.random.default_rng(12)
        source = SubspaceSystem.of(*(random_subspace(rng, 6, d) for d in (2, 1, 3, 4)))
        target = source if same else SubspaceSystem.of(*(random_subspace(rng, 4, d) for d in (2, 1, 1, 2)))
        m, n = target.ambient_dim, source.ambient_dim
        rows = [(m - f.dim) * e.dim for e, f in zip(source.subspaces, target.subspaces)]
        k = int(np.argmax(rows))
        shapes = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kw: shapes.append(a.shape) or svd(a, *args, **kw))
        hom_basis(source, target)
        complements = [f.basis.shape for f in target.subspaces] + ([] if same else [source.subspaces[k].basis.shape])
        assert shapes == complements + [(sum(rows) - rows[k], m * n - rows[k])]


def reference_commutative(system, tol=DEFAULT_TOL):
    """The reference route: every commutator P_a P_b - P_b P_a of two n x n
    projections within residual_tol in the 2-norm."""
    projections = [s.projection() for s in system.subspaces]
    return all(
        np.linalg.norm(pa @ pb - pb @ pa, 2) <= tol.residual_tol
        for i, pa in enumerate(projections) for pb in projections[i + 1 :]
    )


def planted_pair(product, right_angle=False):
    """Two lines of C^2 whose commutator has norm cos t sin t, within a
    relative product^2, of a small ``product``: at a small angle t, or at
    one just short of pi/2.  The small sine (or cosine) is written in
    directly, not through a rounded angle."""
    big = np.sqrt(1.0 - product**2)
    second = line(product, big) if right_angle else line(big, product)
    return SubspaceSystem.of(line(1.0, 0.0), second)


# (label, system): zero and full sides commute with everything; planted
# pairs put cos t sin t just below and just above residual_tol = 1e-8
COMMUTING = [
    ("coordinate", SubspaceSystem.of(line(1, 0), line(0, 1))),
    ("equal", SubspaceSystem.of(line(1, 0), line(1, 0))),
    ("zero", SubspaceSystem.of(Subspace.zero(2), line(1, 2))),
    ("zero-zero", SubspaceSystem.of(Subspace.zero(2), Subspace.zero(2))),
    ("full-line-zero", SubspaceSystem.of(Subspace.full(2), line(1, 2), Subspace.zero(2))),
    ("full-full", SubspaceSystem.of(Subspace.full(3), Subspace.full(3))),
    ("one", SubspaceSystem.of(line(1, 0))),
    ("below-tol-small-angle", planted_pair(0.9e-8)),
    ("below-tol-near-right-angle", planted_pair(0.9e-8, right_angle=True)),
]

NOT_COMMUTING = [
    ("angled", angled_pair(0.4)),
    ("zero-and-full-sides", SubspaceSystem.of(Subspace.zero(2), line(1, 0), Subspace.full(2), line(1, 1))),
    ("above-tol-small-angle", planted_pair(1.1e-8)),
    ("above-tol-near-right-angle", planted_pair(1.1e-8, right_angle=True)),
]


class TestCommutativity:
    def test_coordinate_pair_commutes(self):
        for label, system in COMMUTING:
            assert is_commutative(system), label
            assert reference_commutative(system), label

    def test_angled_pair_does_not(self):
        for label, system in NOT_COMMUTING:
            assert not is_commutative(system), label
            assert not reference_commutative(system), label

    def test_coordinate_subspaces_of_a_unitary_frame_commute(self):
        # commuting pairs with shared directions: the arccos of their
        # cosines reads those angles as up to ~5e-8, far above residual_tol,
        # so a route through principal_angles would call most of them
        # non-commuting; the cross-Gram reads ~1e-15
        rng = np.random.default_rng(2024)
        for _ in range(100):
            n = int(rng.integers(4, 41))
            frame = haar_unitary(n, rng)
            first, second = (frame[:, rng.random(n) < 0.5] for _ in range(2))
            system = SubspaceSystem.of(Subspace(first), Subspace(second))
            assert is_commutative(system)
            assert reference_commutative(system)

    @pytest.mark.parametrize("max_cond", [20.0, 1e6, 1e9, 1e10])
    def test_agrees_with_the_projection_commutator_on_corpus(self, max_cond):
        disagreements = []
        for index, (vector, seed, cond) in enumerate(corpus_spec(max_cond=max_cond)):
            system, _ = compose_from_multiplicities(vector, seed, cond)
            for i, j in ((0, 1), (0, 2), (1, 2)):
                pair = SubspaceSystem.of(system.subspaces[i], system.subspaces[j])
                if is_commutative(pair) != reference_commutative(pair):
                    disagreements.append((index, i, j))
        assert disagreements == []

    def test_not_invariant_under_isomorphism(self):
        # the angled pair is isomorphic to the coordinate pair, yet one
        # commutes and the other does not
        theta = 0.4
        angled = angled_pair(theta)
        coords = SubspaceSystem.of(line(1.0, 0.0), line(0.0, 1.0))
        t = np.array([[1.0, np.cos(theta)], [0.0, np.sin(theta)]])
        report = verify_isomorphism(t, coords, angled)
        assert report.passed
        assert is_commutative(coords) and not is_commutative(angled)


class TestIdempotent:
    def test_indecomposables_return_none(self):
        for k in (2, 8, 9):
            assert find_nontrivial_idempotent(atom(k)) is None

    def test_decomposable_yields_verified_split(self):
        system = direct_sum(atom(2), atom(9))
        witness = find_nontrivial_idempotent(system)
        assert witness is not None
        first, second = split_by_idempotent(system, witness)
        assert {first.ambient_dim, second.ambient_dim} == {1, 2}
        assert first.arity == second.arity == 3

    def test_deterministic_in_seed(self):
        # a triple is read off its decomposition; four subspaces run the
        # seeded search, here over End = M_2(C) of a doubled four-line system
        for system in (direct_sum(atom(2), atom(3)), direct_sum(four_lines(2), four_lines(2))):
            w1 = find_nontrivial_idempotent(system, seed=5)
            w2 = find_nontrivial_idempotent(system, seed=5)
            assert np.array_equal(w1.map, w2.map)

    def test_seed_and_trials_govern_only_the_search(self):
        triple = direct_sum(atom(2), atom(3))
        read = find_nontrivial_idempotent(triple)
        assert np.array_equal(find_nontrivial_idempotent(triple, trials=0, seed=6).map, read.map)
        four = direct_sum(four_lines(2), four_lines(2))
        assert find_nontrivial_idempotent(four, trials=0) is None
        assert not np.allclose(find_nontrivial_idempotent(four, seed=6).map,
                               find_nontrivial_idempotent(four, seed=5).map)

    def test_scrambled_decomposable_found(self):
        rng = np.random.default_rng(17)
        point = SubspaceSystem.of(line(1), Subspace.zero(1), line(1), Subspace.zero(1))
        bases = (direct_sum(atom(5), atom(9), atom(1)), direct_sum(four_lines(2), four_lines(3), point))
        for base in bases:
            t = haar_unitary(base.ambient_dim, rng)
            system = map_system(t, base)
            witness = find_nontrivial_idempotent(system)
            assert witness is not None
            p = witness.map
            assert np.linalg.norm(p @ p - p, 2) < 1e-8
            split_by_idempotent(system, witness)

    def test_corpus_triples_split_or_refuse(self):
        # every single atom reads None; every multi-atom triple is refused
        # or gives a witness that splits it, never read as indecomposable
        # (the hom_basis search read 10 of these as None).  The parts'
        # invariants add up, where the skeleton reads them: on entry 176 it
        # refuses the 15-dimensional part, as it refuses some whole triples.
        problems, refused, parts_refused = [], 0, 0
        for i, (vector, seed, cond) in enumerate(corpus_spec(max_cond=1e9)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ConditioningWarning)
                system, _ = compose_from_multiplicities(vector, seed, cond)
                if vector.total_atoms == 1:
                    if find_nontrivial_idempotent(system) is not None:
                        problems.append(f"system {i}: split a single atom")
                    continue
                try:
                    witness = find_nontrivial_idempotent(system)
                except ConditioningError:
                    refused += 1
                    continue
                if witness is None:
                    problems.append(f"system {i}: missed a split of {vector.total_atoms} atoms")
                    continue
                first, second = split_by_idempotent(system, witness)
                try:
                    parts = brenner_invariants(first) + brenner_invariants(second)
                except ConditioningError:
                    parts_refused += 1
                    continue
                if parts != vector:
                    problems.append(f"system {i}: parts do not add up to {vector.as_tuple()}")
        assert problems == []
        assert refused <= 8
        assert parts_refused <= 1

    def test_split_rejects_trivial_witness(self):
        system = direct_sum(atom(2), atom(3))
        n = system.ambient_dim
        bogus = IdempotentWitness(
            map=np.eye(n), split=(Subspace.full(n), Subspace.zero(n))
        )
        with pytest.raises(ValueError, match="trivial"):
            split_by_idempotent(system, bogus)

    @pytest.mark.parametrize("size, split, message", [
        (3, (line(1, 0), line(0, 1)), r"witness map must be 2x2, got \(3, 3\)"),
        (2, (line(1, 0, 0), line(0, 1)), "witness split lives in the wrong ambient space"),
        (2, (line(1, 0), Subspace.zero(2)), "witness split does not fill the ambient space"),
        (2, (line(0, 1), line(1, 0)), "first split part is not fixed by the witness map"),
        (2, (line(1, 0), line(1, 1)), "second split part is not annihilated by the witness map"),
    ], ids=["shape", "ambient", "fill", "fixed", "annihilated"])
    def test_split_validates_the_witness(self, size, split, message):
        # diag(1, 0) is a valid idempotent of the two coordinate lines; each
        # witness breaks one of the checks made before anything is split
        system = SubspaceSystem.of(line(1, 0), line(0, 1))
        witness = IdempotentWitness(map=np.diag([1.0] + [0.0] * (size - 1)), split=split)
        with pytest.raises(ValueError, match=f"^{message}$"):
            split_by_idempotent(system, witness)

    def test_eigenvalue_clusters_chain_and_order(self):
        # 0.7e-6 steps chain 1, 1 + 0.7e-6i, ... into one cluster at
        # resolution 1e-6 though its ends lie 2.1e-6 apart; 5 and 5 + 2e-6
        # stay apart; each cluster is sorted, ordered by its least index
        values = np.array([5.0, 1.0, 1.0 + 1.4e-6j, 3.0, 1.0 + 0.7e-6j, 5.0 + 2e-6, 1.0 + 2.1e-6j])
        clusters = _eigenvalue_clusters(values, 1e-6)
        assert [c.tolist() for c in clusters] == [[0], [1, 2, 4, 6], [3], [5]]

    def test_eigenvalue_clusters_agree_with_a_graph_search(self):
        def reference(values, resolution):
            unassigned, clusters = list(range(values.size)), []
            while unassigned:
                component = [unassigned.pop(0)]
                for i in component:
                    near = [j for j in unassigned if abs(values[i] - values[j]) < resolution]
                    unassigned = [j for j in unassigned if j not in near]
                    component += near
                clusters.append(sorted(component))
            return clusters

        rng = np.random.default_rng(7)
        for k in range(1, 25):
            centers = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            steps = np.cumsum(rng.uniform(0.0, 1.3e-6, k)) * np.exp(1j * rng.uniform(0.0, 6.3))
            values = centers[rng.integers(0, 3, k)] + steps[rng.permutation(k)]
            clusters = _eigenvalue_clusters(values, 1e-6)
            assert [c.tolist() for c in clusters] == reference(values, 1e-6)

    def test_split_rejects_non_endomorphism(self):
        system = direct_sum(atom(2), atom(3))
        # projection onto a line that is not a subsystem direction
        v = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
        p = v @ v.conj().T
        bogus = IdempotentWitness(
            map=p, split=(Subspace(v), Subspace(orthonormalize([[1.0, -1.0]]).basis))
        )
        with pytest.raises(ValueError, match="endomorphism"):
            split_by_idempotent(system, bogus)

    def test_split_reassembles_the_system(self):
        # dimensions of the parts add back up per subspace
        system = direct_sum(direct_sum(atom(2), atom(9)), atom(7))
        witness = find_nontrivial_idempotent(system)
        first, second = split_by_idempotent(system, witness)
        for i in range(3):
            total = first.subspaces[i].dim + second.subspaces[i].dim
            assert total == system.subspaces[i].dim


class TestPredicates:
    def test_are_linearly_independent(self):
        assert are_linearly_independent([line(1, 0, 0), line(0, 1, 0)])
        assert not are_linearly_independent([line(1, 0, 0), line(1, 1e-14, 0)])
        # three lines in a plane meet pairwise trivially yet are dependent
        assert not are_linearly_independent([line(1, 0, 0), line(0, 1, 0), line(1, 1, 0)])
        assert are_linearly_independent([])
        assert are_linearly_independent([Subspace.zero(2), line(1, 0)])

    def test_double_triangle_on_axes_and_diagonal(self):
        assert detect_double_triangle(atom(9))

    def test_double_triangle_rejects_shared_line(self):
        system = SubspaceSystem.of(line(1, 0), line(1, 0), line(0, 1))
        assert not detect_double_triangle(system)

    def test_double_triangle_needs_arity_three(self):
        with pytest.raises(ValueError):
            detect_double_triangle(SubspaceSystem.of(line(1, 0), line(0, 1)))

    def test_double_triangle_takes_values_only_svds(self, monkeypatch):
        # each pair is one rank of its stacked bases: no meet or join is
        # built, so no QR and no singular vectors
        system, _ = compose_from_multiplicities(InvariantVector(0, 0, 0, 0, 0, 0, 0, 3, 0), 4, 100.0)
        calls = []
        svd, qr = np.linalg.svd, np.linalg.qr
        monkeypatch.setattr(np.linalg, "svd",
                            lambda *args, **kwargs: calls.append(("svd", kwargs.get("compute_uv", True)))
                            or svd(*args, **kwargs))
        monkeypatch.setattr(np.linalg, "qr", lambda *args, **kwargs: calls.append(("qr",)) or qr(*args, **kwargs))
        assert detect_double_triangle(system)
        assert calls == [("svd", False)] * 3

    @pytest.mark.parametrize("k", [1, 2, 3, 6])
    def test_double_triangle_agrees_with_the_invariants(self, k):
        # k triangle blocks alone, and with one more block of each kind; a
        # skeleton that refuses gives no verdict to compare with
        rng = np.random.default_rng(k)
        compared = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for cond in (1.0, 1e3, 1e6, 1e9):
                for extra in (None, *range(9)):
                    counts = [0] * 9
                    counts[7] = k
                    if extra is not None:
                        counts[extra] += 1
                    system, _ = compose_from_multiplicities(counts, int(rng.integers(0, 2**31 - 1)), cond)
                    detected = detect_double_triangle(system)
                    try:
                        expected = _is_double_triangle(brenner_invariants(system))
                    except ConditioningError:
                        continue
                    assert detected == expected == (extra in (None, 7))
                    compared += 1
        assert compared >= 36

    def test_pentagon_always_false_in_finite_dimension(self):
        # even a triple engineered to satisfy two of the three conditions
        e1 = orthonormalize([[1, 0, 0], [0, 1, 0]])
        e2 = line(0, 0, 1)
        e3 = orthonormalize([[0, 0, 1], [1, 0, 0]])
        assert not detect_pentagon(SubspaceSystem.of(e1, e2, e3))

    def test_pentagon_decided_by_dimension_counts(self, monkeypatch):
        # dim E1 + dim E3 = 103 > 100: the meet cannot be zero, so no
        # join or meet has to be computed.
        system = example9_truncated(50)
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: calls.append(1) or svd(*args, **kwargs))
        assert detect_pentagon(system) is False
        assert calls == []


@given(seed=st.integers(0, 10**6))
def test_random_triples_never_form_a_pentagon(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    system = SubspaceSystem.of(
        random_subspace(rng, n, int(rng.integers(0, n + 1))),
        random_subspace(rng, n, int(rng.integers(0, n + 1))),
        random_subspace(rng, n, int(rng.integers(0, n + 1))),
    )
    assert not detect_pentagon(system)


@given(seed=st.integers(0, 10**5))
def test_transitivity_is_isomorphism_invariant(seed):
    rng = np.random.default_rng(seed)
    base = atom(int(rng.integers(1, 10)))
    t = haar_unitary(base.ambient_dim, rng)
    mapped = map_system(t, base)
    assert is_transitive(base) == is_transitive(mapped)
