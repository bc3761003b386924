from functools import reduce

import numpy as np
import pytest

from subspacekit import (
    InvariantVector,
    SLOT_ATOMS,
    Subspace,
    SubspaceSystem,
    atom,
    compose_from_multiplicities,
    direct_sum,
    haar_unitary,
    is_transitive,
    map_system,
    meet,
    orthonormalize,
    remark_example,
    same_subspace,
)
from conftest import corpus_spec

MEMBERSHIP = {
    1: (0, 0, 0),
    2: (1, 0, 0),
    3: (0, 1, 0),
    4: (0, 0, 1),
    5: (1, 1, 0),
    6: (1, 0, 1),
    7: (0, 1, 1),
    8: (1, 1, 1),
}


class TestAtoms:
    @pytest.mark.parametrize("index, dims", list(MEMBERSHIP.items()))
    def test_one_dimensional_atoms(self, index, dims):
        system = atom(index)
        assert system.ambient_dim == 1
        assert system.dims() == dims

    def test_double_triangle_atom(self):
        system = atom(9)
        assert system.ambient_dim == 2
        assert system.dims() == (1, 1, 1)
        # pairwise skew lines
        for i in range(3):
            for j in range(i + 1, 3):
                assert meet(system.subspaces[i], system.subspaces[j]).dim == 0

    def test_every_atom_is_indecomposable(self):
        for index in range(1, 10):
            assert is_transitive(atom(index))

    def test_bad_index(self):
        with pytest.raises(ValueError):
            atom(0)
        with pytest.raises(ValueError):
            atom(10)

    def test_slot_table_is_a_permutation(self):
        assert sorted(SLOT_ATOMS) == list(range(1, 10))

    @pytest.mark.parametrize("index", range(1, 10))
    def test_atoms_are_built_once_and_read_only(self, index):
        system = atom(index)
        assert atom(index) is system
        for s in system.subspaces:
            assert not s.basis.flags.writeable
            with pytest.raises(ValueError):
                s.basis[...] = 0.0


class TestHaarUnitary:
    def test_unitarity(self):
        rng = np.random.default_rng(0)
        u = haar_unitary(5, rng)
        assert np.allclose(u.conj().T @ u, np.eye(5), atol=1e-12)

    def test_deterministic_in_rng_state(self):
        a = haar_unitary(4, np.random.default_rng(9))
        b = haar_unitary(4, np.random.default_rng(9))
        assert np.array_equal(a, b)


class TestCompose:
    def test_dimension_bookkeeping(self):
        v = InvariantVector(1, 0, 0, 1, 0, 2, 0, 1, 1)
        system, scramble = compose_from_multiplicities(v, seed=0)
        assert system.ambient_dim == v.total_dim
        assert scramble.shape == (v.total_dim, v.total_dim)

    def test_deterministic(self):
        v = InvariantVector(0, 1, 0, 0, 1, 0, 0, 1, 0)
        a, sa = compose_from_multiplicities(v, seed=77, cond_bound=9.0)
        b, sb = compose_from_multiplicities(v, seed=77, cond_bound=9.0)
        assert np.array_equal(sa, sb)
        for x, y in zip(a.subspaces, b.subspaces):
            assert np.array_equal(x.basis, y.basis)

    def test_unit_cond_bound_gives_unitary_scramble(self):
        v = InvariantVector(1, 0, 0, 0, 0, 0, 0, 1, 0)
        _, scramble = compose_from_multiplicities(v, seed=5, cond_bound=1.0)
        n = scramble.shape[0]
        assert np.allclose(scramble.conj().T @ scramble, np.eye(n), atol=1e-12)

    def test_cond_bound_is_respected(self):
        v = InvariantVector(0, 0, 0, 0, 0, 0, 0, 2, 0)
        _, scramble = compose_from_multiplicities(v, seed=8, cond_bound=15.0)
        assert np.linalg.cond(scramble) <= 15.0 + 1e-6

    def test_accepts_plain_iterable(self):
        system, _ = compose_from_multiplicities([0, 0, 0, 0, 1, 0, 0, 0, 0], seed=1)
        assert system.dims() == (1, 0, 0)

    def test_rejects_empty_and_bad_bounds(self):
        with pytest.raises(ValueError):
            compose_from_multiplicities([0] * 9, seed=0)
        v = InvariantVector(1, 0, 0, 0, 0, 0, 0, 0, 0)
        with pytest.raises(ValueError):
            compose_from_multiplicities(v, seed=0, cond_bound=0.5)
        with pytest.raises(ValueError):
            compose_from_multiplicities(v, seed=0, cond_bound=float("inf"))


def folded_composition(vector, seed, cond_bound):
    """compose_from_multiplicities as a fold of the two-argument
    direct_sum over atoms in slot order, then the seeded scramble."""
    blocks = [atom(i) for count, i in zip(vector.as_tuple(), SLOT_ATOMS) for _ in range(count)]
    base = reduce(direct_sum, blocks)
    n = base.ambient_dim
    rng = np.random.default_rng(seed)
    u, v = haar_unitary(n, rng), haar_unitary(n, rng)
    stretch = np.exp(rng.uniform(0.0, np.log(cond_bound), size=n))
    scramble = u @ (stretch[:, None] * v)
    return map_system(scramble, base), scramble


def one_hot(slot):
    counts = [0] * 9
    counts[slot] = 1
    return InvariantVector(*counts)


EDGE_VECTORS = [one_hot(slot) for slot in range(9)] + [
    InvariantVector(0, 0, 0, 0, 0, 0, 0, 3, 0),  # triangles only
    InvariantVector(0, 0, 0, 0, 0, 0, 0, 0, 4),  # only outside: every subspace is zero
    InvariantVector(0, 0, 0, 0, 0, 0, 2, 0, 1),  # E1 and E2 are zero
    InvariantVector(3, 0, 0, 0, 0, 0, 0, 0, 0),  # every subspace is the whole space
]


class TestComposeMatchesTheFold:
    """The one n-ary direct_sum gives the bits the two-argument fold gave."""

    @staticmethod
    def assert_same_bits(got, expected):
        def arrays(composed):
            system, scramble = composed
            assert system.arity == 3 and system.labels is None
            return [s.basis for s in system.subspaces] + [scramble]

        for a, b in zip(arrays(got), arrays(expected)):
            assert (a.dtype, a.shape) == (b.dtype, b.shape)
            assert a.tobytes() == b.tobytes()

    def test_corpus(self):
        for vector, seed, cond in corpus_spec(max_cond=1e6):
            self.assert_same_bits(
                compose_from_multiplicities(vector, seed, cond), folded_composition(vector, seed, cond)
            )

    @pytest.mark.parametrize("cond", [1.0, 1e3, 1e9])
    @pytest.mark.parametrize("vector", EDGE_VECTORS, ids=lambda v: ",".join(map(str, v.as_tuple())))
    def test_edge_vectors(self, vector, cond):
        self.assert_same_bits(
            compose_from_multiplicities(vector, 11, cond), folded_composition(vector, 11, cond)
        )

    @pytest.mark.parametrize("vector", [one_hot(0), InvariantVector(1, 2, 0, 1, 3, 0, 1, 4, 2),
                                        InvariantVector(3, 3, 3, 3, 3, 3, 3, 3, 3)],
                             ids=["one atom", "14 atoms", "27 atoms"])
    def test_subspace_constructions_do_not_grow_with_the_atoms(self, monkeypatch, vector):
        # one sum and one image of each of the three subspaces, by the
        # checked or the unchecked route; the atoms are built once, when
        # the module is imported
        built = []
        post_init, unchecked = Subspace.__post_init__, Subspace._unchecked.__func__
        monkeypatch.setattr(Subspace, "__post_init__", lambda s: built.append(1) or post_init(s))
        monkeypatch.setattr(Subspace, "_unchecked", classmethod(lambda cls, b: built.append(1) or unchecked(cls, b)))
        compose_from_multiplicities(vector, 3, 10.0)
        assert len(built) == 2 * 3


class TestRemarkExample:
    def test_shape(self):
        system = remark_example()
        assert system.ambient_dim == 3
        assert system.dims() == (2, 2, 1)

    def test_contents(self):
        e1, e2, e3 = remark_example().subspaces
        assert same_subspace(e1, orthonormalize([[1, 0, 0], [0, 0, 1]]))
        assert same_subspace(e2, orthonormalize([[0, 1, 0], [0, 0, 1]]))
        assert same_subspace(e3, orthonormalize([[1, 1, 1]]))
