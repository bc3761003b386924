import warnings

import numpy as np
import pytest

from subspacekit import (
    CASE_DISTRIBUTIVE,
    CASE_PENTAGON,
    ConditioningError,
    ConditioningWarning,
    InvariantVector,
    Subspace,
    SubspaceSystem,
    brenner,
    brenner_invariants,
    closedness_margin,
    compose_from_multiplicities,
    detect_pentagon,
    diagonal_graph_pair,
    example9_truncated,
    gap,
    haar_unitary,
    join,
    linalg,
    margin_sample_points,
    meet,
    orthonormalize,
    pentagon_split,
    same_subspace,
    systems,
)


def line(*entries):
    return orthonormalize([list(entries)])


def example9_by_orthonormalize(n):
    """Reference route for :func:`example9_truncated`: each subspace from
    the SVD of its raw spanning vectors."""
    weights = 1.0 / np.arange(1, n + 1)
    v = weights.copy()
    v[0] = 0.0
    f = weights
    flat_rows = [np.concatenate([row, np.zeros(n)]) for row in np.eye(n)]
    e1 = orthonormalize(flat_rows + [np.concatenate([np.zeros(n), v])])
    graph_rows = [np.concatenate([row, weights[i] * row]) for i, row in enumerate(np.eye(n))]
    e2 = orthonormalize(graph_rows)
    e3 = orthonormalize(
        graph_rows
        + [np.concatenate([np.zeros(n), f]), np.concatenate([np.zeros(n), v])]
    )
    return SubspaceSystem.of(e1, e2, e3)


def distributive_fixture():
    """E3 inside E1 + E2, so the triple splits completely."""
    e1 = orthonormalize([[1, 0, 0], [0, 1, 0]])
    e2 = line(0, 0, 1)
    e3 = orthonormalize([[0, 0, 1], [1, 0, 0]])
    return SubspaceSystem.of(e1, e2, e3)


def pentagon_fixture():
    """Part of E3 escapes E1 + E2, leaving a core of pentagon shape."""
    e1 = line(1, 0, 0)
    e2 = line(0, 0, 1)
    e3 = orthonormalize([[0, 0, 1], [0, 1, 1]])
    return SubspaceSystem.of(e1, e2, e3)


class TestPentagonSplit:
    def test_distributive_case(self):
        split = pentagon_split(distributive_fixture())
        assert split.case == CASE_DISTRIBUTIVE
        assert split.witness_count == 1
        assert same_subspace(split.bridge, line(1, 0, 0))
        assert same_subspace(split.base, line(0, 0, 1))
        assert same_subspace(split.first_remainder, line(0, 1, 0))
        assert split.third_outside is None and split.pentagon_part is None
        # base, bridge and remainder reassemble the whole configuration
        system = distributive_fixture()
        assert same_subspace(join(split.base, split.bridge), system.subspaces[2])
        assert same_subspace(
            join(split.bridge, split.first_remainder), system.subspaces[0]
        )

    def test_distributive_witness_components(self):
        split = pentagon_split(distributive_fixture())
        u = split.quotient_vectors
        assert u.shape[1] == 1
        # each witness is the sum of its oblique components
        assert np.allclose(u, split.first_components + split.second_components)
        # and the components live in the right subspaces
        system = distributive_fixture()
        p1 = system.subspaces[0].projection()
        assert np.allclose(p1 @ split.first_components, split.first_components)

    def test_pentagon_case(self):
        split = pentagon_split(pentagon_fixture())
        assert split.case == CASE_PENTAGON
        assert split.third_outside.dim == 1
        assert split.base is None and split.first_remainder is None
        core = split.pentagon_part
        assert core.ambient_dim == 3
        assert core.dims() == (1, 1, 2)
        # the core keeps the pentagon shape: trivial meet, strict chain
        assert meet(core.subspaces[0], core.subspaces[1]).dim == 0
        assert meet(core.subspaces[0], core.subspaces[2]).dim == 0
        assert core.subspaces[1].dim < core.subspaces[2].dim

    def test_hypothesis_failures_are_named(self, monkeypatch):
        shared = SubspaceSystem.of(line(1, 0), line(1, 0), Subspace.full(2))
        with pytest.raises(ValueError, match="nontrivial intersection"):
            pentagon_split(shared)

        not_contained = SubspaceSystem.of(line(1, 0, 0), line(0, 1, 0), line(0, 0, 1))
        # E1 = E2 fails the trivial meet too, but the containment is named
        both = SubspaceSystem.of(line(1, 0, 0), line(1, 0, 0), line(0, 0, 1))
        equal = SubspaceSystem.of(line(1, 0), line(0, 1), line(0, 1))
        # containment and strictness are checked first, with no factorization
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        with pytest.raises(ValueError, match="not contained"):
            pentagon_split(not_contained)
        with pytest.raises(ValueError, match="the second subspace is not contained in the third"):
            pentagon_split(both)
        with pytest.raises(ValueError, match="strict"):
            pentagon_split(equal)
        assert calls == []

    def test_requires_three_subspaces(self):
        with pytest.raises(ValueError):
            pentagon_split(SubspaceSystem.of(line(1, 0), line(0, 1)))

    def test_zero_second_subspace(self):
        # E1 + E2 = E1 has no pair SVD; each witness is its own first
        # component
        e3 = line(1, 1, 0)
        split = pentagon_split(SubspaceSystem.of(orthonormalize([[1, 0, 0], [0, 1, 0]]), Subspace.zero(3), e3))
        assert split.case == CASE_DISTRIBUTIVE
        assert split.witness_count == 1
        assert np.array_equal(split.first_components, split.quotient_vectors)
        assert np.array_equal(split.second_components, np.zeros((3, 1)))
        assert same_subspace(split.bridge, e3)
        assert same_subspace(split.first_remainder, line(1, -1, 0))

    def test_zero_second_subspace_in_a_turned_basis(self):
        # E2 = 0 takes the pair SVD of (E1, 0), whose pseudo-inverse lifts
        # each witness onto itself up to rounding
        turn = haar_unitary(3, np.random.default_rng(7))
        e1, e3 = Subspace(turn[:, :2]), Subspace(turn @ np.array([[1.0], [1.0], [0.0]]) / np.sqrt(2.0))
        split = pentagon_split(SubspaceSystem.of(e1, Subspace.zero(3), e3))
        assert split.case == CASE_DISTRIBUTIVE
        assert split.witness_count == 1
        assert np.abs(split.first_components - split.quotient_vectors).max() <= 1e-12
        assert np.abs(split.second_components).max() <= 1e-12
        assert same_subspace(split.bridge, e3)
        remainder = Subspace(turn @ np.array([[1.0], [-1.0], [0.0]]) / np.sqrt(2.0))
        assert same_subspace(split.first_remainder, remainder)

    def test_lifts_without_a_solve(self, monkeypatch):
        # the oblique split lifts by the SVD that gives E1 + E2
        calls = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda *a, **k: calls.append(1) or solve(*a, **k))
        assert pentagon_split(distributive_fixture()).witness_count == 1
        assert calls == []

    @pytest.mark.parametrize("vector, case, svds", [
        ((0, 2, 3, 0, 2, 0, 0, 0, 1), CASE_DISTRIBUTIVE, 11),
        ((0, 2, 3, 0, 2, 0, 2, 0, 1), CASE_PENTAGON, 12),
    ])
    def test_factorizations_per_call(self, monkeypatch, vector, case, svds):
        # E1 ∩ E2 = 0 and E2 < E3 by the multiplicities.  The skeleton takes
        # 9: three pair SVDs, the meet that gives common, three splits, the
        # join of E3's two pair meets and the triangle complement.  The split
        # adds the complement of E2 in E3's share of E1 + E2 and one
        # independence check of its parts; the pentagon case adds the join
        # that carries its core.
        system, _ = compose_from_multiplicities(InvariantVector(*vector), 5, 10.0)
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        assert pentagon_split(system).case == case
        assert len(calls) == svds


def pentagon_hypothesis_corpus(count=60, seed=2024):
    """Seeded triples with E1 ∩ E2 = 0 and E2 < E3, as ``(vector, system)``:
    only pair_23, pair_13, single_1, single_3 and outside blocks, half of
    them distributive (no single_3), scrambled at condition 1 to 1e6."""
    rng = np.random.default_rng(seed)
    for j in range(count):
        a, b, c = (int(x) for x in rng.integers(1, 5, size=3))
        d = 0 if j % 2 == 0 else int(rng.integers(1, 5))
        vector = InvariantVector(0, a, b, 0, c, 0, d, 0, int(rng.integers(0, 4)))
        system, _ = compose_from_multiplicities(vector, int(rng.integers(2**31)), float(10.0 ** rng.uniform(0, 6)))
        yield vector, system


class TestSkeletonPieces:
    def test_split_reads_the_planted_blocks(self):
        # the bridge is pair_13, the remainder single_1 and the outside
        # part single_3; the core is a direct sum of pair_23, single_1 and
        # single_3 blocks, in the planted counts
        for vector, system in pentagon_hypothesis_corpus():
            found = brenner_invariants(system)
            assert found == vector
            split = pentagon_split(system)
            assert split.case == (CASE_PENTAGON if found.single_3 > 0 else CASE_DISTRIBUTIVE)
            assert split.bridge.dim == split.witness_count == found.pair_13
            if split.case == CASE_DISTRIBUTIVE:
                assert split.first_remainder.dim == found.single_1
                assert split.third_outside is None and split.pentagon_part is None
            else:
                assert split.third_outside.dim == found.single_3
                assert split.first_remainder is None
                core = brenner_invariants(split.pentagon_part)
                assert core == InvariantVector(0, vector.pair_23, 0, 0, vector.single_1, 0, vector.single_3, 0, 0)


class TestSplitChecks:
    """What holds by construction fails as a ConditioningError, and each
    guard that stays fires when its rank decision is off by one."""

    DISTRIBUTIVE = InvariantVector(0, 2, 3, 0, 2, 0, 0, 0, 1)
    PENTAGON = InvariantVector(0, 2, 3, 0, 2, 0, 2, 0, 1)

    def test_failed_containment_is_a_conditioning_failure(self):
        # E1 ∩ E2 = 0 and E2 strictly inside E3, yet at scramble condition
        # 1.79e8 the skeleton's E3 share of E1 + E2 fails to hold the join
        # of E1 ∩ E3 and E2 ∩ E3 numerically
        vector = InvariantVector(0, 4, 4, 0, 1, 0, 0, 0, 1)
        system, _ = compose_from_multiplicities(vector, 765229680, 1.79e8)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConditioningWarning)
            with pytest.raises(ConditioningError, match="holds by construction"):
                pentagon_split(system)

    def test_lost_direction_of_the_third_share(self, monkeypatch):
        # the skeleton's E3 share of E1 + E2 comes out one dimension short,
        # so it no longer holds E3's shared part
        system, _ = compose_from_multiplicities(self.DISTRIBUTIVE, 5, 10.0)
        split = brenner._split

        def lossy(e, beyond, tol):
            single, inside, outside = split(e, beyond, tol)
            if e is system.subspaces[2]:
                inside = Subspace(inside.basis[:, :-1])
            return single, inside, outside

        monkeypatch.setattr(brenner, "_split", lossy)
        with pytest.raises(ConditioningError, match="holds by construction"):
            pentagon_split(system)

    @pytest.mark.parametrize("vector, label", [(DISTRIBUTIVE, "split parts"), (PENTAGON, "pentagon parts")])
    def test_dependent_parts(self, monkeypatch, vector, label):
        system, _ = compose_from_multiplicities(vector, 5, 10.0)
        stacked_rank = systems._stacked_rank
        monkeypatch.setattr(systems, "_stacked_rank", lambda subspaces, tol: stacked_rank(subspaces, tol) - 1)
        with pytest.raises(ConditioningError, match=f"{label} are numerically dependent"):
            pentagon_split(system)

    @staticmethod
    def short_meets(monkeypatch, short):
        """Make the skeleton's pair meets one short on the pairs ``short`` picks."""
        meet_join = brenner._meet_join

        def lossy(a, b, tol):
            meet, joined, factors = meet_join(a, b, tol)
            if short(a, b) and meet.dim:
                meet = Subspace(meet.basis[:, :-1])
            return meet, joined, factors

        monkeypatch.setattr(brenner, "_meet_join", lossy)

    def test_bridge_one_short(self, monkeypatch):
        # every pair meet one short leaves the bridge pair_13 and pair_23
        # one short: the skeleton's triangle count no longer matches
        system, _ = compose_from_multiplicities(self.DISTRIBUTIVE, 5, 10.0)
        self.short_meets(monkeypatch, lambda a, b: True)
        with pytest.raises(ConditioningError, match="triangle multiplicities disagree: 1 by the counts, 2 beyond"):
            pentagon_split(system)

    def test_bridge_alone_one_short(self, monkeypatch):
        # E1 ∩ E3 alone one short passes the skeleton's counts as a triangle
        # block, which E2 inside E3 rules out
        system, _ = compose_from_multiplicities(self.DISTRIBUTIVE, 5, 10.0)
        e1, _, e3 = system.subspaces
        self.short_meets(monkeypatch, lambda a, b: a is e1 and b is e3)
        with pytest.raises(ConditioningError, match="E2 lies in E3, yet the skeleton gives it 0 single and 1 triangle"):
            pentagon_split(system)


class TestTruncatedExample:
    def test_dimensions(self):
        system = example9_truncated(2)
        assert system.ambient_dim == 4
        assert system.dims() == (3, 2, 4)

    @pytest.mark.parametrize("n", [2, 3, 5, 10])
    def test_never_a_pentagon_at_finite_size(self, n):
        assert not detect_pentagon(example9_truncated(n))

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_chain_holds_but_meet_fails(self, n):
        # the containment hypothesis holds at every truncation; only the
        # trivial-meet hypothesis breaks, and it breaks by exactly one line
        system = example9_truncated(n)
        e1, e2, e3 = system.subspaces
        assert e2.dim < e3.dim
        assert meet(e2, e3).dim == e2.dim
        assert meet(e1, e2).dim == 1

    @pytest.mark.parametrize("n", [2, 3, 10, 50, 200])
    def test_closed_form_matches_orthonormalize_route(self, n):
        system, reference = example9_truncated(n), example9_by_orthonormalize(n)
        assert system.dims() == reference.dims()
        for built, expected in zip(system.subspaces, reference.subspaces):
            assert gap(built, expected) <= 1e-12
            assert gap(expected, built) <= 1e-12

    def test_factorizes_only_the_two_column_residual(self, monkeypatch):
        widths = {"svd": [], "qr": []}
        for name in widths:
            original = getattr(np.linalg, name)

            def counted(a, *args, _original=original, _widths=widths[name], **kwargs):
                _widths.append(np.shape(a)[-1])
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        assert example9_truncated(200).dims() == (201, 200, 202)
        assert widths == {"svd": [2], "qr": []}

    def test_rejects_tiny_truncation(self):
        with pytest.raises(ValueError):
            example9_truncated(1)

    def test_residual_one_short_is_refused(self, monkeypatch):
        column_span = linalg._column_span
        monkeypatch.setattr(linalg, "_column_span", lambda m, tol: column_span(m, tol)[:, :-1])
        with pytest.raises(ConditioningError, match=(
            r"^residual of \(0, f\) and \(0, v\) against the graph came out 1-dimensional, expected 2$"
        )):
            example9_truncated(5)


class TestClosednessMargin:
    @pytest.mark.parametrize("n", [1, 5, 50, 1000])
    def test_diagonal_graph_margin_formula(self, n):
        flat, graph = diagonal_graph_pair(n)
        weights = 1.0 / np.arange(1, n + 1)
        graph_rows = [np.concatenate([row, weights[i] * row]) for i, row in enumerate(np.eye(n))]
        assert same_subspace(graph, orthonormalize(graph_rows))
        margin = closedness_margin(flat, graph)
        assert margin.truncation_dim == 2 * n
        assert abs(margin.min_positive_angle - np.arctan(1.0 / n)) < 1e-9

    def test_margin_decreases_with_size(self):
        values = []
        for n in (10, 100, 1000):
            flat, graph = diagonal_graph_pair(n)
            values.append(closedness_margin(flat, graph).min_positive_angle)
        assert values[0] > values[1] > values[2] > 0.0

    def test_contained_pair_has_no_margin(self):
        inner = line(1, 0, 0)
        outer = orthonormalize([[1, 0, 0], [0, 1, 0]])
        with pytest.raises(ValueError, match="no strictly positive"):
            closedness_margin(inner, outer)

    def test_shared_directions_are_ignored(self):
        # one common line plus one angled line: margin sees only the angle
        a = orthonormalize([[1, 0, 0], [0, 1, 0]])
        b = orthonormalize([[1, 0, 0], [0, np.cos(0.3), np.sin(0.3)]])
        margin = closedness_margin(a, b)
        assert abs(margin.min_positive_angle - 0.3) < 1e-12


class TestSamplePoints:
    def test_small(self):
        assert margin_sample_points(2) == [2]
        assert margin_sample_points(7) == [2, 3, 5, 7]

    def test_always_ends_at_n(self):
        points = margin_sample_points(1234)
        assert points[-1] == 1234
        assert points == sorted(points)

    def test_rejects_below_two(self):
        with pytest.raises(ValueError):
            margin_sample_points(1)
