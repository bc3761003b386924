import dataclasses
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import corpus_spec
from subspacekit import (
    DEFAULT_TOL,
    ConditioningError,
    ConditioningWarning,
    InvariantVector,
    SLOT_ATOMS,
    SLOT_NAMES,
    Subspace,
    SubspaceSystem,
    atom,
    brenner,
    brenner_decompose,
    brenner_invariants,
    complement,
    complement_within,
    compose_from_multiplicities,
    direct_sum,
    gap,
    haar_unitary,
    is_isomorphic_three,
    isomorphism_between,
    join,
    map_system,
    meet,
    normalize_double_triangle,
    orthonormalize,
    remark_example,
    restrict_system,
    same_subspace,
    systems,
    two_subspaces,
    verify_brenner,
    verify_isomorphism,
)


def line(*entries):
    return orthonormalize([list(entries)])


REMARK_INVARIANTS = InvariantVector(0, 0, 0, 1, 0, 0, 0, 1, 0)


class TestInvariantVector:
    def test_slot_count_and_names(self):
        assert len(SLOT_NAMES) == 9
        assert len(SLOT_ATOMS) == 9

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            InvariantVector(-1, 0, 0, 0, 0, 0, 0, 0, 0)

    def test_round_trip(self):
        v = InvariantVector.from_iterable(range(9))
        assert v.as_tuple() == tuple(range(9))

    def test_totals(self):
        v = InvariantVector(1, 1, 1, 1, 1, 1, 1, 2, 1)
        assert v.total_atoms == 8 + 2
        # the triangle slot occupies twice its multiplicity
        assert v.total_dim == 8 + 2 * 2

    def test_addition(self):
        a = InvariantVector.from_iterable([1] * 9)
        assert (a + a).as_tuple() == (2,) * 9


class TestAtomInvariants:
    @pytest.mark.parametrize("slot, index", list(enumerate(SLOT_ATOMS)))
    def test_each_atom_hits_one_slot(self, slot, index):
        v = brenner_invariants(atom(index))
        expected = [0] * 9
        expected[slot] = 1
        assert v.as_tuple() == tuple(expected)

    def test_additive_under_direct_sum(self):
        a = brenner_invariants(atom(5))
        b = brenner_invariants(atom(9))
        combined = brenner_invariants(direct_sum(atom(5), atom(9)))
        assert combined == a + b


class TestRemarkExample:
    """Two planes and a line in C^3 with a one-dimensional triangle part."""

    def test_invariants(self):
        assert brenner_invariants(remark_example()) == REMARK_INVARIANTS

    def test_triangle_family_directions(self):
        d = brenner_decompose(remark_example())
        assert same_subspace(d.pair_12, line(0, 0, 1))
        assert same_subspace(d.triangle_1, line(1, 0, 0.5))
        assert same_subspace(d.triangle_2, line(0, 1, 0.5))
        assert same_subspace(d.triangle_3, line(1, 1, 1))
        assert d.residual < 1e-12
        assert d.trusted

    def test_verifier_accepts_construction(self):
        system = remark_example()
        d = brenner_decompose(system)
        check = verify_brenner(system, d)
        assert check.passed
        assert check.max_gap < 1e-10
        assert check.spanning_deficit == 0

    def test_verifier_accepts_alternative_triangle_family(self):
        # triangle families are not unique; any transversal pair works
        system = remark_example()
        d = brenner_decompose(system)
        alt = dataclasses.replace(
            d,
            triangle_1=line(1, 0, 1 / 3),
            triangle_2=line(0, 1, 2 / 3),
        )
        check = verify_brenner(system, alt)
        assert check.passed

    def test_verifier_rejects_wrong_triangle_family(self):
        system = remark_example()
        d = brenner_decompose(system)
        # first triangle family not inside the first subspace
        bad = dataclasses.replace(d, triangle_1=line(1, 1, 0))
        assert not verify_brenner(system, bad).passed


class TestDecompose:
    def test_scramble_invariance(self):
        rng = np.random.default_rng(23)
        base = direct_sum(direct_sum(atom(9), atom(5)), atom(2))
        t = haar_unitary(base.ambient_dim, rng) * 1.7
        scrambled = map_system(t, base)
        assert brenner_invariants(scrambled) == brenner_invariants(base)

    def test_composed_system_recovers_multiplicities(self):
        v = InvariantVector(1, 0, 2, 0, 1, 0, 0, 2, 1)
        system, _ = compose_from_multiplicities(v, seed=11, cond_bound=10.0)
        d = brenner_decompose(system)
        assert d.invariants == v
        check = verify_brenner(system, d)
        assert check.passed

    def test_change_of_basis_reaches_normal_form(self):
        v = InvariantVector(0, 1, 0, 1, 0, 0, 1, 1, 0)
        system, _ = compose_from_multiplicities(v, seed=3, cond_bound=5.0)
        d = brenner_decompose(system)
        assert d.residual < 1e-8
        # the two composed copies of the same multiplicities are isomorphic
        other, _ = compose_from_multiplicities(v, seed=4, cond_bound=5.0)
        witness = isomorphism_between(system, other)
        report = verify_isomorphism(witness, system, other)
        assert report.passed

    def test_zero_system(self):
        z = Subspace.zero(3)
        d = brenner_decompose(SubspaceSystem.of(z, z, z))
        assert d.invariants == InvariantVector(0, 0, 0, 0, 0, 0, 0, 0, 3)
        assert d.residual == 0.0

    def test_full_system(self):
        f = Subspace.full(2)
        d = brenner_decompose(SubspaceSystem.of(f, f, f))
        assert d.invariants == InvariantVector(2, 0, 0, 0, 0, 0, 0, 0, 0)

    def test_requires_three_subspaces(self):
        with pytest.raises(ValueError):
            brenner_decompose(SubspaceSystem.of(line(1, 0), line(0, 1)))

    def test_verifier_flags_dropped_block(self):
        system, _ = compose_from_multiplicities(
            InvariantVector(0, 0, 0, 0, 0, 0, 0, 0, 2), seed=2
        )
        d = brenner_decompose(system)
        dropped = dataclasses.replace(d, outside=Subspace.zero(system.ambient_dim))
        check = verify_brenner(system, dropped)
        assert check.spanning_deficit == 2
        assert not check.passed


ALL_SLOTS = InvariantVector(1, 1, 1, 1, 1, 1, 1, 1, 1)


def drop_last_direction(subspace):
    return Subspace(subspace.basis[:, :-1])


NORMAL_FORM_VECTORS = [InvariantVector(*(int(i == slot) for i in range(9))) for slot in range(9)] + [
    ALL_SLOTS,
    InvariantVector(0, 0, 0, 0, 0, 0, 0, 3, 0),
    InvariantVector(2, 0, 1, 3, 0, 1, 2, 2, 1),
]


class TestNormalForm:
    """The coordinate normal form is the target the change of basis is
    certified against, by verify_isomorphism."""

    @pytest.mark.parametrize("vector", NORMAL_FORM_VECTORS, ids=lambda v: "".join(map(str, v.as_tuple())))
    def test_normal_form_has_its_invariants(self, vector):
        normal_form = brenner._normal_form(vector)
        assert normal_form.ambient_dim == vector.total_dim
        assert brenner_invariants(normal_form) == vector
        d = brenner_decompose(normal_form)
        assert d.invariants == vector
        assert d.residual < 1e-12
        assert d.trusted

    def test_residual_is_the_isomorphism_certificate(self):
        # every eleventh system at scramble condition up to 1e9, where some
        # residuals cross residual_tol
        checked = 0
        for vector, seed, cond in corpus_spec(max_cond=1e9)[::11]:
            system, _ = compose_from_multiplicities(vector, seed, cond)
            try:
                d = brenner_decompose(system)
            except ConditioningError:
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ConditioningWarning)
                report = verify_isomorphism(d.change_of_basis, system, brenner._normal_form(d.invariants))
            assert d.residual == report.max_gap
            checked += 1
        assert checked > 15


class TestSkeletonChecks:
    """The skeleton cross-checks its rank decisions by the modular law on
    dimensions it has already decided, at no extra factorization."""

    def test_factorizations_per_call(self, monkeypatch):
        # one SVD per pair for its meet, its join and the join's complement;
        # one small SVD splits each E_i against the opposite join, and the
        # oblique split and the restricted sum operator reuse the SVD of (E1, E2)
        system, _ = compose_from_multiplicities(ALL_SLOTS, seed=3, cond_bound=4.0)
        decomposition = brenner_decompose(system)
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))

        def count(run):
            calls.clear()
            run()
            return len(calls)

        assert count(lambda: brenner_invariants(system)) == 12
        assert count(lambda: brenner_decompose(system)) == 19
        assert count(lambda: verify_brenner(system, decomposition)) == 7

    def test_certification_runs_once_per_decomposition(self, monkeypatch):
        # the witness needs the changes of basis, not their residuals or
        # condition numbers; the residual maps each subspace through the
        # inverse already formed instead of solving with the block matrix,
        # the oblique split lifts by the pair's SVD and the witness inverts
        # one block matrix
        a, _ = compose_from_multiplicities(ALL_SLOTS, seed=3, cond_bound=4.0)
        b, _ = compose_from_multiplicities(ALL_SLOTS, seed=4, cond_bound=4.0)
        calls = {"svd": 0, "solve": 0, "inv": 0}
        for name in calls:
            original = getattr(np.linalg, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)

        def count(run):
            for name in calls:
                calls[name] = 0
            run()
            return dict(calls)

        assert count(lambda: brenner._invariants_and_witness(a, b, DEFAULT_TOL)) == {"svd": 30, "solve": 0, "inv": 1}
        assert count(lambda: brenner_decompose(a))["solve"] == 0
        assert count(lambda: brenner_decompose(b))["solve"] == 0

    def test_atom_idempotent_inverts_nothing(self, monkeypatch):
        # the block matrix B = C^-1 rides on the decomposition, so the
        # witness B D C of one block copy needs no second inverse
        system, _ = compose_from_multiplicities(ALL_SLOTS, seed=3, cond_bound=4.0)
        decomposition = brenner_decompose(system)
        identity = np.eye(system.ambient_dim)
        assert np.abs(decomposition.block_matrix @ decomposition.change_of_basis - identity).max() < 1e-12
        calls = []
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda *a, **k: calls.append(1) or inv(*a, **k))
        witness = brenner._atom_idempotent(system, decomposition, DEFAULT_TOL)
        assert calls == []
        assert sum(part.dim for part in witness.split) == system.ambient_dim

    def test_lost_direction_of_first_inside_part(self, monkeypatch):
        # E1 ∩ (E2 + E3), the null part of E1's split, comes out one
        # dimension short
        system, _ = compose_from_multiplicities(ALL_SLOTS, seed=3, cond_bound=4.0)
        e1 = system.subspaces[0]
        split = brenner._split

        def lossy(e, beyond, tol):
            single, inside, outside = split(e, beyond, tol)
            if e is e1:
                return single, drop_last_direction(inside), outside
            return single, inside, outside

        monkeypatch.setattr(brenner, "_split", lossy)
        with pytest.raises(ConditioningError, match="modular law"):
            brenner_invariants(system)

    def test_lost_direction_of_total_sum(self, monkeypatch):
        # E1 + E2 + E3, read as E1 + E2 plus the rank of E3's split, comes
        # out one dimension short
        system, _ = compose_from_multiplicities(ALL_SLOTS, seed=3, cond_bound=4.0)
        e3 = system.subspaces[2]
        split = brenner._split

        def lossy(e, beyond, tol):
            single, inside, outside = split(e, beyond, tol)
            if e is e3:
                return drop_last_direction(single), inside, outside
            return single, inside, outside

        monkeypatch.setattr(brenner, "_split", lossy)
        with pytest.raises(ConditioningError, match="modular law"):
            brenner_invariants(system)

    def test_lost_direction_of_second_inside_part(self, monkeypatch):
        # E2 ∩ (E1 + E3) comes out one dimension short; the law is checked
        # on E1 and E2, since E3's split fixes the total
        system, _ = compose_from_multiplicities(ALL_SLOTS, seed=3, cond_bound=4.0)
        e2 = system.subspaces[1]
        split = brenner._split

        def lossy(e, beyond, tol):
            single, inside, outside = split(e, beyond, tol)
            if e is e2:
                return single, drop_last_direction(inside), outside
            return single, inside, outside

        monkeypatch.setattr(brenner, "_split", lossy)
        with pytest.raises(ConditioningError, match="E2 meets the other two in 3 dimensions, the modular law demands 4"):
            brenner_invariants(system)

    def test_lost_direction_of_third_shared_part(self, monkeypatch):
        # (E1 ∩ E3) + (E2 ∩ E3), the one join of the skeleton, comes out one
        # dimension short, so E3's triangle family one too long
        system, _ = compose_from_multiplicities(ALL_SLOTS, seed=3, cond_bound=4.0)
        joined = brenner.join
        monkeypatch.setattr(brenner, "join", lambda a, b, tol: drop_last_direction(joined(a, b, tol)))
        with pytest.raises(ConditioningError, match="triangle multiplicities disagree: 1 by the counts, 2"):
            brenner_invariants(system)

    def test_dependent_blocks(self, monkeypatch):
        # the stacked blocks' rank comes out one short of n
        system, _ = compose_from_multiplicities(ALL_SLOTS, seed=3, cond_bound=4.0)
        stacked_rank = systems._stacked_rank
        monkeypatch.setattr(systems, "_stacked_rank", lambda subspaces, tol: stacked_rank(subspaces, tol) - 1)
        with pytest.raises(ConditioningError, match="block directions are numerically dependent"):
            brenner_decompose(system)

    @pytest.mark.parametrize("index", [192])
    def test_failed_containment_is_a_conditioning_failure(self, index):
        # a containment that holds by construction fails numerically at
        # scramble condition near 1e10; that is no malformed input
        vector, seed, cond = corpus_spec(max_cond=1e10)[index]
        system, _ = compose_from_multiplicities(vector, seed, cond)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConditioningWarning)
            with pytest.raises(ConditioningError, match="holds by construction"):
                brenner_decompose(system)

    def test_containment_refused_by_the_pair_route_is_answered(self):
        # entry 86 at scramble condition up to 1e10: E3 ∩ (E1 + E2) read
        # off [B_3 | B_{E1+E2}] once failed to contain E3's shared part;
        # split by sines against (E1 + E2)^⊥ it does, and the answer has
        # the right invariants, flagged untrusted by its residual
        vector, seed, cond = corpus_spec(max_cond=1e10)[86]
        system, _ = compose_from_multiplicities(vector, seed, cond)
        d = brenner_decompose(system)
        assert d.invariants == vector
        assert d.trusted is False
        assert verify_brenner(system, d).passed

    @pytest.mark.parametrize("index", [50, 59, 76, 89, 102, 135])
    def test_skeleton_dimensions_are_not_decided_again(self, index):
        # At scramble condition up to 1e9 the skeleton reads the right
        # invariants of these entries.  The relative complements and the
        # independence test of the assembly once refused them; now each
        # answer is verified or flagged as untrusted.
        vector, seed, cond = corpus_spec(max_cond=1e9)[index]
        system, _ = compose_from_multiplicities(vector, seed, cond)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConditioningWarning)
            d = brenner_decompose(system)
            passed = verify_brenner(system, d).passed
        assert d.invariants == vector
        assert (passed and d.residual <= 1e-8) or d.trusted is False


def lattice_reference(system):
    """Reference route for the skeleton's singles and outside part: each
    E_i ∩ (E_j + E_k) by its own meet, single_i as its complement in E_i,
    and the outside part as the complement of E1 + E2 + E3."""
    e1, e2, e3 = system.subspaces
    singles = tuple(
        complement_within(e, meet(e, join(f, g)))
        for e, f, g in ((e1, e2, e3), (e2, e1, e3), (e3, e1, e2))
    )
    return singles, complement(join(join(e1, e2), e3))


class TestSkeletonReference:
    """The singles and the outside part come off the pair SVDs' join
    complements; the lattice route agrees with them."""

    @pytest.mark.parametrize("max_cond", [20.0, 1e6])
    def test_agrees_with_the_lattice_route_on_corpus(self, max_cond):
        compared = 0
        for vector, seed, cond in corpus_spec(max_cond=max_cond):
            system, _ = compose_from_multiplicities(vector, seed, cond)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ConditioningWarning)
                pieces = brenner._skeleton(system, DEFAULT_TOL)
                singles, outside = lattice_reference(system)
            for name, reference in zip(("single_1", "single_2", "single_3", "outside"), singles + (outside,)):
                assert pieces[name].dim == reference.dim
                assert gap(pieces[name], reference) <= DEFAULT_TOL.gap_tol
                compared += reference.dim > 0
        assert compared > 400


def oblique_split_by_solve(first, second, frame, vectors):
    """Reference route for ``two_subspaces._oblique_split``: the matrix T
    of P1 + P2 in an orthonormal ``frame`` of first + second, and the lift
    frame T^-1 frame^H u projected onto first."""
    c1, c2 = frame.conj().T @ first.basis, frame.conj().T @ second.basis
    t = c1 @ c1.conj().T + c2 @ c2.conj().T
    lifted = frame @ np.linalg.solve(t, frame.conj().T @ vectors)
    v = first.basis @ (first.basis.conj().T @ lifted)
    return v, vectors - v


class TestObliqueSplit:
    def test_agrees_with_the_solve_route_on_corpus(self, corpus):
        split = 0
        for *_, system in corpus:
            pieces = brenner._skeleton(system, DEFAULT_TOL)
            if not pieces["triangle_3"].dim:
                continue
            e1, e2, _ = system.subspaces
            u = pieces["triangle_3"].basis
            v, w = two_subspaces._oblique_split(e1, pieces["factors_12"], pieces["join_12"].dim, u)
            v_ref, w_ref = oblique_split_by_solve(e1, e2, pieces["join_12"].basis, u)
            assert np.linalg.norm(v - v_ref, 2) <= 1e-10 * np.linalg.norm(v_ref, 2)
            assert np.linalg.norm(w - w_ref, 2) <= 1e-10 * np.linalg.norm(w_ref, 2)
            split += 1
        assert split > 50


def decomposition_outcome(system):
    """What a caller reads off one decomposition: its notes and trust, or
    the refusal."""
    try:
        d = brenner_decompose(system)
    except ConditioningError as exc:
        return ("refused", str(exc))
    return (d.warnings, d.trusted)


class TestConditioningNotes:
    @pytest.mark.parametrize("max_cond, index", [(1e9, 3), (1e10, 37)])
    def test_residual_over_tolerance_is_untrusted(self, max_cond, index):
        # no rank decision near its cutoff and no large condition number,
        # yet the normal-form residual misses residual_tol
        vector, seed, cond = corpus_spec(max_cond=max_cond)[index]
        system, _ = compose_from_multiplicities(vector, seed, cond)
        d = brenner_decompose(system)
        assert d.residual > DEFAULT_TOL.residual_tol
        assert d.trusted is False
        assert d.warnings[-1] == (
            f"normal-form residual {d.residual:.3e} exceeds residual_tol 1.000e-08"
        )

    def test_residual_within_tolerance_is_trusted(self):
        # entry 123 at scramble condition up to 1e9: lifted by the pair's
        # SVD instead of a solve with its Gram matrix, the triangle split
        # meets residual_tol (the Gram route read 7.6e-8)
        vector, seed, cond = corpus_spec(max_cond=1e9)[123]
        system, _ = compose_from_multiplicities(vector, seed, cond)
        d = brenner_decompose(system)
        assert d.residual <= DEFAULT_TOL.residual_tol
        assert d.trusted is True
        assert d.invariants == vector
        assert verify_brenner(system, d).passed

    def test_threads_keep_their_own_notes(self):
        # many of these systems carry notes and a few are refused; a
        # thread must never see another thread's notes
        systems = [
            compose_from_multiplicities(vector, seed, cond)[0]
            for vector, seed, cond in corpus_spec(max_cond=1e9)[:120]
        ]
        serial = [decomposition_outcome(s) for s in systems]
        assert sum(outcome[0] == "refused" for outcome in serial) > 0
        assert sum(bool(outcome[0]) for outcome in serial) > len(serial) // 4
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = [list(pool.map(decomposition_outcome, systems)) for _ in range(3)]
        finally:
            sys.setswitchinterval(interval)
        for run in threaded:
            assert run == serial


class TestNormalizeDoubleTriangle:
    def test_remark_carrier(self):
        # restrict the remark example's triangle families to their span
        system = remark_example()
        d = brenner_decompose(system)
        carrier = orthonormalize(
            np.hstack([d.triangle_1.basis, d.triangle_2.basis]).T
        )
        triple = restrict_system(
            SubspaceSystem.of(d.triangle_1, d.triangle_2, d.triangle_3), carrier
        )
        k, t = normalize_double_triangle(triple)
        assert k == 1
        mapped = map_system(t, triple)
        assert same_subspace(mapped.subspaces[0], line(1, 0))
        assert same_subspace(mapped.subspaces[1], line(0, 1))
        assert same_subspace(mapped.subspaces[2], line(1, 1))

    @pytest.mark.parametrize("m", [1, 2, 3, 6])
    def test_scrambled_multiples(self, m):
        v = InvariantVector(0, 0, 0, 0, 0, 0, 0, m, 0)
        system, _ = compose_from_multiplicities(v, seed=40 + m, cond_bound=8.0)
        k, t = normalize_double_triangle(system)
        assert k == m
        mapped = map_system(t, system)
        n = system.ambient_dim
        top = orthonormalize(np.eye(n)[:k])
        bottom = orthonormalize(np.eye(n)[k:])
        diag = orthonormalize(np.hstack([np.eye(k), np.eye(k)]) / np.sqrt(2.0))
        assert gap(mapped.subspaces[0], top) < 1e-8
        assert gap(mapped.subspaces[1], bottom) < 1e-8
        assert gap(mapped.subspaces[2], diag) < 1e-8

    def test_reemits_decomposition_warnings(self):
        # an ill-conditioned scramble whose decomposition carries notes:
        # each must reach the caller as a ConditioningWarning
        v = InvariantVector(0, 0, 0, 0, 0, 0, 0, 2, 0)
        system, _ = compose_from_multiplicities(v, seed=0, cond_bound=1e9)
        notes = brenner_decompose(system).warnings
        assert notes
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            normalize_double_triangle(system)
        emitted = {str(w.message) for w in caught if issubclass(w.category, ConditioningWarning)}
        assert set(notes) <= emitted

    def test_rejects_non_triangle(self):
        with pytest.raises(ValueError):
            normalize_double_triangle(
                SubspaceSystem.of(line(1, 0), line(0, 1), line(0, 1))
            )

    def test_decides_without_the_detector(self, monkeypatch):
        calls = []
        original = systems.detect_double_triangle

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for module in (systems, brenner):
            if getattr(module, "detect_double_triangle", None) is original:
                monkeypatch.setattr(module, "detect_double_triangle", counted)
        v = InvariantVector(0, 0, 0, 0, 0, 0, 0, 2, 0)
        system, _ = compose_from_multiplicities(v, seed=42, cond_bound=8.0)
        assert normalize_double_triangle(system)[0] == 2
        assert calls == []


class TestIsomorphism:
    def test_same_invariants_gives_witness(self):
        v = InvariantVector(1, 1, 0, 0, 0, 2, 0, 1, 0)
        a, _ = compose_from_multiplicities(v, seed=6, cond_bound=12.0)
        b, _ = compose_from_multiplicities(v, seed=7, cond_bound=3.0)
        assert is_isomorphic_three(a, b)
        t = isomorphism_between(a, b)
        assert verify_isomorphism(t, a, b).passed

    def test_different_invariants(self):
        a, _ = compose_from_multiplicities(
            InvariantVector(1, 0, 0, 0, 0, 0, 0, 0, 0), seed=1
        )
        b, _ = compose_from_multiplicities(
            InvariantVector(0, 0, 0, 0, 0, 0, 0, 0, 1), seed=1
        )
        assert not is_isomorphic_three(a, b)
        assert isomorphism_between(a, b) is None

    def test_ambient_mismatch_is_not_isomorphic(self):
        assert not is_isomorphic_three(atom(9), direct_sum(atom(9), atom(1)))

    @pytest.mark.parametrize("vector_b", [
        InvariantVector(1, 1, 0, 0, 0, 2, 0, 1, 0),
        InvariantVector(1, 1, 0, 0, 0, 1, 1, 1, 0),
    ], ids=["isomorphic", "non-isomorphic"])
    def test_one_skeleton_per_system(self, monkeypatch, vector_b):
        calls = []
        skeleton = brenner._skeleton
        monkeypatch.setattr(brenner, "_skeleton", lambda *args: calls.append(1) or skeleton(*args))
        a, _ = compose_from_multiplicities(InvariantVector(1, 1, 0, 0, 0, 2, 0, 1, 0), seed=6)
        b, _ = compose_from_multiplicities(vector_b, seed=7)
        isomorphism_between(a, b)
        assert len(calls) == 2

    def test_witness_equals_composed_changes_of_basis(self, corpus):
        # C_b^-1 C_a is B_b B_a^-1 for the block matrices B = C^-1
        for vector, seed, cond, a in corpus[:40]:
            b, _ = compose_from_multiplicities(vector, seed + 1, cond)
            witness = isomorphism_between(a, b)
            block_a, block_b = (
                brenner._change_of_basis_columns(s, brenner._skeleton(s, DEFAULT_TOL), DEFAULT_TOL)[0]
                for s in (a, b)
            )
            assert np.array_equal(witness, block_b @ np.linalg.inv(block_a))
            composed = np.linalg.solve(
                brenner_decompose(b).change_of_basis, brenner_decompose(a).change_of_basis
            )
            assert np.linalg.norm(witness - composed, 2) <= 1e-12 * np.linalg.norm(composed, 2)


@given(seed=st.integers(0, 10**5))
def test_invariants_are_scramble_invariant(seed):
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 2, 9)
    if counts.sum() == 0:
        counts[rng.integers(0, 9)] = 1
    v = InvariantVector.from_iterable(int(c) for c in counts)
    system, scramble = compose_from_multiplicities(v, seed=seed, cond_bound=6.0)
    assert brenner_invariants(system) == v
    back = map_system(np.linalg.inv(scramble), system)
    assert brenner_invariants(back) == v
