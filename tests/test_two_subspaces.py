import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from subspacekit import (
    ConditioningWarning,
    Subspace,
    ToleranceConfig,
    complement,
    gap,
    halmos_decompose,
    haar_unitary,
    join,
    meet,
    orthonormalize,
    principal_angles,
    restricted_sum_operator,
    same_subspace,
    sum_operator_matrix,
)
from conftest import random_subspace


def line(*entries):
    return orthonormalize([list(entries)])


def pair_at_angles(angles, ambient=None):
    """E1 spanned by the first g axes, E2 by cos t_i e_i + sin t_i e_{g+i}."""
    g = len(angles)
    n = ambient or 2 * g
    first = Subspace(np.eye(n, dtype=np.complex128)[:, :g])
    cols = np.zeros((n, g), dtype=np.complex128)
    for i, t in enumerate(angles):
        cols[i, i] = np.cos(t)
        cols[g + i, i] = np.sin(t)
    return first, Subspace(cols)


def planted_pair(rng, angles, both=0, only_first=0, only_second=0, neither=0):
    """A pair with the given part dimensions and generic angles, turned by
    a Haar unitary and given random orthonormal bases of its own."""
    g = len(angles)
    n = both + only_first + only_second + neither + 2 * g
    axes = np.eye(n, dtype=np.complex128)
    cuts = np.cumsum([both, only_first, only_second, neither, g])
    shared, a, b, _, x, z = np.split(axes, cuts, axis=1)
    y = x * np.cos(angles) + z * np.sin(angles)
    turn = haar_unitary(n, rng)
    first = turn @ np.hstack([shared, a, x])
    second = turn @ np.hstack([shared, b, y])
    return (
        Subspace(first @ haar_unitary(first.shape[1], rng)),
        Subspace(second @ haar_unitary(second.shape[1], rng)),
    )


def part_dims(dec):
    return (dec.in_both.dim, dec.only_first.dim, dec.only_second.dim, dec.in_neither.dim, dec.generic_dim)


class TestFiveParts:
    def test_fully_split_pair(self):
        # planes sharing one axis in C^4: every part one-dimensional
        a = orthonormalize([[1, 0, 0, 0], [0, 1, 0, 0]])
        b = orthonormalize([[0, 1, 0, 0], [0, 0, 1, 0]])
        dec = halmos_decompose(a, b)
        assert same_subspace(dec.in_both, line(0, 1, 0, 0))
        assert same_subspace(dec.only_first, line(1, 0, 0, 0))
        assert same_subspace(dec.only_second, line(0, 0, 1, 0))
        assert same_subspace(dec.in_neither, line(0, 0, 0, 1))
        assert dec.generic_dim == 0
        assert dec.generic_frame.shape == (4, 0)

    def test_generic_pair_angles(self):
        first, second = pair_at_angles([0.3, 0.7])
        dec = halmos_decompose(first, second)
        assert dec.in_both.dim == 0
        assert dec.only_first.dim == 0
        assert dec.only_second.dim == 0
        assert dec.in_neither.dim == 0
        assert np.allclose(dec.angles, [0.3, 0.7], atol=1e-12)

    def test_generic_frame_is_isometry(self):
        first, second = pair_at_angles([0.2, 0.5, 1.1])
        dec = halmos_decompose(first, second)
        f = dec.generic_frame
        assert f.shape == (6, 6)
        assert np.allclose(f.conj().T @ f, np.eye(6), atol=1e-12)

    def test_frame_reproduces_second_subspace(self):
        # in frame coordinates the second projection is the 2x2 angle block
        first, second = pair_at_angles([0.4, 0.9])
        dec = halmos_decompose(first, second)
        g = dec.generic_dim
        p2 = second.projection()
        for i, t in enumerate(dec.angles):
            pair = dec.generic_frame[:, [i, g + i]]
            block = pair.conj().T @ p2 @ pair
            c, s = np.cos(t), np.sin(t)
            expected = np.array([[c * c, c * s], [c * s, s * s]])
            assert np.allclose(block, expected, atol=1e-10)

    def test_generic_is_inside_first(self):
        first, second = pair_at_angles([0.3])
        dec = halmos_decompose(first, second)
        assert same_subspace(dec.generic, first)

    def test_mixed_structure(self):
        c, s = np.cos(0.5), np.sin(0.5)
        a = orthonormalize([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]])
        b = orthonormalize([[1, 0, 0, 0, 0], [0, c, s, 0, 0]])
        dec = halmos_decompose(a, b)
        assert dec.in_both.dim == 1
        assert dec.in_neither.dim == 2
        assert np.allclose(dec.angles, [0.5], atol=1e-12)

    def test_angle_multiset_matches_principal_angles(self):
        rng = np.random.default_rng(5)
        a = random_subspace(rng, 7, 3)
        b = random_subspace(rng, 7, 4)
        dec = halmos_decompose(a, b)
        oracle = principal_angles(a, b)
        # generic angles are the interior part of the principal angles
        interior = oracle[(oracle > 1e-8) & (oracle < np.pi / 2 - 1e-8)]
        assert np.allclose(np.sort(dec.angles), np.sort(interior), atol=1e-9)


class TestEndpointAbsorption:
    def test_near_zero_angle_goes_to_in_both(self):
        t = 1e-9
        a = line(1.0, 0.0)
        b = line(np.cos(t), np.sin(t))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConditioningWarning)
            dec = halmos_decompose(a, b)
        assert dec.in_both.dim == 1
        assert dec.generic_dim == 0
        # the partner direction belongs to neither subspace
        assert dec.in_neither.dim == 1

    def test_near_right_angle_splits_to_only_parts(self):
        t = np.pi / 2 - 1e-9
        a = line(1.0, 0.0)
        b = line(np.cos(t), np.sin(t))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConditioningWarning)
            dec = halmos_decompose(a, b)
        assert dec.only_first.dim == 1
        assert dec.only_second.dim == 1
        assert dec.generic_dim == 0


class TestOneSpectrum:
    """Every part and angle is read off the one SVD of [B_1 | B_2]."""

    def test_small_angles_keep_their_relative_accuracy(self):
        # sines of half angles keep the relative accuracy that the arccos of
        # a cosine loses near 0 (two percent at 1e-7)
        small = np.array([1e-7, 1e-5, 1e-3])
        planted = np.concatenate([small, np.pi / 2 - small])
        first, second = planted_pair(np.random.default_rng(1), planted, 1, 1, 1, 1)
        with pytest.warns(ConditioningWarning) as record:
            dec = halmos_decompose(first, second)
        # the note names what is near its threshold: an angle near ANGLE_EPS
        assert [str(w.message) for w in record] == [
            "1 angle(s) from 0 or pi/2 within a decade of the angle threshold 1.000e-08; "
            "part decision is fragile"
        ]
        assert part_dims(dec) == (1, 1, 1, 1, 6)
        assert np.allclose(dec.angles[:3], small, rtol=1e-6, atol=0.0)
        assert np.allclose(np.pi / 2 - dec.angles[3:], small[::-1], rtol=1e-6, atol=0.0)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_angle_below_eps_folds_into_in_both(self, seed):
        # a cosine cannot tell 3e-9 from a generic 1.5e-8; its half-angle
        # sine folds it into in_both
        small = np.array([3e-9, 1e-7, 1e-5, 1e-3])
        planted = np.concatenate([small, np.pi / 2 - small[1:]])
        first, second = planted_pair(np.random.default_rng(seed), planted, 1, 1, 1, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConditioningWarning)
            dec = halmos_decompose(first, second)
        assert part_dims(dec) == (2, 1, 1, 2, 6)
        assert np.allclose(dec.angles[:3], small[1:], rtol=1e-6, atol=0.0)

    @pytest.mark.parametrize("angle, dims", [
        (1e-7, (1, 0, 0, 1, 0)),
        (np.pi / 2 - 1e-7, (0, 1, 1, 0, 0)),
    ])
    def test_loose_rank_rtol_folds_the_angle(self, angle, dims):
        # the fold threshold widens with a looser rank cutoff: the line at
        # 0 is shared, the line at pi/2 splits into the only-one parts
        loose = ToleranceConfig(rank_rtol=1e-6)
        dec = halmos_decompose(line(1.0, 0.0), line(np.cos(angle), np.sin(angle)), loose)
        assert part_dims(dec) == dims

    def test_factorizations_per_call(self, monkeypatch):
        # the pair SVD, whose full u also spans in_neither, and the split
        # of the only-one cluster
        first, second = planted_pair(np.random.default_rng(3), np.array([0.3, 0.9]), 1, 1, 2, 1)
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        dec = halmos_decompose(first, second)
        assert part_dims(dec) == (1, 1, 2, 1, 2)
        assert len(calls) == 2

    @pytest.mark.parametrize("seed", range(200))
    def test_parts_are_the_lattice_expressions(self, seed):
        rng = np.random.default_rng(seed)
        dims = [int(d) for d in rng.integers(1, 4, size=4)]
        angles = np.sort(rng.uniform(0.05, np.pi / 2 - 0.05, size=int(rng.integers(1, 4))))
        first, second = planted_pair(rng, angles, *dims)
        dec = halmos_decompose(first, second)
        lattice = (
            meet(first, second),
            meet(first, complement(second)),
            meet(complement(first), second),
            meet(complement(first), complement(second)),
        )
        parts = (dec.in_both, dec.only_first, dec.only_second, dec.in_neither)
        assert [p.dim for p in parts] == dims
        for part, expected in zip(parts, lattice):
            assert gap(part, expected) <= 1e-12
        assert np.allclose(dec.angles, angles, rtol=1e-10, atol=0.0)


class TestSumOperator:
    def test_line_pair_oracle(self):
        t = 0.3
        a = line(1.0, 0.0)
        b = line(np.cos(t), np.sin(t))
        rep = restricted_sum_operator(a, b)
        assert abs(rep.sigma_min - (1 - np.cos(t))) < 1e-12
        assert abs(rep.sigma_max - (1 + np.cos(t))) < 1e-12
        assert abs(rep.per_angle_determinants[0] - np.sin(t) ** 2) < 1e-12

    def test_eigenvalues_by_part(self):
        # one shared axis (eigenvalue 2), one only-first axis (eigenvalue 1)
        a = orthonormalize([[1, 0, 0], [0, 1, 0]])
        b = line(1, 0, 0)
        _, matrix = sum_operator_matrix(a, b)
        eigs = np.sort(np.linalg.eigvalsh(matrix))
        assert np.allclose(eigs, [1.0, 2.0], atol=1e-12)

    def test_rejects_two_zero_subspaces(self):
        with pytest.raises(ValueError):
            restricted_sum_operator(Subspace.zero(3), Subspace.zero(3))

    def test_spectrum_tracks_angles(self):
        # no intersection: sigma_min is 1 - cos of the largest angle,
        # a shared direction contributes the top eigenvalue 2
        rng = np.random.default_rng(11)
        a = random_subspace(rng, 6, 2)
        b = random_subspace(rng, 6, 3)
        rep = restricted_sum_operator(a, b)
        assert abs(rep.sigma_min - (1 - np.cos(rep.angles.min()))) < 1e-10
        shared = random_subspace(rng, 6, 1)
        a2 = Subspace(np.linalg.qr(np.hstack([shared.basis, a.basis[:, :1]]))[0])
        b2 = Subspace(np.linalg.qr(np.hstack([shared.basis, b.basis[:, :1]]))[0])
        rep2 = restricted_sum_operator(a2, b2)
        assert abs(rep2.sigma_max - 2.0) < 1e-9

    @pytest.mark.parametrize("seed", range(20))
    def test_spectrum_is_the_eigenvalues_of_the_matrix(self, seed):
        # sigma_min and sigma_max come off the squared singular values of
        # [B_1 | B_2]; the eigenvalues of the operator's matrix are a
        # second route to them
        rng = np.random.default_rng(seed)
        dims = [int(d) for d in rng.integers(0, 3, size=4)]
        angles = np.sort(rng.uniform(0.05, np.pi / 2 - 0.05, size=int(rng.integers(1, 3))))
        first, second = planted_pair(rng, angles, *dims)
        rep = restricted_sum_operator(first, second)
        eigs = np.linalg.eigvalsh(sum_operator_matrix(first, second)[1])
        assert abs(rep.sigma_min - eigs[0]) <= 1e-12
        assert abs(rep.sigma_max - eigs[-1]) <= 1e-12
        assert rep.condition == rep.sigma_max / rep.sigma_min

    def test_one_side_zero_is_the_identity(self):
        a = orthonormalize([[1, 0, 0], [0, 1, 0]])
        for first, second in ((a, Subspace.zero(3)), (Subspace.zero(3), a)):
            rep = restricted_sum_operator(first, second)
            assert (rep.sigma_min, rep.sigma_max, rep.condition) == (1.0, 1.0, 1.0)
            assert rep.angles.size == 0 and rep.per_angle_determinants.size == 0

    def test_factorizations_per_call(self, monkeypatch):
        # the pair SVD serves the spectrum and the parts; the determinants
        # are read off the 2g x 2g matrix of the operator
        first, second = planted_pair(np.random.default_rng(4), np.array([0.2, 0.6, 1.1]), 1, 1, 1, 1)
        calls = {"svd": 0, "det": 0}
        for name in calls:
            original = getattr(np.linalg, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        rep = restricted_sum_operator(first, second)
        assert rep.angles.size == 3
        assert calls == {"svd": 2, "det": 0}


class TestZeroSides:
    """A zero side takes the pair SVD like any other: the other side is
    its own only-one part, in_neither its complement, and a real side keeps
    every result real."""

    @pytest.mark.parametrize("dims", [(0, 2), (3, 0), (0, 0)], ids=["first", "second", "both"])
    def test_parts_of_a_pair_with_a_zero_side(self, dims):
        rng = np.random.default_rng(sum(dims))
        first, second = (
            Subspace(np.linalg.qr(rng.standard_normal((5, d)))[0]) if d else Subspace.zero(5) for d in dims
        )
        joined = join(first, second)
        dec = halmos_decompose(first, second)
        assert part_dims(dec) == (0, first.dim, second.dim, 5 - sum(dims), 0)
        assert same_subspace(joined, second if first.is_zero else first)
        assert same_subspace(dec.only_first, first) and same_subspace(dec.only_second, second)
        assert same_subspace(dec.in_neither, complement(joined))
        parts = [meet(first, second), joined]
        parts += [dec.in_both, dec.only_first, dec.only_second, dec.in_neither, dec.generic]
        assert [part.basis.dtype for part in parts] == [np.float64] * 7
        assert dec.generic_frame.dtype == np.float64

    @pytest.mark.parametrize("dims", [(0, 2), (3, 0)], ids=["first", "second"])
    def test_sum_operator_of_a_pair_with_a_zero_side(self, dims):
        rng = np.random.default_rng(sum(dims))
        first, second = (random_subspace(rng, 5, d) for d in dims)
        rep = restricted_sum_operator(first, second)
        assert abs(rep.sigma_min - 1.0) <= 1e-12 and abs(rep.sigma_max - 1.0) <= 1e-12
        assert rep.angles.size == 0 and rep.per_angle_determinants.size == 0


@given(
    n=st.integers(2, 7),
    da=st.integers(1, 6),
    db=st.integers(1, 6),
    seed=st.integers(0, 10**6),
)
def test_completeness_and_consistency(n, da, db, seed):
    rng = np.random.default_rng(seed)
    a = random_subspace(rng, n, min(da, n))
    b = random_subspace(rng, n, min(db, n))
    dec = halmos_decompose(a, b)
    total = (
        dec.in_both.dim + dec.only_first.dim + dec.only_second.dim
        + dec.in_neither.dim + 2 * dec.generic_dim
    )
    assert total == n
    assert dec.in_both.dim + dec.only_first.dim + dec.generic_dim == a.dim
    assert dec.in_both.dim + dec.only_second.dim + dec.generic_dim == b.dim
    if dec.angles.size:
        assert dec.angles.min() > 1e-8
        assert dec.angles.max() < np.pi / 2 - 1e-8


@given(n=st.integers(2, 6), seed=st.integers(0, 10**6))
def test_determinants_equal_sine_squares(n, seed):
    rng = np.random.default_rng(seed)
    a = random_subspace(rng, n, rng.integers(1, n))
    b = random_subspace(rng, n, rng.integers(1, n))
    rep = restricted_sum_operator(a, b)
    assert np.allclose(rep.per_angle_determinants, np.sin(rep.angles) ** 2, atol=1e-10)
