import numpy as np
import pytest
from hypothesis import given, strategies as st

from subspacekit import (
    ConditioningError,
    ConditioningWarning,
    Subspace,
    SubspaceSystem,
    ToleranceConfig,
    brenner_invariants,
    complement,
    complement_within,
    contains,
    gap,
    halmos_decompose,
    is_isomorphic_three,
    isomorphism_between,
    join,
    meet,
    orthonormalize,
    principal_angles,
    restricted_sum_operator,
    same_subspace,
    verify_isomorphism,
)
from conftest import random_subspace
from subspacekit.linalg import DEFAULT_TOL, _collect_notes, _column_span, _numerical_rank


def line(*entries):
    return orthonormalize([list(entries)])


# E1 and E2 at an angle of 3e-10, within a decade of the rank cutoff
NEAR_CUTOFF_TRIPLE = SubspaceSystem.of(line(1, 0, 0), line(1, 3e-10, 0), line(0, 0, 1))
FULL_PLANE = SubspaceSystem.of(Subspace.full(2))


class TestToleranceConfig:
    def test_defaults(self):
        tol = ToleranceConfig()
        assert tol.rank_rtol == 1e-10
        assert tol.gap_tol == 1e-8
        assert tol.residual_tol == 1e-8
        assert tol.cond_warn == 1e8

    @pytest.mark.parametrize("field", ["rank_rtol", "gap_tol", "residual_tol", "cond_warn"])
    def test_rejects_nonpositive(self, field):
        with pytest.raises(ValueError):
            ToleranceConfig(**{field: 0.0})
        with pytest.raises(ValueError):
            ToleranceConfig(**{field: -1e-3})

    def test_rejects_rank_rtol_at_one(self):
        with pytest.raises(ValueError):
            ToleranceConfig(rank_rtol=1.0)


class TestSubspace:
    def test_zero_subspace_is_first_class(self):
        z = Subspace.zero(4)
        assert z.dim == 0 and z.ambient_dim == 4 and z.is_zero
        assert z.projection().shape == (4, 4)
        assert np.allclose(z.projection(), 0.0)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError, match="orthonormal"):
            Subspace(np.array([[1.0], [1.0]]))

    def test_rejects_too_many_columns(self):
        with pytest.raises(ValueError):
            Subspace(np.eye(3)[:2])  # 2x3: 3 columns in C^2

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 1j * np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite_entries(self, bad):
        basis = np.eye(3, 2, dtype=np.complex128)
        basis[2, 1] = bad
        with pytest.raises(ValueError, match="basis entries must be finite"):
            Subspace(basis)

    def test_orthonormality_is_checked_on_the_diagonal_too(self):
        basis = np.eye(3, 2, dtype=np.complex128)
        basis[:, 1] *= 1.0 + 2e-8  # column norm off by 2e-8, Gram diagonal by 4e-8
        with pytest.raises(ValueError, match=r"not orthonormal \(defect 4\.0\d*e-08\)"):
            Subspace(basis)
        basis = np.eye(3, 2, dtype=np.complex128)
        basis[:, 1] *= 1.0 + 2e-9
        kept = Subspace(basis)
        assert np.array_equal(kept.basis, basis)

    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.int32, np.int64, np.float32, np.float64])
    def test_real_input_keeps_a_float64_basis(self, dtype):
        basis = np.eye(3, 2).astype(dtype)
        kept = Subspace(basis)
        assert kept.basis.dtype == np.float64
        assert np.array_equal(kept.basis, np.eye(3, 2))
        assert Subspace([[1, 0], [0, 1], [0, 0]]).basis.dtype == np.float64

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    def test_complex_input_keeps_a_complex128_basis(self, dtype):
        basis = np.eye(3, 2).astype(dtype)
        assert Subspace(basis).basis.dtype == np.complex128
        # the dtype decides, not the values: no imaginary part is needed
        assert not np.iscomplex(basis).any()

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_column_span_keeps_the_kind_of_its_input(self, dtype):
        spanning = np.array([[1.0, 2.0, 0.0], [1.0, 2.0, 1.0]], dtype=dtype)
        assert _column_span(spanning, DEFAULT_TOL).dtype == dtype
        assert _column_span(spanning[:, :0], DEFAULT_TOL).dtype == dtype
        assert _column_span(np.array([[1, 2, 0], [1, 2, 1]]), DEFAULT_TOL).dtype == np.float64

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_non_orthonormal_basis_is_rejected_in_either_kind(self, dtype):
        basis = np.eye(3, 2, dtype=dtype)
        basis[0, 1] = 2e-8  # Gram off-diagonal 2e-8, over ORTHONORMALITY_ATOL
        with pytest.raises(ValueError, match=r"not orthonormal \(defect 2\.0\d*e-08\)"):
            Subspace(basis)

    def test_orthonormalize_stays_complex(self):
        assert orthonormalize([[1.0, 2.0, 0.0]]).basis.dtype == np.complex128
        assert Subspace.full(3).basis.dtype == np.complex128
        # a zero basis holds no values; in float64 it keeps the kind of
        # any basis it is stacked with
        assert Subspace.zero(3).basis.dtype == np.float64

    def test_basis_is_frozen(self):
        s = Subspace.full(2)
        with pytest.raises(ValueError):
            s.basis[0, 0] = 5.0

    def test_projection_idempotent(self):
        s = orthonormalize([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0]])
        p = s.projection()
        assert np.allclose(p @ p, p)
        assert np.allclose(p, p.conj().T)


class TestOrthonormalize:
    def test_collinear_vectors_span_a_line(self):
        s = orthonormalize([[1.0, 0.0], [2.0, 0.0]])
        assert s.dim == 1
        assert same_subspace(s, line(1.0, 0.0))

    def test_empty_set_needs_ambient(self):
        # [] and a (0, 0) array carry no length
        for empty in ([], np.zeros((0, 0))):
            s = orthonormalize(empty, ambient_dim=3)
            assert s.dim == 0 and s.ambient_dim == 3
            with pytest.raises(ValueError, match="^an empty spanning set needs an explicit ambient_dim$"):
                orthonormalize(empty)

    def test_zero_vectors_contribute_nothing(self):
        s = orthonormalize([[0.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
        assert s.dim == 1

    def test_rank_cutoff_is_relative(self):
        # second vector is dependent to within 1e-14 relative: below cutoff
        s = orthonormalize([[1.0, 0.0], [1.0, 1e-14]])
        assert s.dim == 1
        # a looser rank_rtol keeps it, a direction 1e-6 up is genuine
        s = orthonormalize([[1.0, 0.0], [1.0, 1e-6]])
        assert s.dim == 2
        tight = ToleranceConfig(rank_rtol=1e-3)
        s = orthonormalize([[1.0, 0.0], [1.0, 1e-6]], tight)
        assert s.dim == 1

    def test_complex_entries(self):
        s = orthonormalize([[1.0, 1j]])
        assert s.dim == 1
        v = s.basis[:, 0]
        assert abs(abs(v[0]) - abs(v[1])) < 1e-12

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            orthonormalize([[np.inf, 0.0]])

    def test_near_cutoff_warns(self):
        with pytest.warns(ConditioningWarning):
            orthonormalize([[1.0, 0.0], [1.0, 3e-10]])

    @pytest.mark.parametrize("ambient_dim", [None, 4])
    def test_no_vectors_of_length_n_span_the_zero_subspace_of_c_n(self, ambient_dim):
        s = orthonormalize(np.zeros((0, 4)), ambient_dim=ambient_dim)
        assert (s.dim, s.ambient_dim) == (0, 4)

    def test_one_vector_is_one_row(self):
        s = orthonormalize([1.0, 1j, 0.0], ambient_dim=3)
        assert s.dim == 1 and s.ambient_dim == 3
        assert np.array_equal(s.basis, orthonormalize([[1.0, 1j, 0.0]]).basis)

    @pytest.mark.parametrize("vectors", [np.zeros((0, 4)), np.ones((2, 4)), np.ones(4)],
                             ids=["0xn", "2xn", "1-d"])
    def test_length_must_match_ambient(self, vectors):
        # an empty (0, 4) array is four long, as a (2, 4) one is
        with pytest.raises(ValueError, match=r"^vectors have length 4 but ambient_dim=3 was requested$"):
            orthonormalize(vectors, ambient_dim=3)

    def test_rejects_a_3d_array(self):
        with pytest.raises(ValueError, match=r"^expected a sequence of vectors, got an array of shape \(1, 2, 2\)$"):
            orthonormalize(np.zeros((1, 2, 2)))

    @pytest.mark.parametrize("vectors", [[[]], [[], []]], ids=["one", "two"])
    def test_rejects_vectors_of_length_zero(self, vectors):
        with pytest.raises(ValueError, match="^spanning vectors have length 0; they need at least one coordinate$"):
            orthonormalize(vectors)
        # a requested length names the mismatch instead
        with pytest.raises(ValueError, match=r"^vectors have length 0 but ambient_dim=3 was requested$"):
            orthonormalize(vectors, ambient_dim=3)


class TestRankRule:
    @pytest.mark.parametrize("scale", [None, 1.0])
    def test_all_zero_spectrum_has_rank_zero_and_no_note(self, scale):
        with _collect_notes() as notes:
            assert _numerical_rank(np.zeros(3), DEFAULT_TOL, scale=scale) == 0
            assert _numerical_rank(np.zeros(0), DEFAULT_TOL, scale=scale) == 0
        assert notes == []


class TestLatticeOps:
    def test_meet_of_planes_is_their_common_line(self):
        a = orthonormalize([[1, 0, 0], [0, 1, 0]])
        b = orthonormalize([[0, 1, 0], [0, 0, 1]])
        m = meet(a, b)
        assert m.dim == 1
        assert same_subspace(m, line(0, 1, 0))

    def test_meet_with_zero(self):
        a = orthonormalize([[1, 0]])
        assert meet(a, Subspace.zero(2)).dim == 0

    def test_join_spans_both(self):
        a = line(1, 0, 0)
        b = line(0, 0, 1)
        j = join(a, b)
        assert j.dim == 2
        assert contains(j, a) and contains(j, b)

    def test_complement_oracle(self):
        # the zero and the full subspace take the general route, and the
        # complement keeps the basis's dtype, real or complex
        for dtype in (np.float64, np.complex128):
            assert same_subspace(complement(Subspace(np.array([[1], [0]], dtype=dtype))), line(0, 1))
            for k in range(4):
                basis = np.eye(3, dtype=dtype)[:, :k]
                rest = complement(Subspace(basis))
                assert rest.basis.dtype == dtype
                assert rest.dim == 3 - k
                assert same_subspace(join(Subspace(basis), rest), Subspace.full(3))
        assert complement(Subspace.zero(3)).is_full
        assert complement(Subspace.zero(3)).basis.dtype == np.float64
        assert complement(Subspace.full(3)).is_zero
        assert complement(Subspace.full(3)).basis.dtype == np.complex128

    def test_complement_within(self):
        whole = orthonormalize([[1, 0, 0], [0, 1, 0]])
        part = line(1, 0, 0)
        rest = complement_within(whole, part)
        assert same_subspace(rest, line(0, 1, 0))

    def test_complement_within_requires_containment(self):
        with pytest.raises(ValueError):
            complement_within(line(1, 0, 0), line(0, 1, 0))

    def test_complement_within_ignores_projection_noise(self):
        # part equals whole: the residual matrix is pure rounding noise and
        # must not be promoted to a dimension by the relative rank rule
        whole = orthonormalize([[1.0, 2.0, 3.0], [0.0, 1.0, 1.0]])
        rest = complement_within(whole, whole)
        assert rest.dim == 0

    def test_complement_within_takes_the_dimension_count(self):
        # containment noise of 3e-10 leaves a dropped singular value between
        # rank_rtol and 10 rank_rtol: the count decides, the warning reports
        whole = orthonormalize([[1, 0, 0], [0, 1, 0]])
        part = line(1, 0, 3e-10)
        with pytest.warns(ConditioningWarning, match="rank decision is fragile"):
            rest = complement_within(whole, part)
        assert rest.dim == 1
        assert same_subspace(rest, line(0, 1, 0))

    def test_complement_within_refuses_an_unclean_split(self):
        # a loose residual_tol admits a line 45 degrees out of the plane as
        # contained; the projected basis then has singular values 1 and
        # 1/sqrt(2), which no count splits cleanly
        loose = ToleranceConfig(residual_tol=0.9)
        whole = orthonormalize([[1, 0, 0], [0, 1, 0]])
        part = line(1, 0, 1)
        assert contains(whole, part, loose)
        with pytest.raises(ConditioningError, match="split cleanly"):
            complement_within(whole, part, loose)

    def test_ambient_mismatch_raises(self):
        with pytest.raises(ValueError):
            meet(line(1, 0), line(1, 0, 0))

    @pytest.mark.parametrize("call, count", [
        (lambda: meet(line(1, 0, 0), line(1, 3e-10, 0)), 1),
        (lambda: join(line(1, 0, 0), line(1, 3e-10, 0)), 1),
        (lambda: orthonormalize([[1.0, 0.0], [1.0, 3e-10]]), 1),
        (lambda: complement_within(orthonormalize([[1, 0, 0], [0, 1, 0]]), line(1, 0, 3e-10)), 1),
        (lambda: halmos_decompose(line(1, 0), line(np.cos(3e-9), np.sin(3e-9))), 1),
        (lambda: restricted_sum_operator(line(1, 0), line(np.cos(3e-9), np.sin(3e-9))), 1),
        # the image of a unit basis vector of length 3e-10, in the package's
        # own loop over the subspaces
        (lambda: verify_isomorphism(np.diag([1.0, 3e-10]), FULL_PLANE, FULL_PLANE), 1),
        # three near-cutoff pair decisions per skeleton, two levels down
        (lambda: brenner_invariants(NEAR_CUTOFF_TRIPLE), 3),
        (lambda: is_isomorphic_three(NEAR_CUTOFF_TRIPLE, SubspaceSystem.of(line(1, 0, 0), line(0, 1, 0), line(0, 0, 1))), 3),
        (lambda: isomorphism_between(NEAR_CUTOFF_TRIPLE, NEAR_CUTOFF_TRIPLE), 6),
    ], ids=["meet", "join", "orthonormalize", "complement_within", "halmos_decompose", "restricted_sum_operator",
            "verify_isomorphism", "brenner_invariants", "is_isomorphic_three", "isomorphism_between"])
    def test_near_cutoff_warning_names_the_caller(self, call, count):
        with pytest.warns(ConditioningWarning) as record:
            call()
        assert [w.filename for w in record] == [__file__] * count


class TestMetrics:
    def test_gap_of_two_lines_is_sine(self):
        theta = 0.3
        a = line(1.0, 0.0)
        b = line(np.cos(theta), np.sin(theta))
        assert abs(gap(a, b) - 0.29552020666133955) < 1e-12

    def test_gap_extremes(self):
        a = line(1, 0)
        assert gap(a, a) < 1e-15
        assert abs(gap(a, line(0, 1)) - 1.0) < 1e-12
        assert abs(gap(a, Subspace.zero(2)) - 1.0) < 1e-12
        assert gap(Subspace.zero(2), Subspace.zero(2)) == 0.0

    @pytest.mark.parametrize("seed", range(12))
    def test_gap_is_the_projection_difference_norm(self, seed):
        # thin residual against the n x n projection difference, on random
        # pairs and on pairs a small perturbation apart
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 31))
        k = int(rng.integers(1, n + 1))
        a = random_subspace(rng, n, k)
        noise = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        for b in (random_subspace(rng, n, k), orthonormalize((a.basis + 1e-6 * noise).T)):
            reference = np.linalg.norm(a.projection() - b.projection(), 2)
            assert abs(gap(a, b) - reference) <= 1e-12
            assert abs(gap(b, a) - reference) <= 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_gap_of_unequal_dimensions_is_exactly_one(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 31))
        small, large = sorted(rng.choice(n + 1, size=2, replace=False))
        a = random_subspace(rng, n, int(small))
        b = random_subspace(rng, n, int(large))
        inside = Subspace(b.basis[:, : int(small)])  # nested in b, still at gap 1
        assert gap(a, b) == gap(b, a) == gap(inside, b) == 1.0
        assert gap(Subspace.zero(n), Subspace.zero(n)) == 0.0

    def test_principal_angles_line_pair(self):
        theta = 0.3
        a = line(1.0, 0.0)
        b = line(np.cos(theta), np.sin(theta))
        angles = principal_angles(a, b)
        assert angles.shape == (1,)
        assert abs(angles[0] - theta) < 1e-12

    def test_principal_angles_orthogonal(self):
        angles = principal_angles(line(1, 0), line(0, 1))
        assert abs(angles[0] - np.pi / 2) < 1e-12

    def test_principal_angles_sorted_ascending(self):
        a = orthonormalize([[1, 0, 0, 0], [0, 1, 0, 0]])
        c1, s1 = np.cos(0.9), np.sin(0.9)
        c2, s2 = np.cos(0.2), np.sin(0.2)
        b = orthonormalize([[c1, 0, s1, 0], [0, c2, 0, s2]])
        angles = principal_angles(a, b)
        assert np.allclose(angles, [0.2, 0.9], atol=1e-12)

    def test_principal_angles_reject_zero(self):
        with pytest.raises(ValueError):
            principal_angles(line(1, 0), Subspace.zero(2))

    def test_contains(self):
        plane = orthonormalize([[1, 0, 0], [0, 1, 0]])
        assert contains(plane, line(1, 1, 0))
        assert not contains(plane, line(0, 0, 1))
        assert contains(plane, Subspace.zero(3))
        assert contains(Subspace.full(3), plane)


# Dimension identities must hold exactly, not within tolerance: meet and
# join read the same singular spectrum.
@given(
    n=st.integers(1, 8),
    da=st.integers(0, 8),
    db=st.integers(0, 8),
    seed=st.integers(0, 10**6),
)
def test_meet_join_dimension_identity(n, da, db, seed):
    rng = np.random.default_rng(seed)
    a = random_subspace(rng, n, min(da, n))
    b = random_subspace(rng, n, min(db, n))
    m = meet(a, b)
    j = join(a, b)
    assert m.dim + j.dim == a.dim + b.dim
    assert contains(a, m) and contains(b, m)
    assert contains(j, a) and contains(j, b)


@given(n=st.integers(1, 8), d=st.integers(0, 8), seed=st.integers(0, 10**6))
def test_complement_involution_and_dimension(n, d, seed):
    rng = np.random.default_rng(seed)
    a = random_subspace(rng, n, min(d, n))
    ac = complement(a)
    assert a.dim + ac.dim == n
    assert same_subspace(complement(ac), a)
    if a.dim and ac.dim:
        assert abs(principal_angles(a, ac).min() - np.pi / 2) < 1e-8


@given(
    n=st.integers(1, 7),
    da=st.integers(0, 7),
    db=st.integers(0, 7),
    seed=st.integers(0, 10**6),
)
def test_de_morgan(n, da, db, seed):
    rng = np.random.default_rng(seed)
    a = random_subspace(rng, n, min(da, n))
    b = random_subspace(rng, n, min(db, n))
    left = complement(join(a, b))
    right = meet(complement(a), complement(b))
    assert same_subspace(left, right)


@given(n=st.integers(2, 8), seed=st.integers(0, 10**6))
def test_gap_is_a_metric_on_examples(n, seed):
    rng = np.random.default_rng(seed)
    a = random_subspace(rng, n, rng.integers(1, n))
    b = random_subspace(rng, n, rng.integers(1, n))
    c = random_subspace(rng, n, rng.integers(1, n))
    assert gap(a, b) <= gap(a, c) + gap(c, b) + 1e-12
    assert abs(gap(a, b) - gap(b, a)) < 1e-12


def real_planted_pair(rng, both, only_a, only_b, neither, generic):
    """A real pair with the given part dimensions and ``generic`` angles in
    (0.05, 1.5), turned by a random orthogonal matrix and given random
    orthonormal bases of its own: float64 throughout."""
    n = both + only_a + only_b + neither + 2 * generic
    cuts = np.cumsum([both, only_a, only_b, neither, generic])
    shared, a, b, _, x, z = np.split(np.eye(n), cuts, axis=1)
    angles = rng.uniform(0.05, 1.5, generic)
    turn = np.linalg.qr(rng.standard_normal((n, n)))[0]
    first = turn @ np.hstack([shared, a, x])
    second = turn @ np.hstack([shared, b, x * np.cos(angles) + z * np.sin(angles)])
    return tuple(
        Subspace(m @ np.linalg.qr(rng.standard_normal((m.shape[1],) * 2))[0]) for m in (first, second)
    )


def as_complex(s):
    return Subspace(s.basis.astype(np.complex128))


def assert_same_subspace(x, y):
    assert x.dim == y.dim
    assert gap(x, y) <= 1e-12


class TestRealBases:
    """Real and complex128 bases of the same subspaces give the same
    results, alone and mixed."""

    # (in both, only first, only second, in neither, generic angles);
    # zero and full subspaces included
    SHAPES = [
        (0, 0, 3, 2, 0),  # first zero
        (0, 0, 0, 4, 0),  # both zero
        (2, 3, 0, 0, 0),  # first full
        (4, 0, 0, 0, 0),  # both full
        (0, 0, 0, 0, 3),  # generic only
        (1, 2, 1, 2, 3),  # all five parts
        (2, 0, 3, 1, 2),
    ]

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("shape", SHAPES)
    def test_mixing_dtypes_changes_no_result(self, shape, seed):
        a, b = real_planted_pair(np.random.default_rng(seed), *shape)
        assert a.basis.dtype == b.basis.dtype == np.float64
        ca, cb = as_complex(a), as_complex(b)
        reference = {
            "meet": meet(ca, cb), "join": join(ca, cb), "gap": gap(ca, cb),
            "halmos": halmos_decompose(ca, cb),
            "angles": principal_angles(ca, cb) if a.dim and b.dim else None,
        }
        halmos = reference["halmos"]
        dims = (halmos.in_both, halmos.only_first, halmos.only_second, halmos.in_neither, halmos.generic)
        assert tuple(part.dim for part in dims) == shape
        for x, y in [(a, b), (a, cb), (ca, b)]:
            assert_same_subspace(meet(x, y), reference["meet"])
            assert_same_subspace(join(x, y), reference["join"])
            assert abs(gap(x, y) - reference["gap"]) <= 1e-12
            if reference["angles"] is not None:
                # arccos turns a cosine's rounding into ~1e-8 near angle 0 in
                # either dtype (its known limit), so shared directions are
                # compared on the cosines the SVD returns, planted angles
                # (all above 0.05) directly
                angles, expected = principal_angles(x, y), reference["angles"]
                assert np.abs(np.cos(angles) - np.cos(expected)).max() <= 1e-12
                planted = expected > 0.01
                assert np.abs(angles[planted] - expected[planted]).max(initial=0.0) <= 1e-12
            halmos, expected = halmos_decompose(x, y), reference["halmos"]
            for name in ("in_both", "only_first", "only_second", "in_neither", "generic"):
                assert_same_subspace(getattr(halmos, name), getattr(expected, name))
            assert np.abs(halmos.angles - expected.angles).max(initial=0.0) <= 1e-12

    def test_real_pair_runs_on_real_lapack(self, monkeypatch):
        a, b = real_planted_pair(np.random.default_rng(0), 1, 2, 1, 2, 3)
        dtypes = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda m, *r, **k: dtypes.append(m.dtype) or svd(m, *r, **k))
        results = [meet(a, b), join(a, b), halmos_decompose(a, b).generic]
        principal_angles(a, b)
        assert dtypes and set(dtypes) == {np.dtype(np.float64)}
        assert {r.basis.dtype for r in results} == {np.dtype(np.float64)}
