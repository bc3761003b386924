"""Canonical decomposition of a system of three subspaces.

Every system of three subspaces (E1, E2, E3) of C^n splits, after an
invertible change of basis, into a direct sum of indecomposable blocks of
nine kinds: the eight "distributive" kinds, determined by which of the
three subspaces contain the block

    common   - contained in all three
    pair_jk  - contained in subspaces j and k only
    single_i - contained in subspace i only
    outside  - contained in none

and one genuinely two-dimensional kind, the double triangle: three lines
in a plane, pairwise spanning it.  The multiplicity of each kind is an
isomorphism invariant, and the full vector of nine multiplicities is a
complete invariant: two systems of three subspaces are isomorphic exactly
when their vectors agree.

The lattice pieces come off three full SVDs, one per pair [B_j | B_k]:
each gives the meet E_j ∩ E_k, the join E_j + E_k and an orthonormal
basis C_jk of the join's orthogonal complement.  The opposite E_i is split
against that join by one small SVD of C_jk^H B_i, whose singular values
are the sines of the angles between E_i and E_j + E_k: its null right
vectors give E_i ∩ (E_j + E_k), the others single_i, and for E3 its rank
gives E1 + E2 + E3 and its left vectors the outside part.

The constructive split works inside the sum E1 + E2.  Writing T for the
restriction of P1 + P2 to that sum (invertible there), the maps
A_i = P_i T^{-1} give a pair of complementary oblique projections; applied
to the residual part of E3 inside E1 + E2 they produce the two partner
line-families of the double-triangle blocks.  T is the Gram operator of
[B_1 | B_2], diagonalized by the SVD that gives the meet and join of E1 and
E2; the split is that SVD's pseudo-inverse.  The change of basis is then
read off one block at a time, and certified as what it is: an isomorphism
onto the coordinate normal form the nine multiplicities fix, by
:func:`verify_isomorphism`, whose worst gap and condition it reports.

Every block has only scalar endomorphisms, so a triple is transitive when
it has one block and decomposable when it has more; the projector onto one
block copy is then an idempotent witness.  :func:`find_nontrivial_idempotent`
and the ``analyze`` command read both facts off the decomposition; only
systems of other than three subspaces search ``hom_basis`` for a witness.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import accumulate
from typing import Optional

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    ConditioningError,
    Subspace,
    ToleranceConfig,
    _collect_notes,
    _column_span,
    _complement_in,
    _meet_join,
    _note,
    _split,
    gap,
    join,
    meet,
)
from .systems import (
    _SEARCH_TRIALS,
    IdempotentWitness,
    SubspaceSystem,
    _accept_idempotent,
    _certify_independent,
    _require_arity_three,
    _search_idempotent,
    _stacked_rank,
    hom_basis,
    verify_isomorphism,
)
from .two_subspaces import _oblique_split, _part_span

__all__ = [
    "BrennerCheck",
    "BrennerDecomposition",
    "InvariantVector",
    "brenner_decompose",
    "brenner_invariants",
    "find_nontrivial_idempotent",
    "is_isomorphic_three",
    "isomorphism_between",
    "normalize_double_triangle",
    "verify_brenner",
]

# Names of the nine block kinds, in the fixed slot order used everywhere.
SLOT_NAMES = (
    "common",
    "pair_23",
    "pair_13",
    "pair_12",
    "single_1",
    "single_2",
    "single_3",
    "triangle",
    "outside",
)

# Names of the eleven block subspaces, in BrennerDecomposition field order.
BLOCK_NAMES = SLOT_NAMES[:7] + ("triangle_1", "triangle_2", "triangle_3", "outside")

# The ten column groups of the change of basis, in stacking order.
_COLUMN_GROUPS = tuple(name for name in BLOCK_NAMES if name != "triangle_3")

# The distributive blocks of E1, E2 and E3; each also holds its triangle family.
_HELD = (("common", "pair_13", "pair_12", "single_1"), ("common", "pair_23", "pair_12", "single_2"),
         ("common", "pair_23", "pair_13", "single_3"))


@dataclass(frozen=True)
class InvariantVector:
    """Multiplicities of the nine block kinds, a complete isomorphism
    invariant of a three-subspace system.

    Each field counts blocks; the triangle blocks are two-dimensional, so
    they contribute twice their count to the ambient dimension.
    """

    common: int
    pair_23: int
    pair_13: int
    pair_12: int
    single_1: int
    single_2: int
    single_3: int
    triangle: int
    outside: int

    def __post_init__(self):
        for name in SLOT_NAMES:
            value = getattr(self, name)
            if int(value) != value or value < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
            object.__setattr__(self, name, int(value))

    @classmethod
    def from_iterable(cls, values) -> "InvariantVector":
        values = tuple(values)
        if len(values) != 9:
            raise ValueError(f"expected 9 multiplicities, got {len(values)}")
        return cls(*values)

    def as_tuple(self) -> tuple:
        return tuple(getattr(self, name) for name in SLOT_NAMES)

    @property
    def total_atoms(self) -> int:
        return sum(self.as_tuple())

    @property
    def total_dim(self) -> int:
        """Ambient dimension of any system with these multiplicities."""
        return self.total_atoms + self.triangle

    def __add__(self, other: "InvariantVector") -> "InvariantVector":
        return InvariantVector(*(x + y for x, y in zip(self.as_tuple(), other.as_tuple())))


@dataclass(frozen=True)
class BrennerDecomposition:
    """Concrete block decomposition of a three-subspace system.

    The eleven subspaces are linearly independent and fill the ambient
    space; ``change_of_basis`` maps the system onto the coordinate normal
    form, ``block_matrix`` is its inverse (the blocks' bases as columns,
    in slot order), and ``residual`` is the worst gap between a mapped
    subspace and its normal-form target, by :func:`verify_isomorphism`,
    which also gives the change of basis its condition.  ``verified`` is
    that certificate's verdict: the change of basis is invertible and
    every gap is within ``residual_tol``.  As the nine multiplicities are a
    complete invariant, it certifies the whole decomposition;
    :func:`verify_brenner` checks the same fact by an independent route.
    ``sum_operator_sigma_min``
    certifies the conditioning of the oblique split used for the triangle
    part (None when there is no triangle part).  The conditioning notes of the call (rank
    decisions near the cutoff, condition numbers over ``cond_warn``, a
    ``residual`` over ``residual_tol``) are collected per call and per
    thread into ``warnings``; any note marks the result as not trusted.
    """

    common: Subspace
    pair_23: Subspace
    pair_13: Subspace
    pair_12: Subspace
    single_1: Subspace
    single_2: Subspace
    single_3: Subspace
    triangle_1: Subspace
    triangle_2: Subspace
    triangle_3: Subspace
    outside: Subspace
    change_of_basis: np.ndarray
    block_matrix: np.ndarray
    residual: float
    verified: bool
    sum_operator_sigma_min: Optional[float]
    warnings: tuple

    @property
    def invariants(self) -> InvariantVector:
        return _invariants_of(vars(self))

    @property
    def trusted(self) -> bool:
        return not self.warnings


@dataclass(frozen=True)
class BrennerCheck:
    """Construction-independent verdict on a claimed decomposition."""

    subspace_gaps: tuple
    triangle_dims_equal: bool
    triangle_meet_dims: tuple
    triangle_join_gaps: tuple
    independent: bool
    spanning_deficit: int
    passed: bool

    @property
    def max_gap(self) -> float:
        worst = max(self.subspace_gaps) if self.subspace_gaps else 0.0
        if self.triangle_join_gaps:
            worst = max(worst, max(self.triangle_join_gaps))
        return worst


def _skeleton(system: SubspaceSystem, tol: ToleranceConfig):
    """All intersection-determined pieces of the decomposition.

    Returns a dict with the seven distributive pieces, the third triangle
    family, the outside part, ``join_12`` = E1 + E2 and ``factors_12``, the
    SVD of (E1, E2) from ``_meet_join``.

    Three factorizations of pairs serve the whole lattice.  Each pair SVD
    gives the meet and join E_j + E_k and, in its full ``u``, a basis of
    (E_j + E_k)^⊥; each E_i is split against the opposite join by one small
    SVD of that basis against B_i (:func:`_split`), which gives single_i,
    E_i ∩ (E_j + E_k) and, for E3, the rank that makes E1 + E2 + E3 and the
    outside part.  E1's and E2's split ranks must obey the modular law against
    that total (E3's obeys it by how its split counts), and the triangle
    count must match the one the law then gives, checked at no
    factorization cost; a violation is an unstable rank decision and
    raises :class:`ConditioningError`.
    """
    e1, e2, e3 = system.subspaces
    meet_12, join_12, factors_12 = _meet_join(e1, e2, tol)
    meet_13, join_13, factors_13 = _meet_join(e1, e3, tol)
    meet_23, join_23, factors_23 = _meet_join(e2, e3, tol)
    common = meet(meet_12, e3, tol)

    pair_23 = _complement_in(meet_23, common, tol)
    pair_13 = _complement_in(meet_13, common, tol)
    pair_12 = _complement_in(meet_12, common, tol)

    single_1, inside_1, _ = _split(e1, factors_23[0][:, join_23.dim:], tol)
    single_2, inside_2, _ = _split(e2, factors_13[0][:, join_13.dim:], tol)
    single_3, inside_3, outside = _split(e3, factors_12[0][:, join_12.dim:], tol)
    total = join_12.dim + single_3.dim

    # The triangle part of E3: what is inside E1 + E2 beyond the parts E3
    # shares with E1 and with E2 individually.
    shared_3 = join(meet_13, meet_23, tol)
    triangle_3 = _complement_in(inside_3, shared_3, tol)

    # Modular law: dim E_i ∩ (E_j + E_k) = d_i + dim(E_j + E_k) - dim(E1 + E2 + E3),
    # the total being dim(E1 + E2) plus the rank of E3's split (so E3 obeys it).
    for i, (others, inside) in enumerate(((join_23, inside_1), (join_13, inside_2))):
        expected = system.subspaces[i].dim + others.dim - total
        if inside.dim != expected:
            raise ConditioningError(
                f"E{i + 1} meets the other two in {inside.dim} dimensions, the modular "
                f"law demands {expected}; rank decisions were inconsistent"
            )
    # By the law each E_i has sum(d) - sum(dim meets) - total + common directions
    # of its intersection beyond meet_ij + meet_ik; E3's are the triangle family.
    excess = inside_1.dim - meet_12.dim - meet_13.dim + common.dim
    if excess != triangle_3.dim:
        raise ConditioningError(
            f"triangle multiplicities disagree: {excess} by the counts, {triangle_3.dim} "
            f"beyond E3's shared part; rank decisions were inconsistent"
        )

    return {
        "common": common,
        "pair_23": pair_23,
        "pair_13": pair_13,
        "pair_12": pair_12,
        "single_1": single_1,
        "single_2": single_2,
        "single_3": single_3,
        "triangle_3": triangle_3,
        "outside": outside,
        "join_12": join_12,
        "factors_12": factors_12,
    }


def _is_double_triangle(invariants: InvariantVector) -> bool:
    """Every block a triangle: on a checked skeleton, the verdict of
    ``detect_double_triangle`` (zero pairwise meets, full pairwise joins)."""
    return 0 < invariants.triangle == invariants.total_atoms


def _invariants_of(pieces) -> InvariantVector:
    """Multiplicity vector read off the pieces of a skeleton or of a
    decomposition (a mapping from piece names to subspaces): the dimension
    of each piece, with the third triangle family standing for the
    triangle count."""
    return InvariantVector(*(
        pieces["triangle_3" if name == "triangle" else name].dim for name in SLOT_NAMES
    ))


def brenner_invariants(system: SubspaceSystem, tol: ToleranceConfig = DEFAULT_TOL) -> InvariantVector:
    """Multiplicity vector of a three-subspace system, without building the
    change of basis.  Cheaper than :func:`brenner_decompose` and enough for
    isomorphism testing."""
    _require_arity_three(system)
    return _invariants_of(_skeleton(system, tol))


def brenner_decompose(system: SubspaceSystem, tol: ToleranceConfig = DEFAULT_TOL) -> BrennerDecomposition:
    """Full canonical decomposition of a three-subspace system.

    Builds the eleven block subspaces, the invertible change of basis onto
    the coordinate normal form, and a residual certifying the result.  The
    intersection skeleton is computed once and serves both the invariants
    and the change of basis.  Rank-decision inconsistencies raise
    :class:`ConditioningError`; conditioning notes are collected into
    ``warnings`` on the result, for this call and thread alone, not emitted.
    """
    _require_arity_three(system)
    with _collect_notes() as notes:
        decomposition = _assemble(system, _skeleton(system, tol), tol)
    return replace(decomposition, warnings=tuple(notes))


def _change_of_basis_columns(system: SubspaceSystem, pieces, tol: ToleranceConfig):
    """The uncertified change of basis built on a skeleton: the oblique
    split of the triangle part, the independence check on the blocks (their
    dimensions add up to n by the skeleton's checked counts) and the matrix
    whose columns are the blocks' bases in slot order.

    Returns ``(block_matrix, triangle_1, triangle_2)``; the columns are
    laid out as :func:`_layout` gives them.  Its notes go through
    ``_note``; the caller decides where they are collected."""
    e1 = system.subspaces[0]
    triangle_3 = pieces["triangle_3"]

    if triangle_3.dim:
        q1_vectors, q2_vectors = _oblique_split(e1, pieces["factors_12"], pieces["join_12"].dim, triangle_3.basis)
        triangle_1 = _part_span(q1_vectors, tol, "first triangle family")
        triangle_2 = _part_span(q2_vectors, tol, "second triangle family")
    else:  # no triangle part: every triangle piece is zero
        q1_vectors = q2_vectors = triangle_3.basis
        triangle_1 = triangle_2 = triangle_3

    # Independence is decided on the orthonormal block bases; the raw
    # triangle columns span the same two blocks in another basis.
    blocks = [pieces[name] for name in BLOCK_NAMES[:7]]
    blocks += [triangle_1, triangle_2, pieces["outside"]]
    _certify_independent(blocks, tol, "block directions")

    # Change of basis: blocks in slot order, with the triangle columns
    # kept raw (q1 then q2) so that the third family lands exactly on
    # the diagonal pairs of coordinates.
    columns = [b.basis for b in blocks[:7]] + [q1_vectors, q2_vectors, pieces["outside"].basis]
    return np.hstack(columns), triangle_1, triangle_2


def _assemble(system: SubspaceSystem, pieces, tol: ToleranceConfig) -> BrennerDecomposition:
    """Everything after the skeleton: the restricted sum operator's
    condition (off the SVD of (E1, E2)), then the change of basis C of
    :func:`_change_of_basis_columns`, certified by :func:`verify_isomorphism`
    onto :func:`_normal_form`.  Its notes go through ``_note`` in that
    order; the caller decides where they are collected."""
    sigma_min = None
    if pieces["triangle_3"].dim:
        spectrum = pieces["factors_12"][1][: pieces["join_12"].dim] ** 2
        sigma_min = float(spectrum[-1])
        if spectrum[0] / sigma_min > tol.cond_warn:
            _note(f"restricted sum operator has condition {spectrum[0] / sigma_min:.3e}")
    block_matrix, triangle_1, triangle_2 = _change_of_basis_columns(system, pieces, tol)
    change_of_basis = np.linalg.inv(block_matrix)
    report = verify_isomorphism(change_of_basis, system, _normal_form(_invariants_of(pieces)), tol)
    if report.condition > tol.cond_warn:
        _note(f"change of basis has condition {report.condition:.3e}")
    if report.max_gap > tol.residual_tol:
        _note(f"normal-form residual {report.max_gap:.3e} exceeds residual_tol {tol.residual_tol:.3e}")

    return BrennerDecomposition(
        **{name: pieces[name] for name in BLOCK_NAMES if name in pieces},
        triangle_1=triangle_1,
        triangle_2=triangle_2,
        change_of_basis=change_of_basis,
        block_matrix=block_matrix,
        residual=report.max_gap,
        verified=report.passed,
        sum_operator_sigma_min=sigma_min,
        warnings=(),
    )


def _layout(invariants: InvariantVector) -> dict:
    """Normal-form coordinates of each column group, keyed by name, in the
    order :func:`_change_of_basis_columns` stacks them: one per copy of the
    seven distributive kinds, then q1 (``triangle_1``) and q2
    (``triangle_2``) of each triangle, then one per outside copy."""
    sizes = invariants.as_tuple()[:7] + (invariants.triangle, invariants.triangle, invariants.outside)
    return {name: range(end - size, end) for name, size, end in zip(_COLUMN_GROUPS, sizes, accumulate(sizes))}


def _normal_form(invariants: InvariantVector) -> SubspaceSystem:
    """The coordinate normal form of the triples with these invariants:
    each E_i is spanned by the :func:`_layout` coordinates of its blocks,
    E1 and E2 by q1 and q2, and E3 by the diagonals (q1_j + q2_j) / sqrt(2)."""
    at = _layout(invariants)
    identity = np.eye(invariants.total_dim)
    q1, q2 = identity[:, at["triangle_1"]], identity[:, at["triangle_2"]]
    return SubspaceSystem.of(*(
        Subspace._unchecked(np.hstack([identity[:, [i for name in names for i in at[name]]], triangle]))
        for names, triangle in zip(_HELD, (q1, q2, (q1 + q2) / np.sqrt(2.0)))
    ))


def _atom_idempotent(
    system: SubspaceSystem, decomposition: BrennerDecomposition, tol: ToleranceConfig
) -> Optional[IdempotentWitness]:
    """Idempotent witness splitting one block copy off a triple, or None
    when the triple is a single block.

    In normal-form coordinates the projector D onto the coordinates of one
    block copy (one coordinate, or the (q1_j, q2_j) pair of a triangle)
    maps every normal-form subspace into itself, so P = B D C with C the
    change of basis and B its inverse, the block matrix, is an idempotent
    endomorphism of the system.  The copy whose projector has the smallest
    norm is taken, the best conditioned split; it is scored by
    |B[:, idx]| |C[idx, :]|, which for a rank-one projector is its 2-norm.
    Ties go to the first copy in slot order.  A projector that fails the
    witness tests of the idempotent search raises
    :class:`ConditioningError`.
    """
    c, b = decomposition.change_of_basis, decomposition.block_matrix
    invariants = decomposition.invariants
    if invariants.total_atoms == 1:
        return None
    at = _layout(invariants)
    copies = [(i,) for name in SLOT_NAMES[:7] for i in at[name]]
    copies += list(zip(at["triangle_1"], at["triangle_2"]))
    copies += [(i,) for i in at["outside"]]
    column_mass = (np.abs(b) ** 2).sum(axis=0)
    row_mass = (np.abs(c) ** 2).sum(axis=1)

    def squared_score(copy):
        return column_mass[list(copy)].sum() * row_mass[list(copy)].sum()

    idx = list(min(copies, key=squared_score))
    witness = _accept_idempotent(b[:, idx] @ c[idx, :], system, tol)
    if witness is None:
        raise ConditioningError(
            f"projector onto a block copy fails the idempotent witness tests "
            f"({invariants.total_atoms} blocks)"
        )
    return witness


def find_nontrivial_idempotent(
    system: SubspaceSystem,
    tol: ToleranceConfig = DEFAULT_TOL,
    trials: int = _SEARCH_TRIALS,
    seed: int = 0,
) -> Optional[IdempotentWitness]:
    """A nontrivial idempotent endomorphism of the system, or None when it
    is indecomposable.

    A triple is read off :func:`brenner_decompose`: None for one block,
    else the projector onto the block copy of smallest norm.  A triple it
    cannot decide raises :class:`ConditioningError`, and ``trials`` and
    ``seed`` have no effect on it.  Any other arity runs the seeded random
    search over one ``hom_basis``: ``trials`` draws of End(system), for
    which None is strong evidence of indecomposability.
    """
    return _endomorphisms(system, tol, trials, seed)[1]


def _endomorphisms(system: SubspaceSystem, tol: ToleranceConfig, trials: int = _SEARCH_TRIALS, seed: int = 0):
    """``(transitive, witness, invariants)`` of a system by its one route.

    A triple takes one :func:`brenner_decompose`, whose notes are
    re-emitted, and :func:`_atom_idempotent`; ``invariants`` is its
    multiplicity vector.  Any other arity takes one ``hom_basis`` and the
    seeded search over it; ``invariants`` is None."""
    if system.arity == 3:
        decomposition = brenner_decompose(system, tol)
        for note in decomposition.warnings:
            _note(note)
        invariants = decomposition.invariants
        return invariants.total_atoms == 1, _atom_idempotent(system, decomposition, tol), invariants
    endos = hom_basis(system, system, tol)
    return endos.dim == 1, _search_idempotent(system, endos, tol, trials, seed), None


def verify_brenner(
    system: SubspaceSystem,
    decomposition: BrennerDecomposition,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> BrennerCheck:
    """Check a claimed decomposition against the system, independently of
    how it was constructed.

    Verifies that each subspace equals the sum of its assigned blocks, that
    the three triangle families are pairwise skew with equal dimensions and
    a common two-family span, and that all eleven blocks together are
    independent and fill the space.  Accepts any valid choice of triangle
    families, not only the one :func:`brenner_decompose` makes.
    """
    _require_arity_three(system)
    d = decomposition
    n = system.ambient_dim

    q = (d.triangle_1, d.triangle_2, d.triangle_3)
    subspace_gaps = []
    for e, names, triangle in zip(system.subspaces, _HELD, q):
        stacked = np.hstack([getattr(d, name).basis for name in names] + [triangle.basis])
        image = Subspace._unchecked(_column_span(stacked, tol))
        subspace_gaps.append(float(gap(image, e)))

    dims_equal = q[0].dim == q[1].dim == q[2].dim
    meets, joins, _ = zip(*(_meet_join(q[i], q[j], tol) for i, j in ((0, 1), (1, 2), (2, 0))))
    meet_dims = tuple(m.dim for m in meets)
    join_gaps = tuple(
        float(gap(joins[i], joins[j])) for i, j in ((0, 1), (1, 2), (2, 0))
    )
    joins_sized = all(j.dim == 2 * q[2].dim for j in joins)

    # the third triangle family lies in the span of the other two
    all_blocks = [getattr(d, name) for name in _COLUMN_GROUPS]
    total = sum(b.dim for b in all_blocks)
    rank = _stacked_rank(all_blocks, tol)
    independent = rank == total
    deficit = n - rank

    passed = (
        max(subspace_gaps) <= tol.residual_tol
        and dims_equal
        and joins_sized
        and all(m == 0 for m in meet_dims)
        and (not join_gaps or max(join_gaps) <= tol.residual_tol)
        and independent
        and deficit == 0
    )
    return BrennerCheck(
        subspace_gaps=tuple(subspace_gaps),
        triangle_dims_equal=dims_equal,
        triangle_meet_dims=meet_dims,
        triangle_join_gaps=join_gaps,
        independent=independent,
        spanning_deficit=int(deficit),
        passed=bool(passed),
    )


def normalize_double_triangle(system: SubspaceSystem, tol: ToleranceConfig = DEFAULT_TOL):
    """Normal form for a double-triangle system (three pairwise-spanning,
    pairwise-skew subspaces of C^(2k)).

    Returns ``(k, map)`` where the invertible map carries the three
    subspaces onto K + 0, 0 + K and the diagonal copy of K, in that order
    (coordinates split as the first k against the last k).

    A double triangle is a system whose Brenner normal form has k triangle
    blocks and nothing else, so the system is decomposed first (failure
    raises :class:`ConditioningError`), any other block raises
    ``ValueError``, and the map is the change of basis of
    :func:`brenner_decompose`; its conditioning notes are re-emitted as
    :class:`ConditioningWarning`.
    """
    decomposition = brenner_decompose(system, tol)
    if not _is_double_triangle(decomposition.invariants):
        raise ValueError("not a double triangle: need pairwise trivial meets and pairwise full joins")
    for note in decomposition.warnings:
        _note(note)
    return decomposition.invariants.triangle, decomposition.change_of_basis


def is_isomorphic_three(a: SubspaceSystem, b: SubspaceSystem, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Isomorphism test for systems of three subspaces: compare the
    complete multiplicity invariants."""
    _require_arity_three(a)
    _require_arity_three(b)
    if a.ambient_dim != b.ambient_dim:
        return False
    return brenner_invariants(a, tol) == brenner_invariants(b, tol)


def _invariants_and_witness(a: SubspaceSystem, b: SubspaceSystem, tol: ToleranceConfig):
    """``(invariants of a, invariants of b, witness or None)`` from one
    skeleton per system.

    The skeletons give both invariant vectors; only when they agree and
    the ambient dimensions match are the skeletons built into changes of
    basis (:func:`_change_of_basis_columns`), and the witness is a's change
    of basis composed with the inverse of b's, C_b^-1 C_a = B_b B_a^-1 for
    the block matrices B = C^-1.  Nothing is certified here: where
    :func:`brenner_decompose` certifies C by ``verify_isomorphism`` onto
    the normal form, the caller certifies the witness by it onto b.
    Notes from the skeletons reach the caller as
    :class:`ConditioningWarning`; those from building the changes of
    basis are collected for this call alone and dropped.  Callers check arity.
    """
    pieces_a = _skeleton(a, tol)
    pieces_b = _skeleton(b, tol)
    invariants_a, invariants_b = _invariants_of(pieces_a), _invariants_of(pieces_b)
    if a.ambient_dim != b.ambient_dim or invariants_a != invariants_b:
        return invariants_a, invariants_b, None
    with _collect_notes():
        block_a = _change_of_basis_columns(a, pieces_a, tol)[0]
        block_b = _change_of_basis_columns(b, pieces_b, tol)[0]
    witness = block_b @ np.linalg.inv(block_a)
    return invariants_a, invariants_b, witness


def isomorphism_between(a: SubspaceSystem, b: SubspaceSystem, tol: ToleranceConfig = DEFAULT_TOL):
    """Explicit isomorphism from system a onto system b, or None.

    Each system is decomposed once.  When the invariants agree, both
    systems map onto the same coordinate normal form; composing a's change
    of basis with the inverse of b's gives the witness.
    """
    _require_arity_three(a)
    _require_arity_three(b)
    if a.ambient_dim != b.ambient_dim:
        return None
    return _invariants_and_witness(a, b, tol)[2]
