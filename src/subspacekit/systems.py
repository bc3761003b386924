"""Systems of subspaces: direct sums, morphisms, and decomposability.

A :class:`SubspaceSystem` is an ambient dimension together with an ordered
tuple of subspaces of that ambient space.  Morphisms between systems are
the linear maps carrying the i-th subspace of the source into the i-th
subspace of the target; :func:`hom_basis` computes a basis of that space by
solving its largest constraint exactly and extracting the null space of the
rest, and :func:`is_transitive` and the random idempotent search
(``_search_idempotent``) are built on top of it.  That null space still
has up to n^2 coordinates, so the search runs only on systems of other
than three subspaces: ``brenner.find_nontrivial_idempotent`` reads a
triple's split off its Brenner decomposition instead.

Decomposability is handled the honest way round: a system is declared
decomposable only by exhibiting a nontrivial idempotent endomorphism, and
the resulting split is returned together with the witness so it can be
re-verified independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    ConditioningError,
    Subspace,
    ToleranceConfig,
    _column_span,
    _numerical_rank,
    _part_span,
    _unclean_split,
    complement,
    contains,
    gap,
)

__all__ = [
    "HomBasis",
    "IdempotentWitness",
    "IsomorphismReport",
    "SubspaceSystem",
    "are_linearly_independent",
    "detect_double_triangle",
    "detect_pentagon",
    "direct_sum",
    "hom_basis",
    "is_commutative",
    "is_transitive",
    "map_system",
    "restrict_system",
    "split_by_idempotent",
    "verify_isomorphism",
]

# Eigenvalues of a normalized random endomorphism closer than this are
# treated as one spectral cluster during the idempotent search.
_CLUSTER_GAP = 1e-6

# Random draws before the idempotent search gives up.
_SEARCH_TRIALS = 8


@dataclass(frozen=True)
class SubspaceSystem:
    """An ordered system of subspaces of one ambient space C^n."""

    ambient_dim: int
    subspaces: tuple
    labels: Optional[tuple] = None

    def __post_init__(self):
        subspaces = tuple(self.subspaces)
        if self.ambient_dim < 1:
            raise ValueError("ambient dimension must be at least 1")
        for s in subspaces:
            if not isinstance(s, Subspace):
                raise TypeError(f"expected Subspace, got {type(s).__name__}")
            if s.ambient_dim != self.ambient_dim:
                raise ValueError(
                    f"subspace ambient {s.ambient_dim} does not match system ambient {self.ambient_dim}"
                )
        labels = self.labels
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != len(subspaces):
                raise ValueError("labels and subspaces must have equal length")
        object.__setattr__(self, "subspaces", subspaces)
        object.__setattr__(self, "labels", labels)

    @classmethod
    def of(cls, *subspaces: Subspace, labels=None) -> "SubspaceSystem":
        if not subspaces:
            raise ValueError("a system needs at least one subspace")
        return cls(subspaces[0].ambient_dim, tuple(subspaces), labels)

    @property
    def arity(self) -> int:
        return len(self.subspaces)

    def dims(self) -> tuple:
        return tuple(s.dim for s in self.subspaces)

    def __repr__(self):
        return f"SubspaceSystem(ambient={self.ambient_dim}, dims={list(self.dims())})"


@dataclass(frozen=True)
class HomBasis:
    """Basis of the space of morphisms from ``source`` to ``target``.

    ``maps`` is a tuple of (target_ambient, source_ambient) matrices that
    is orthonormal in the Frobenius inner product.
    """

    source: SubspaceSystem
    target: SubspaceSystem
    maps: tuple

    @property
    def dim(self) -> int:
        return len(self.maps)


@dataclass(frozen=True)
class IdempotentWitness:
    """A nontrivial idempotent endomorphism, with its image/kernel split."""

    map: np.ndarray
    split: tuple  # (image, kernel) as Subspace values


@dataclass(frozen=True)
class IsomorphismReport:
    """Residuals certifying (or refuting) that a map is an isomorphism of
    systems.  ``passed`` requires invertibility and every per-subspace gap
    within residual_tol."""

    per_subspace_gaps: tuple
    sigma_min: float
    sigma_max: float
    passed: bool

    @property
    def max_gap(self) -> float:
        return max(self.per_subspace_gaps) if self.per_subspace_gaps else 0.0

    @property
    def condition(self) -> float:
        return self.sigma_max / self.sigma_min if self.sigma_min > 0.0 else float("inf")


def direct_sum(*systems: SubspaceSystem) -> SubspaceSystem:
    """Block-diagonal sum of one or more systems with equal arity.

    The i-th subspace of the sum is the block-diagonal complex128 basis of
    the members' i-th subspaces, in the order given.  ``direct_sum(a, b, c)``
    equals ``direct_sum(direct_sum(a, b), c)`` bit for bit, but builds each
    basis once.  Labels are kept only when every member has the same labels.
    """
    if not systems:
        raise ValueError("direct_sum needs at least one system")
    first = systems[0]
    for other in systems[1:]:
        if other.arity != first.arity:
            raise ValueError(f"cannot sum systems of arity {first.arity} and {other.arity}")
    n = sum(s.ambient_dim for s in systems)
    pieces = []
    for members in zip(*(s.subspaces for s in systems)):
        basis = np.zeros((n, sum(m.dim for m in members)), dtype=np.complex128)
        row = column = 0
        for m in members:
            basis[row : row + m.ambient_dim, column : column + m.dim] = m.basis
            row += m.ambient_dim
            column += m.dim
        pieces.append(Subspace._unchecked(basis))
    labels = first.labels if all(s.labels == first.labels for s in systems) else None
    return SubspaceSystem(n, tuple(pieces), labels)


def map_system(matrix: np.ndarray, system: SubspaceSystem, tol: ToleranceConfig = DEFAULT_TOL) -> SubspaceSystem:
    """Apply an invertible linear map to every subspace of a system.

    Each image is spanned by ``linalg._part_span``, which raises
    :class:`ConditioningError` if it drops dimension: for an invertible map
    that can only mean the rank rule broke down.
    """
    matrix = np.asarray(matrix, dtype=np.complex128)
    n = system.ambient_dim
    if matrix.shape != (n, n):
        raise ValueError(f"map must be {n}x{n}, got {matrix.shape}")
    images = (_part_span(matrix @ s.basis, tol, f"image of a {s.dim}-dimensional subspace")
              for s in system.subspaces)
    return SubspaceSystem(n, tuple(images), system.labels)


def restrict_system(system: SubspaceSystem, carrier: Subspace, tol: ToleranceConfig = DEFAULT_TOL) -> SubspaceSystem:
    """Re-express a system inside a carrier subspace containing all of it.

    The result lives in C^(dim carrier), with coordinates taken in the
    carrier's basis.
    """
    if carrier.ambient_dim != system.ambient_dim:
        raise ValueError("carrier lives in a different ambient space")
    if carrier.dim == 0:
        raise ValueError("cannot restrict to the zero subspace")
    pieces = []
    for s in system.subspaces:
        if not contains(carrier, s, tol):
            raise ValueError("carrier does not contain every subspace of the system")
        pieces.append(_in_carrier_coords(s.basis, carrier))
    return SubspaceSystem(carrier.dim, tuple(pieces), system.labels)


def hom_basis(source: SubspaceSystem, target: SubspaceSystem, tol: ToleranceConfig = DEFAULT_TOL) -> HomBasis:
    """Orthonormal basis of Hom(source, target).

    A map X from C^n to C^m qualifies when C_i^H X B_i = 0 for every index
    i, where B_i is a basis of E_i (dimension d_i) and C_i one of the
    orthogonal complement of F_i (dimension f_i): (m - f_i) d_i linear
    conditions on X.  The constraint k with the most of them, r, is solved
    exactly.  In the unitary bases U = [B_k | B_k^perp] of C^n and
    V = [B_Fk | C_k] of C^m, X = V Y U^H meets it exactly when the block
    Y[f_k:, :d_k] vanishes.  Every other constraint j becomes
    (U^H B_j)^T kron (C_j^H V) on the mn - r free entries of Y, and one SVD
    of that (R - r) x (mn - r) stack, for R conditions in all, gives their
    null space.  Its rank is decided at scale max(1, sigma_max), never
    below the scale of the full stack of all R conditions, where
    constraint k alone has singular values 1: the reduced stack is
    numerically zero when constraint k implies the others, and a cutoff
    relative to its own largest value would count its rounding as rank.
    The change of variables is unitary, so the maps V Y U^H are orthonormal
    in the Frobenius inner product.
    """
    if source.arity != target.arity:
        raise ValueError(f"arity mismatch: {source.arity} vs {target.arity}")
    m, n = target.ambient_dim, source.ambient_dim
    # no subspaces: a zero one constrains nothing
    pairs = list(zip(source.subspaces, target.subspaces)) or [(Subspace.zero(n), Subspace.zero(m))]
    k = max(range(len(pairs)), key=lambda i: (m - pairs[i][1].dim) * pairs[i][0].dim)
    e_k, f_k = pairs[k]
    # the complement of every F_i, and of E_k unless it is F_k
    perps = [complement(side).basis for side in [f for _, f in pairs] + ([] if e_k is f_k else [e_k])]
    e_perp = perps[k] if e_k is f_k else perps[-1]
    u, v = np.hstack([e_k.basis, e_perp]), np.hstack([f_k.basis, perps[k]])
    # the column-major entries of Y outside its block Y[f_k:, :d_k]
    free = np.ones((m, n), dtype=bool)
    free[f_k.dim :, : e_k.dim] = False
    free = free.ravel(order="F")
    blocks = [np.zeros((0, np.count_nonzero(free)))]
    for j, ((e, _), c) in enumerate(zip(pairs, perps)):
        if j != k:
            blocks.append(np.kron((u.conj().T @ e.basis).T, c.conj().T @ v)[:, free])
    _, s, vh = np.linalg.svd(np.vstack(blocks), full_matrices=True)
    null = vh[_numerical_rank(s, tol, scale=s.max(initial=1.0)) :].conj()
    y = np.zeros((null.shape[0], m * n), dtype=null.dtype)
    y[:, free] = null
    maps = v @ y.reshape(-1, n, m).transpose(0, 2, 1) @ u.conj().T
    return HomBasis(source, target, tuple(maps))


def is_transitive(system: SubspaceSystem, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True when the endomorphism space is exactly the scalars."""
    return hom_basis(system, system, tol).dim == 1


def is_commutative(system: SubspaceSystem, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True when all projections onto the subspaces pairwise commute.

    Each pair is read off its cross-Gram G = B_a^H B_b, and no n x n
    projection is formed:

        ||P_a P_b - P_b P_a|| = ||(I - P_a) P_b P_a|| = ||(B_b - B_a G) G^H||.

    In the split C^n = ran P_a + ker P_a, P_b has off-diagonal block X, the
    commutator is [[0, X], [-X^H, 0]] and (I - P_a) P_b P_a is [[0, 0],
    [X^H, 0]]: both have norm ||X||.  The latter is (B_b - B_a G) G^H B_a^H,
    and dropping the factor B_a^H, whose rows are orthonormal, keeps the
    2-norm.  A zero subspace commutes with everything and is skipped.

    Note this is a property of the embedding, not of the isomorphism class:
    an invertible map can demote a commuting system to a non-commuting one.
    """
    bases = [s.basis for s in system.subspaces if s.dim]
    for i, b_a in enumerate(bases):
        for b_b in bases[i + 1 :]:
            gram = b_a.conj().T @ b_b
            if np.linalg.norm((b_b - b_a @ gram) @ gram.conj().T, 2) > tol.residual_tol:
                return False
    return True


def _eigenvalue_clusters(values: np.ndarray, resolution: float):
    """Connected components of the spectrum at the given absolute gap, each
    sorted, in the order of their least index.  Squaring the adjacency
    ``|values[i] - values[j]| < resolution`` until it stops growing gives
    its transitive closure; each index is labelled by the least index it
    reaches."""
    reach = np.abs(values[:, None] - values[None, :]) < resolution
    np.fill_diagonal(reach, True)
    while True:
        grown = reach @ reach
        if np.array_equal(grown, reach):
            break
        reach = grown
    labels = reach.argmax(axis=1)
    return [np.flatnonzero(labels == label) for label in sorted(set(labels.tolist()))]


def _search_idempotent(
    system: SubspaceSystem,
    endos: HomBasis,
    tol: ToleranceConfig,
    trials: int,
    seed: int,
) -> Optional[IdempotentWitness]:
    """Search for a nontrivial idempotent among random elements of
    End(system), given in an already computed basis ``endos``.

    Each draw is normalized to operator norm 1, its spectrum split into
    clusters at absolute resolution 1e-6, and the spectral projection onto
    one cluster tried as a witness.  For a decomposable system a random
    element separates the summands with probability 1; ``trials`` failures
    in a row is strong evidence of indecomposability, reported as None.
    Deterministic for a fixed ``seed``."""
    if endos.dim <= 1:
        return None
    stacked = np.stack(endos.maps)
    rng = np.random.default_rng(seed)
    for _ in range(int(trials)):
        coeff = rng.standard_normal(endos.dim) + 1j * rng.standard_normal(endos.dim)
        x = np.tensordot(coeff, stacked, axes=1)
        norm = np.linalg.norm(x, 2)
        if norm == 0.0:
            continue
        x = x / norm
        eigenvalues, eigenvectors = np.linalg.eig(x)
        clusters = _eigenvalue_clusters(eigenvalues, _CLUSTER_GAP)
        if len(clusters) < 2:
            continue
        # Deterministic cluster pick: the one whose mean eigenvalue is
        # largest in lexicographic (real, imag) order.
        chosen = max(
            clusters,
            key=lambda idx: (eigenvalues[idx].real.mean(), eigenvalues[idx].imag.mean()),
        )
        try:
            inverse = np.linalg.inv(eigenvectors)
        except np.linalg.LinAlgError:
            continue
        witness = _accept_idempotent(eigenvectors[:, chosen] @ inverse[chosen, :], system, tol)
        if witness is not None:
            return witness
    return None


def _idempotent_defect(p: np.ndarray, system: SubspaceSystem, tol: ToleranceConfig) -> Optional[str]:
    """The first test of idempotency, nontriviality and the endomorphism
    property (no leakage ||p B - B B^H p B|| off any subspace with basis B)
    that ``p`` fails, as its message, or None when it passes them all."""
    n = system.ambient_dim
    if np.linalg.norm(p @ p - p, 2) > tol.residual_tol:
        return "witness map is not idempotent within tolerance"
    if np.linalg.norm(p, 2) <= tol.residual_tol or np.linalg.norm(p - np.eye(n), 2) <= tol.residual_tol:
        return "witness map is trivial (zero or identity)"
    for s in system.subspaces:
        if 0 < s.dim < n:
            image = p @ s.basis
            if np.linalg.norm(image - s.basis @ (s.basis.conj().T @ image), 2) > tol.residual_tol:
                return "witness map is not an endomorphism of the system"
    return None


def _accept_idempotent(
    candidate: np.ndarray, system: SubspaceSystem, tol: ToleranceConfig
) -> Optional[IdempotentWitness]:
    """The witness for a candidate map, or None unless it passes
    :func:`_idempotent_defect` and its kernel splits off cleanly: the split
    of the whole space by :func:`_idempotent_parts` on ``(P, I - P)``.
    Every candidate, however it was produced, passes through here."""
    if _idempotent_defect(candidate, system, tol) is not None:
        return None
    image, kernel, unclean = _idempotent_parts(candidate, np.eye(system.ambient_dim) - candidate)
    if unclean:
        return None
    return IdempotentWitness(map=candidate, split=(Subspace._unchecked(image), Subspace._unchecked(kernel)))


def _idempotent_parts(image: np.ndarray, rest: np.ndarray):
    """``(first, second, unclean)``: the split of a space with basis B
    along an idempotent P, given ``image`` = P B and ``rest`` = B - P B.

    The nonzero singular values of an idempotent on its invariant space are
    at least 1, so ``first`` is the left singular vectors of ``image`` from
    0.5 up: at the rank cutoff, rounding in a witness of norm ~1e2
    (scramble condition 1e9) would count as a dimension.  ``second`` takes
    the count ``first`` leaves, the leading left singular vectors of
    ``rest``, and ``unclean`` says why those fail to split cleanly at 0.5,
    or is None."""
    u_1, values, _ = np.linalg.svd(image, full_matrices=False)
    kept = int(np.count_nonzero(values >= 0.5))
    count = image.shape[1] - kept
    u_2, sigma, _ = np.linalg.svd(rest, full_matrices=False)
    return u_1[:, :kept], u_2[:, :count], _unclean_split(sigma, count)


def split_by_idempotent(
    system: SubspaceSystem,
    witness: IdempotentWitness,
    tol: ToleranceConfig = DEFAULT_TOL,
):
    """Split a system along a verified idempotent witness.

    Validates the witness from scratch (idempotency, nontriviality,
    endomorphism property, split consistency); a witness that fails gets a
    ValueError, while a valid witness whose restriction to some subspace
    does not split cleanly raises :class:`ConditioningError`.

    Returns the pair of component systems, each expressed in coordinates of
    its carrier.
    """
    p = np.asarray(witness.map, dtype=np.complex128)
    n = system.ambient_dim
    if p.shape != (n, n):
        raise ValueError(f"witness map must be {n}x{n}, got {p.shape}")
    defect = _idempotent_defect(p, system, tol)
    if defect is not None:
        raise ValueError(defect)

    h1, h2 = witness.split
    if h1.ambient_dim != n or h2.ambient_dim != n:
        raise ValueError("witness split lives in the wrong ambient space")
    if h1.dim + h2.dim != n:
        raise ValueError("witness split does not fill the ambient space")
    # split consistency: h1 is fixed by p, h2 is annihilated by it
    if np.linalg.norm(p @ h1.basis - h1.basis, 2) > tol.residual_tol:
        raise ValueError("first split part is not fixed by the witness map")
    if h2.dim and np.linalg.norm(p @ h2.basis, 2) > tol.residual_tol:
        raise ValueError("second split part is not annihilated by the witness map")

    first_parts, second_parts = [], []
    for s in system.subspaces:
        image = p @ s.basis
        first, second, unclean = _idempotent_parts(image, s.basis - image)
        if unclean:
            raise ConditioningError(
                f"subspace does not split along the idempotent within tolerance ({unclean})"
            )
        first_parts.append(_in_carrier_coords(first, h1))
        second_parts.append(_in_carrier_coords(second, h2))
    sys1 = SubspaceSystem(h1.dim, tuple(first_parts), system.labels)
    sys2 = SubspaceSystem(h2.dim, tuple(second_parts), system.labels)
    return sys1, sys2


def _in_carrier_coords(columns: np.ndarray, carrier: Subspace) -> Subspace:
    if carrier.dim == 0:
        raise ConditioningError("a split part landed in a zero carrier")
    coords, _ = np.linalg.qr(carrier.basis.conj().T @ columns)
    return Subspace._unchecked(coords)


def verify_isomorphism(
    matrix: np.ndarray,
    source: SubspaceSystem,
    target: SubspaceSystem,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> IsomorphismReport:
    """Certify that ``matrix`` carries the source system onto the target.

    Reports the gap between the image of each source subspace and the
    corresponding target subspace, plus the extreme singular values of the
    map.  ``passed`` demands invertibility (sigma_min above rank_rtol
    relative to sigma_max) and every gap within residual_tol.
    """
    if source.arity != target.arity:
        raise ValueError(f"arity mismatch: {source.arity} vs {target.arity}")
    if source.ambient_dim != target.ambient_dim:
        raise ValueError("isomorphic systems must share their ambient dimension")
    n = source.ambient_dim
    matrix = np.asarray(matrix, dtype=np.complex128)
    if matrix.shape != (n, n):
        raise ValueError(f"map must be {n}x{n}, got {matrix.shape}")
    spectrum = np.linalg.svd(matrix, compute_uv=False)
    sigma_max = float(spectrum[0])
    sigma_min = float(spectrum[-1])
    invertible = sigma_min > tol.rank_rtol * sigma_max and sigma_max > 0.0

    gaps = []
    for e, f in zip(source.subspaces, target.subspaces):
        image = _column_span(matrix @ e.basis, tol)
        gaps.append(gap(Subspace._unchecked(image), f))
    gaps = tuple(float(g) for g in gaps)
    passed = invertible and (max(gaps) <= tol.residual_tol if gaps else True)
    return IsomorphismReport(gaps, sigma_min, sigma_max, passed)


def are_linearly_independent(subspaces, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True when the concatenated bases have full column rank, i.e. the sum
    is direct; meeting pairwise trivially is not enough (three lines in a plane)."""
    subspaces = list(subspaces)
    if not subspaces:
        return True
    n = subspaces[0].ambient_dim
    for s in subspaces:
        if s.ambient_dim != n:
            raise ValueError("subspaces live in different ambient spaces")
    total = sum(s.dim for s in subspaces)
    return total <= n and _stacked_rank(subspaces, tol) == total


def _stacked_rank(subspaces, tol: ToleranceConfig) -> int:
    """Numerical rank of the concatenated bases, the one route for every
    independence and spanning test on a family of subspaces."""
    stacked = np.hstack([s.basis for s in subspaces])
    return _numerical_rank(np.linalg.svd(stacked, compute_uv=False), tol)


def _certify_independent(subspaces, tol: ToleranceConfig, label: str):
    """Raise :class:`ConditioningError` unless the stacked bases of the
    family have full column rank: the one independence guard of a split."""
    total = sum(s.dim for s in subspaces)
    rank = _stacked_rank(subspaces, tol)
    if rank != total:
        raise ConditioningError(f"{label} are numerically dependent (rank {rank} of {total})")


def _require_arity_three(system: SubspaceSystem):
    if system.arity != 3:
        raise ValueError(f"expected a system of three subspaces, got {system.arity}")


def detect_double_triangle(system: SubspaceSystem, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True for a system of three subspaces in which every pair meets
    trivially and every pair spans the whole space, with all three parts
    proper and nonzero.

    Both hold for a pair exactly when its dimensions sum to n and its
    stacked bases have rank n, so every dimension must be n / 2, and each
    pair takes one values-only SVD, with the rank rule of its meet and
    join."""
    _require_arity_three(system)
    n = system.ambient_dim
    if any(2 * s.dim != n for s in system.subspaces):
        return False
    e1, e2, e3 = system.subspaces
    return all(_stacked_rank(pair, tol) == n for pair in ((e1, e2), (e1, e3), (e2, e3)))


def detect_pentagon(system: SubspaceSystem, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Test for the pentagon configuration: E1 join E2 is everything,
    E1 meet E3 is zero, and E2 is strictly contained in E3, with all parts
    proper and nonzero.

    In finite dimension this always returns False: the join condition gives
    dim E1 + dim E2 >= n, the meet condition gives dim E1 + dim E3 <= n,
    and together they force dim E3 <= dim E2, contradicting the strict
    containment.  The detector exists to certify that concrete truncations
    have not accidentally produced one.
    """
    _require_arity_three(system)
    n = system.ambient_dim
    e1, e2, e3 = system.subspaces
    for s in (e1, e2, e3):
        if s.dim == 0 or s.dim == n:
            return False
    # d1 + d2 >= n and d1 + d3 <= n force d3 <= d2: the counts alone decide.
    d1, d2, d3 = e1.dim, e2.dim, e3.dim
    return d1 + d2 >= n and d1 + d3 <= n and d3 > d2
