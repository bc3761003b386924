"""Orthonormal-basis arithmetic for subspaces of complex inner-product spaces.

A :class:`Subspace` of C^n is stored as an (n, k) matrix with orthonormal
columns; the zero subspace is the (n, 0) matrix and is a first-class value:
it takes the same factorizations as any other subspace, since numpy factors
arrays with no columns.  Projections are derived on demand and never stored.

Bases are checked where they enter.  ``Subspace(basis)`` checks that the
entries are finite and the columns orthonormal, and :func:`orthonormalize`
that its spanning vectors are finite and of nonzero length.  A basis the
package builds as one factorization's unitary factor (a column slice of an
SVD's U or V, a QR's Q, or an orthonormal basis times such a slice), or as
an exact closed form, is orthonormal by construction and is stored by
``Subspace._unchecked`` without the k x k Gram check.  A basis whose blocks
are orthogonal only through an earlier rank decision is checked.

A basis keeps the kind of its input: bool, integer and float input is
stored in float64, any complex input in complex128, decided by the dtype
alone and never by the values.  A real basis spans the same subspace of
C^n as its complex128 cast, and every check and rank decision below is
the same on both, so real data (the graph pairs of :mod:`pentagon`) runs
on real BLAS and LAPACK while results agree with the complex route.  Real
and complex bases mix by ordinary numpy promotion.

Every rank decision in the package goes through one rule (count singular
values above ``rank_rtol`` times a reference scale).  Meet and join share
one factorization and one rank decision, so the dimension identity

    dim meet(A, B) + dim join(A, B) == dim A + dim B

holds by construction.  Relative complements decide no dimension: they
take the count the lattice already decided.

Conditioning notes have one emitter, ``_note``: inside ``_collect_notes``
it appends to that call's list, kept per thread and task in a context
variable; anywhere else it issues a :class:`ConditioningWarning` from the
first line outside the package, the one that called into it, or from the
package module that runs as ``__main__``.
"""

from __future__ import annotations

import os
import sys
import warnings
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "DEFAULT_TOL",
    "ConditioningError",
    "ConditioningWarning",
    "Subspace",
    "ToleranceConfig",
    "complement",
    "complement_within",
    "contains",
    "gap",
    "join",
    "meet",
    "orthonormalize",
    "principal_angles",
    "same_subspace",
]

# Subspace(...) validates bases against this; it is deliberately looser than
# rank_rtol so that a basis whose blocks are orthogonal only as far as a rank
# decision made them (E3 of the example-9 truncation) still passes.
ORTHONORMALITY_ATOL = 1e-8


class ConditioningError(RuntimeError):
    """A rank or dimension decision could not be made reliably."""


class ConditioningWarning(UserWarning):
    """Singular values landed near a rank cutoff; the result may be fragile."""


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical thresholds shared by every operation in the package.

    rank_rtol
        Relative cutoff for rank decisions: singular values above
        ``rank_rtol * scale`` count toward the rank.
    gap_tol
        Two subspaces within this projection-norm distance are equal; read
        only by :func:`same_subspace`.  ``verify_brenner`` and
        ``verify_isomorphism`` compare their gaps with ``residual_tol``, so
        no command-line result depends on it.
    residual_tol
        Acceptance threshold for verification residuals.
    cond_warn
        Condition numbers above this raise :class:`ConditioningWarning`.
    """

    rank_rtol: float = 1e-10
    gap_tol: float = 1e-8
    residual_tol: float = 1e-8
    cond_warn: float = 1e8

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if not np.isfinite(value) or value <= 0.0:
                raise ValueError(f"{field.name} must be finite and strictly positive, got {value!r}")
        if self.rank_rtol >= 1.0:
            raise ValueError(f"rank_rtol must be below 1, got {self.rank_rtol!r}")


DEFAULT_TOL = ToleranceConfig()

_NOTES: ContextVar = ContextVar("subspacekit_notes", default=None)

_PACKAGE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "")


def _note(message: str):
    """Append a conditioning note to the active collector, or else warn from
    the first frame outside the package directory, as Python 3.12's
    ``skip_file_prefixes`` would (3.10 and 3.11 need the walk done here).
    A package module run as ``__main__`` (``python -m subspacekit.cli``)
    ends the walk too: past it lies only the interpreter's runpy."""
    sink = _NOTES.get()
    if sink is None:
        frame, level = sys._getframe(1), 2
        while (frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR)
               and frame.f_globals.get("__name__") != "__main__"):
            frame, level = frame.f_back, level + 1
        warnings.warn(message, ConditioningWarning, stacklevel=level)
    else:
        sink.append(message)


@contextmanager
def _collect_notes():
    """Collect the enclosed notes, in order, into the yielded list."""
    sink = []
    token = _NOTES.set(sink)
    try:
        yield sink
    finally:
        _NOTES.reset(token)


def _numerical_rank(singular_values: np.ndarray, tol: ToleranceConfig, scale=None) -> int:
    """Shared rank rule.

    ``scale`` defaults to the largest singular value.  Pass ``scale=1.0``
    for matrices whose singular values have an absolute meaning (for
    example sines of principal angles), where a relative cutoff would
    promote pure rounding noise to full rank.
    """
    s = np.asarray(singular_values, dtype=float)
    if s.size == 0:
        return 0
    reference = float(s.max()) if scale is None else float(scale)
    cutoff = tol.rank_rtol * reference
    _warn_near_cutoff(s, cutoff)
    return int(np.count_nonzero(s > cutoff))


def _warn_near_cutoff(s: np.ndarray, cutoff: float, values="singular value(s)",
                      threshold="the rank cutoff", decision="rank"):
    """Conditioning note for ``values`` within a decade of ``cutoff``, the
    ``threshold`` of a ``decision``."""
    near = int(np.count_nonzero((s > cutoff / 10.0) & (s < cutoff * 10.0)))
    if near:
        _note(f"{near} {values} within a decade of {threshold} {cutoff:.3e}; {decision} decision is fragile")


def _basis_dtype(array: np.ndarray):
    """float64 for bool, integer and float arrays, complex128 for any other:
    the dtype rule of every basis, read off the dtype, never the values."""
    return np.float64 if array.dtype.kind in "biuf" else np.complex128


def _column_span(matrix: np.ndarray, tol: ToleranceConfig, scale=None) -> np.ndarray:
    """Orthonormal basis (as columns) for the column space of ``matrix``, in
    the dtype :func:`_basis_dtype` gives it."""
    matrix = np.asarray(matrix)
    matrix = np.ascontiguousarray(matrix, dtype=_basis_dtype(matrix))
    u, s, _ = np.linalg.svd(matrix, full_matrices=False)
    return u[:, : _numerical_rank(s, tol, scale=scale)]


def _part_span(part: np.ndarray, tol: ToleranceConfig, label: str) -> Subspace:
    """Span of columns that a construction must keep at their count, as one
    part of an oblique split does when the split is reliable; ``label``
    names them in the :class:`ConditioningError` a lower rank raises."""
    span = _column_span(part, tol)
    if span.shape[1] != part.shape[1]:
        raise ConditioningError(f"{label} came out {span.shape[1]}-dimensional, expected {part.shape[1]}")
    return Subspace._unchecked(span)


def _stored_basis(given) -> np.ndarray:
    """The read-only Fortran-order copy a :class:`Subspace` keeps of a basis,
    in the dtype :func:`_basis_dtype` gives it, its shape checked."""
    given = np.asarray(given)
    basis = np.array(given, dtype=_basis_dtype(given), copy=True, order="F")
    if basis.ndim != 2:
        raise ValueError(f"basis must be a 2-d array, got shape {basis.shape}")
    n, k = basis.shape
    if n < 1:
        raise ValueError("ambient dimension must be at least 1")
    if k > n:
        raise ValueError(f"{k} columns cannot be independent in ambient dimension {n}")
    basis.setflags(write=False)
    return basis


@dataclass(frozen=True, eq=False)
class Subspace:
    """A subspace of C^n, represented by an (n, k) orthonormal-column basis.

    The constructor validates orthonormality (within ``ORTHONORMALITY_ATOL``)
    and freezes a copy of the array against writes.  Every basis given from
    outside the package takes that check; bases the package builds
    orthonormal by construction take ``_unchecked``, which stores them the
    same way.  k = 0 encodes the zero subspace.
    A real basis (bool, integer or float input) is stored in float64 and
    any complex one in complex128: the dtype decides, not the values.  The
    real basis spans the same subspace of C^n, and the checks are the same
    for both.  Use :func:`orthonormalize` to build a Subspace from
    arbitrary spanning vectors; it yields complex128 for any nonzero span.
    """

    basis: np.ndarray

    def __post_init__(self):
        basis = _stored_basis(self.basis)
        if not np.isfinite(basis).all():
            raise ValueError("basis entries must be finite")
        k = basis.shape[1]
        if k:
            defect = basis.conj().T @ basis
            defect.flat[:: k + 1] -= 1.0
            worst = float(np.abs(defect).max())
            if worst > ORTHONORMALITY_ATOL:
                raise ValueError(
                    f"basis columns are not orthonormal (defect {worst:.3e}); "
                    "use orthonormalize() for raw spanning vectors"
                )
        object.__setattr__(self, "basis", basis)

    @classmethod
    def _unchecked(cls, basis) -> "Subspace":
        """A Subspace on columns orthonormal by construction, stored as the
        constructor stores them but without the finiteness and Gram checks.

        Only for a basis that is one factorization's unitary factor (a
        column slice of an SVD's U or V, a QR's Q, or an orthonormal basis
        times a slice of one) or an exact closed form (identity columns,
        disjoint blocks of orthonormal bases).  A basis orthogonal only
        through an earlier rank decision takes ``Subspace(...)``."""
        subspace = object.__new__(cls)
        object.__setattr__(subspace, "basis", _stored_basis(basis))
        return subspace

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def is_zero(self) -> bool:
        return self.dim == 0

    @property
    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def projection(self) -> np.ndarray:
        """The orthogonal projection onto this subspace, as an (n, n) matrix."""
        return self.basis @ self.basis.conj().T

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        """The zero subspace, stored in float64: its basis holds no values,
        and stacked with a basis of either kind it keeps that kind."""
        return cls._unchecked(np.zeros((ambient_dim, 0)))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls._unchecked(np.eye(ambient_dim, dtype=np.complex128))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def _require_same_ambient(a: Subspace, b: Subspace):
    if a.ambient_dim != b.ambient_dim:
        raise ValueError(
            f"subspaces live in different ambient spaces ({a.ambient_dim} vs {b.ambient_dim})"
        )


def orthonormalize(vectors, tol: ToleranceConfig = DEFAULT_TOL, *, ambient_dim=None) -> Subspace:
    """Subspace spanned by the given ambient vectors.

    ``vectors`` is a sequence of length-n vectors; a 2-d array is read as a
    stack of row vectors.  Dependent and zero vectors are allowed, the span
    is extracted with the shared rank rule.  An empty sequence yields the
    zero subspace and needs an explicit ``ambient_dim``; a (0, n) array is
    the zero subspace of C^n, and ``ambient_dim``, when given, must be n.
    Vectors of length 0 are refused.  The basis is the leading left singular
    vectors of the stacked vectors, orthonormal by construction.
    """
    array = np.asarray(vectors, dtype=np.complex128)
    if array.ndim == 1:  # one vector, or none: [] is read as (0, 0)
        array = array.reshape(1 if array.size else 0, array.size)
    if array.ndim != 2:
        raise ValueError(f"expected a sequence of vectors, got an array of shape {array.shape}")
    # only (0, 0) leaves the length to ambient_dim
    if ambient_dim is not None and array.shape != (0, 0) and array.shape[1] != int(ambient_dim):
        raise ValueError(
            f"vectors have length {array.shape[1]} but ambient_dim={ambient_dim} was requested"
        )
    if array.shape[0] and not array.shape[1]:
        raise ValueError("spanning vectors have length 0; they need at least one coordinate")
    if array.shape[0] == 0:
        n = array.shape[1] if array.shape[1] else ambient_dim
        if n is None:
            raise ValueError("an empty spanning set needs an explicit ambient_dim")
        return Subspace.zero(int(n))
    if not (np.all(np.isfinite(array.real)) and np.all(np.isfinite(array.imag))):
        raise ValueError("spanning vectors must be finite")
    return Subspace._unchecked(_column_span(array.T, tol))


def _meet_join(a: Subspace, b: Subspace, tol: ToleranceConfig):
    """``(meet, join, factors)`` of a pair from one SVD of [B_a | B_b] and
    one rank decision: the join from the leading left singular vectors, the
    meet from the null right ones, each a pair (x; y) with B_a x = -B_b y in
    both.  ``factors`` is the SVD's own ``(u, s, vh)``, whose ``s`` holds
    the pair's principal angles.  A zero side takes the same route: the
    other side's singular values are all 1, and with both zero ``u`` is the
    identity.  The SVD is full, so ``u`` is square and, for the join's
    rank r, ``u[:, r:]`` is an orthonormal basis of the join's orthogonal
    complement."""
    _require_same_ambient(a, b)
    u, s, vh = np.linalg.svd(np.hstack([a.basis, b.basis]), full_matrices=True)
    rank = _numerical_rank(s, tol)
    # Each orthonormal null pair has halves of norm exactly 1/sqrt(2).
    q, _ = np.linalg.qr(a.basis @ vh[rank:, : a.dim].conj().T * np.sqrt(2.0))
    return Subspace._unchecked(q), Subspace._unchecked(u[:, :rank]), (u, s, vh)


def _split(e: Subspace, beyond: np.ndarray, tol: ToleranceConfig):
    """``(single, inside, outside)`` of E against a subspace J, given an
    orthonormal basis C of J^⊥: single is the orthogonal complement of
    E ∩ J in E, inside is E ∩ J, and outside the complement of E + J.

    One SVD of C^H B_E = U S V^H decides all three.  Its singular values
    are the sines of the principal angles between E and J, so a vector of E
    lies in J exactly where C^H B_E vanishes: the null right vectors give
    E ∩ J, the others single (B_E V, polished by QR), and C times the left
    vectors past the rank spans the complement of E + J.  Sines have an
    absolute meaning and are decided with ``scale=2.0``, which puts the
    cutoff at the angle 2 ``rank_rtol``, where the relative rule of the
    pair SVD puts it for [B_a | B_b] (singular values sqrt(2) sin(t/2),
    largest up to sqrt(2)).  An empty C or E takes the same route."""
    u, s, vh = np.linalg.svd(beyond.conj().T @ e.basis, full_matrices=True)
    rank = _numerical_rank(s, tol, scale=2.0)
    single, _ = np.linalg.qr(e.basis @ vh[:rank].conj().T)
    return (Subspace._unchecked(single), Subspace._unchecked(e.basis @ vh[rank:].conj().T),
            Subspace._unchecked(beyond @ u[:, rank:]))


def meet(a: Subspace, b: Subspace, tol: ToleranceConfig = DEFAULT_TOL) -> Subspace:
    """Intersection of two subspaces.  One factorization serves it and
    :func:`join`, so dim meet + dim join = dim a + dim b by construction."""
    return _meet_join(a, b, tol)[0]


def join(a: Subspace, b: Subspace, tol: ToleranceConfig = DEFAULT_TOL) -> Subspace:
    """Sum (span of the union) of two subspaces.  One factorization serves
    it and :func:`meet`, so dim meet + dim join = dim a + dim b by construction."""
    return _meet_join(a, b, tol)[1]


def complement(a: Subspace) -> Subspace:
    """Orthogonal complement, in the basis's dtype.  Needs no tolerance: the
    basis is orthonormal by invariant, so its rank is its column count (an
    (n, 0) basis too, whose ``u`` numpy gives as the identity)."""
    u, _, _ = np.linalg.svd(a.basis, full_matrices=True)
    return Subspace._unchecked(u[:, a.dim:])


def complement_within(whole: Subspace, part: Subspace, tol: ToleranceConfig = DEFAULT_TOL) -> Subspace:
    """Orthogonal complement of ``part`` inside ``whole``.

    ``part`` must be contained in ``whole``.  The projected basis
    (I - P_part) B_whole then has ``whole.dim - part.dim`` singular values 1,
    the rest 0: their left singular vectors span the complement, and a split
    not clean at 0.5 raises :class:`ConditioningError`.
    """
    _require_same_ambient(whole, part)
    if not contains(whole, part, tol):
        raise ValueError("complement_within needs part to be contained in whole")
    if part.dim == 0:
        return whole
    residual = whole.basis - part.basis @ (part.basis.conj().T @ whole.basis)
    u, s, _ = np.linalg.svd(np.ascontiguousarray(residual), full_matrices=False)
    _warn_near_cutoff(s, tol.rank_rtol)
    expected = whole.dim - part.dim
    unclean = _unclean_split(s, expected)
    if unclean:
        raise ConditioningError(
            f"relative complement of dimension {expected} does not split cleanly at 0.5 ({unclean})"
        )
    return Subspace._unchecked(u[:, :expected])


@contextmanager
def _by_construction():
    """A containment that holds by construction and fails numerically is a
    :class:`ConditioningError`, not the ValueError of bad input."""
    try:
        yield
    except ValueError as exc:
        raise ConditioningError(f"a containment that holds by construction failed: {exc}") from exc


def _complement_in(whole: Subspace, part: Subspace, tol: ToleranceConfig) -> Subspace:
    """:func:`complement_within` for a containment that holds by construction."""
    with _by_construction():
        return complement_within(whole, part, tol)


def _unclean_split(s: np.ndarray, count: int):
    """Why the singular values ``s`` of a matrix whose exact values are 0
    or at least 1 fail to split after the leading ``count`` at 0.5, or None
    when they split cleanly there.  The count comes from a decision already
    made, so a value on the wrong side means that decision was fragile."""
    kept, dropped = s[:count].min(initial=1.0), s[count:].max(initial=0.0)
    if kept < 0.5 or dropped >= 0.5:
        return f"singular values kept down to {kept:.3e}, dropped up to {dropped:.3e}"
    return None


def gap(a: Subspace, b: Subspace) -> float:
    """Operator-norm distance ||P_a - P_b|| between the orthogonal
    projections, in [0, 1], read off the thin (n, k) residual

        ||B_a - B_b (B_b^H B_a)|| = ||(I - P_b) P_a||.

    For subspaces of equal dimension the two one-sided distances
    ||(I - P_b) P_a|| and ||(I - P_a) P_b|| agree, and ||P_a - P_b|| is
    their maximum, so the residual of a's basis alone gives the gap without
    forming an n x n projection.  Subspaces of different dimension are at
    gap exactly 1: the larger one holds a unit vector orthogonal to the
    smaller one.
    """
    _require_same_ambient(a, b)
    if a.dim != b.dim:
        return 1.0
    if a.dim == 0:
        return 0.0
    residual = a.basis - b.basis @ (b.basis.conj().T @ a.basis)
    return min(float(np.linalg.norm(residual, 2)), 1.0)


def contains(a: Subspace, b: Subspace, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True when b lies inside a: every basis vector of b stays within
    ``residual_tol`` of its projection onto a."""
    _require_same_ambient(a, b)
    if b.dim == 0:
        return True
    if b.dim > a.dim:
        return False
    residual = b.basis - a.basis @ (a.basis.conj().T @ b.basis)
    worst = float(np.sqrt((np.abs(residual) ** 2).sum(axis=0)).max())
    return worst <= tol.residual_tol


def principal_angles(a: Subspace, b: Subspace) -> np.ndarray:
    """Canonical angles between two nonzero subspaces.

    Returns min(dim a, dim b) values in [0, pi/2], ascending: the arccos of
    the singular values of B_a^H B_b, clipped into [0, 1].  Raises
    ValueError if either subspace is zero (no angle is defined there).

    A cosine near 1 fixes its angle only to ~1e-8 absolute, so smaller
    angles read as 0 or far off; ``halmos_decompose(a, b).angles`` reads
    the generic angles off sines of half angles, accurate near 0 as well.
    """
    _require_same_ambient(a, b)
    if a.dim == 0 or b.dim == 0:
        raise ValueError("principal angles are undefined for the zero subspace")
    cosines = np.linalg.svd(a.basis.conj().T @ b.basis, compute_uv=False)
    return np.arccos(np.clip(cosines, 0.0, 1.0))


def same_subspace(a: Subspace, b: Subspace, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Equality in the gap metric (dimensions must agree exactly)."""
    return a.dim == b.dim and gap(a, b) <= tol.gap_tol
