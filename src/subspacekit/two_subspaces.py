"""Canonical position of a pair of subspaces.

Any pair (E1, E2) in C^n splits the ambient space into five orthogonal
summands: four intersection parts

    in_both     = E1 and E2
    only_first  = E1 and the complement of E2
    only_second = E2 and the complement of E1
    in_neither  = complement of both

and a generic part on which the pair is in general position.  The generic
part carries an isometric frame [X | Z] (2g columns) in which E1's share is
spanned by the x_i and E2's share by cos(t_i) x_i + sin(t_i) z_i for angles
t_i strictly between 0 and pi/2.  Those angles, with multiplicity, are a
complete invariant of the pair up to a simultaneous unitary.

The representative returned here is one concrete choice (principal vector
frames); any other differs from it by a block unitary mixing equal-angle
directions, and by phases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    ConditioningError,
    Subspace,
    ToleranceConfig,
    _column_span,
    _require_same_ambient,
    complement,
    complement_within,
    join,
    meet,
)

__all__ = [
    "ANGLE_EPS",
    "SumOperatorReport",
    "TwoSubspaceDecomposition",
    "halmos_decompose",
    "restricted_sum_operator",
    "sum_operator_matrix",
]

# Angles closer than this to 0 or pi/2 are folded into the intersection
# parts instead of being reported as generic.
ANGLE_EPS = 1e-8


@dataclass(frozen=True)
class TwoSubspaceDecomposition:
    """Five-part canonical position of a pair, plus generic-part data.

    ``generic`` is the copy of the model space K sitting inside E1;
    ``generic_frame`` is the (n, 2g) isometry [X | Z] described in the
    module docstring, and ``angles`` the g angles in ascending order.
    """

    in_both: Subspace
    only_first: Subspace
    only_second: Subspace
    in_neither: Subspace
    generic: Subspace
    angles: np.ndarray
    generic_frame: np.ndarray

    @property
    def generic_dim(self) -> int:
        return int(self.angles.size)


@dataclass(frozen=True)
class SumOperatorReport:
    """Spectral summary of P1 + P2 restricted to E1 + E2.

    ``per_angle_determinants`` holds the determinant of the 2x2 block of
    the restricted operator over each generic angle; in exact arithmetic
    that determinant equals sin(t_i)^2, which is what makes it a direct
    certificate of how close the pair is to dropping rank.
    """

    sigma_min: float
    sigma_max: float
    condition: float
    angles: np.ndarray
    per_angle_determinants: np.ndarray


def _adjoin(base: Subspace, extra: np.ndarray) -> Subspace:
    # extra columns are orthonormal and orthogonal to base in exact
    # arithmetic; a QR pass keeps rounding from accumulating.
    if extra.shape[1] == 0:
        return base
    q, _ = np.linalg.qr(np.hstack([base.basis, extra]))
    return Subspace(q)


def polish_near_orthonormal(columns: np.ndarray) -> np.ndarray:
    """QR-polish columns that are orthonormal up to rounding, preserving
    each column's direction (QR is free to flip phases; undo that)."""
    if columns.shape[1] == 0:
        return columns
    q, r = np.linalg.qr(columns)
    d = np.diagonal(r).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))


def halmos_decompose(first: Subspace, second: Subspace, tol: ToleranceConfig = DEFAULT_TOL) -> TwoSubspaceDecomposition:
    """Split C^n into the five canonical parts of the pair (first, second).

    Raises :class:`ConditioningError` when the two candidate generic parts
    disagree in dimension or the five parts fail to fill the space, both of
    which signal rank decisions too close to the cutoff.
    """
    _require_same_ambient(first, second)
    n = first.ambient_dim
    comp_first = complement(first)
    comp_second = complement(second)

    in_both = meet(first, second, tol)
    only_first = meet(first, comp_second, tol)
    only_second = meet(comp_first, second, tol)
    in_neither = meet(comp_first, comp_second, tol)

    # Each adjoined pair lies in E2 and E2^⊥ (E1 and E1^⊥): no rank to decide.
    left_first = complement_within(first, _adjoin(in_both, only_first.basis), tol)
    left_second = complement_within(second, _adjoin(in_both, only_second.basis), tol)
    if left_first.dim != left_second.dim:
        raise ConditioningError(
            f"generic parts disagree in dimension ({left_first.dim} vs {left_second.dim})"
        )

    g = left_first.dim
    if g == 0:
        empty = np.zeros((n, 0), dtype=np.complex128)
        _check_complete(n, in_both, only_first, only_second, in_neither, 0)
        return TwoSubspaceDecomposition(
            in_both, only_first, only_second, in_neither,
            Subspace.zero(n), np.zeros(0), empty,
        )

    u, cosines, vh = np.linalg.svd(left_first.basis.conj().T @ left_second.basis)
    x = left_first.basis @ u
    y = left_second.basis @ vh.conj().T
    cosines = np.clip(cosines, 0.0, 1.0)
    theta = np.arccos(cosines)

    # Endpoint angles mean the meet computations missed a direction by a
    # hair; reclassify instead of reporting a degenerate generic angle.
    at_zero = theta < ANGLE_EPS
    at_right = theta > np.pi / 2.0 - ANGLE_EPS
    interior = ~(at_zero | at_right)

    in_both = _adjoin(in_both, x[:, at_zero])
    only_first = _adjoin(only_first, x[:, at_right])
    only_second = _adjoin(only_second, y[:, at_right])

    x_gen = x[:, interior]
    y_gen = y[:, interior]
    theta = theta[interior]
    c = cosines[interior]
    s = np.sin(theta)

    # z_i = (y_i - c_i x_i) / s_i completes each principal pair to an
    # orthonormal 2-frame; re-orthogonalize against X once to stop rounding
    # from leaking between the two halves.
    z = (y_gen - x_gen * c) / s
    z = z - x_gen @ (x_gen.conj().T @ z)
    z = polish_near_orthonormal(z)

    # Each angle folded into in_both leaves behind its orthogonal partner
    # direction, which belongs to neither subspace (up to the absorbed
    # angle); recover those partners as the orthogonal completion.
    absorbed_zero = int(np.count_nonzero(at_zero))
    if absorbed_zero:
        found = np.hstack([
            in_both.basis, only_first.basis, only_second.basis,
            in_neither.basis, x_gen, z,
        ])
        u_full, sing, _ = np.linalg.svd(found, full_matrices=True)
        filled = found.shape[1]
        if sing.size and sing[-1] < 0.5:
            raise ConditioningError("canonical parts lost independence during absorption")
        filler = u_full[:, filled:]
        if filler.shape[1] != absorbed_zero:
            raise ConditioningError(
                f"absorption left {filler.shape[1]} unaccounted directions, expected {absorbed_zero}"
            )
        in_neither = _adjoin(in_neither, filler)

    _check_complete(n, in_both, only_first, only_second, in_neither, int(theta.size))
    frame = np.hstack([x_gen, z])
    return TwoSubspaceDecomposition(
        in_both, only_first, only_second, in_neither,
        Subspace(x_gen),
        theta,
        frame,
    )


def _check_complete(n, in_both, only_first, only_second, in_neither, g):
    total = in_both.dim + only_first.dim + only_second.dim + in_neither.dim + 2 * g
    if total != n:
        raise ConditioningError(
            f"canonical parts sum to {total}, ambient dimension is {n}; "
            "rank decisions were inconsistent"
        )


def sum_operator_matrix(first: Subspace, second: Subspace, tol: ToleranceConfig = DEFAULT_TOL):
    """Frame W of first + second and the matrix of (P1 + P2) restricted to it.

    Returns ``(frame, matrix)`` where ``frame`` has orthonormal columns
    spanning the sum and ``matrix`` is Hermitian positive definite exactly
    when the restricted sum operator is invertible.  Raises ValueError when
    both inputs are zero.
    """
    carrier = join(first, second, tol)
    if carrier.dim == 0:
        raise ValueError("the restricted sum operator needs a nonzero sum")
    return carrier.basis, _sum_operator_on(first, second, carrier.basis)


def _sum_operator_on(first: Subspace, second: Subspace, frame: np.ndarray) -> np.ndarray:
    """Matrix of P1 + P2 in the orthonormal ``frame`` of first + second."""
    c1 = frame.conj().T @ first.basis
    c2 = frame.conj().T @ second.basis
    return c1 @ c1.conj().T + c2 @ c2.conj().T


def _oblique_split(first: Subspace, second: Subspace, frame: np.ndarray, vectors: np.ndarray):
    """Oblique split u = v + w of columns u of first + second, v in first
    and w in second, through the inverse of the restricted sum operator on
    the caller's orthonormal ``frame`` of first + second.  Returns
    ``(v, w, matrix)`` with the operator's matrix in that frame."""
    matrix = _sum_operator_on(first, second, frame)
    lifted = frame @ np.linalg.solve(matrix, frame.conj().T @ vectors)
    v = first.basis @ (first.basis.conj().T @ lifted)
    return v, vectors - v, matrix


def _part_span(part: np.ndarray, tol: ToleranceConfig, label: str) -> Subspace:
    """Span of one part of an oblique split, which keeps the dimension of
    the split columns when the split is reliable."""
    span = _column_span(part, tol)
    if span.shape[1] != part.shape[1]:
        raise ConditioningError(f"{label} came out {span.shape[1]}-dimensional, expected {part.shape[1]}")
    return Subspace(span)


def restricted_sum_operator(first: Subspace, second: Subspace, tol: ToleranceConfig = DEFAULT_TOL) -> SumOperatorReport:
    """Spectral report on P1 + P2 restricted to E1 + E2.

    The eigenvalues of the restricted operator are 2 on in_both, 1 on the
    only-one parts, and 1 +- cos(t_i) over each generic angle.  With no
    shared part, sigma_min equals 1 - cos of the smallest angle: it decays
    exactly as the pair approaches a missed intersection.
    """
    _, matrix = sum_operator_matrix(first, second, tol)
    spectrum = np.linalg.svd(matrix, compute_uv=False)
    sigma_max = float(spectrum[0])
    sigma_min = float(spectrum[-1])
    condition = sigma_max / sigma_min if sigma_min > 0.0 else float("inf")

    parts = halmos_decompose(first, second, tol)
    g = parts.generic_dim
    dets = np.zeros(g)
    if g:
        p_sum = first.projection() + second.projection()
        for i in range(g):
            pair = parts.generic_frame[:, [i, g + i]]
            block = pair.conj().T @ p_sum @ pair
            dets[i] = float(np.linalg.det(block).real)
    return SumOperatorReport(sigma_min, sigma_max, condition, parts.angles.copy(), dets)
