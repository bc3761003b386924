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

All parts and angles come off the one SVD [B_1 | B_2] = U S V^H that also
gives the meet and join.  Its singular values sqrt(2) sin(t_i/2) keep small
angles accurate (Bjorck and Golub, Math. Comp. 27, 1973), and each decides
its part by one comparison.  It also diagonalizes the restricted sum
operator T = P1 + P2 on E1 + E2, the Gram operator U_r S_r^2 U_r^H of
[B_1 | B_2] over the join rank r, whose pseudo-inverse splits E1 + E2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    ConditioningError,
    Subspace,
    ToleranceConfig,
    _meet_join,
    _unclean_split,
    _warn_near_cutoff,
    join,
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
# parts instead of being reported as generic (the threshold widens to twice
# the rank cutoff when a looser rank_rtol makes that larger).
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


def polish_near_orthonormal(columns: np.ndarray) -> np.ndarray:
    """QR-polish columns that are orthonormal up to rounding, preserving
    each column's direction (QR is free to flip phases; undo that)."""
    q, r = np.linalg.qr(columns)
    d = np.diagonal(r).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))


def halmos_decompose(first: Subspace, second: Subspace, tol: ToleranceConfig = DEFAULT_TOL) -> TwoSubspaceDecomposition:
    """Split C^n into the five canonical parts of the pair (first, second).

    Every part and angle comes off the SVD of [B_1 | B_2] that also gives
    the pair's meet and join.  Each singular value s reads as the angle
    phi = 2 arcsin(s / sqrt(2)): a principal angle t where s^2 = 1 - cos t,
    pi - t where s^2 = 1 + cos t, and pi/2 on the only-one parts.  Unlike
    an arccos of a cosine, phi keeps small angles to full relative
    accuracy.  One comparison of each phi with ``eps`` (``ANGLE_EPS``, or
    twice the rank cutoff when that is wider) decides its part:

    * phi <= eps: shared, ``in_both``;
    * eps < phi < pi/2 - eps: a generic angle;
    * |phi - pi/2| <= eps: the only-one cluster, split into ``only_first``
      and ``only_second`` by the halves of its right singular vectors;
    * phi > pi/2 + eps: the partner of a shared or generic value, counted.

    ``in_neither`` is spanned by the left singular vectors after those of
    the values that are not shared: the complement of the join, plus the
    partners of the angles folded into ``in_both``.  A zero side takes the
    same route: the other side's singular values are all 1, phi = pi/2, so
    that side is all its own only-one part.  Raises
    :class:`ConditioningError` when the counts disagree or the only-one
    cluster does not split cleanly at 0.5, both of which signal decisions
    too close to ``eps``.
    """
    return _halmos_parts(first, second, _meet_join(first, second, tol), tol)


def _halmos_parts(first: Subspace, second: Subspace, meet_join, tol: ToleranceConfig) -> TwoSubspaceDecomposition:
    """:func:`halmos_decompose` on the pair's ``_meet_join`` result."""
    in_both, joined, (u, s, vh) = meet_join
    p, k = first.dim, vh.shape[0]
    phi = 2.0 * np.arcsin(np.minimum(np.pad(s, (0, k - s.size)) / np.sqrt(2.0), 1.0))
    eps = max(ANGLE_EPS, 2.0 * tol.rank_rtol * float(s.max(initial=0.0)))
    distance = np.minimum(phi, np.abs(phi - np.pi / 2.0))
    _warn_near_cutoff(distance, eps, "angle(s) from 0 or pi/2", "the angle threshold", "part")
    # phi descends, so the four classes are consecutive runs
    plus = int(np.count_nonzero(phi > np.pi / 2.0 + eps))
    right = int(np.count_nonzero(np.abs(phi - np.pi / 2.0) <= eps))
    shared = int(np.count_nonzero(phi <= eps))
    g = k - plus - right - shared
    first_only = p - shared - g
    if plus != shared + g or not 0 <= first_only <= right:
        raise ConditioningError(
            f"pair spectrum has {plus} angles above pi/2 for {shared} shared and {g} generic, "
            f"{right} at pi/2 for {first_only} only in the first; angle decisions were inconsistent"
        )

    if shared > k - joined.dim:
        # angles up to eps fold into the shared part; the rank rule kept
        # their left singular vectors, the partners x - y, in the join
        q, _ = np.linalg.qr(np.sqrt(2.0) * first.basis @ vh[k - shared:, :p].conj().T)
        in_both = Subspace._unchecked(q)
    in_neither = Subspace._unchecked(u[:, k - shared:])

    # The cluster's a-halves have singular values 1 on only_first and 0 on
    # only_second, and the b-halves of the rotated cluster vectors are
    # orthogonal with norms sqrt(1 - sigma^2).
    cluster = vh[plus : plus + right].conj().T
    directions, sigma, rotation = np.linalg.svd(cluster[:p], full_matrices=True)
    sigma = np.pad(sigma, (0, right - sigma.size))
    unclean = _unclean_split(sigma, first_only)
    if unclean:
        raise ConditioningError(f"only-one parts do not split cleanly at 0.5 ({unclean})")
    only_first = Subspace._unchecked(first.basis @ directions[:, :first_only])
    rest = cluster[p:] @ rotation[first_only:].conj().T / np.sqrt(1.0 - sigma[first_only:] ** 2)
    only_second = Subspace(second.basis @ rest)  # rescaled by sqrt(1 - sigma^2): checked

    # From each right vector (w_1; w_2), x = sqrt(2) B_1 w_1 and its left
    # vector u = (x - y) / (2 sin(t/2)) give the partner of x in E2's share
    # without cancellation.  Near pi/2 the SVD mixes the 1 - cos t and
    # 1 + cos t vectors of an angle, which moves the norm of each half but
    # not its direction: polish X, and re-orthogonalize Z against X once.
    generic = np.arange(plus + right, k - shared)[::-1]
    angles = phi[generic]
    x = polish_near_orthonormal(np.sqrt(2.0) * first.basis @ vh[generic, :p].conj().T)
    z = (np.sin(angles / 2.0) * x - u[:, generic]) / np.cos(angles / 2.0)
    z = z - x @ (x.conj().T @ z)
    z = polish_near_orthonormal(z)
    return TwoSubspaceDecomposition(
        in_both, only_first, only_second, in_neither,
        Subspace._unchecked(x), angles, np.hstack([x, z]),
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
    """Matrix of P1 + P2 = [B_1 | B_2] [B_1 | B_2]^H in the orthonormal ``frame`` of first + second."""
    c = frame.conj().T @ np.hstack([first.basis, second.basis])
    return c @ c.conj().T


def _oblique_split(first: Subspace, factors, rank: int, vectors: np.ndarray):
    """Oblique split ``(v, w)`` of columns x = v + w of first + second, v in
    first and w in second: the ``_meet_join`` factors of [B_1 | B_2] over
    the join ``rank`` lift x to coefficients V_r S_r^-1 U_r^H x."""
    u, s, vh = factors
    coeff = vh[:rank].conj().T @ ((u[:, :rank].conj().T @ vectors) / s[:rank, None])
    v = first.basis @ coeff[: first.dim]
    return v, vectors - v


def restricted_sum_operator(first: Subspace, second: Subspace, tol: ToleranceConfig = DEFAULT_TOL) -> SumOperatorReport:
    """Spectral report on P1 + P2 restricted to E1 + E2.

    The eigenvalues of the restricted operator are 2 on in_both, 1 on the
    only-one parts, and 1 +- cos(t_i) over each generic angle.  With no
    shared part, sigma_min equals 1 - cos of the smallest angle: it decays
    exactly as the pair approaches a missed intersection.  The spectrum
    and the parts come off the one SVD of [B_1 | B_2].
    """
    meet_join = _meet_join(first, second, tol)
    _, joined, (_, s, _) = meet_join
    if joined.dim == 0:
        raise ValueError("the restricted sum operator needs a nonzero sum")
    # kept values clear the rank cutoff, so sigma_min > 0
    spectrum = s[: joined.dim] ** 2
    sigma_max, sigma_min = float(spectrum[0]), float(spectrum[-1])

    parts = _halmos_parts(first, second, meet_join, tol)
    g = parts.generic_dim
    blocks = _sum_operator_on(first, second, parts.generic_frame)
    diagonal = np.diagonal(blocks).real
    dets = diagonal[:g] * diagonal[g:] - np.abs(np.diagonal(blocks, g)) ** 2
    return SumOperatorReport(sigma_min, sigma_max, sigma_max / sigma_min, parts.angles.copy(), dets)
