"""Pentagon configurations and their finite-dimensional degenerations.

A pentagon is a triple (E1, E2, E3) with E1 meeting E2 trivially and E2
strictly inside E3 such that the modular law fails across the triple:
(E1 + E2) meet E3 is strictly larger than E2 + (E1 meet E3).  That needs a
sum of subspaces that is not closed, which only infinite dimension has.  In
finite dimension E2 inside E3 gives the modular law (see
:func:`subspacekit.systems.detect_pentagon`), so every piece of a triple
satisfying the two hypotheses is one of Brenner's blocks, and
:func:`pentagon_split` reads its split off the Brenner skeleton
(:mod:`subspacekit.brenner`):

  * a bridge part of E1 that closes the gap between E2 and
    E3 meet (E1 + E2): E1 meet E3, the skeleton's ``pair_13``.  The
    witnesses spanning E3's share of E1 + E2 above E2 are split into their
    E1 and E2 components by the same oblique projections used by the
    triangle split;
  * either a fully distributive remainder (when E3 lies inside E1 + E2),
    the rest of E1 (``single_1``), or a leftover piece of E3 outside
    E1 + E2 (``single_3``) with a pentagon-like core, returned as a
    restricted system.  The core is a direct sum of ``pair_23``,
    ``single_1`` and ``single_3`` blocks, not an irreducible system.

The module also hosts a concrete family of near-degenerate pairs: the flat
space K + 0 against the graph of diag(1, 1/2, ..., 1/n).  As n grows the
pair stays honestly skew but its smallest principal angle shrinks like
arctan(1/n), which is the finite-dimensional shadow of a famous infinite
configuration whose sum fails to be closed.  :func:`closedness_margin`
measures that shrinking angle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .brenner import _skeleton
from .linalg import (
    DEFAULT_TOL,
    ConditioningError,
    Subspace,
    ToleranceConfig,
    _by_construction,
    _complement_in,
    _part_span,
    contains,
    join,
    principal_angles,
)
from .systems import SubspaceSystem, _certify_independent, _require_arity_three, restrict_system
from .two_subspaces import ANGLE_EPS, _oblique_split

__all__ = [
    "CASE_DISTRIBUTIVE",
    "CASE_PENTAGON",
    "ClosednessMargin",
    "PentagonSplit",
    "closedness_margin",
    "diagonal_graph_pair",
    "example9_truncated",
    "margin_sample_points",
    "pentagon_split",
]

CASE_DISTRIBUTIVE = "distributive"
CASE_PENTAGON = "pentagon"


@dataclass(frozen=True)
class PentagonSplit:
    """Outcome of splitting a triple with E1 meet E2 = 0 and E2 < E3.

    ``case`` is "distributive" when E3 lies inside E1 + E2 so the triple
    decomposes completely; then ``base`` is E2, ``bridge`` the part of E1
    filling E3 above E2, and ``first_remainder`` the rest of E1.

    ``case`` is "pentagon" when part of E3 sticks out of E1 + E2; then
    ``third_outside`` is that part and ``pentagon_part`` the core
    (E1', E2, E2 + third_outside) re-expressed inside its own span.  In
    finite dimension the core is a direct sum of Brenner's ``pair_23``,
    ``single_1`` and ``single_3`` blocks, not an irreducible system.

    ``quotient_vectors`` are the witnesses u_k spanning E3's share of
    E1 + E2 above E2, and ``first_components``/``second_components`` their
    oblique components in E1 and E2 (u_k is their sum).
    """

    case: str
    bridge: Subspace
    base: Optional[Subspace]
    first_remainder: Optional[Subspace]
    third_outside: Optional[Subspace]
    pentagon_part: Optional[SubspaceSystem]
    quotient_vectors: np.ndarray
    first_components: np.ndarray
    second_components: np.ndarray

    @property
    def witness_count(self) -> int:
        return self.quotient_vectors.shape[1]


@dataclass(frozen=True)
class ClosednessMargin:
    """Smallest strictly positive principal angle of a pair, together with
    the ambient dimension at which the configuration was truncated."""

    min_positive_angle: float
    truncation_dim: int


def pentagon_split(system: SubspaceSystem, tol: ToleranceConfig = DEFAULT_TOL) -> PentagonSplit:
    """Split a triple satisfying the pentagon hypotheses.

    Preconditions (each failure reported by name, in this order): the
    second subspace is contained in the third, strictly, and the first and
    second meet trivially.  The containment and its strictness take no
    factorization; the trivial meet is read off the Brenner skeleton, which
    gives every piece of the split.  Structural certificates that must hold
    by the theory raise :class:`ConditioningError` when violated
    numerically.
    """
    _require_arity_three(system)
    e1, e2, e3 = system.subspaces
    if not contains(e3, e2, tol):
        raise ValueError("hypothesis failure: the second subspace is not contained in the third")
    if e2.dim >= e3.dim:
        raise ValueError("hypothesis failure: containment of the second subspace in the third must be strict")
    pieces = _skeleton(system, tol)
    if pieces["pair_12"].dim + pieces["common"].dim:
        raise ValueError("hypothesis failure: the first and second subspaces have a nontrivial intersection")
    # E2 inside E3 leaves E2 no single_2 or triangle block.  Then the bridge E1 ∩ E3
    # fills E3 ∩ (E1 + E2) above E2, and single_1 fills E1 beyond the bridge.
    if pieces["single_2"].dim + pieces["triangle_3"].dim:
        counts = f"{pieces['single_2'].dim} single and {pieces['triangle_3'].dim} triangle blocks"
        raise ConditioningError(f"E2 lies in E3, yet the skeleton gives it {counts}; rank decisions were inconsistent")
    bridge, first_rest, third_outside = pieces["pair_13"], pieces["single_1"], pieces["single_3"]
    u = _complement_in(pieces["inside_3"], e2, tol).basis
    v, w = _oblique_split(e1, pieces["factors_12"], pieces["join_12"].dim, u)

    if third_outside.dim == 0:
        # Fully distributive: E3 = E2 + bridge and E1 = bridge + remainder.
        # The counts give dim E2 + dim bridge = dim E3, and the independence
        # of all three parts gives that of E2 and the bridge: a column
        # subset's singular values interlace with those of the whole.
        _certify_independent((e2, bridge, first_rest), tol, "split parts")
        parts = dict(case=CASE_DISTRIBUTIVE, base=e2, first_remainder=first_rest,
                     third_outside=None, pentagon_part=None)
    else:
        # [first_rest | E2 | third_outside], a column subset of the certified stack,
        # keeps full rank under the same relative cutoff: its join carries the core.
        _certify_independent((bridge, first_rest, e2, third_outside), tol, "pentagon parts")
        with _by_construction():
            # E2 and third_outside are orthogonal through E3's rank decision: checked
            third_core = Subspace(np.hstack([e2.basis, third_outside.basis]))
            carrier = join(first_rest, third_core, tol)
            core = restrict_system(SubspaceSystem.of(first_rest, e2, third_core), carrier, tol)
        parts = dict(case=CASE_PENTAGON, base=None, first_remainder=None,
                     third_outside=third_outside, pentagon_part=core)
    return PentagonSplit(bridge=bridge, quotient_vectors=u, first_components=v,
                         second_components=w, **parts)


def example9_truncated(n: int) -> SubspaceSystem:
    """Finite truncation, at n coordinates per half, of the classical
    non-closing triple in K + K with K infinite-dimensional.

    The ambient space is C^(2n).  With weights a_i = 1/i:

      * E1 is K + 0 extended by the vector (0, v) with v = (0, a_2, ..., a_n);
      * E2 is the graph of diag(a_1, ..., a_n);
      * E3 is E2 extended by (0, f) and (0, v), with f = (a_1, ..., a_n).

    Each basis is built in closed form.  E1's is [K + 0 | (0, v/|v|)] and
    E2's the graph basis (e_i, a_i e_i) / sqrt(1 + a_i^2), both exactly
    orthonormal.  E3's is the graph basis followed by an orthonormal basis
    of the 2n x 2 residual of (0, f) and (0, v) against it (projected twice).
    That span is taken by ``linalg._part_span``, the one check of a
    span that must keep its column count: a rank other than 2 raises
    :class:`ConditioningError`.

    At every finite n the triple fails the pentagon hypotheses (the graph
    meets E1 since v lies in the image of the diagonal map), which is the
    point: the configuration only becomes a pentagon in the limit.  Use
    :func:`closedness_margin` on (K + 0, graph) to watch the degeneration.
    """
    if n < 2:
        raise ValueError("the truncation needs n >= 2 coordinates per half")
    weights = 1.0 / np.arange(1, n + 1)
    v = weights.copy()
    v[0] = 0.0

    flat = np.zeros((2 * n, n + 1))
    flat[:n, :n] = np.eye(n)
    flat[n:, n] = v / np.linalg.norm(v)

    graph = _graph_basis(weights)
    extra = np.zeros((2 * n, 2))  # (0, f) and (0, v), with f the weights
    extra[n:] = np.column_stack([weights, v])
    for _ in range(2):  # a second projection removes what the first left behind
        extra -= graph @ (graph.T @ extra)
    outside = _part_span(extra, DEFAULT_TOL, "residual of (0, f) and (0, v) against the graph")
    # E3's two blocks are orthogonal only as far as the projection and the
    # rank decision of _part_span made them, so its basis is checked
    return SubspaceSystem.of(
        Subspace._unchecked(flat), Subspace._unchecked(graph), Subspace(np.hstack([graph, outside.basis]))
    )


def _graph_basis(weights: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the graph of diag(weights) in C^(2n): the
    columns (e_i, a_i e_i) / sqrt(1 + a_i^2)."""
    return np.vstack([np.eye(weights.size), np.diag(weights)]) / np.sqrt(1.0 + weights**2)


def diagonal_graph_pair(n: int):
    """The pair (K + 0, graph of diag(1, 1/2, ..., 1/n)) in C^(2n).

    Its smallest principal angle is exactly arctan(1/n): the graph hugs the
    flat subspace ever closer as the diagonal entries shrink.
    """
    if n < 1:
        raise ValueError("need at least one coordinate")
    weights = 1.0 / np.arange(1, n + 1)
    flat = Subspace._unchecked(np.vstack([np.eye(n), np.zeros((n, n))]))
    return flat, Subspace._unchecked(_graph_basis(weights))


def margin_sample_points(n: int):
    """Roughly logarithmic sample of truncation sizes from 2 up to n,
    always ending at n.  Keeps margin tables small for large n."""
    if n < 2:
        raise ValueError("need n >= 2")
    points = [m for m in (2, 3, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000) if m < n]
    points.append(n)
    return points


def closedness_margin(first: Subspace, second: Subspace) -> ClosednessMargin:
    """Smallest strictly positive principal angle between two subspaces.

    Angles below the degeneracy threshold count as zero (shared
    directions); if no positive angle remains, one subspace contains the
    other and there is no margin to report, which raises ValueError.
    """
    angles = principal_angles(first, second)
    positive = angles[angles > ANGLE_EPS]
    if positive.size == 0:
        raise ValueError(
            "no strictly positive principal angle: one subspace contains the other"
        )
    return ClosednessMargin(float(positive.min()), first.ambient_dim)
