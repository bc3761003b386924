"""Catalog of indecomposable three-subspace systems and a composer.

The nine atoms are the indecomposable systems of three subspaces: eight
one-dimensional ones, indexed by which of the three subspaces equal the
whole line, and the two-dimensional double triangle (three distinct lines
in a plane).  :func:`compose_from_multiplicities` direct-sums atoms
according to an :class:`~subspacekit.brenner.InvariantVector` and scrambles
the result by a seeded random invertible map with controlled condition
number, which is how test corpora with known ground truth are produced.
"""

from __future__ import annotations

import numpy as np

from .brenner import _HELD, SLOT_NAMES, InvariantVector
from .linalg import DEFAULT_TOL, Subspace, ToleranceConfig, orthonormalize
from .systems import SubspaceSystem, direct_sum, map_system

__all__ = [
    "SLOT_ATOMS",
    "atom",
    "compose_from_multiplicities",
    "haar_unitary",
    "remark_example",
]

# Atom index housed in each InvariantVector slot, in slot order.
SLOT_ATOMS = (8, 7, 6, 5, 2, 3, 4, 9, 1)


def _build_atom(name: str) -> SubspaceSystem:
    """The atom housed in the InvariantVector slot ``name``."""
    if name == "triangle":
        axis_1 = Subspace._unchecked(np.array([[1.0], [0.0]], dtype=np.complex128))
        axis_2 = Subspace._unchecked(np.array([[0.0], [1.0]], dtype=np.complex128))
        diagonal = Subspace._unchecked(np.array([[1.0], [1.0]], dtype=np.complex128) / np.sqrt(2.0))
        return SubspaceSystem.of(axis_1, axis_2, diagonal)
    return SubspaceSystem.of(*(Subspace.full(1) if name in held else Subspace.zero(1) for held in _HELD))


# The atom of each slot, in slot order.  Systems are frozen and bases
# read-only, so each atom is built once and shared.
_SLOT_SYSTEMS = tuple(_build_atom(name) for name in SLOT_NAMES)


def atom(index: int) -> SubspaceSystem:
    """The indecomposable system with the given catalog index (1 to 9).

    Atoms 1 through 8 live in C^1; atom 9 is the double triangle in C^2
    (the two coordinate axes and the diagonal).  A one-dimensional atom
    is the full line in each subspace that holds its slot's block.  The
    same immutable system is returned on every call.
    """
    if index not in SLOT_ATOMS:
        raise ValueError(f"atom index must be 1..9, got {index!r}")
    return _SLOT_SYSTEMS[SLOT_ATOMS.index(index)]


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed n x n unitary (QR of a complex Gaussian matrix with
    the R-diagonal phase ambiguity fixed)."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def compose_from_multiplicities(
    multiplicities,
    seed: int,
    cond_bound: float = 1.0,
    tol: ToleranceConfig = DEFAULT_TOL,
):
    """Build a three-subspace system with prescribed block multiplicities,
    scrambled by a random invertible map.

    ``multiplicities`` is an :class:`InvariantVector` or any iterable of
    nine nonnegative integers in slot order; at least one must be positive.
    The scrambling map is U diag(d) V with U, V Haar unitaries and the
    entries of d log-uniform in [1, cond_bound], so its condition number is
    at most cond_bound (equal to 1 means a plain unitary).  Deterministic
    in (multiplicities, seed, cond_bound).

    Returns ``(system, map)``.
    """
    if not isinstance(multiplicities, InvariantVector):
        multiplicities = InvariantVector.from_iterable(multiplicities)
    if multiplicities.total_atoms == 0:
        raise ValueError("at least one multiplicity must be positive")
    if not np.isfinite(cond_bound) or cond_bound < 1.0:
        raise ValueError(f"cond_bound must be a finite number >= 1, got {cond_bound!r}")

    # The n x n scramble comes first: an ambient dimension no machine can
    # hold is refused by its first allocation, before any atom is listed.
    n = multiplicities.total_dim
    rng = np.random.default_rng(seed)
    u = haar_unitary(n, rng)
    v = haar_unitary(n, rng)
    stretch = np.exp(rng.uniform(0.0, np.log(cond_bound), size=n))
    scramble = u @ (stretch[:, None] * v)
    base = direct_sum(*(
        system
        for count, system in zip(multiplicities.as_tuple(), _SLOT_SYSTEMS)
        for _ in range(count)
    ))
    return map_system(scramble, base, tol), scramble


def remark_example() -> SubspaceSystem:
    """The standard small example with one plane-pair triangle: in C^3,
    the planes spanned by {e1, e3} and {e2, e3} together with the line
    through (1, 1, 1).

    Its multiplicity vector has a single pair_12 block and a single
    triangle block; the triangle families produced by the canonical split
    are the lines through (1, 0, 1/2) and (0, 1, 1/2), but any pair of
    lines completing the third family to a double triangle verifies.
    """
    plane_13 = orthonormalize([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    plane_23 = orthonormalize([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    diagonal = orthonormalize([[1.0, 1.0, 1.0]])
    return SubspaceSystem.of(plane_13, plane_23, diagonal)
