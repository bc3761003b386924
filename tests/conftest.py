import os

# One BLAS thread, fixed before numpy loads, as the benchmark runs; a count
# set in the environment is kept.  OpenBLAS's default of one thread per
# core made the O(n^6) hom_basis tests a hundred times slower on a loaded
# two-core host.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from subspacekit import InvariantVector, compose_from_multiplicities

settings.register_profile(
    "deterministic",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("deterministic")

CORPUS_SIZE = 200
CORPUS_MAX_DIM = 30
CORPUS_MAX_COND = 20.0
CORPUS_BASE_SEED = 7000

ACCEPTANCE_LINES = []


def record_acceptance(line: str):
    """Collect acceptance verdict lines for the terminal summary."""
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def corpus_spec(count=CORPUS_SIZE, max_dim=CORPUS_MAX_DIM, max_cond=CORPUS_MAX_COND):
    """Deterministic corpus description: (multiplicities, seed, cond_bound).

    Roughly one system in seven is a single atom (total mass 1), the rest
    draw slot counts up to 3 and reject totals outside [1, max_dim].
    """
    specs = []
    for i in range(count):
        rng = np.random.default_rng(CORPUS_BASE_SEED + i)
        if i % 7 == 0:
            counts = np.zeros(9, dtype=int)
            counts[int(rng.integers(0, 9))] = 1
        else:
            while True:
                counts = rng.integers(0, 4, size=9)
                total = int(counts.sum() + counts[7])
                if 1 <= total <= max_dim:
                    break
        cond = 1.0 + float(rng.random()) * (max_cond - 1.0)
        seed = int(rng.integers(0, 2**31 - 1))
        specs.append((InvariantVector.from_iterable(counts), seed, cond))
    return specs


@pytest.fixture(scope="session")
def corpus():
    """The reference corpus: list of (vector, seed, cond, system) tuples."""
    out = []
    for vector, seed, cond in corpus_spec():
        system, _ = compose_from_multiplicities(vector, seed, cond)
        out.append((vector, seed, cond, system))
    return out


def random_subspace(rng, ambient, dim):
    """Gaussian random subspace of the given dimension (orthonormalized)."""
    from subspacekit import Subspace, orthonormalize

    if dim == 0:
        return Subspace.zero(ambient)
    raw = rng.standard_normal((dim, ambient)) + 1j * rng.standard_normal((dim, ambient))
    return orthonormalize(raw)
