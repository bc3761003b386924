"""Seeded input pools for the three benchmark workloads.

A pool is a list of :class:`Op` values: the argv handed to
``subspacekit.cli.main`` plus the ground truth the inputs were generated
from.  Building a pool writes the system files it needs; the program under
test only ever sees those files.

Every pool is stratified so that the cost of one pass over it hardly
depends on the seed: ambient dimensions are taken at fixed quantiles (or
fixed values) and scramble conditions at fixed strata.  The seed chooses
the multiplicity patterns, the scrambling maps and the order.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from dataclasses import dataclass
from functools import reduce

import numpy as np

from subspacekit import (
    Subspace,
    SubspaceSystem,
    compose_from_multiplicities,
    direct_sum,
    haar_unitary,
    map_system,
)

TRIANGLE = 7  # slot index of the double triangle; every other slot is one-dimensional
ONE_DIM_SLOTS = (0, 1, 2, 3, 4, 5, 6, 8)
SLOT_PAIR_23, SLOT_PAIR_13, SLOT_SINGLE_1, SLOT_SINGLE_3, SLOT_OUTSIDE = 1, 2, 4, 6, 8

# Which of the three subspaces contains each slot's block (slot order).
SLOT_MEMBERSHIP = (
    (1, 1, 1), (0, 1, 1), (1, 0, 1), (1, 1, 0),
    (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (0, 0, 0),
)

SMALL_MIXED_ENTRIES = 240
LARGE_DENSE_DIMS = (72, 120, 168)
EXAMPLE9_N = 200


@dataclass
class Op:
    """One CLI invocation and the truth it is checked against."""

    command: str
    argv: list
    truth: dict
    files: tuple = ()
    cond: float = 1.0
    bytes_in: int = 0


@dataclass
class Pool:
    ops: list
    compose_s: float = 0.0  # time spent in catalog.compose_from_multiplicities


def dims_of(mult):
    """Subspace dimensions of a triple with the given multiplicities (a
    double triangle adds one dimension to each subspace)."""
    return [sum(count * SLOT_MEMBERSHIP[slot][i] for slot, count in enumerate(mult)) for i in range(3)]


def ambient_of(mult):
    return sum(mult) + mult[TRIANGLE]


def _vectors(basis):
    return [
        [[float(z.real), float(z.imag)] for z in basis[:, j]]
        for j in range(basis.shape[1])
    ]


def system_text(system):
    """A system file in the layout ``subspacekit generate`` writes."""
    payload = {
        "ambient_dim": system.ambient_dim,
        "subspaces": [
            {"name": f"E{i + 1}", "spanning_vectors": _vectors(s.basis)}
            for i, s in enumerate(system.subspaces)
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write(path, text):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


class _Writer:
    """Composes scrambled triples into files under one directory."""

    def __init__(self, directory, pool):
        self.directory = directory
        self.pool = pool
        self.count = 0

    def triple(self, mult, seed, cond):
        start = time.perf_counter()
        system, _ = compose_from_multiplicities(list(mult), int(seed), float(cond))
        self.pool.compose_s += time.perf_counter() - start
        return self.save(system)

    def save(self, system):
        path = os.path.join(self.directory, f"s{self.count:04d}.json")
        self.count += 1
        text = system_text(system)
        _write(path, text)
        return path, len(text.encode())


def rng_for(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), zlib.crc32(workload.encode())])


def _seed(rng):
    return int(rng.integers(0, 2**31 - 1))


# ---------------------------------------------------------------- small_mixed

def _corpus_candidate(rng, index, max_dim=30):
    """One draw from the acceptance-corpus distribution: one system in seven
    is a single atom, the rest take slot counts 0..3 with 1 <= n <= max_dim."""
    if index % 7 == 0:
        counts = np.zeros(9, dtype=int)
        counts[int(rng.integers(0, 9))] = 1
        return tuple(int(c) for c in counts)
    while True:
        counts = rng.integers(0, 4, size=9)
        if 1 <= int(counts.sum() + counts[TRIANGLE]) <= max_dim:
            return tuple(int(c) for c in counts)


def _moved_unit(rng, mult):
    """Same ambient dimension, one unit moved between two one-dimensional
    slots, so the result is not isomorphic to ``mult``."""
    sources = [s for s in ONE_DIM_SLOTS if mult[s] > 0]
    source = sources[int(rng.integers(0, len(sources)))]
    targets = [s for s in ONE_DIM_SLOTS if s != source]
    target = targets[int(rng.integers(0, len(targets)))]
    moved = list(mult)
    moved[source] -= 1
    moved[target] += 1
    return tuple(moved)


def _stratified(rng, count, low, high):
    """``count`` values, one uniform draw in each of ``count`` equal strata
    of [low, high], in random order."""
    values = low + (high - low) * (np.arange(count) + rng.random(count)) / count
    return rng.permutation(values)


def small_mixed(directory, seed, entries=SMALL_MIXED_ENTRIES):
    rng = rng_for("small_mixed", seed)
    pool = Pool([])
    writer = _Writer(directory, pool)
    # Corpus-like multiplicities at fixed quantiles of the ambient dimension.
    candidates = [_corpus_candidate(rng, i) for i in range(20 * entries)]
    candidates.sort(key=ambient_of)
    picks = [candidates[int((j + 0.5) * len(candidates) / entries)] for j in range(entries)]
    picks = [picks[i] for i in rng.permutation(entries)]
    # Three quarters at condition 1..20, one quarter log-uniform in 1e3..1e9.
    ill = entries // 4
    conds = np.concatenate([
        _stratified(rng, entries - ill, 1.0, 20.0),
        10.0 ** _stratified(rng, ill, 3.0, 9.0),
    ])
    conds = conds[rng.permutation(entries)]
    eligible = [j for j, m in enumerate(picks) if any(m[s] for s in ONE_DIM_SLOTS)]
    moved = set(rng.choice(eligible, size=entries // 4, replace=False).tolist())
    for j, mult in enumerate(picks):
        cond = float(conds[j])
        mult_b = _moved_unit(rng, mult) if j in moved else mult
        path_a, size_a = writer.triple(mult, _seed(rng), cond)
        path_b, size_b = writer.triple(mult_b, _seed(rng), cond)
        pool.ops.append(Op("decompose", ["decompose", path_a], {"mult": mult},
                           (path_a,), cond, size_a))
        pool.ops.append(Op("isomorphic", ["isomorphic", path_a, path_b, "--emit-map"],
                           {"mult": mult, "mult_b": mult_b}, (path_a, path_b), cond,
                           size_a + size_b))
    return pool


# ---------------------------------------------------------------- large_dense

def _dense_mult(rng, n):
    """Every slot populated: half the dimension spread evenly over the
    eight one-dimensional slots (the remainder to random slots), the rest
    in triangles."""
    mass = n // 2
    counts = np.full(8, mass // 8)
    counts[rng.permutation(8)[: mass % 8]] += 1
    mult = [0] * 9
    for slot, count in zip(ONE_DIM_SLOTS, counts):
        mult[slot] = int(count)
    mult[TRIANGLE] = (n - mass) // 2
    return tuple(mult)


def large_dense(directory, seed, dims=LARGE_DENSE_DIMS):
    rng = rng_for("large_dense", seed)
    pool = Pool([])
    writer = _Writer(directory, pool)
    for n in dims:
        mult = _dense_mult(rng, n)
        cond = float(10.0 ** rng.uniform(0.0, 3.0))
        path_a, size_a = writer.triple(mult, _seed(rng), cond)
        path_b, size_b = writer.triple(mult, _seed(rng), cond)
        pool.ops.append(Op("decompose", ["decompose", path_a, "--emit-basis"],
                           {"mult": mult}, (path_a,), cond, size_a))
        pool.ops.append(Op("isomorphic", ["isomorphic", path_a, path_b, "--emit-map"],
                           {"mult": mult, "mult_b": mult}, (path_a, path_b), cond,
                           size_a + size_b))
    return pool


# ---------------------------------------------------------------- analyze_lab

def _triple_of_dim(rng, n):
    """Multiplicities with ambient dimension exactly n."""
    triangles = int(rng.integers(0, n // 4 + 1))
    counts = rng.multinomial(n - 2 * triangles, np.full(8, 1.0 / 8))
    mult = [0] * 9
    for slot, count in zip(ONE_DIM_SLOTS, counts):
        mult[slot] = int(count)
    mult[TRIANGLE] = triangles
    return tuple(mult)


def four_lines(rng):
    """Four distinct lines in C^2: the axes, the diagonal and a random
    line.  Indecomposable with scalar endomorphisms only."""
    slope = complex(rng.uniform(2.0, 4.0), rng.uniform(-1.0, 1.0))
    lines = ([1, 0], [0, 1], [1, 1], [1, slope])
    return SubspaceSystem.of(*(
        Subspace(np.array(v, dtype=np.complex128).reshape(2, 1) / np.linalg.norm(v))
        for v in lines
    ))


def point_block(membership):
    """The one-dimensional four-subspace system with the given membership."""
    return SubspaceSystem.of(*(Subspace.full(1) if m else Subspace.zero(1) for m in membership))


def four_subspace_system(rng, lines_blocks, point_blocks, cond):
    """Scrambled direct sum of four-lines blocks and one-dimensional blocks.
    Returns the system and its known subspace dimensions."""
    blocks = [four_lines(rng) for _ in range(lines_blocks)]
    memberships = [tuple(int(b) for b in rng.integers(0, 2, size=4)) for _ in range(point_blocks)]
    blocks += [point_block(m) for m in memberships]
    blocks = [blocks[i] for i in rng.permutation(len(blocks))]
    base = reduce(direct_sum, blocks)
    n = base.ambient_dim
    stretch = np.exp(rng.uniform(0.0, np.log(cond), size=n))
    scramble = haar_unitary(n, rng) @ (stretch[:, None] * haar_unitary(n, rng))
    dims = [lines_blocks + sum(m[i] for m in memberships) for i in range(4)]
    return map_system(scramble, base), dims


# (four-lines blocks, one-dimensional blocks) of the four-subspace systems:
# two single atoms (transitive) and sums up to n = 16.
FOUR_SUBSPACE_SHAPES = ((1, 0), (0, 1), (1, 2), (2, 2), (2, 4), (3, 4), (4, 4), (5, 4), (6, 4), (6, 2), (8, 0))
TRIPLE_DIMS = tuple(range(12, 25))
PENTAGON_FILES = 10
EXAMPLE9_OPS = 6


def _pentagon_mult(rng, distributive):
    """E1 meet E2 = 0 and E2 strictly inside E3: only pair_23, pair_13,
    single_1, single_3 and outside blocks; single_3 > 0 is the pentagon case."""
    mult = [0] * 9
    mult[SLOT_PAIR_23] = int(rng.integers(1, 5))
    mult[SLOT_PAIR_13] = int(rng.integers(1, 5))
    mult[SLOT_SINGLE_1] = int(rng.integers(1, 5))
    mult[SLOT_SINGLE_3] = 0 if distributive else int(rng.integers(1, 5))
    mult[SLOT_OUTSIDE] = int(rng.integers(0, 4))
    return tuple(mult)


def analyze_lab(directory, seed):
    rng = rng_for("analyze_lab", seed)
    pool = Pool([])
    writer = _Writer(directory, pool)
    analyze_ops = []
    for n in TRIPLE_DIMS:
        mult = _triple_of_dim(rng, n)
        cond = float(rng.uniform(1.0, 20.0))
        path, size = writer.triple(mult, _seed(rng), cond)
        analyze_ops.append(Op("analyze", ["analyze", path],
                              {"arity": 3, "mult": mult, "atoms": sum(mult), "dims": dims_of(mult),
                               "ambient": n},
                              (path,), cond, size))
    for lines_blocks, point_blocks in FOUR_SUBSPACE_SHAPES:
        cond = float(rng.uniform(1.0, 20.0))
        system, dims = four_subspace_system(rng, lines_blocks, point_blocks, cond)
        path, size = writer.save(system)
        analyze_ops.append(Op("analyze", ["analyze", path],
                              {"arity": 4, "atoms": lines_blocks + point_blocks, "dims": dims,
                               "ambient": system.ambient_dim},
                              (path,), cond, size))
    pentagon_ops = []
    for j in range(PENTAGON_FILES):
        mult = _pentagon_mult(rng, distributive=j % 2 == 0)
        cond = float(rng.uniform(1.0, 20.0))
        path, size = writer.triple(mult, _seed(rng), cond)
        pentagon_ops.append(Op("pentagon", ["pentagon", path], {"mult": mult}, (path,), cond, size))
    example9_ops = [
        Op("pentagon", ["pentagon", "--example9", str(EXAMPLE9_N)], {"example9": EXAMPLE9_N})
        for _ in range(EXAMPLE9_OPS)
    ]
    # Interleave so that every stretch of the pass has the same mix
    # (24 analyze : 10 pentagon file : 6 example9, about 60 : 25 : 15).
    analyze_ops = [analyze_ops[i] for i in rng.permutation(len(analyze_ops))]
    groups = [analyze_ops, pentagon_ops, example9_ops]
    keyed = [((k + 0.5) / len(g), gi, op) for gi, g in enumerate(groups) for k, op in enumerate(g)]
    pool.ops = [op for _, _, op in sorted(keyed, key=lambda item: (item[0], item[1]))]
    return pool


BUILDERS = {
    "small_mixed": small_mixed,
    "large_dense": large_dense,
    "analyze_lab": analyze_lab,
}
