"""Acceptance suite: ten numbered criteria, one verdict line each.

Each test prints and records a single line of the form

    [acceptance] criterion N <label>: PASS|FAIL

and fails loudly when any sub-check misses its stated tolerance.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from conftest import record_acceptance, random_subspace
from subspacekit import (
    InvariantVector,
    SLOT_ATOMS,
    SubspaceSystem,
    atom,
    brenner_decompose,
    brenner_invariants,
    closedness_margin,
    compose_from_multiplicities,
    detect_pentagon,
    diagonal_graph_pair,
    example9_truncated,
    find_nontrivial_idempotent,
    gap,
    is_isomorphic_three,
    isomorphism_between,
    join,
    map_system,
    meet,
    normalize_double_triangle,
    orthonormalize,
    pentagon_split,
    principal_angles,
    remark_example,
    restrict_system,
    restricted_sum_operator,
    same_subspace,
    verify_brenner,
    verify_isomorphism,
)
from subspacekit.cli import main as cli_main


def report(number, label, problems, detail=""):
    passed = not problems
    if passed:
        suffix = f" ({detail})" if detail else ""
    else:
        suffix = f" ({len(problems)} failed; first: {problems[0]})"
    line = f"[acceptance] criterion {number} {label}: {'PASS' if passed else 'FAIL'}{suffix}"
    print(line)
    record_acceptance(line)
    assert passed, line


def line_span(*entries):
    return orthonormalize([list(entries)])


def test_criterion_1_corpus_recovery(corpus):
    """200 scrambled systems: exact multiplicity recovery, verified
    decompositions with gaps at most 1e-8, under 30 seconds."""
    problems = []
    start = time.perf_counter()
    for i, (vector, seed, cond, system) in enumerate(corpus):
        d = brenner_decompose(system)
        check = verify_brenner(system, d)
        if d.invariants != vector:
            problems.append(
                f"system {i}: invariants {d.invariants.as_tuple()} != {vector.as_tuple()}"
            )
        if not check.passed:
            problems.append(f"system {i}: verification failed")
        if check.max_gap > 1e-8:
            problems.append(f"system {i}: verification gap {check.max_gap:.2e}")
        if not d.trusted:
            problems.append(f"system {i}: conditioning warnings {d.warnings}")
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        problems.append(f"took {elapsed:.1f}s, budget is 30s")
    report(1, "corpus decomposition recovery", problems,
           f"200 systems in {elapsed:.1f}s")


def test_criterion_2_golden_values():
    """Hand-checked small systems hit their published block structure."""
    problems = []

    for slot, index in enumerate(SLOT_ATOMS):
        got = brenner_invariants(atom(index)).as_tuple()
        want = tuple(1 if j == slot else 0 for j in range(9))
        if got != want:
            problems.append(f"atom {index}: invariants {got} != {want}")

    system = remark_example()
    if brenner_invariants(system).as_tuple() != (0, 0, 0, 1, 0, 0, 0, 1, 0):
        problems.append("remark example: wrong invariants")

    d = brenner_decompose(system)
    goldens = [
        ("pair_12", d.pair_12, line_span(0, 0, 1)),
        ("triangle_1", d.triangle_1, line_span(1, 0, 0.5)),
        ("triangle_2", d.triangle_2, line_span(0, 1, 0.5)),
        ("triangle_3", d.triangle_3, line_span(1, 1, 1)),
    ]
    for name, got, want in goldens:
        if not same_subspace(got, want):
            problems.append(f"remark example: {name} is not the golden line")
    if d.residual > 1e-10:
        problems.append(f"remark example: residual {d.residual:.2e}")

    # triangle families are a free choice; an alternative transversal pair
    # must verify just as well
    alternative = dataclasses.replace(
        d, triangle_1=line_span(1, 0, 1 / 3), triangle_2=line_span(0, 1, 2 / 3)
    )
    if not verify_brenner(system, alternative).passed:
        problems.append("remark example: alternative triangle pair rejected")

    report(2, "golden decompositions", problems, "9 atoms + remark example")


def _different_partner(vector):
    """A multiplicity vector with the same total dimension but different
    contents. Permuting unequal one-dimensional slots preserves ambient
    dimension; pure triangle mass trades one triangle for two atoms."""
    slots = list(vector.as_tuple())
    flat = [0, 1, 2, 3, 4, 5, 6, 8]
    for i in flat:
        for j in flat:
            if slots[i] != slots[j]:
                out = slots.copy()
                out[i], out[j] = out[j], out[i]
                return InvariantVector.from_iterable(out)
    if slots[0] >= 1:
        out = slots.copy()
        out[0] += 1
        out[1] -= 1
        return InvariantVector.from_iterable(out)
    out = [1, 1, 0, 0, 0, 0, 0, slots[7] - 1, 0]
    return InvariantVector.from_iterable(out)


def test_criterion_3_isomorphism_decisions(corpus):
    """50 same-content pairs decided isomorphic with a verified explicit
    map, 50 different-content pairs decided non-isomorphic."""
    problems = []

    for i, (vector, seed, cond, system) in enumerate(corpus[:50]):
        other, _ = compose_from_multiplicities(
            vector, seed=seed ^ 0x5A5A5A, cond_bound=1.0 + (cond % 10.0)
        )
        if not is_isomorphic_three(system, other):
            problems.append(f"equal pair {i}: declared non-isomorphic")
            continue
        witness = isomorphism_between(system, other)
        certificate = verify_isomorphism(witness, system, other)
        if not certificate.passed or certificate.max_gap > 1e-8:
            problems.append(
                f"equal pair {i}: witness gap {certificate.max_gap:.2e}"
            )

    for i, (vector, seed, cond, system) in enumerate(corpus[50:100]):
        partner = _different_partner(vector)
        if partner.total_dim != vector.total_dim:
            problems.append(f"unequal pair {i}: partner changes ambient dim")
            continue
        other, _ = compose_from_multiplicities(partner, seed=seed + 1, cond_bound=cond)
        if is_isomorphic_three(system, other):
            problems.append(f"unequal pair {i}: declared isomorphic")
        if isomorphism_between(system, other) is not None:
            problems.append(f"unequal pair {i}: produced a witness")

    report(3, "isomorphism decisions", problems, "50 + 50 pairs")


def test_criterion_4_decomposability(corpus):
    """find_nontrivial_idempotent finds a splitting exactly on multi-atom
    systems: no witness on any single atom, a witness on everything else."""
    problems = []
    for i, (vector, seed, cond, system) in enumerate(corpus):
        witness = find_nontrivial_idempotent(system, trials=8, seed=0)
        expect_none = vector.total_atoms == 1
        if expect_none and witness is not None:
            problems.append(f"system {i}: split a single atom")
        if not expect_none and witness is None:
            problems.append(
                f"system {i}: missed a split of {vector.total_atoms} atoms"
            )
    report(4, "decomposability decisions", problems, "200 systems, each read off its Brenner decomposition")


def test_criterion_5_two_subspace_spectra():
    """Principal angles against a projector-product eigenvalue oracle, and
    restricted-sum determinants against sin^2 of each angle, at 1e-9.

    Pairs are drawn in generic position (dim A + dim B <= ambient): a forced
    shared direction pins an angle to the arccos endpoint where both routes
    carry noise near 1e-8 and no method could meet the 1e-9 agreement.
    """
    problems = []
    for i in range(100):
        rng = np.random.default_rng(5100 + i)
        n = int(rng.integers(2, 13))
        da = int(rng.integers(1, n))
        db = int(rng.integers(1, n - da + 1))
        a = random_subspace(rng, n, da)
        b = random_subspace(rng, n, db)

        angles = principal_angles(a, b)
        product = a.projection() @ b.projection() @ a.projection()
        eigenvalues = np.linalg.eigvalsh(product)
        m = min(a.dim, b.dim)
        cosines = np.sqrt(np.clip(eigenvalues[::-1][:m], 0.0, 1.0))
        oracle = np.arccos(np.clip(cosines, -1.0, 1.0))
        if angles.shape != oracle.shape:
            problems.append(f"pair {i}: angle count mismatch")
            continue
        worst = float(np.max(np.abs(angles - oracle))) if m else 0.0
        if worst > 1e-9:
            problems.append(f"pair {i}: angle deviation {worst:.2e}")

        operator = restricted_sum_operator(a, b)
        dets = np.asarray(operator.per_angle_determinants)
        expected = np.sin(np.asarray(operator.angles)) ** 2
        if dets.shape != expected.shape:
            problems.append(f"pair {i}: determinant count mismatch")
        elif dets.size:
            err = float(np.max(np.abs(dets - expected)))
            if err > 1e-9:
                problems.append(f"pair {i}: determinant deviation {err:.2e}")
    report(5, "two-subspace spectra", problems, "100 random pairs")


def test_criterion_6_double_triangle_normal_form():
    """normalize_double_triangle straightens triangles onto the coordinate
    normal form with residual gaps at most 1e-8."""
    problems = []

    def check(tag, system, m):
        k, t = normalize_double_triangle(system)
        if k != m:
            problems.append(f"{tag}: size {k} != {m}")
            return
        mapped = map_system(t, system)
        n = system.ambient_dim
        targets = (
            orthonormalize(np.eye(n)[:k]),
            orthonormalize(np.eye(n)[k:]),
            orthonormalize(np.hstack([np.eye(k), np.eye(k)]) / np.sqrt(2.0)),
        )
        for j, (got, want) in enumerate(zip(mapped.subspaces, targets)):
            g = gap(got, want)
            if g > 1e-8:
                problems.append(f"{tag}: subspace {j + 1} gap {g:.2e}")

    d = brenner_decompose(remark_example())
    carrier = orthonormalize(np.hstack([d.triangle_1.basis, d.triangle_2.basis]).T)
    triple = restrict_system(
        SubspaceSystem.of(d.triangle_1, d.triangle_2, d.triangle_3), carrier
    )
    check("remark triangle", triple, 1)

    for m in (1, 2, 3):
        vector = InvariantVector(0, 0, 0, 0, 0, 0, 0, m, 0)
        system, _ = compose_from_multiplicities(vector, seed=600 + m, cond_bound=8.0)
        check(f"scrambled {m}-fold", system, m)

    report(6, "double-triangle normal form", problems,
           "remark triangle + 3 scrambled sizes")


def test_criterion_7_no_false_pentagons():
    """The pentagon detector never fires in finite dimension."""
    problems = []
    for i in range(1000):
        rng = np.random.default_rng(9500 + i)
        n = int(rng.integers(1, 9))
        system = SubspaceSystem.of(
            random_subspace(rng, n, int(rng.integers(0, n + 1))),
            random_subspace(rng, n, int(rng.integers(0, n + 1))),
            random_subspace(rng, n, int(rng.integers(0, n + 1))),
        )
        if detect_pentagon(system):
            problems.append(f"random system {i} flagged as pentagon")
    for n in range(2, 101):
        if detect_pentagon(example9_truncated(n)):
            problems.append(f"truncation n={n} flagged as pentagon")
    report(7, "no false pentagons", problems, "1000 random + 99 truncations")


def test_criterion_8_margin_formula():
    """Closedness margin of the diagonal-graph pair equals arctan(1/n) to
    1e-9 and shrinks strictly with n."""
    problems = []
    values = []
    for n in (10, 100, 1000):
        flat, graph = diagonal_graph_pair(n)
        margin = closedness_margin(flat, graph).min_positive_angle
        values.append(margin)
        deviation = abs(margin - np.arctan(1.0 / n))
        if deviation > 1e-9:
            problems.append(f"n={n}: deviation {deviation:.2e}")
    if not (values[0] > values[1] > values[2] > 0.0):
        problems.append(f"margins not strictly decreasing: {values}")
    report(8, "closedness margin formula", problems, "n in {10, 100, 1000}")


def test_criterion_9_pentagon_laboratory():
    """The two reference triples split into the documented cases with all
    structural certificates intact."""
    problems = []

    e1 = orthonormalize([[1, 0, 0], [0, 1, 0]])
    e2 = line_span(0, 0, 1)
    e3 = orthonormalize([[0, 0, 1], [1, 0, 0]])
    distributive = SubspaceSystem.of(e1, e2, e3)
    split = pentagon_split(distributive)
    if split.case != "distributive":
        problems.append(f"distributive triple: case {split.case!r}")
    else:
        if not same_subspace(split.bridge, line_span(1, 0, 0)):
            problems.append("distributive triple: wrong bridge")
        if not same_subspace(split.first_remainder, line_span(0, 1, 0)):
            problems.append("distributive triple: wrong remainder")
        if not same_subspace(join(split.base, split.bridge), e3):
            problems.append("distributive triple: base + bridge misses E3")
        if not same_subspace(join(split.bridge, split.first_remainder), e1):
            problems.append("distributive triple: bridge + remainder misses E1")
        u = split.quotient_vectors
        recombined = split.first_components + split.second_components
        if u.shape[1] != 1 or np.linalg.norm(u - recombined) > 1e-10:
            problems.append("distributive triple: witness components broken")

    pentagon = SubspaceSystem.of(
        line_span(1, 0, 0), line_span(0, 0, 1),
        orthonormalize([[0, 0, 1], [0, 1, 1]]),
    )
    split = pentagon_split(pentagon)
    if split.case != "pentagon":
        problems.append(f"pentagon triple: case {split.case!r}")
    else:
        if split.third_outside.dim != 1:
            problems.append("pentagon triple: wrong escape dimension")
        core = split.pentagon_part
        if core.dims() != (1, 1, 2) or core.ambient_dim != 3:
            problems.append(
                f"pentagon triple: core {core.dims()} in dim {core.ambient_dim}"
            )
        elif (
            meet(core.subspaces[0], core.subspaces[1]).dim != 0
            or meet(core.subspaces[0], core.subspaces[2]).dim != 0
            or core.subspaces[1].dim >= core.subspaces[2].dim
        ):
            problems.append("pentagon triple: core lost the defining relations")

    report(9, "pentagon laboratory fixtures", problems, "both reference triples")


def test_criterion_10_cli_roundtrip(corpus, tmp_path, capsys):
    """The command line regenerates every corpus system, recovers its
    recorded multiplicities, and emits byte-identical reports on reruns."""
    problems = []
    for i, (vector, seed, cond, system) in enumerate(corpus):
        target = tmp_path / f"system_{i}.json"
        mult = ",".join(str(c) for c in vector.as_tuple())
        code = cli_main([
            "generate", "--mult", mult, "--seed", str(seed),
            "--cond", str(cond), "-o", str(target),
        ])
        capsys.readouterr()
        if code != 0:
            problems.append(f"system {i}: generate exited {code}")
            continue

        code = cli_main(["decompose", str(target)])
        out = capsys.readouterr().out
        if code != 0:
            problems.append(f"system {i}: decompose exited {code}")
            continue
        block_dims = json.loads(out)["block_dims"]
        truth = json.loads(
            (tmp_path / f"system_{i}.truth.json").read_text()
        )
        recovered = [block_dims[name] for name in truth["slot_names"]]
        if recovered != truth["multiplicities"]:
            problems.append(
                f"system {i}: recovered {recovered} != {truth['multiplicities']}"
            )

        if i % 20 == 0:
            cli_main(["decompose", str(target)])
            again = capsys.readouterr().out
            if again != out:
                problems.append(f"system {i}: report not byte-stable")
    report(10, "command-line round trip", problems, "200 generate/decompose runs")
