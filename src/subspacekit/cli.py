"""Command line interface.

Subcommands: analyze, decompose, isomorphic, generate, pentagon.  Systems
travel as JSON files:

    {
      "ambient_dim": 3,
      "subspaces": [
        {"name": "E1", "spanning_vectors": [[1, 0, 0], [[0, 1], 0, 0]]},
        ...
      ],
      "tolerances": {"rank_rtol": 1e-10}          # optional
    }

Vector entries are real numbers or [re, im] pairs.  Spanning vectors need
not be independent or normalized; an empty list denotes the zero subspace.
Tolerance precedence: command-line flags, then SUBSPACEKIT_* environment
variables, then the file's "tolerances" block, then defaults.  For
isomorphic, the first file's tolerances (after flags and environment)
govern the comparison of both systems; the second file's "tolerances"
block is only used to read its own spanning vectors.  Reports are
deterministic: identical inputs, flags and seeds produce byte-identical
output (dimensions as integers, residual-like quantities as fixed-format
scientific strings).  A report, and a file ``generate`` writes, is exactly
``json.dumps(report, indent=2, sort_keys=True)`` plus a newline, but its
matrices are written straight from their arrays (``_json_text``).

Exit codes: 0 success, 1 verification or conditioning failure, 2 malformed
input or violated preconditions.
"""

from __future__ import annotations

import argparse
import cmath
import json
import os
import sys
from contextvars import ContextVar
from dataclasses import fields, replace
from itertools import chain, combinations

import numpy as np

from .brenner import (
    BLOCK_NAMES,
    SLOT_NAMES,
    InvariantVector,
    _endomorphisms,
    _invariants_and_witness,
    _is_double_triangle,
    brenner_decompose,
)
from .catalog import compose_from_multiplicities
from .linalg import (
    DEFAULT_TOL,
    ConditioningError,
    Subspace,
    ToleranceConfig,
    orthonormalize,
    principal_angles,
)
from .pentagon import (
    closedness_margin,
    diagonal_graph_pair,
    example9_truncated,
    margin_sample_points,
    pentagon_split,
)
from .systems import (
    SubspaceSystem,
    detect_pentagon,
    is_commutative,
    verify_isomorphism,
)

ENV_PREFIX = "SUBSPACEKIT_"
# numpy sizes an array in bytes by a signed pointer-sized integer.
_COMPLEX_BYTES = np.dtype(np.complex128).itemsize
_MAX_ARRAY_BYTES = np.iinfo(np.intp).max
_TOL_KEYS = tuple(field.name for field in fields(ToleranceConfig))
# Each setting a flag or a SUBSPACEKIT_* variable gives, with the type its
# variable is read as; the flag wins.
_SETTINGS = (("rank_rtol", float), ("gap_tol", float), ("residual_tol", float), ("seed", int))
_TYPE_NAMES = {float: "a number", int: "an integer"}
# (file or flag, ambient_dim) of each system the running command has
# admitted, so that numpy's refusal to allocate can be reported against it.
_ADMITTED: ContextVar = ContextVar("subspacekit_admitted", default=None)


class _InputError(Exception):
    """Bad file, flag, or precondition; mapped to exit code 2."""


def _sci(value) -> str:
    return f"{float(value):.2e}"


def _matrix_entries(matrix: np.ndarray):
    """Matrix as rows of [re, im] pairs (full precision); pass the
    transpose of a basis to list its vectors.  The list form of a report
    matrix: ``_json_text`` writes this text and ``--text`` flattens it."""
    matrix = np.asarray(matrix, dtype=np.complex128)
    return np.stack([matrix.real, matrix.imag], axis=-1).tolist()


def _newline(depth: int) -> str:
    return "\n" + "  " * depth


# float.__repr__ spells the non-finite floats nan and inf; json writes these.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_text(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` of a report, where a
    2-D numpy array with at least one column stands for its
    ``_matrix_entries`` list.

    Dictionary keys must be strings.  Scalars go through ``json.dumps``;
    each matrix is written from ``float.__repr__`` of its real and imaginary
    parts, which is what the encoder writes for each float, without
    building the nested lists."""
    parts = []
    _write_json(value, 0, parts)
    return "".join(parts)


def _write_json(value, depth: int, parts: list):
    if isinstance(value, np.ndarray):
        _write_matrix(value, depth, parts)
    elif isinstance(value, dict) and value:
        inner = _newline(depth + 1)
        opener = "{"
        for key in sorted(value):
            parts.append(f"{opener}{inner}{json.dumps(key)}: ")
            _write_json(value[key], depth + 1, parts)
            opener = ","
        parts.append(_newline(depth) + "}")
    elif isinstance(value, (list, tuple)) and value:
        inner = _newline(depth + 1)
        opener = "["
        for item in value:
            parts.append(opener + inner)
            _write_json(item, depth + 1, parts)
            opener = ","
        parts.append(_newline(depth) + "]")
    else:
        parts.append(json.dumps(value))


def _write_matrix(matrix: np.ndarray, depth: int, parts: list):
    """A matrix as rows of [re, im] pairs, laid out as the indenting
    encoder lays out ``_matrix_entries(matrix)``."""
    matrix = np.ascontiguousarray(matrix, dtype=np.complex128)
    rows, cols = matrix.shape
    if rows == 0:
        parts.append("[]")
        return
    row_in, pair_in, entry_in = (_newline(depth + d) for d in (1, 2, 3))
    # Real and imaginary parts interleaved, row by row.
    floats = list(map(float.__repr__, matrix.view(np.float64).ravel().tolist()))
    if not np.isfinite(matrix).all():
        floats = [_NON_FINITE.get(text, text) for text in floats]
    # One template repeats the layout of a pair, a row and the matrix.
    pair = f"[{entry_in}%s,{entry_in}%s{pair_in}]"
    row = "[" + pair_in + ("," + pair_in).join([pair] * cols) + row_in + "]"
    template = "[" + row_in + ("," + row_in).join([row] * rows) + _newline(depth) + "]"
    parts.append(template % tuple(floats))


def _tol_dict(tol: ToleranceConfig):
    return {key: getattr(tol, key) for key in _TOL_KEYS}


def _header(system: SubspaceSystem, command=None, path=None, tol=None) -> dict:
    """The fields a report on ``system`` opens with: its dimensions, the
    command when given, and the input file with its tolerances when the
    system was read from one."""
    header = {"ambient_dim": system.ambient_dim, "subspace_dims": list(system.dims())}
    if command is not None:
        header["command"] = command
    if path is not None:
        header.update(input=path, tolerances=_tol_dict(tol))
    return header


def _pair_table(system: SubspaceSystem, value) -> dict:
    """``value(a, b)`` for every pair of subspaces, keyed "i-j" (from 1,
    i < j); None for a pair on which it raises ValueError."""
    table = {}
    for (i, a), (j, b) in combinations(enumerate(system.subspaces, 1), 2):
        try:
            table[f"{i}-{j}"] = value(a, b)
        except ValueError:
            table[f"{i}-{j}"] = None
    return table


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--rank-rtol", dest="rank_rtol", type=float, default=None,
                        help="relative singular value cutoff for rank decisions")
    common.add_argument("--gap-tol", dest="gap_tol", type=float, default=None,
                        help="subspace-equality threshold of the library's same_subspace; "
                             "listed under a report's tolerances, but no command reads it")
    common.add_argument("--residual-tol", dest="residual_tol", type=float, default=None,
                        help="acceptance threshold for verification residuals")
    common.add_argument("--seed", type=int, default=None,
                        help="seed of the idempotent search of analyze on systems of other "
                             "than three subspaces, and of generate (default 0)")
    fmt = common.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="fmt", action="store_const", const="json",
                     help="emit the report as JSON (default)")
    fmt.add_argument("--text", dest="fmt", action="store_const", const="text",
                     help="emit the report as flat key: value lines")
    common.set_defaults(fmt=None)

    parser = argparse.ArgumentParser(
        prog="subspacekit",
        description="canonical decompositions of systems of subspaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common],
                       help="predicates, invariants and angles of a system file")
    p.add_argument("file", help="system JSON file")

    p = sub.add_parser("decompose", parents=[common],
                       help="canonical block decomposition of a three-subspace system")
    p.add_argument("file", help="system JSON file")
    p.add_argument("--emit-basis", action="store_true",
                   help="include block bases and the change-of-basis matrix")

    p = sub.add_parser("isomorphic", parents=[common],
                       help="decide isomorphism of two three-subspace systems",
                       description="Decide isomorphism of two three-subspace systems. "
                                   "The first file's tolerances (after flags and "
                                   "environment) govern the comparison; the second "
                                   "file's tolerances block is only used to read its "
                                   "own spanning vectors.")
    p.add_argument("file_a", help="first system JSON file")
    p.add_argument("file_b", help="second system JSON file")
    p.add_argument("--emit-map", action="store_true",
                   help="include the witness map when systems are isomorphic")

    p = sub.add_parser("generate", parents=[common],
                       help="generate a scrambled system with known multiplicities")
    p.add_argument("--mult", required=True,
                   help="nine comma-separated multiplicities, slot order: "
                        + ",".join(SLOT_NAMES))
    p.add_argument("--cond", type=float, default=1.0,
                   help="condition bound for the scrambling map (default 1: unitary)")
    p.add_argument("-o", "--output", required=True, help="output system file")

    p = sub.add_parser("pentagon", parents=[common],
                       help="pentagon-hypothesis split of a file, or the truncation margin table")
    p.add_argument("file", nargs="?", default=None, help="system JSON file")
    p.add_argument("--example9", type=int, default=None, metavar="N",
                   help="instead of a file: margins of the truncated classical example up to N")
    return parser


_PARSER = _build_parser()


def _gather_overrides(args) -> dict:
    """The settings flags and SUBSPACEKIT_* variables give, keyed by
    setting, with ``sources`` naming the flag or variable of each and
    ``fmt`` the report format."""
    out, sources = {}, {}
    for key, kind in _SETTINGS:
        value, where = getattr(args, key), "--" + key.replace("_", "-")
        if value is None:
            where = ENV_PREFIX + key.upper()
            raw = os.environ.get(where)
            if raw is not None:
                try:
                    value = kind(raw)
                except ValueError:
                    raise _InputError(f"{where} is not {_TYPE_NAMES[kind]}: {raw!r}")
        if value is not None:
            if key == "seed" and value < 0:
                raise _InputError(f"{where} must be a non-negative integer, got {value}")
            out[key] = value
            sources[key] = where
    out["sources"] = sources
    fmt = args.fmt or os.environ.get(ENV_PREFIX + "FORMAT")
    if fmt not in (None, "json", "text"):
        raise _InputError(f"{ENV_PREFIX}FORMAT must be 'json' or 'text', got {fmt!r}")
    out["fmt"] = fmt or "json"
    return out


def _merge_tolerances(file_payload, overrides, where: str) -> ToleranceConfig:
    """The tolerances of a command: the defaults, under the file block,
    under ``overrides``.  A value :class:`ToleranceConfig` refuses is
    reported against the file, flag or variable that gave it."""
    merged = _tol_dict(DEFAULT_TOL)
    block = file_payload.get("tolerances") if isinstance(file_payload, dict) else None
    if block is not None:
        if not isinstance(block, dict):
            raise _InputError(f"{where}: 'tolerances' must be an object")
        for key, value in block.items():
            if key not in _TOL_KEYS:
                raise _InputError(f"{where}: unknown tolerance {key!r}")
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise _InputError(f"{where}: tolerance {key} must be a number")
            try:
                merged[key] = float(value)
            except OverflowError:
                raise _InputError(f"{where}: tolerance {key} is too large for a float")
    for key in _TOL_KEYS:
        if key in overrides:
            merged[key] = overrides[key]
    try:
        return ToleranceConfig(**merged)
    except ValueError:
        # ToleranceConfig judges each value on its own, so one it refuses
        # beside the defaults is the one to name; the defaults pass, so it
        # came from a flag, a variable or the file.
        for key in _TOL_KEYS:
            try:
                replace(DEFAULT_TOL, **{key: merged[key]})
            except ValueError as exc:
                raise _InputError(f"{overrides['sources'].get(key, where)}: {exc}")
        raise


def _parse_entry(value, where: str) -> complex:
    if isinstance(value, bool):
        raise _InputError(f"{where}: expected a number or [re, im] pair, got a boolean")
    entry = None
    try:
        if isinstance(value, (int, float)):
            entry = complex(value, 0.0)
        elif isinstance(value, (list, tuple)) and len(value) == 2:
            re, im = value
            ok = all(not isinstance(x, bool) and isinstance(x, (int, float)) for x in (re, im))
            if ok:
                entry = complex(re, im)
    except OverflowError:
        raise _InputError(
            f"{where}: expected a number or [re, im] pair, got an integer too large for a float"
        )
    if entry is None:
        raise _InputError(f"{where}: expected a number or [re, im] pair, got {value!r}")
    if not cmath.isfinite(entry):
        raise _InputError(f"{where}: expected a finite number or [re, im] pair, got {value!r}")
    return entry


def _bulk_vectors(vectors: list, ambient: int):
    """Spanning vectors as a (k, ambient) complex array, converted by one
    numpy call when every vector is a list of ``ambient`` entries that are
    all numbers or all [re, im] pairs of finite numbers; None otherwise.
    Numbers are ``int`` and ``float`` only, so booleans are refused."""
    if not all(type(vector) is list and len(vector) == ambient for vector in vectors):
        return None
    try:
        kinds = set(map(type, chain.from_iterable(chain.from_iterable(vectors))))
        shape = (len(vectors), ambient, 2)
    except TypeError:  # some entry is a number, not a pair
        kinds = set(map(type, chain.from_iterable(vectors)))
        shape = (len(vectors), ambient)
    if not kinds <= {int, float}:
        return None
    try:
        values = np.array(vectors, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        return None
    if values.shape != shape or not np.isfinite(values).all():
        return None
    if len(shape) == 2:
        return values.astype(np.complex128)
    return values.view(np.complex128).reshape(shape[:2])


def _parse_vectors(vectors: list, ambient: int, field: str) -> np.ndarray:
    """Spanning vectors as a (k, ambient) complex array.  Files that the
    bulk conversion refuses are walked entry by entry: that accepts vectors
    mixing numbers and pairs, and names the first bad or non-finite entry."""
    bulk = _bulk_vectors(vectors, ambient)
    if bulk is not None:
        return bulk
    parsed = []
    for j, vector in enumerate(vectors):
        if not isinstance(vector, list) or len(vector) != ambient:
            raise _InputError(f"{field}.spanning_vectors[{j}] must be an array of length {ambient}")
        parsed.append([
            _parse_entry(v, f"{field}.spanning_vectors[{j}][{k}]")
            for k, v in enumerate(vector)
        ])
    return np.array(parsed, dtype=np.complex128)


def _admit_ambient(ambient: int, where: str):
    """Refuse an ambient dimension whose n x n complex matrix numpy cannot
    size, by arithmetic on the integer, before anything is allocated; note
    an admitted one against ``where`` (a file or a flag) so that numpy's
    refusal of a later array can be reported there."""
    if ambient * ambient * _COMPLEX_BYTES > _MAX_ARRAY_BYTES:
        raise _InputError(
            f"{where}: 'ambient_dim' {ambient} is too large: numpy cannot size "
            f"a {ambient} x {ambient} complex matrix"
        )
    admitted = _ADMITTED.get()
    if admitted is not None:
        admitted.append((where, ambient))


def _system_from_payload(payload, tol: ToleranceConfig, where: str) -> SubspaceSystem:
    if not isinstance(payload, dict):
        raise _InputError(f"{where}: top level must be a JSON object")
    ambient = payload.get("ambient_dim")
    if isinstance(ambient, bool) or not isinstance(ambient, int) or ambient < 1:
        raise _InputError(f"{where}: 'ambient_dim' must be a positive integer")
    _admit_ambient(ambient, where)
    entries = payload.get("subspaces")
    if not isinstance(entries, list) or not entries:
        raise _InputError(f"{where}: 'subspaces' must be a nonempty array")
    subspaces, labels, have_labels = [], [], True
    for i, entry in enumerate(entries):
        field = f"{where}: subspaces[{i}]"
        if not isinstance(entry, dict):
            raise _InputError(f"{field} must be an object")
        name = entry.get("name")
        if name is None:
            have_labels = False
        elif not isinstance(name, str):
            raise _InputError(f"{field}.name must be a string")
        labels.append(name)
        vectors = entry.get("spanning_vectors")
        if not isinstance(vectors, list):
            raise _InputError(f"{field}.spanning_vectors must be an array")
        if vectors:
            subspaces.append(orthonormalize(_parse_vectors(vectors, ambient, field), tol))
        else:
            subspaces.append(Subspace.zero(ambient))
    return SubspaceSystem(
        ambient,
        tuple(subspaces),
        tuple(labels) if have_labels else None,
    )


def _load_system(path: str, overrides: dict):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        raise _InputError(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise _InputError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}")
    tol = _merge_tolerances(payload, overrides, path)
    return _system_from_payload(payload, tol, path), tol


def _load_triple(args, overrides):
    system, tol = _load_system(args.file, overrides)
    if system.arity != 3:
        raise _InputError(f"{args.command} needs exactly three subspaces, file has {system.arity}")
    return system, tol


def cmd_analyze(args, overrides):
    system, tol = _load_system(args.file, overrides)
    seed = overrides.get("seed", 0)
    report = {
        **_header(system, "analyze", args.file, tol),
        "labels": list(system.labels) if system.labels else None,
        "seed": seed,
        "commutative": is_commutative(system, tol),
        "pairwise_angles": _pair_table(system, lambda a, b: list(map(_sci, principal_angles(a, b)))),
    }
    transitive, witness, invariants = _endomorphisms(system, tol, seed=seed)
    report["transitive"] = transitive
    report["decomposable"] = witness is not None
    report["split_dims"] = (
        [witness.split[0].dim, witness.split[1].dim] if witness is not None else None
    )
    if system.arity == 3:
        report["double_triangle"] = _is_double_triangle(invariants)
        report["pentagon"] = detect_pentagon(system, tol)
        report["invariants"] = dict(zip(SLOT_NAMES, invariants.as_tuple()))
    return report, 0


def cmd_decompose(args, overrides):
    system, tol = _load_triple(args, overrides)
    decomposition = brenner_decompose(system, tol)
    # The normal-form certificate verifies the decomposition; its worst gap
    # is the residual.
    residual = _sci(decomposition.residual)
    report = {
        **_header(system, "decompose", args.file, tol),
        "block_dims": dict(zip(SLOT_NAMES, decomposition.invariants.as_tuple())),
        "residual": residual,
        "verified": decomposition.verified,
        "max_verification_gap": residual,
        "sum_operator_sigma_min": (
            _sci(decomposition.sum_operator_sigma_min)
            if decomposition.sum_operator_sigma_min is not None
            else None
        ),
        "warnings": list(decomposition.warnings),
    }
    if args.emit_basis:
        report["blocks"] = {n: getattr(decomposition, n).basis.T for n in BLOCK_NAMES}
        report["change_of_basis"] = decomposition.change_of_basis
    return report, 0 if decomposition.verified else 1


def cmd_isomorphic(args, overrides):
    system_a, tol = _load_system(args.file_a, overrides)
    system_b, _ = _load_system(args.file_b, overrides)  # compared under the first file's tolerances
    if system_a.arity != 3 or system_b.arity != 3:
        raise _InputError("isomorphic needs two systems of exactly three subspaces")
    invariants_a, invariants_b, witness = _invariants_and_witness(system_a, system_b, tol)
    report = {
        "command": "isomorphic",
        "input_first": args.file_a,
        "input_second": args.file_b,
        "tolerances": _tol_dict(tol),
        "invariants_first": dict(zip(SLOT_NAMES, invariants_a.as_tuple())),
        "invariants_second": dict(zip(SLOT_NAMES, invariants_b.as_tuple())),
    }
    if system_a.ambient_dim != system_b.ambient_dim:
        report["isomorphic"] = False
        report["reason"] = "ambient dimensions differ"
        return report, 1
    report["isomorphic"] = witness is not None
    if witness is None:
        return report, 1
    certificate = verify_isomorphism(witness, system_a, system_b, tol)
    report["witness_max_gap"] = _sci(certificate.max_gap)
    report["witness_condition"] = _sci(certificate.condition)
    report["witness_verified"] = bool(certificate.passed)
    if args.emit_map:
        report["map"] = witness
    return report, 0 if certificate.passed else 1


def _truth_path(output: str) -> str:
    if output.endswith(".json"):
        return output[: -len(".json")] + ".truth.json"
    return output + ".truth.json"


def cmd_generate(args, overrides):
    try:
        counts = [int(x) for x in args.mult.split(",")]
    except ValueError:
        raise _InputError(f"--mult must be nine comma-separated integers, got {args.mult!r}")
    if len(counts) != 9:
        raise _InputError(f"--mult needs exactly nine values, got {len(counts)}")
    vector = InvariantVector.from_iterable(counts)
    seed = overrides.get("seed", 0)
    if not np.isfinite(args.cond) or args.cond < 1.0:
        raise _InputError(f"--cond must be a finite number >= 1, got {args.cond!r}")
    tol = _merge_tolerances({}, overrides, "--")
    _admit_ambient(vector.total_dim, "--mult")
    system, _ = compose_from_multiplicities(vector, seed, args.cond, tol)

    payload = {
        "ambient_dim": system.ambient_dim,
        "subspaces": [
            {"name": f"E{i + 1}", "spanning_vectors": s.basis.T}
            for i, s in enumerate(system.subspaces)
        ],
    }
    truth = {
        **_header(system),
        "multiplicities": list(vector.as_tuple()),
        "slot_names": list(SLOT_NAMES),
        "seed": seed,
        "cond_bound": float(args.cond),
    }
    truth_path = _truth_path(args.output)
    for path, content in ((args.output, payload), (truth_path, truth)):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(_json_text(content) + "\n")
    report = {
        **_header(system, "generate"),
        "output": args.output,
        "truth_output": truth_path,
        "seed": seed,
        "cond_bound": float(args.cond),
        "multiplicities": dict(zip(SLOT_NAMES, vector.as_tuple())),
    }
    return report, 0


def cmd_pentagon(args, overrides):
    if (args.file is None) == (args.example9 is None):
        raise _InputError("pentagon needs a system file or --example9 N (exactly one of them)")
    if args.example9 is not None:
        n = args.example9
        if n < 2:
            raise _InputError(f"--example9 needs N >= 2, got {n}")
        _admit_ambient(2 * n, "--example9")  # the truncation lives in C^(2N)
        tol = _merge_tolerances({}, overrides, "--")  # a refused tolerance exits before any table
        rows = []
        for m in margin_sample_points(n):
            flat, graph = diagonal_graph_pair(m)
            margin = closedness_margin(flat, graph)
            rows.append({
                "n": m,
                "margin": _sci(margin.min_positive_angle),
                "arctan_1_over_n": _sci(np.arctan(1.0 / m)),
            })
        truncated = example9_truncated(n)
        report = {
            **_header(truncated, "pentagon"),
            "example9_n": n,
            "pentagon_detected": detect_pentagon(truncated, tol),
            "margins": rows,
        }
        return report, 0

    system, tol = _load_triple(args, overrides)
    split = pentagon_split(system, tol)  # ValueError (hypothesis failure) -> exit 2
    # base, first_remainder, third_outside and pentagon_part may be None
    part = split.pentagon_part
    report = {
        **_header(system, "pentagon", args.file, tol),
        "case": split.case,
        "witness_count": split.witness_count,
        "bridge_dim": split.bridge.dim,
        "base_dim": getattr(split.base, "dim", None),
        "first_remainder_dim": getattr(split.first_remainder, "dim", None),
        "third_outside_dim": getattr(split.third_outside, "dim", None),
        "pentagon_part_dims": None if part is None else list(part.dims()),
        "pentagon_part_ambient": getattr(part, "ambient_dim", None),
        "margins": _pair_table(system, lambda a, b: _sci(closedness_margin(a, b).min_positive_angle)),
    }
    return report, 0


_HANDLERS = {
    "analyze": cmd_analyze,
    "decompose": cmd_decompose,
    "isomorphic": cmd_isomorphic,
    "generate": cmd_generate,
    "pentagon": cmd_pentagon,
}


def _flatten(prefix, value, lines):
    if isinstance(value, np.ndarray):
        value = _matrix_entries(value)
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(f"{prefix}.{key}" if prefix else str(key), value[key], lines)
    elif isinstance(value, list):
        if all(not isinstance(v, (dict, list)) for v in value):
            lines.append(f"{prefix}: {' '.join(str(v) for v in value)}")
        else:
            for i, v in enumerate(value):
                _flatten(f"{prefix}[{i}]", v, lines)
    else:
        lines.append(f"{prefix}: {value}")


def _emit(report: dict, fmt: str):
    if fmt == "text":
        lines = []
        _flatten("", report, lines)
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        sys.stdout.write(_json_text(report) + "\n")


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code is None else int(exc.code)
    fmt = "json"
    admitted = []
    token = _ADMITTED.set(admitted)
    try:
        overrides = _gather_overrides(args)
        fmt = overrides["fmt"]
        report, code = _HANDLERS[args.command](args, overrides)
    except (_InputError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except MemoryError as exc:  # numpy refused an array at once; nothing is held
        if not admitted:
            raise
        where, ambient = max(admitted, key=lambda entry: entry[1])
        sys.stderr.write(
            f"error: {where}: 'ambient_dim' {ambient} is too large for this machine: {exc}\n"
        )
        return 2
    except ConditioningError as exc:
        sys.stderr.write(f"conditioning failure: {exc}\n")
        return 1
    finally:
        _ADMITTED.reset(token)
    _emit(report, fmt)
    return code


if __name__ == "__main__":
    sys.exit(main())
