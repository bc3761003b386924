"""Ground-truth oracle: sorts one CLI result into ok / flagged / refused / wrong.

ok       the answer matches the generator's truth and nothing flagged it.
flagged  warnings were raised, ``verified`` or ``witness_verified`` is false,
         or decompose exited 1 (its verification failed).
refused  exit 1 with a "conditioning failure" message and no report.
wrong    anything else: a confident answer that contradicts the truth, a
         report missing a field, exit 2, or a crash.

Each command has one rule, a function of (truth, report) returning None when
the answer is right and a reason otherwise.  A flagged answer is also
checked, so that flagged-but-right and flagged-and-wrong can be told apart.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple, Optional

OK, FLAGGED, REFUSED, WRONG = "ok", "flagged", "refused", "wrong"

SLOT_NAMES = ("common", "pair_23", "pair_13", "pair_12", "single_1",
              "single_2", "single_3", "triangle", "outside")
SLOT_PAIR_23, SLOT_PAIR_13, SLOT_SINGLE_1, SLOT_SINGLE_3 = 1, 2, 4, 6
EXAMPLE9_POINTS = (2, 3, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000)
MARGIN_RTOL = 1e-8


class Verdict(NamedTuple):
    outcome: str
    right: bool  # the answer matched the truth (False when there is no answer)
    reason: Optional[str]  # why the result is wrong or flagged
    residual: Optional[float] = None  # largest residual-like number in the report


def _slots(mult):
    return dict(zip(SLOT_NAMES, mult))


def _ambient(mult):
    return sum(mult) + mult[7]


def _matrix_shape_ok(rows, n):
    return isinstance(rows, list) and len(rows) == n and all(
        isinstance(r, list) and len(r) == n for r in rows
    )


def check_decompose(truth, report):
    mult = truth["mult"]
    if report.get("block_dims") != _slots(mult):
        return f"block_dims {report.get('block_dims')} != truth {_slots(mult)}"
    if "blocks" in report:
        n = _ambient(mult)
        k = mult[7]
        expected = dict(_slots(mult), triangle_1=k, triangle_2=k, triangle_3=k)
        del expected["triangle"]
        got = {name: len(vectors) for name, vectors in report["blocks"].items()}
        if got != expected:
            return f"emitted block sizes {got} != {expected}"
        if not _matrix_shape_ok(report.get("change_of_basis"), n):
            return "change_of_basis is not n x n"
    return None


def check_isomorphic(truth, report):
    expected = truth["mult"] == truth["mult_b"]
    if report.get("isomorphic") is not expected:
        return f"verdict {report.get('isomorphic')!r}, truth {expected}"
    if report.get("invariants_first") != _slots(truth["mult"]):
        return "invariants_first contradict the truth"
    if report.get("invariants_second") != _slots(truth["mult_b"]):
        return "invariants_second contradict the truth"
    if expected:
        if "witness_verified" not in report:
            return "isomorphic verdict without a witness certificate"
        if not _matrix_shape_ok(report.get("map"), _ambient(truth["mult"])):
            return "witness map missing or not n x n"
    return None


def check_analyze(truth, report):
    atoms = truth["atoms"]
    n = truth["ambient"]
    if report.get("ambient_dim") != n or report.get("subspace_dims") != list(truth["dims"]):
        return "dimensions contradict the truth"
    if report.get("transitive") is not (atoms == 1):
        return f"transitive {report.get('transitive')!r} with {atoms} atoms"
    if report.get("decomposable") is not (atoms > 1):
        return f"decomposable {report.get('decomposable')!r} with {atoms} atoms"
    split = report.get("split_dims")
    if atoms > 1 and (not isinstance(split, list) or sum(split) != n or 0 in split):
        return f"split dims {split!r} do not split {n}"
    if truth["arity"] == 3:
        mult = truth["mult"]
        if report.get("invariants") != _slots(mult):
            return "invariants contradict the truth"
        only_triangles = all(c == 0 for i, c in enumerate(mult) if i != 7)
        if report.get("double_triangle") is not only_triangles:
            return f"double_triangle {report.get('double_triangle')!r}"
        if report.get("pentagon") is not False:
            return "a finite-dimensional triple reported as a pentagon"
    return None


def check_pentagon_file(truth, report):
    mult = truth["mult"]
    a, b, c, d = (mult[SLOT_PAIR_23], mult[SLOT_PAIR_13], mult[SLOT_SINGLE_1], mult[SLOT_SINGLE_3])
    distributive = d == 0
    expected = {
        "case": "distributive" if distributive else "pentagon",
        "witness_count": b,
        "bridge_dim": b,
        "base_dim": a if distributive else None,
        "first_remainder_dim": c if distributive else None,
        "third_outside_dim": None if distributive else d,
        "pentagon_part_dims": None if distributive else [c, a, a + d],
        "pentagon_part_ambient": None if distributive else c + a + d,
    }
    for key, value in expected.items():
        if report.get(key) != value:
            return f"{key} {report.get(key)!r} != {value!r}"
    return None


def _sci(value):
    return float(f"{value:.2e}")


def check_example9(truth, report):
    n = truth["example9"]
    if report.get("ambient_dim") != 2 * n or report.get("subspace_dims") != [n + 1, n, n + 2]:
        return "truncation dimensions contradict the construction"
    if report.get("pentagon_detected") is not False:
        return "a finite truncation reported as a pentagon"
    points = [m for m in EXAMPLE9_POINTS if m < n] + [n]
    rows = report.get("margins")
    if not isinstance(rows, list) or [r.get("n") for r in rows] != points:
        return f"margin rows {rows!r} do not sample {points}"
    for row in rows:
        # The report prints three significant digits, so compare against
        # arctan(1/m) rounded the same way.
        expected = _sci(math.atan(1.0 / row["n"]))
        margin = float(row["margin"])
        if abs(margin - expected) > MARGIN_RTOL * expected:
            return f"margin at n={row['n']} is {row['margin']}, arctan(1/n) is {expected:.2e}"
    return None


def check(command, truth, report):
    if command == "decompose":
        return check_decompose(truth, report)
    if command == "isomorphic":
        return check_isomorphic(truth, report)
    if command == "analyze":
        return check_analyze(truth, report)
    if "example9" in truth:
        return check_example9(truth, report)
    return check_pentagon_file(truth, report)


def _flag_reason(command, report, code, warned):
    if warned:
        return "warnings raised"
    if report.get("warnings"):
        return "decomposition carries warnings"
    if report.get("verified") is False:
        return "verified is false"
    if report.get("witness_verified") is False:
        return "witness_verified is false"
    if command == "decompose" and code == 1:
        return "decompose exited 1"
    return None


def classify(command, truth, code, stdout, stderr, warned=False):
    """Returns a :class:`Verdict` for one CLI result.

    ``warned`` says whether the run raised Python warnings, which a CLI user
    sees on stderr.
    """
    if code == 1 and "conditioning failure" in stderr and not stdout.strip():
        return Verdict(REFUSED, False, stderr.strip())
    if code not in (0, 1):
        return Verdict(WRONG, False, f"exit {code}: {stderr.strip()[:200]}")
    try:
        report = json.loads(stdout)
    except ValueError:
        return Verdict(WRONG, False, "output is not one JSON report")
    if not isinstance(report, dict) or report.get("command") != command:
        return Verdict(WRONG, False, "report is not for this command")
    try:
        gaps = [float(report[k]) for k in ("residual", "max_verification_gap", "witness_max_gap")
                if isinstance(report.get(k), str)]
        reason = check(command, truth, report)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        return Verdict(WRONG, False, f"malformed report: {exc!r}")
    residual = max(gaps) if gaps else None
    right = reason is None
    flag = _flag_reason(command, report, code, warned)
    if flag is not None:
        return Verdict(FLAGGED, right, flag if right else f"{flag}; {reason}", residual)
    expected_code = 1 if command == "isomorphic" and report.get("isomorphic") is False else 0
    if code != expected_code:
        return Verdict(WRONG, False, f"exit {code} does not match the report", residual)
    if not right:
        return Verdict(WRONG, False, reason, residual)
    return Verdict(OK, True, None, residual)
