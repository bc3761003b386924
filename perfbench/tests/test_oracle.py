"""The oracle against hand-built reports: each wrong report must come out
``wrong``, and each right one ``ok``, ``flagged`` or ``refused`` as its
signals say."""

import copy
import json
import math

import pytest

import oracle

SLOTS = oracle.SLOT_NAMES
MULT = (1, 0, 2, 0, 1, 0, 0, 1, 1)  # n = 7
OTHER = (1, 0, 1, 1, 1, 0, 0, 1, 1)  # one unit moved: n = 7, not isomorphic
N = 7


def slots(mult):
    return dict(zip(SLOTS, mult))


def identity(n):
    return [[[1.0 if i == j else 0.0, 0.0] for j in range(n)] for i in range(n)]


def decompose_report(mult=MULT):
    return {
        "command": "decompose",
        "block_dims": slots(mult),
        "residual": "1.00e-15",
        "verified": True,
        "max_verification_gap": "2.00e-15",
        "warnings": [],
    }


def isomorphic_report(mult=MULT, mult_b=MULT):
    report = {
        "command": "isomorphic",
        "invariants_first": slots(mult),
        "invariants_second": slots(mult_b),
        "isomorphic": mult == mult_b,
    }
    if mult == mult_b:
        report.update(witness_max_gap="3.00e-15", witness_verified=True, map=identity(N))
    return report


def classify(command, truth, report, code=0, stderr="", warned=False):
    return oracle.classify(command, truth, code, json.dumps(report), stderr, warned)


# ---------------------------------------------------------------- decompose

def test_decompose_right():
    verdict = classify("decompose", {"mult": MULT}, decompose_report())
    assert verdict.outcome == oracle.OK
    assert verdict.residual == pytest.approx(2e-15)


@pytest.mark.parametrize("slot", range(9))
def test_decompose_wrong_block_dims(slot):
    report = decompose_report()
    report["block_dims"][SLOTS[slot]] += 1
    assert classify("decompose", {"mult": MULT}, report).outcome == oracle.WRONG


def test_decompose_emitted_blocks_checked():
    report = decompose_report()
    report["blocks"] = {name: [[0.0]] * count for name, count in slots(MULT).items() if name != "triangle"}
    report["blocks"].update(triangle_1=[[0.0]], triangle_2=[[0.0]], triangle_3=[[0.0]])
    report["change_of_basis"] = identity(N)
    assert classify("decompose", {"mult": MULT}, report).outcome == oracle.OK
    short = copy.deepcopy(report)
    short["blocks"]["triangle_2"] = []
    assert classify("decompose", {"mult": MULT}, short).outcome == oracle.WRONG
    square = copy.deepcopy(report)
    square["change_of_basis"] = identity(N - 1)
    assert classify("decompose", {"mult": MULT}, square).outcome == oracle.WRONG


def test_decompose_flags():
    truth = {"mult": MULT}
    warned = decompose_report()
    warned["warnings"] = ["2 singular value(s) within a decade of the rank cutoff"]
    assert classify("decompose", truth, warned, code=0).outcome == oracle.FLAGGED
    unverified = decompose_report()
    unverified["verified"] = False
    assert classify("decompose", truth, unverified, code=1).outcome == oracle.FLAGGED
    assert classify("decompose", truth, decompose_report(), warned=True).outcome == oracle.FLAGGED
    assert classify("decompose", truth, decompose_report(), code=1).outcome == oracle.FLAGGED


def test_flagged_wrong_answer_is_told_apart():
    report = decompose_report()
    report["verified"] = False
    report["block_dims"]["outside"] = 0
    verdict = classify("decompose", {"mult": MULT}, report, code=1)
    assert verdict.outcome == oracle.FLAGGED and not verdict.right


def test_refused_and_broken_results():
    truth = {"mult": MULT}
    refused = oracle.classify("decompose", truth, 1, "", "conditioning failure: rank decisions disagree\n")
    assert refused.outcome == oracle.REFUSED
    assert oracle.classify("decompose", truth, 2, "", "error: bad file\n").outcome == oracle.WRONG
    assert oracle.classify("decompose", truth, 0, "not json", "").outcome == oracle.WRONG
    assert oracle.classify("decompose", truth, 1, "", "error: something else\n").outcome == oracle.WRONG
    other = decompose_report()
    other["command"] = "analyze"
    assert classify("decompose", truth, other).outcome == oracle.WRONG
    malformed = decompose_report()
    malformed["residual"] = "tiny"
    assert classify("decompose", truth, malformed).outcome == oracle.WRONG


# ---------------------------------------------------------------- isomorphic

def test_isomorphic_right():
    same = {"mult": MULT, "mult_b": MULT}
    assert classify("isomorphic", same, isomorphic_report()).outcome == oracle.OK
    moved = {"mult": MULT, "mult_b": OTHER}
    assert classify("isomorphic", moved, isomorphic_report(MULT, OTHER), code=1).outcome == oracle.OK


def test_isomorphic_wrong_verdicts():
    moved = {"mult": MULT, "mult_b": OTHER}
    claimed = isomorphic_report(MULT, OTHER)
    claimed["isomorphic"] = True
    claimed.update(witness_max_gap="3.00e-15", witness_verified=True, map=identity(N))
    assert classify("isomorphic", moved, claimed).outcome == oracle.WRONG

    same = {"mult": MULT, "mult_b": MULT}
    denied = isomorphic_report(MULT, OTHER)
    denied["invariants_second"] = slots(MULT)
    assert classify("isomorphic", same, denied, code=1).outcome == oracle.WRONG


def test_isomorphic_wrong_details():
    same = {"mult": MULT, "mult_b": MULT}
    bad_invariants = isomorphic_report()
    bad_invariants["invariants_first"] = slots(OTHER)
    assert classify("isomorphic", same, bad_invariants).outcome == oracle.WRONG
    no_map = isomorphic_report()
    del no_map["map"]
    assert classify("isomorphic", same, no_map).outcome == oracle.WRONG
    no_certificate = isomorphic_report()
    del no_certificate["witness_verified"]
    assert classify("isomorphic", same, no_certificate).outcome == oracle.WRONG
    # exit code contradicting the verdict
    assert classify("isomorphic", same, isomorphic_report(), code=1).outcome == oracle.WRONG


def test_isomorphic_unverified_witness_is_flagged():
    same = {"mult": MULT, "mult_b": MULT}
    report = isomorphic_report()
    report["witness_verified"] = False
    assert classify("isomorphic", same, report, code=1).outcome == oracle.FLAGGED


# ---------------------------------------------------------------- analyze

def analyze_truth(atoms=5, arity=3):
    if arity == 3:
        return {"arity": 3, "mult": (0, 0, 2, 0, 1, 0, 0, 1, 1), "atoms": atoms, "dims": [4, 1, 3],
                "ambient": 6}
    return {"arity": 4, "atoms": atoms, "dims": [1, 1, 1, 1], "ambient": 2}


def analyze_report(truth):
    report = {
        "command": "analyze",
        "ambient_dim": truth["ambient"],
        "subspace_dims": list(truth["dims"]),
        "transitive": truth["atoms"] == 1,
        "decomposable": truth["atoms"] > 1,
        "split_dims": [1, truth["ambient"] - 1] if truth["atoms"] > 1 else None,
    }
    if truth["arity"] == 3:
        report.update(invariants=slots(truth["mult"]), double_triangle=False, pentagon=False)
    return report


def test_analyze_right():
    for truth in (analyze_truth(), analyze_truth(atoms=1, arity=4), analyze_truth(atoms=2, arity=4)):
        assert classify("analyze", truth, analyze_report(truth)).outcome == oracle.OK


@pytest.mark.parametrize("field, value", [
    ("transitive", True),
    ("decomposable", False),
    ("split_dims", [2, 2]),
    ("split_dims", [0, 6]),
    ("split_dims", None),
    ("double_triangle", True),
    ("pentagon", True),
    ("subspace_dims", [4, 1, 2]),
])
def test_analyze_wrong(field, value):
    truth = analyze_truth()
    report = analyze_report(truth)
    report[field] = value
    assert classify("analyze", truth, report).outcome == oracle.WRONG


def test_analyze_wrong_invariants():
    truth = analyze_truth()
    report = analyze_report(truth)
    report["invariants"]["single_1"] = 0
    assert classify("analyze", truth, report).outcome == oracle.WRONG


def test_analyze_transitive_single_atom():
    truth = analyze_truth(atoms=1, arity=4)
    report = analyze_report(truth)
    report["transitive"] = False
    assert classify("analyze", truth, report).outcome == oracle.WRONG
    report = analyze_report(truth)
    report.update(decomposable=True, split_dims=[1, 1])
    assert classify("analyze", truth, report).outcome == oracle.WRONG


# ---------------------------------------------------------------- pentagon

def pentagon_report(mult):
    a, b, c, d = mult[1], mult[2], mult[4], mult[6]
    if d == 0:
        return {"command": "pentagon", "case": "distributive", "witness_count": b, "bridge_dim": b,
                "base_dim": a, "first_remainder_dim": c, "third_outside_dim": None,
                "pentagon_part_dims": None, "pentagon_part_ambient": None}
    return {"command": "pentagon", "case": "pentagon", "witness_count": b, "bridge_dim": b,
            "base_dim": None, "first_remainder_dim": None, "third_outside_dim": d,
            "pentagon_part_dims": [c, a, a + d], "pentagon_part_ambient": a + c + d}


DISTRIBUTIVE = (0, 2, 1, 0, 3, 0, 0, 0, 1)
PENTAGON = (0, 2, 1, 0, 3, 0, 2, 0, 0)


def test_pentagon_right():
    for mult in (DISTRIBUTIVE, PENTAGON):
        assert classify("pentagon", {"mult": mult}, pentagon_report(mult)).outcome == oracle.OK


@pytest.mark.parametrize("mult", [DISTRIBUTIVE, PENTAGON])
@pytest.mark.parametrize("field", ["case", "witness_count", "bridge_dim", "base_dim",
                                   "third_outside_dim", "pentagon_part_dims", "pentagon_part_ambient"])
def test_pentagon_wrong(mult, field):
    report = pentagon_report(mult)
    if field == "case":
        report["case"] = "pentagon" if report["case"] == "distributive" else "distributive"
    elif field == "pentagon_part_dims":
        report[field] = [1, 1, 1]
    else:
        report[field] = (report[field] or 0) + 1
    assert classify("pentagon", {"mult": mult}, report).outcome == oracle.WRONG


def example9_report(n=200, margins=None):
    points = [m for m in oracle.EXAMPLE9_POINTS if m < n] + [n]
    rows = [{"n": m, "margin": f"{math.atan(1.0 / m):.2e}", "arctan_1_over_n": f"{math.atan(1.0 / m):.2e}"}
            for m in points]
    for m, value in (margins or {}).items():
        rows[points.index(m)]["margin"] = value
    return {"command": "pentagon", "example9_n": n, "ambient_dim": 2 * n,
            "subspace_dims": [n + 1, n, n + 2], "pentagon_detected": False, "margins": rows}


def test_example9_right():
    assert classify("pentagon", {"example9": 200}, example9_report()).outcome == oracle.OK


def test_example9_wrong():
    truth = {"example9": 200}
    off = example9_report(margins={50: "2.01e-02"})  # arctan(1/50) = 2.00e-02
    assert classify("pentagon", truth, off).outcome == oracle.WRONG
    rows = example9_report()
    rows["margins"] = rows["margins"][:-1]
    assert classify("pentagon", truth, rows).outcome == oracle.WRONG
    detected = example9_report()
    detected["pentagon_detected"] = True
    assert classify("pentagon", truth, detected).outcome == oracle.WRONG
    dims = example9_report()
    dims["ambient_dim"] = 399
    assert classify("pentagon", truth, dims).outcome == oracle.WRONG
