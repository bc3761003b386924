#!/usr/bin/env python3
"""subspacekit benchmark: one workload, one seed, one closed-loop caller.

    python3 perfbench/run.py --workload small_mixed --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Set-up generates the workload's system files from the seed under
``.perfbench_work/`` (removed again after the result is printed) and warms up.  The measured
phase then calls ``subspacekit.cli.main(argv)`` in-process on those files,
one call after another with no think time, capturing stdout, stderr and
warnings, and checks every answer against the multiplicities the inputs
were generated from (see ``oracle.py``).  It runs whole passes over the pool
of inputs until ``--seconds`` have passed.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` measures half the
time untraced and half traced (see ``spans.py``) and prints the per-layer
metrics.  Every line before the last is a JSON report with the details
(outcome counts, per-command medians, the condition breakdown, versions);
the last line is the result.
"""

from __future__ import annotations

import os
import sys
import time

PROCESS_START = time.perf_counter()

# One BLAS thread, fixed before numpy loads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"
# The CLI reads SUBSPACEKIT_* variables; the benchmark runs with defaults.
for _var in [v for v in os.environ if v.startswith("SUBSPACEKIT_")]:
    del os.environ[_var]

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import traceback
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

SETUP_REPEATS = 3
HARD_LIMIT_S = 150.0  # stop measuring early rather than overrun the 180 s budget
WORKLOADS = ("small_mixed", "large_dense", "analyze_lab")
LAPACK_KEYS = ("lapack.svd", "lapack.qr", "lapack.solve", "lapack.inv", "lapack.eig",
               "lapack.det", "lapack.norm2")

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import numpy and subspacekit from this checkout's ``src``; returns
    the import time in seconds."""
    package = os.path.join(SRC, "subspacekit", "__init__.py")
    if not os.path.isfile(package):
        raise SystemExit(f"error: {package} not found; run from a subspacekit source checkout")
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401
    import subspacekit
    import subspacekit.cli  # noqa: F401
    elapsed = time.perf_counter() - start
    if os.path.dirname(os.path.abspath(subspacekit.__file__)) != os.path.dirname(package):
        raise SystemExit(f"error: imported subspacekit from {subspacekit.__file__}, not from {SRC}")
    return elapsed


# ------------------------------------------------------------------ running


def run_op(cli, op, oracle):
    """One closed-loop call.  Returns (seconds, verdict, bytes_out)."""
    out, err = io.StringIO(), io.StringIO()
    crash = None
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            code = cli.main(op.argv)
        except Exception:  # a crash is a wrong answer; keep measuring
            crash = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
    text = out.getvalue()
    if crash is not None:
        verdict = oracle.Verdict(oracle.WRONG, False, f"crash: {crash.strip().splitlines()[-1]}")
    else:
        verdict = oracle.classify(op.command, op.truth, code, text, err.getvalue(), bool(caught))
    return elapsed, verdict, len(text)


class Phase:
    """Results of whole passes over a pool."""

    def __init__(self, size):
        self.latencies = [[] for _ in range(size)]
        self.verdicts = [None] * size
        self.pass_seconds = []
        self.attempted = 0
        self.outcomes = {}
        self.bytes_out = 0
        self.pass_counts = []  # per pass: per-op factorization counts (traced phases)
        self.seconds = 0.0
        self.truncated = False

    def throughput(self, non_wrong_per_pass):
        """Median over whole passes of non-wrong ops per second; the mean
        rate when not one pass finished."""
        if not self.pass_seconds:
            return (self.attempted - self.outcomes.get("wrong", 0)) / self.seconds
        return statistics.median(non_wrong_per_pass / s for s in self.pass_seconds)


def measure(pool, seconds, cli, oracle, tracer=None):
    ops = pool.ops
    phase = Phase(len(ops))
    start = time.perf_counter()
    while not phase.truncated:
        pass_start = time.perf_counter()
        counts = []
        for i, op in enumerate(ops):
            if time.perf_counter() - PROCESS_START > HARD_LIMIT_S:
                phase.truncated = True
                break
            before = [tracer.calls[k] for k in LAPACK_KEYS] if tracer else None
            elapsed, verdict, bytes_out = run_op(cli, op, oracle)
            if tracer:
                counts.append(tuple(tracer.calls[k] - b for k, b in zip(LAPACK_KEYS, before)))
            phase.latencies[i].append(elapsed)
            phase.verdicts[i] = verdict
            phase.attempted += 1
            phase.outcomes[verdict.outcome] = phase.outcomes.get(verdict.outcome, 0) + 1
            phase.bytes_out += bytes_out
        else:
            phase.pass_seconds.append(time.perf_counter() - pass_start)
            phase.pass_counts.append(counts)
            if time.perf_counter() - start >= seconds:
                break
    phase.seconds = time.perf_counter() - start
    return phase


# ------------------------------------------------------------------ set-up


def set_up(workload, seed, directory, cli, oracle, workloads):
    """Generate the pool into ``directory`` and warm up.  Returns the pool
    and the set-up time in seconds."""
    start = time.perf_counter()
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    pool = workloads.BUILDERS[workload](directory, seed)
    # Warm up on the smallest input of each kind of call, so that set-up
    # does the same work whatever order the seed put the pool in.
    kinds = {}
    for op in sorted(pool.ops, key=lambda op: op.bytes_in):
        kinds.setdefault((op.command, op.argv[-1].startswith("--"), len(op.files)), op)
    for op in kinds.values():
        run_op(cli, op, oracle)
    return pool, time.perf_counter() - start


# ------------------------------------------------------------------ metrics


def percentile(values, q):
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q)) if values else 0.0


def op_medians(phase, ops, command=None):
    return [statistics.median(samples) for op, samples in zip(ops, phase.latencies)
            if samples and (command is None or op.command == command)]


def decade(cond):
    return f"1e{min(8, max(0, int(math.floor(math.log10(cond)))))}"


def outcome_table(ops, verdicts, key):
    """Outcome counts over the distinct inputs of the pool, grouped by key."""
    table = {}
    for op, verdict in zip(ops, verdicts):
        if verdict is None:
            continue
        row = table.setdefault(key(op), {"ok": 0, "flagged": 0, "flagged_wrong": 0,
                                         "refused": 0, "wrong": 0})
        row[verdict.outcome] += 1
        if verdict.outcome == "flagged" and not verdict.right:
            row["flagged_wrong"] += 1
    return dict(sorted(table.items()))


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
    }


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def git_commit():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def metric(value, unit):
    return {"value": value, "unit": unit}


def summarize(ops, phase):
    """End-to-end figures of one phase."""
    wrong_per_pass = sum(1 for v in phase.verdicts if v is not None and v.outcome == "wrong")
    medians = op_medians(phase, ops)
    return {
        "ops_per_s": phase.throughput(len(ops) - wrong_per_pass),
        "latency_p50_ms": 1e3 * percentile(medians, 50),
        "latency_p90_ms": 1e3 * percentile(medians, 90),
    }


def details(workload, args, ops, phase, env, setup):
    attempted = phase.attempted
    outcomes = {k: phase.outcomes.get(k, 0) for k in ("ok", "flagged", "refused", "wrong")}
    per_command = {}
    for command in sorted({op.command for op in ops}):
        medians = op_medians(phase, ops, command)
        per_command[f"{command}_p50_ms"] = {"value": 1e3 * percentile(medians, 50), "unit": "ms",
                                            "inputs": len(medians)}
    residuals = [v.residual for v in phase.verdicts if v is not None and v.residual is not None]
    residual_p90 = percentile(residuals, 90) if residuals else None
    medians = op_medians(phase, ops)
    p90 = percentile(medians, 90)
    wrong_examples = [
        {"argv": op.argv, "reason": v.reason}
        for op, v in zip(ops, phase.verdicts) if v is not None and v.outcome == "wrong"
    ][:5]
    return {
        "workload": workload,
        "seed": args.seed,
        "trace": args.trace,
        "load": "one closed-loop caller, no think time, in-process",
        "environment": env,
        "pool_ops": len(ops),
        "passes": len(phase.pass_seconds),
        "pass_seconds": phase.pass_seconds,
        "truncated": phase.truncated,
        "measured_s": phase.seconds,
        "attempted": attempted,
        "outcomes": outcomes,
        "error_rate": {"value": outcomes["wrong"] / attempted, "unit": "ratio"},
        "untrusted_rate": {"value": (outcomes["flagged"] + outcomes["refused"]) / attempted,
                           "unit": "ratio"},
        "per_command": per_command,
        "residual_p90_log10": (
            {"value": math.log10(max(residual_p90, 1e-300)), "unit": "log10",
             "samples": len(residuals)} if residual_p90 is not None else None
        ),
        "latency_samples": {"inputs": len(medians),
                            "inputs_above_p90": sum(1 for m in medians if m > p90),
                            "executions": attempted},
        "setup": setup,
        "outcomes_by_condition_decade": outcome_table(ops, phase.verdicts, lambda op: decade(op.cond)),
        "outcomes_by_command": outcome_table(ops, phase.verdicts, lambda op: op.command),
        "wrong_examples": wrong_examples,
    }


def layer_metrics(tracer, phase, ops, plain_ops_per_s, traced_ops_per_s, compose_ms):
    """Per-layer figures per attempted op of the traced phase.  Counts are
    exact: the traced phase runs whole passes, so count / ops is the same
    for any number of passes."""
    n = phase.attempted
    calls, secs = tracer.calls, tracer.seconds
    out = {}

    def per_op_calls(name, key):
        out[name] = metric(calls[key] / n, "calls/op")

    def per_op_ms(name, *keys):
        out[name] = metric(1e3 * sum(secs[k] for k in keys) / n, "ms/op")

    for short in ("invariants", "decompose", "verify"):
        per_op_calls(f"brenner.{short}.calls", f"brenner.{short}")
        per_op_ms(f"brenner.{short}.ms", f"brenner.{short}")
    per_op_ms("brenner.isomorphism_between.ms", "brenner.isomorphism_between")
    out["brenner.self_ms"] = metric(1e3 * tracer.self_seconds["brenner"] / n, "ms/op")
    out["brenner.skeletons_per_op"] = metric(
        (calls["brenner.invariants"] + calls["brenner.decompose"]) / n, "calls/op")

    for name in ("meet", "join", "complement", "complement_within", "gap", "contains",
                 "orthonormalize", "principal_angles", "subspace_new"):
        per_op_calls(f"linalg.{name}.calls", f"linalg.{name}")
        per_op_ms(f"linalg.{name}.ms", f"linalg.{name}")
    out["linalg.self_ms"] = metric(1e3 * tracer.self_seconds["linalg"] / n, "ms/op")

    for key in LAPACK_KEYS:
        per_op_calls(f"{key}.calls", key)
    per_op_ms("lapack.svd.ms", "lapack.svd")
    out["lapack.elements"] = metric(tracer.elements / n, "elements/op")

    per_op_calls("two_subspaces.sum_operator.calls", "two_subspaces.sum_operator")
    per_op_ms("two_subspaces.sum_operator.ms", "two_subspaces.sum_operator")

    per_op_calls("systems.hom_basis.calls", "systems.hom_basis")
    per_op_ms("systems.hom_basis.ms", "systems.hom_basis")
    per_op_ms("systems.idempotent.ms", "systems.idempotent")
    searches = calls["systems.idempotent"]
    out["systems.idempotent.found_ratio"] = metric(
        tracer.found["systems.idempotent"] / searches if searches else 0.0, "ratio")
    per_op_ms("systems.verify_isomorphism.ms", "systems.verify_isomorphism")
    per_op_ms("systems.detect.ms", "systems.detect_double_triangle", "systems.detect_pentagon")
    out["systems.self_ms"] = metric(1e3 * tracer.self_seconds["systems"] / n, "ms/op")

    per_op_ms("pentagon.split.ms", "pentagon.split")
    per_op_ms("pentagon.example9.ms", "pentagon.example9", "pentagon.diagonal_graph_pair")
    per_op_ms("pentagon.closedness_margin.ms", "pentagon.closedness_margin")

    out["cli.self_ms"] = metric(1e3 * tracer.self_seconds["cli"] / n, "ms/op")
    per_op_ms("cli.json_load_ms", "cli.json_load")
    per_op_ms("cli.json_dump_ms", "cli.json_dump")
    out["cli.bytes_in"] = metric(tracer.bytes_in / n, "B/op")
    out["cli.bytes_out"] = metric(phase.bytes_out / n, "B/op")

    out["catalog.compose_ms"] = metric(compose_ms, "ms/setup")
    out["trace.overhead_pct"] = metric(100.0 * (plain_ops_per_s / traced_ops_per_s - 1.0), "%")
    return out


def counts_digest(phase):
    """Digest of the per-op factorization counts of the first traced pass,
    and whether every later pass repeated them exactly."""
    if not phase.pass_counts:
        return None, False
    first = phase.pass_counts[0]
    digest = hashlib.sha256(json.dumps(first).encode()).hexdigest()[:16]
    return digest, all(counts == first for counts in phase.pass_counts[1:])


# ------------------------------------------------------------------ main


def main(argv=None):
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be positive")
    import_s = import_program()

    import oracle
    import workloads
    import subspacekit.cli as cli

    env = environment()
    directory = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        setup_runs, compose_runs = [], []
        for _ in range(SETUP_REPEATS):
            pool, seconds = set_up(args.workload, args.seed, directory, cli, oracle, workloads)
            setup_runs.append(seconds)
            compose_runs.append(pool.compose_s)
        setup_s = import_s + statistics.median(setup_runs)
        setup = {"import_s": import_s, "runs_s": setup_runs, "median_s": setup_s}
        ops = pool.ops

        if args.trace:
            import spans

            plain = measure(pool, args.seconds / 2.0, cli, oracle)
            with spans.Tracer() as tracer:
                phase = measure(pool, args.seconds / 2.0, cli, oracle, tracer)
            plain_rate = summarize(ops, plain)["ops_per_s"]
            traced_rate = summarize(ops, phase)["ops_per_s"]
            metrics = layer_metrics(tracer, phase, ops, plain_rate, traced_rate,
                                    1e3 * statistics.median(compose_runs))
            digest, repeat = counts_digest(phase)
            report = details(args.workload, args, ops, plain, env, setup)
            report["lapack_counts"] = {"first_pass_digest": digest, "repeat_across_passes": repeat}
            attempted = plain.attempted + phase.attempted
            failed = plain.outcomes.get("wrong", 0) + phase.outcomes.get("wrong", 0)
        else:
            phase = measure(pool, args.seconds, cli, oracle)
            figures = summarize(ops, phase)
            figures["setup_s"] = setup_s
            figures["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {name: metric(figures[name], unit) for name, unit in END_TO_END.items()}
            report = details(args.workload, args, ops, phase, env, setup)
            attempted, failed = phase.attempted, phase.outcomes.get("wrong", 0)
        # Print before the clean-up: deleting the input files can be slow
        # once the kernel has written them back, and that is no part of
        # the measurement.
        print(json.dumps({"report": report}, sort_keys=True))
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }, sort_keys=True), flush=True)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)
    return 0


if __name__ == "__main__":
    sys.exit(main())
