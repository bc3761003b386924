"""Per-layer tracing from outside the program.

:class:`Tracer` replaces, for the duration of a ``with`` block, every module
attribute bound to a public function of subspacekit (and the dense
factorizations of ``numpy.linalg``) with a wrapper that records a span:
call count, inclusive time and, per layer, self time (the span's duration
minus the part covered by its child spans).  A layer is a module.  No source
file changes; leaving the block restores every attribute.

``numpy.linalg.norm(x, 2)`` on a matrix runs an SVD inside numpy that the
``svd`` wrapper cannot see, so those calls are counted as ``lapack.norm2``.
Each factorization also adds the sizes of its array arguments to
``lapack.elements`` (a computed figure, not a measured one).
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import types
from collections import Counter, defaultdict

import numpy as np

LIBRARY_MODULES = ("linalg", "two_subspaces", "systems", "brenner", "pentagon", "catalog")
ALL_MODULES = ("subspacekit",) + tuple(f"subspacekit.{m}" for m in LIBRARY_MODULES + ("cli",))
FACTORIZATIONS = ("svd", "qr", "solve", "inv", "eig", "det")

# Span keys that the report names differently from the function.
RENAMED = {
    "brenner.brenner_invariants": "brenner.invariants",
    "brenner.brenner_decompose": "brenner.decompose",
    "brenner.verify_brenner": "brenner.verify",
    "two_subspaces.sum_operator_matrix": "two_subspaces.sum_operator",
    "systems.find_nontrivial_idempotent": "systems.idempotent",
    "pentagon.pentagon_split": "pentagon.split",
    "pentagon.example9_truncated": "pentagon.example9",
}


class Tracer:
    """Span recorder.  Single-threaded: one stack of open spans."""

    def __init__(self):
        self.calls = Counter()
        self.seconds = defaultdict(float)  # inclusive, per span key
        self.self_seconds = defaultdict(float)  # per layer
        self.found = Counter()  # calls that returned something other than None
        self.elements = 0
        self.bytes_in = 0  # bytes the CLI's json.load calls read
        self._stack = []
        self._restore = []

    # ------------------------------------------------------------ spans

    def wrap(self, fn, key, layer, sized=False):
        stack = self._stack
        calls, seconds, self_seconds, found = self.calls, self.seconds, self.self_seconds, self.found
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if sized:
                tracer.elements += sum(int(getattr(a, "size", 0)) for a in args)
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                calls[key] += 1
                seconds[key] += elapsed
                self_seconds[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if result is not None:
                found[key] += 1
            return result

        return span

    # ------------------------------------------------------ installation

    def _set(self, owner, name, value):
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def __enter__(self):
        modules = [importlib.import_module(m) for m in ALL_MODULES]
        for short in LIBRARY_MODULES:
            home = importlib.import_module(f"subspacekit.{short}")
            for name in home.__all__:
                original = getattr(home, name)
                if not isinstance(original, types.FunctionType) or original.__module__ != home.__name__:
                    continue
                key = f"{short}.{name}"
                wrapper = self.wrap(original, RENAMED.get(key, key), short)
                # Rebind the name wherever it was imported, so calls from
                # other modules go through the wrapper too.
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, attr, wrapper)

        linalg = importlib.import_module("subspacekit.linalg")
        self._set(linalg.Subspace, "__post_init__",
                  self.wrap(linalg.Subspace.__post_init__, "linalg.subspace_new", "linalg"))

        cli = importlib.import_module("subspacekit.cli")
        self._set(cli, "main", self.wrap(cli.main, "cli.main", "cli"))
        self._set(cli, "json", _JsonProxy(self))

        for name in FACTORIZATIONS:
            self._set(np.linalg, name,
                      self.wrap(getattr(np.linalg, name), f"lapack.{name}", "lapack", sized=True))
        plain_norm = np.linalg.norm
        norm2 = self.wrap(plain_norm, "lapack.norm2", "lapack", sized=True)

        @functools.wraps(plain_norm)
        def norm(x, ord=None, *args, **kwargs):
            if ord == 2 and np.ndim(x) == 2:
                return norm2(x, ord, *args, **kwargs)
            return plain_norm(x, ord, *args, **kwargs)

        self._set(np.linalg, "norm", norm)
        return self

    def __exit__(self, *exc):
        while self._restore:
            owner, name, value = self._restore.pop()
            setattr(owner, name, value)
        return False


class _JsonProxy:
    """Stands in for the ``json`` module inside the CLI, timing parsing and
    emitting as the ``json`` layer and counting the bytes each load reads."""

    def __init__(self, tracer):
        timed_load = tracer.wrap(json.load, "cli.json_load", "json")

        @functools.wraps(json.load)
        def load(handle, *args, **kwargs):
            start = handle.tell()
            result = timed_load(handle, *args, **kwargs)
            tracer.bytes_in += handle.tell() - start
            return result

        self.load = load
        self.dumps = tracer.wrap(json.dumps, "cli.json_dump", "json")

    def __getattr__(self, name):
        return getattr(json, name)
