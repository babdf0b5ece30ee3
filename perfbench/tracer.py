"""In-memory span tracer that wraps library functions from outside.

Nothing in ``src/`` is edited: each traced function is replaced, for the
life of the benchmark process, by a wrapper bound in its defining namespace
and in every ``su2qfi`` module namespace that imported it.  A function that
does not exist at the commit under test is skipped and reported as absent.

A span records (id, parent id, function, start, end, operation id, raised).
The parent comes from a thread-local stack, so spans of pool worker threads
are roots in their own thread and a caller's self time includes the time it
waited for those workers.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
from collections import defaultdict
from time import perf_counter

# (module, qualified name) -> metric prefix "<layer>.<name>"
TARGETS = (
    ("su2qfi.spin", "build_spin_rep"),
    ("su2qfi.spin", "dot_with_J"),
    ("su2qfi.spin", "hermitian_expm"),
    ("su2qfi.spin", "require_hermitian"),
    ("su2qfi.generator", "split_velocity"),
    ("su2qfi.generator", "generator_vector"),
    ("su2qfi.generator", "analytic_generator"),
    ("su2qfi.generator", "mqfi_closed_form"),
    ("su2qfi.cases", "spherical_field_mqfi"),
    ("su2qfi.cases", "static_field_mqfi"),
    ("su2qfi.cases", "driven_static_mqfi"),
    ("su2qfi.cases", "driving_frequency_mqfi"),
    ("su2qfi.cases", "driving_generator"),
    ("su2qfi.cases", "RotatingFrame.u_full"),
    ("su2qfi.numerics", "generator_series"),
    ("su2qfi.numerics", "generator_series_scaled"),
    ("su2qfi.numerics", "compose_generators"),
    ("su2qfi.numerics", "trotter_propagator"),
    ("su2qfi.cli", "main"),
    ("su2qfi.cli", "evaluate_point"),
    ("su2qfi.cli", "oracle_residuals"),
    ("su2qfi.cli", "trotter_cross_check"),
    ("numpy.linalg", "eigh"),    # the dense kernel count
)
SPAN_CAP = 50_000   # raw spans kept for the span file; aggregates cover every span


def metric_prefix(module: str, qualname: str) -> str:
    layer = module[len("su2qfi."):] if module.startswith("su2qfi.") else module
    return f"{layer}.{qualname}"


NAMES = tuple(metric_prefix(m, q) for m, q in TARGETS)


def _resolve(module: str, qualname: str):
    """(owner, attribute, original) or None when the name is absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, attr, None)
    return None if original is None else (owner, attr, original)


class Tracer:
    def __init__(self):
        self.absent = []
        self.op = 0
        self.spans = []                 # spans of the current operation
        self.kept = []                  # first SPAN_CAP spans of the run
        self.calls = dict.fromkeys(NAMES, 0)
        self.self_s = dict.fromkeys(NAMES, 0.0)
        self.errors = dict.fromkeys(NAMES, 0)
        self._patches = []
        self._local = threading.local()
        self._ids = itertools.count()

    def _wrap(self, name: str, fn):
        local, ids, tracer = self._local, self._ids, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            raised = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, name, start, end, tracer.op, raised))

        return traced

    def install(self):
        packages = [m for key, m in sys.modules.items() if key == "su2qfi" or key.startswith("su2qfi.")]
        for (module, qualname), name in zip(TARGETS, NAMES):
            found = _resolve(module, qualname)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr, original = found
            wrapper = self._wrap(name, original)
            self._patch(owner, attr, wrapper)
            for mod in packages:
                for key, value in list(vars(mod).items()):
                    if value is original and mod is not owner:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def end_op(self):
        """Fold the current operation's spans into per-function totals."""
        covered = defaultdict(float)
        for sid, parent, _, start, end, _, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for sid, _, name, start, end, _, raised in self.spans:
            self.calls[name] += 1
            self.self_s[name] += end - start - covered[sid]
            self.errors[name] += raised
        room = SPAN_CAP - len(self.kept)
        if room > 0:
            self.kept.extend(self.spans[:room])
        self.spans = []
        self.op += 1

    def metrics(self) -> dict:
        out = {}
        for name in NAMES:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
            out[f"{name}.errors"] = (self.errors[name], "count")
        return out
