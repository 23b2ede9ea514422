"""Per-layer tracing of cqcalc from outside the program.

`Tracer.install` replaces every public function of the traced modules
by a wrapper, through the module attribute (and through any other
loaded cqcalc module that imported the same function by name), plus
`Diagram.evaluate` on the class.  Each call records a span (id, parent
id, name, start, end) in memory; nothing is written until the run ends.
A layer's self time is its span's duration minus the part of that
interval covered by its child spans.  Spans are wall time: the two
worker threads of `simulate --jobs 2` hold overlapping spans, so a
layer's self time summed over threads can exceed the job time; the
`main_self_s` column counts main-thread spans only.

`EvaluateMemory` measures the tracemalloc peak inside `Diagram.evaluate`.
tracemalloc hooks every allocation, so it is installed on its own, in a
pass that records no spans.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
import tracemalloc
from collections import defaultdict

TRACED_MODULES = ("regcalc", "diagram", "rewrite", "protocol", "extractor", "cli")
JOB = "job"  # root span the runner opens around each job


def _patch(patched: list, owner, attr, new):
    patched.append((owner, attr, getattr(owner, attr)))
    setattr(owner, attr, new)


def _unpatch(patched: list):
    while patched:
        owner, attr, old = patched.pop()
        setattr(owner, attr, old)


def _bound(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _rounds(tracer, fn, args, kwargs, result):
    rounds = _bound(fn, args, kwargs)["M"]
    tracer.counts["protocol.rounds"] += rounds
    if threading.current_thread() is tracer._main:
        tracer.counts["protocol.rounds.main"] += rounds


def _seeds(tracer, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    n = len(a["source_dist"]).bit_length() - 1
    tracer.counts["extractor.seeds_enumerated"] += 2 ** (n + a["m"] - 1)


def _iterations(tracer, fn, args, kwargs, result):
    cert = result[1]
    tracer.counts["protocol.min_entropy_cq.iterations"] += cert["iterations"]
    tracer.counts["protocol.min_entropy_cq.converged"] += bool(cert["converged"])


def _loose(tracer, fn, args, kwargs, result):
    tracer.counts["regcalc.process_distance.loose_upper"] += result.upper > 1.0


# counts taken from arguments and results at the function boundary
OBSERVERS = {
    "protocol.spotcheck_run": _rounds,
    "extractor.extractor_distance_exact": _seeds,
    "protocol.min_entropy_cq": _iterations,
    "regcalc.process_distance": _loose,
}


class Tracer:
    def __init__(self, package: dict):
        self.package = package  # short name -> module, TRACED_MODULES at least
        self.spans = []
        self.counts = defaultdict(int)
        self._ids = itertools.count(1)
        self._main = threading.main_thread()
        self._main_stack = []
        self._local = threading.local()
        self._patched = []

    # -- spans ---------------------------------------------------------

    def _stack(self) -> list:
        if threading.current_thread() is self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _enter(self):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:  # a worker thread's first span belongs to the main thread's
            parent = self._main_stack[-1] if self._main_stack else 0
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent, stack is self._main_stack

    def wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent, main = self._enter()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack().pop()
                self.spans.append((sid, parent, name, t0, t1, main))
            if observe is not None:
                observe(self, fn, args, kwargs, result)
            return result

        return traced

    def job(self, run):
        """Run `run()` inside a root span; returns its result."""
        sid, parent, main = self._enter()
        t0 = time.perf_counter()
        try:
            return run()
        finally:
            t1 = time.perf_counter()
            self._stack().pop()
            self.spans.append((sid, parent, JOB, t0, t1, main))

    # -- installation ----------------------------------------------------

    def install(self) -> list:
        """Wrap the traced modules; returns the wrapped names."""
        loaded = [m for n, m in list(sys.modules.items()) if n == "cqcalc" or n.startswith("cqcalc.")]
        names = []
        for short in TRACED_MODULES:
            mod = self.package[short]
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                wrapped = self.wrap(name, obj)
                for other in loaded:
                    for a, v in list(vars(other).items()):
                        if v is obj:
                            _patch(self._patched, other, a, wrapped)
                names.append(name)
        diagram_cls = self.package["diagram"].Diagram
        _patch(self._patched, diagram_cls, "evaluate", self.wrap("diagram.evaluate", diagram_cls.evaluate))
        names.append("diagram.evaluate")
        return names

    def uninstall(self):
        _unpatch(self._patched)

    # -- results ---------------------------------------------------------

    def table(self) -> dict:
        """name -> {"calls", "total_s", "self_s", "main_self_s"}."""
        children = defaultdict(list)
        for _, parent, _, t0, t1, _ in self.spans:
            children[parent].append((t0, t1))
        out = {}
        for sid, _, name, t0, t1, main in self.spans:
            covered, end = 0.0, t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, end), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "main_self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += (t1 - t0) - covered
            if main:
                row["main_self_s"] += (t1 - t0) - covered
        return out

    def write(self, path, header: dict):
        """One JSON header line, then one line per span."""
        with open(path, "w") as f:
            f.write(json.dumps(header, sort_keys=True) + "\n")
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


class EvaluateMemory:
    """tracemalloc peak above the entry level inside `Diagram.evaluate`,
    outermost calls only."""

    def __init__(self, diagram_cls):
        self.cls = diagram_cls
        self.peak_mb = 0.0
        self._depth = 0
        self._base = 0
        self._patched = []

    def install(self):
        evaluate = self.cls.evaluate

        @functools.wraps(evaluate)
        def measured(*args, **kwargs):
            if self._depth == 0:
                tracemalloc.start()
                self._base = tracemalloc.get_traced_memory()[0]
            self._depth += 1
            try:
                return evaluate(*args, **kwargs)
            finally:
                self._depth -= 1
                if self._depth == 0:
                    peak = tracemalloc.get_traced_memory()[1] - self._base
                    tracemalloc.stop()
                    self.peak_mb = max(self.peak_mb, peak / 2**20)

        _patch(self._patched, self.cls, "evaluate", measured)

    def uninstall(self):
        _unpatch(self._patched)
