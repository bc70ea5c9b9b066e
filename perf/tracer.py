"""Outside-in span tracing: timing wrappers installed around the program's
layer boundaries (layers.py) without touching the program.

Each call of a wrapped function records one span — layer, name, start,
end, parent span, op id, pid, tid — on a thread-local stack, in memory;
spans are written as JSONL when the process ends.  A layer's self time is
its spans' duration minus the part their child spans cover.

Subprocesses (the TCP server, spawned shard workers) are traced by the
same wrappers: ``hook/sitecustomize.py`` calls :func:`install_from_env`
at interpreter start when ``PERF_TRACE_DIR`` is set, and each process
flushes its own ``spans-<pid>.jsonl`` for the parent to merge.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Optional

TRACE_DIR_ENV = "PERF_TRACE_DIR"
BENCH_LAYER = "bench"

# Span tuple fields, in order.
FIELDS = ("id", "parent", "layer", "name", "start", "end", "op", "pid",
          "tid", "counters")


class Tracer:
    """Records spans for every wrapped call in this process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []          # list.append is atomic
        self.unresolved: list[str] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._undo: list = []
        self._pid = os.getpid()

    # -- recording -----------------------------------------------------------

    def _enter(self) -> tuple[int, Optional[int], list]:
        local = self._local
        try:
            stack = local.stack
        except AttributeError:
            stack = local.stack = []
            local.op = None
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        return span_id, parent, stack

    def _exit(self, span_id: int, parent: Optional[int], stack: list,
              layer: str, name: str, start: float, counters) -> None:
        end = time.perf_counter()
        stack.pop()
        self.spans.append((span_id, parent, layer, name, start, end,
                           self._local.op, self._pid,
                           threading.get_ident(), counters))

    @contextmanager
    def op(self, name: str, op_id: int):
        """The root span of one benchmark operation."""
        span_id, parent, stack = self._enter()
        self._local.op = op_id
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(span_id, parent, stack, BENCH_LAYER, name, start, None)
            self._local.op = None

    def _wrap(self, layer: str, name: str, fn, counters):
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # The work of a generator happens while its consumer pulls:
            # one span per resumption, not one around the (instant) call.
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                try:
                    while True:
                        span_id, parent, stack = tracer._enter()
                        start = time.perf_counter()
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            tracer._exit(span_id, parent, stack, layer,
                                         name, start, None)
                        yield item
                finally:
                    gen.close()
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id, parent, stack = tracer._enter()
            start = time.perf_counter()
            counts = None
            try:
                result = fn(*args, **kwargs)
                if counters is not None:
                    try:
                        counts = counters(args, kwargs, result)
                    except Exception:   # a counter must never fail the op
                        counts = None
                return result
            finally:
                tracer._exit(span_id, parent, stack, layer, name, start,
                             counts)
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self, layers: dict[str, list[tuple]]) -> list[str]:
        """Wrap every resolvable target; returns the unresolved ones."""
        for layer, targets in layers.items():
            for target in targets:
                module_name, qualname = target[0], target[1]
                counters = target[2] if len(target) > 2 else None
                label = f"{module_name}:{qualname}"
                try:
                    self._install_one(layer, module_name, qualname, counters)
                except (ImportError, AttributeError, TypeError):
                    self.unresolved.append(label)
        return self.unresolved

    def _install_one(self, layer, module_name, qualname, counters) -> None:
        module = importlib.import_module(module_name)
        owner = module
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        if not callable(original) or isinstance(original, type):
            raise TypeError(f"{qualname} is not a function")
        own = owner.__dict__.get(attr, _MISSING)
        if isinstance(own, (staticmethod, classmethod)):
            raise TypeError(f"{qualname} is a static/class method")
        wrapper = self._wrap(layer, qualname, original, counters)
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, own))
        if owner is module and module_name.startswith("repro."):
            # ``from module import name`` copied the reference: rebind it
            # in every program module that holds the original.
            for other_name, other in list(sys.modules.items()):
                if other is module or other is None \
                        or not other_name.startswith("repro"):
                    continue
                if other.__dict__.get(attr) is original:
                    setattr(other, attr, wrapper)
                    self._undo.append((other, attr, original))

    def uninstall(self) -> None:
        for owner, attr, previous in reversed(self._undo):
            if previous is _MISSING:
                delattr(owner, attr)       # was inherited, not own
            else:
                setattr(owner, attr, previous)
        self._undo.clear()


_MISSING = object()


def write_spans(path: Path, spans: Iterable[tuple]) -> None:
    with open(path, "w") as out:
        for span in spans:
            out.write(json.dumps(dict(zip(FIELDS, span))))
            out.write("\n")


def read_spans(path: Path) -> list[tuple]:
    with open(path) as handle:
        return [tuple(json.loads(line)[f] for f in FIELDS)
                for line in handle if line.strip()]


# -- subprocess hook ---------------------------------------------------------

def install_from_env() -> Optional[Tracer]:
    """Trace this process if ``PERF_TRACE_DIR`` asks for it (called from
    hook/sitecustomize.py in the server and shard-worker processes)."""
    trace_dir = os.environ.get(TRACE_DIR_ENV)
    if not trace_dir:
        return None
    from layers import LAYERS

    tracer = Tracer()
    tracer.install(LAYERS)
    done = threading.Event()

    def flush() -> None:
        if done.is_set() or not tracer.spans:
            return
        done.set()
        write_spans(Path(trace_dir) / f"spans-{os.getpid()}.jsonl",
                    tracer.spans)

    atexit.register(flush)
    # multiprocessing children leave through os._exit and skip atexit,
    # but do run multiprocessing finalizers.
    from multiprocessing import util

    util.Finalize(None, flush, exitpriority=0)
    return tracer


# -- analysis ----------------------------------------------------------------

def covered(intervals: list[tuple[float, float]], lo: float, hi: float
            ) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, edge = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, edge), min(end, hi)
        if end > start:
            total += end - start
            edge = end
    return total


def self_times(spans: Iterable[tuple]) -> dict[tuple[int, int], float]:
    """Self time per span, keyed (pid, span id): its duration minus the
    part of that interval its child spans cover (children may overlap
    one another when they ran on other threads)."""
    children: dict[tuple[int, int], list[tuple[float, float]]] = \
        defaultdict(list)
    spans = list(spans)
    for span_id, parent, _l, _n, start, end, _o, pid, _t, _c in spans:
        if parent is not None:
            children[(pid, parent)].append((start, end))
    out = {}
    for span_id, _p, _l, _n, start, end, _o, pid, _t, _c in spans:
        inside = covered(children.get((pid, span_id), []), start, end)
        out[(pid, span_id)] = (end - start) - inside
    return out


class LayerTotals:
    """Per-layer sums over a set of spans."""

    def __init__(self, spans: Iterable[tuple]) -> None:
        spans = list(spans)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.calls_by_name: dict[str, int] = defaultdict(int)
        self.counters: dict[str, dict[str, float]] = \
            defaultdict(lambda: defaultdict(float))
        self.root_busy_s: dict[int, float] = defaultdict(float)
        own = self_times(spans)
        op_wall = op_uncovered = 0.0
        for span in spans:
            span_id, parent, layer, name, start, end, _o, pid, _t, counts = span
            if parent is None:
                self.root_busy_s[pid] += end - start
            if layer == BENCH_LAYER:
                op_wall += end - start
                op_uncovered += own[(pid, span_id)]
                continue
            self.self_s[layer] += own[(pid, span_id)]
            self.calls[layer] += 1
            self.calls_by_name[name] += 1
            for key, value in (counts or {}).items():
                self.counters[layer][key] += value
        # Share of traced op wall time attributed to some layer.
        self.coverage = 1.0 - op_uncovered / op_wall if op_wall else 0.0

    def counter(self, layer: str, name: str) -> float:
        return self.counters[layer][name] if layer in self.counters else 0.0
