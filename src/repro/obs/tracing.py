"""Per-query span trees over the flat run-time trace.

The engine always kept a flat ``ctx.trace`` list of run-time rewrite
events.  This module adds the structure around it: a
:class:`QueryProfile` keeps one :class:`OpFrame` per physical operator
(the frame tree mirrors the plan tree), and :func:`span_tree` assembles
the full query span — parse → bind → optimize → execute, one child span
per operator, and the trace events (extractions, cache fetches, promoted
reads) nested under the operator that produced them — as plain
JSON-serialisable dicts.

Operators are batch generators, so an operator's work is spread over
many *pulls* interleaved with its parent's and children's.
:meth:`QueryProfile.pulls` drives an operator's generator and accounts
each pull — and the final close — to its frame: wall time (total and
self, i.e. minus the children pulled meanwhile), rows out, and page I/O
(total and self).  A trace event belongs to the deepest frame that was
open when it was appended.

The profile is attached as ``ExecutionContext.profile``; ``None`` (the
default) leaves the generators undriven — operators only pay for
profiling when EXPLAIN ANALYZE or span tracing asked for it.
"""

from __future__ import annotations

import time

#: ``ctx.trace`` ops that carry a wall-time measurement of their own.
_TIMED_TRACE_OPS = frozenset({"extract", "extract_wait"})


class OpFrame:
    """One physical operator's execution inside a :class:`QueryProfile`."""

    __slots__ = ("node", "op", "label", "total_s", "child_s", "rows_out",
                 "pages_read", "child_pages", "recycled",
                 "trace_begin", "own_trace", "children")

    def __init__(self, node, trace_begin: int) -> None:
        self.node = node
        self.op = type(node).__name__   # operator class, e.g. "PFilter"
        self.label = node.describe()
        self.total_s = 0.0
        self.child_s = 0.0
        self.rows_out = 0
        self.pages_read = 0
        self.child_pages = 0
        self.recycled = False
        self.trace_begin = trace_begin  # len(ctx.trace) at the first pull
        self.own_trace: list[int] = []  # ctx.trace indices this frame owns
        self.children: list["OpFrame"] = []

    @property
    def self_s(self) -> float:
        """Wall time spent in this operator, excluding child operators."""
        return max(self.total_s - self.child_s, 0.0)

    @property
    def self_pages(self) -> int:
        return max(self.pages_read - self.child_pages, 0)


class QueryProfile:
    """Operator-level profile of one query execution."""

    def __init__(self) -> None:
        self.roots: list[OpFrame] = []
        self._stack: list[OpFrame] = []  # frames with a pull in progress
        self._claimed = 0                # ctx.trace[:_claimed] have owners

    @property
    def open_frames(self) -> int:
        """Frames with a pull in progress (0 between pulls and after the
        stream is exhausted or closed)."""
        return len(self._stack)

    def pulls(self, node, stream, ctx):
        """Re-yield ``stream`` — ``node``'s batch generator — with every
        pull, and the final close, accounted to the node's frame."""
        frame = OpFrame(node, len(ctx.trace))
        if self._stack:
            # First pulled from inside the parent operator's own pull.
            parent = self._stack[-1]
            parent.children.append(frame)
            plan_order = parent.node.children()
            parent.children.sort(key=lambda f: plan_order.index(f.node))
        else:
            self.roots.append(frame)
        try:
            while True:
                try:
                    chunk = self._step(frame, ctx, stream.__next__)
                except StopIteration:
                    return
                frame.rows_out += chunk.length
                yield chunk
        finally:
            # An abandoned stream (cursor closed early, LIMIT satisfied)
            # still runs the operator's cleanup, which may record I/O.
            self._step(frame, ctx, stream.close)

    def _step(self, frame: OpFrame, ctx, step):
        # The clock covers the bookkeeping too, so the frames' self times
        # add up to what the caller measures around its pull.
        started = time.perf_counter()
        self._claim(ctx.trace)
        self._stack.append(frame)
        pages_before = ctx.pages_read
        try:
            return step()
        finally:
            self._claim(ctx.trace)
            self._stack.pop()
            pages = ctx.pages_read - pages_before
            frame.pages_read += pages
            elapsed = time.perf_counter() - started
            frame.total_s += elapsed
            if self._stack:
                parent = self._stack[-1]
                parent.child_s += elapsed
                parent.child_pages += pages

    def _claim(self, trace: list[dict]) -> None:
        """Hand the not-yet-owned trace entries to the deepest open frame."""
        if self._stack:
            self._stack[-1].own_trace.extend(range(self._claimed, len(trace)))
        self._claimed = len(trace)

    def mark_recycled(self) -> None:
        """The operator being pulled answered from the recycler."""
        self._stack[-1].recycled = True

    def charge_root(self, seconds: float) -> None:
        """Charge time the caller measured around a pull of the root
        stream, but no frame did (the profiled generator's resume, the
        caller's own bookkeeping), to the root frame."""
        if self.roots:
            self.roots[-1].total_s += seconds

    def total_operator_s(self) -> float:
        """Wall time attributed to operators = sum of root-frame totals.

        Equivalently the sum of every frame's *self* time; EXPLAIN
        ANALYZE's accounting invariant checks this against the report's
        ``execute_s``.
        """
        return sum(frame.total_s for frame in self.roots)


def _trace_span(entry: dict) -> dict:
    attrs = {k: v for k, v in entry.items() if k != "op"}
    span = {"name": f"trace:{entry.get('op', '?')}", "attrs": attrs}
    if entry.get("op") in _TIMED_TRACE_OPS:
        span["elapsed_s"] = entry.get("seconds", 0.0)
    return span


def operator_span(frame: OpFrame, trace: list[dict]) -> dict:
    """One operator frame (and its subtree) as a span dict."""
    # Child operators and own trace events, in execution order: a child
    # first pulled at trace position i ran before event i was appended
    # (the sort is stable and children are listed first).
    parts = [(child.trace_begin, operator_span(child, trace))
             for child in frame.children]
    parts += [(index, _trace_span(trace[index])) for index in frame.own_trace]
    parts.sort(key=lambda part: part[0])
    span = {
        "name": frame.op,
        "detail": frame.label,
        "elapsed_s": frame.total_s,
        "self_s": frame.self_s,
        "rows_out": frame.rows_out,
    }
    if frame.pages_read:
        span["pages_read"] = frame.pages_read
    if frame.recycled:
        span["recycled"] = True
    if parts:
        span["children"] = [child for _position, child in parts]
    return span


def span_tree(sql: str, report, profile: QueryProfile,
              trace: list[dict]) -> dict:
    """The whole query as one JSON-serialisable span tree."""
    execute_span: dict = {
        "name": "execute",
        "elapsed_s": report.execute_s,
        "rows_out": report.rows_out,
    }
    if profile.roots:
        execute_span["children"] = [operator_span(frame, trace)
                                    for frame in profile.roots]
    return {
        "name": "query",
        "attrs": {
            "sql": sql,
            "plan_cache_hit": report.plan_cache_hit,
        },
        "elapsed_s": report.total_s,
        "children": [
            {"name": "parse", "elapsed_s": report.parse_s},
            {"name": "bind", "elapsed_s": report.bind_s},
            {"name": "optimize", "elapsed_s": report.optimize_s},
            execute_span,
        ],
    }
