"""Intermediate-result recycling — the paper's lazy-loading substrate.

Reimplementation of the mechanism of Ivanova et al. (SIGMOD'09) that the
paper reuses: expensive intermediates (aggregates, lazy-fetch outputs,
i.e. "the result of a view definition") are cached under a *semantic
signature* of the plan fragment that produced them, with

* an **LRU policy** (the paper's stated choice),
* a **byte budget** ("we adjust the cache size ... not larger than the
  size of system's main memory"),
* **freshness from the sources, not from the caches**: a signature
  embeds every base table's version counter (the metadata tables a lazy
  fetch joins against included), and an entry derived from repository
  files pins the ``FileInfo`` of each one, re-checked on every hit.  Any
  update to the warehouse or the file repository therefore invalidates
  dependent entries — the engine-side half of lazy refresh (§3.3) —
  while extraction-cache traffic (admissions, evictions, ``clear``)
  leaves a recycled result reachable, because it changes no source.
  A full-repository scan (``LScanAll``) is never recycled: a file added
  after admission is invisible to pins.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from repro.db import expr as ex
from repro.db.column import Column
from repro.db.plan import logical as lg
from repro.errors import ExecutionError


@dataclass
class RecyclerEntry:
    columns: list[Column]
    length: int
    nbytes: int
    hits: int = 0
    # Repository file versions the cached result was derived from, as
    # ``FileInfo -> the lazy binding that served under it``.  Validated
    # on every lookup: the signature's table versions cover the metadata,
    # these pins cover the bytes of the files it selected.
    depends: Optional[dict] = None


@dataclass
class RecyclerStats:
    lookups: int = 0
    hits: int = 0
    admissions: int = 0
    evictions: int = 0
    rejected: int = 0
    stale_drops: int = 0  # entries dropped by source-file validation

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class Recycler:
    """Bounded cache of materialised intermediates.

    A budget of 0 recycles nothing: :meth:`admit` rejects every result,
    an empty one included, and plans get no signature nodes at all.
    """

    def __init__(self, budget_bytes: int = 64 * 1024 * 1024) -> None:
        self.budget_bytes = budget_bytes
        self._entries: "OrderedDict[str, RecyclerEntry]" = OrderedDict()
        self._bytes = 0
        # Shared by every session of a concurrent query service; columns
        # are immutable once admitted, so a lock around the map suffices.
        self._lock = threading.RLock()
        self.stats = RecyclerStats()

    # -- core ------------------------------------------------------------------

    def lookup_validated(self, signature: str
                         ) -> Optional[tuple[list[Column], int, dict]]:
        """Lookup plus source-file freshness validation.

        Lazy-fetch-derived entries record the ``FileInfo`` of every
        repository file they were computed from; a hit asks the binding
        whether each is still current (one stat per file, proportional
        to the query's file set) and a changed — or vanished — file
        drops the entry and reports a miss, forcing re-extraction
        through the staleness-aware path.
        """
        with self._lock:
            self.stats.lookups += 1
            entry = self._entries.get(signature)
            if entry is None:
                return None
            depends = dict(entry.depends) if entry.depends else None
        # Stat the source files OUTSIDE the lock: one slow stat must not
        # stall every other session's recycler traffic.
        if not self._depends_fresh(depends):
            with self._lock:
                if self._entries.get(signature) is entry:
                    self._entries.pop(signature)
                    self._bytes -= entry.nbytes
                    self.stats.stale_drops += 1
            return None
        with self._lock:
            if self._entries.get(signature) is not entry:
                return None  # replaced/evicted while validating: miss
            self.stats.hits += 1
            entry.hits += 1
            self._entries.move_to_end(signature)
            return entry.columns, entry.length, entry.depends or {}

    @staticmethod
    def _depends_fresh(depends: Optional[dict]) -> bool:
        return all(binding.is_current(info)
                   for info, binding in (depends or {}).items())

    def admit(self, signature: str, columns: list[Column], length: int,
              *, depends: Optional[dict] = None) -> bool:
        nbytes = sum(col.memory_bytes() for col in columns)
        with self._lock:
            if not self.enabled or nbytes > self.budget_bytes:
                self.stats.rejected += 1
                return False
            if signature in self._entries:
                old = self._entries.pop(signature)
                self._bytes -= old.nbytes
            self._entries[signature] = RecyclerEntry(
                columns=columns, length=length, nbytes=nbytes,
                depends=depends,
            )
            self._bytes += nbytes
            self.stats.admissions += 1
            self._evict_to_budget()
            return True

    def _evict_to_budget(self) -> None:
        while self._bytes > self.budget_bytes and self._entries:
            # OrderedDict front = least recently used (hits move to the end).
            _, entry = self._entries.popitem(last=False)
            self._bytes -= entry.nbytes
            self.stats.evictions += 1

    @property
    def enabled(self) -> bool:
        return self.budget_bytes > 0

    # -- maintenance ---------------------------------------------------------------

    def invalidate_all(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def invalidate_matching(self, fragment: str) -> int:
        """Drop entries whose signature mentions ``fragment``."""
        with self._lock:
            doomed = [sig for sig in self._entries if fragment in sig]
            for sig in doomed:
                entry = self._entries.pop(sig)
                self._bytes -= entry.nbytes
            return len(doomed)

    @property
    def used_bytes(self) -> int:
        return self._bytes

    def __len__(self) -> int:
        return len(self._entries)

    def contents(self) -> list[tuple[str, int, int]]:
        """(signature, rows, bytes) per entry — demo capability (7)."""
        with self._lock:
            return [
                (sig, entry.length, entry.nbytes)
                for sig, entry in self._entries.items()
            ]


# ---------------------------------------------------------------------------
# Plan-fragment signatures
# ---------------------------------------------------------------------------


def signature_of(node: lg.LogicalNode) -> str:
    """A stable, cid-independent signature of a logical subtree.

    Column ids are compile-specific, so two compilations of the same SQL
    produce different cids; signatures therefore rename every cid to a
    positional token rooted at the scans (``s0.station``), projections and
    aggregates.  Base-table versions are embedded so data changes
    invalidate dependants; a lazy fetch's source files are pinned at
    admission instead (see :class:`RecyclerEntry`).  A subtree holding an
    ``LScanAll`` has no signature (:func:`~repro.db.plan.physical.
    build_physical` never asks for one).
    """
    env: dict[int, str] = {}
    counter = {"scan": 0, "proj": 0, "agg": 0, "fetch": 0}

    def render_expr(expr: ex.Expr) -> str:
        if isinstance(expr, ex.BoundRef):
            return env.get(expr.cid, f"?{expr.cid}")
        if isinstance(expr, ex.Literal):
            return f"lit({expr.value!r}:{expr.dtype})"
        if isinstance(expr, ex.Param):
            # Signatures are rendered per execution, when the binding's
            # values are active: embed the value so equal re-executions
            # recycle and different bindings never share an entry.  The
            # unbound form only appears outside execution (EXPLAIN) and
            # is never used for admission or lookup.
            values = ex.current_param_values()
            if values is None or expr.slot not in values:
                return f"param({expr.slot}:<unbound>)"
            return f"param({expr.slot}={values[expr.slot]!r}:{expr.dtype})"
        if isinstance(expr, ex.BinOp):
            return f"({render_expr(expr.left)}{expr.op}{render_expr(expr.right)})"
        if isinstance(expr, ex.UnOp):
            return f"{expr.op}({render_expr(expr.operand)})"
        if isinstance(expr, ex.FuncCall):
            args = ",".join(render_expr(a) for a in expr.args)
            return f"{expr.name}({args})"
        if isinstance(expr, ex.AggCall):
            inner = "*" if expr.arg is None else render_expr(expr.arg)
            distinct = "distinct " if expr.distinct else ""
            return f"{expr.name}({distinct}{inner})"
        if isinstance(expr, ex.Between):
            return (
                f"between({render_expr(expr.operand)},{render_expr(expr.low)},"
                f"{render_expr(expr.high)},{expr.negated})"
            )
        if isinstance(expr, ex.InList):
            items = ",".join(render_expr(i) for i in expr.items)
            return f"in({render_expr(expr.operand)},[{items}],{expr.negated})"
        if isinstance(expr, ex.IsNull):
            return f"isnull({render_expr(expr.operand)},{expr.negated})"
        if isinstance(expr, ex.Like):
            return f"like({render_expr(expr.operand)},{expr.pattern!r},{expr.negated})"
        if isinstance(expr, ex.Cast):
            return f"cast({render_expr(expr.operand)},{expr.target})"
        if isinstance(expr, ex.Case):
            whens = ";".join(
                f"{render_expr(c)}->{render_expr(v)}" for c, v in expr.whens
            )
            default = "" if expr.default is None else render_expr(expr.default)
            return f"case({whens}|{default})"
        return repr(expr)

    def walk(node: lg.LogicalNode) -> str:
        if isinstance(node, lg.LScan):
            tag = f"s{counter['scan']}"
            counter["scan"] += 1
            for col in node.output:
                env[col.cid] = f"{tag}.{col.name}"
            cols = ",".join(c.name for c in node.output)
            return f"scan({node.qualified_name}@v{node.table.version}:[{cols}])"
        if isinstance(node, lg.LFilter):
            child = walk(node.child)
            return f"filter({render_expr(node.predicate)},{child})"
        if isinstance(node, lg.LProject):
            child = walk(node.child)
            tag = f"p{counter['proj']}"
            counter["proj"] += 1
            rendered = []
            for out, expr in zip(node.output, node.exprs):
                rendered.append(render_expr(expr))
                env[out.cid] = f"{tag}.{out.name}"
            return f"project([{','.join(rendered)}],{child})"
        if isinstance(node, lg.LJoin):
            left = walk(node.left)
            right = walk(node.right)
            keys = ",".join(
                f"{env.get(l, l)}={env.get(r, r)}"
                for l, r in zip(node.left_keys, node.right_keys)
            )
            residual = "" if node.residual is None else render_expr(node.residual)
            return f"join({node.kind},[{keys}],{residual},{left},{right})"
        if isinstance(node, lg.LAggregate):
            child = walk(node.child)
            groups = ",".join(render_expr(g) for g in node.group_exprs)
            aggs = ",".join(render_expr(a) for a in node.aggregates)
            tag = f"a{counter['agg']}"
            counter["agg"] += 1
            for out in node.output:
                env[out.cid] = f"{tag}.{out.name}"
            return f"agg([{groups}],[{aggs}],{child})"
        if isinstance(node, lg.LSort):
            child = walk(node.child)
            keys = ",".join(
                f"{render_expr(k)}:{'a' if asc else 'd'}" for k, asc in node.keys
            )
            return f"sort([{keys}],{child})"
        if isinstance(node, lg.LLimit):
            return f"limit({node.limit},{node.offset},{walk(node.child)})"
        if isinstance(node, lg.LDistinct):
            return f"distinct({walk(node.child)})"
        if isinstance(node, lg.LLazyFetch):
            meta = walk(node.meta)
            tag = f"z{counter['fetch']}"
            counter["fetch"] += 1
            for col in node.lazy_output:
                env[col.cid] = f"{tag}.{col.name}"
            keys = ",".join(env.get(c, str(c)) for c in node.meta_key_cids)
            # The output is what the parent reads, not a function of the
            # inputs: results are positional, so it is part of the key.
            out = ",".join(env.get(c.cid, str(c.cid)) for c in node.output)
            residuals = ";".join(render_expr(r) for r in node.residuals)
            return (
                f"lazyfetch({node.table_name},keys=[{keys}],out=[{out}],"
                f"need=[{','.join(node.needed)}],res=[{residuals}],"
                f"bounds={node.time_bounds},{meta})"
            )
        raise ExecutionError(f"cannot sign {type(node).__name__}")

    try:
        return walk(node)
    finally:
        # Both helpers recurse through their own closure cells: a
        # reference cycle per signature, left to the cyclic collector.
        # Emptying the cells frees them here, so a warm query leaves no
        # garbage behind.
        del render_expr, walk
