"""Physical operators: one batch generator each, column-at-a-time.

Every operator implements a single hook, :meth:`PhysicalNode.batches` —
a generator of row-batch :class:`Chunk` s.  Streamable operators (scans,
filter, project, limit, distinct, the probe side of a join) pass batches
through as they arrive, so a cursor sees the head of a large result
before the tail exists and a LIMIT stops upstream work early.  Pipeline
breakers (sort, aggregate, a join's build side, a lazy fetch's metadata
input) drain their input with :meth:`PhysicalNode.execute`, which is
nothing but ``concat(batches)`` at an unbounded batch size; a
materialised result is the same stream drained.  Materialised
intermediates still exist where the paper needs them — lazy loading is
"simply caching the result of a view definition (i.e. some of the
intermediate results)" via the recycler, and the recyclable nodes are
exactly those breakers.

:class:`PLazyFetch` is the run-time rewriting operator of §3.1: executing
it runs the metadata sub-plan, asks the lazy binding to inject cache-fetch
or file-extract steps for exactly the qualifying records, then pairs each
metadata row with its record's extracted rows by position (no key join).
Its injected steps are appended to ``ctx.trace`` so the demo can show "the
files containing required actual data" and "the plans generated on the fly".
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.db import expr as ex
from repro.db.column import CODE_DTYPE, Column
from repro.db.plan import logical as lg
from repro.db.types import DataType, common_numeric, is_numeric
from repro.errors import ExecutionError

if TYPE_CHECKING:  # imported lazily at run time to avoid an import cycle
    from repro.db.exec.recycler import Recycler


@dataclass
class Chunk:
    """A materialised intermediate: columns keyed by plan cid."""

    columns: dict[int, Column]
    length: int

    @classmethod
    def empty(cls, schema: list[lg.OutCol]) -> "Chunk":
        return cls(
            columns={c.cid: Column.from_values(c.dtype, []) for c in schema},
            length=0,
        )

    def take(self, indices: np.ndarray) -> "Chunk":
        return Chunk(
            columns={cid: col.take(indices) for cid, col in self.columns.items()},
            length=len(indices),
        )

    def filter(self, mask: np.ndarray) -> "Chunk":
        kept = int(mask.sum())
        return Chunk(
            columns={cid: col.filter(mask) for cid, col in self.columns.items()},
            length=kept,
        )

    def slice(self, start: int, stop: int) -> "Chunk":
        """Rows ``[start, stop)`` as views (the whole range is the chunk
        itself)."""
        if start <= 0 and stop >= self.length:
            return self
        stop = min(stop, self.length)
        return Chunk(
            columns={cid: col.slice(start, stop)
                     for cid, col in self.columns.items()},
            length=max(0, stop - start),
        )

    def memory_bytes(self) -> int:
        return sum(col.memory_bytes() for col in self.columns.values())


@dataclass
class ExecutionContext:
    """Shared run-time state for one query execution."""

    recycler: Optional["Recycler"] = None
    trace: list[dict] = field(default_factory=list)
    rows_extracted: int = 0
    operators_run: int = 0
    # Disk-backed scan I/O: segment pages actually fetched from disk vs
    # pages whose columns the query never touched (lazy I/O savings).
    pages_read: int = 0
    pages_skipped: int = 0
    # Pages of *projected* columns skipped because a zone map proved no
    # row in them could satisfy a scan-level conjunct.
    pages_skipped_zone: int = 0
    # The rowpath reference interpreter turns this off so it stays an
    # honest row-at-a-time baseline (no zone maps, no recycler).
    zone_pruning: bool = True
    # Repository file versions this query's lazy fetches were served
    # under (FileInfo -> the binding that served it, filled by the
    # binding's fetch/scan_all); recycler admissions pin them so a later
    # file change can never be served from a cached intermediate.
    file_deps: dict = field(default_factory=dict)
    # Operator-level profiling (EXPLAIN ANALYZE / span tracing): a
    # repro.obs.tracing.QueryProfile, or None for unprofiled execution.
    profile: Optional[object] = None


DEFAULT_BATCH_ROWS = 4096
"""Row granularity of streamed execution (cursor fetch path)."""

UNBOUNDED_ROWS = sys.maxsize
"""Batch size of a drain (:meth:`PhysicalNode.execute`, the materialised
entry points): every operator hands over its whole output as one batch,
so nothing is sliced and re-concatenated on the way."""


def iter_chunk_slices(chunk: Chunk, batch_rows: int):
    """Split one materialised chunk into row-sliced batches (views)."""
    for start in range(0, chunk.length, batch_rows):
        yield chunk.slice(start, start + batch_rows)


def _distinct_key(value):
    """Hashable per-row key matching factorize semantics (NaNs collapse)."""
    if isinstance(value, float) and value != value:
        return ("<nan>",)
    return value


def _concat_chunks(chunks: list[Chunk], schema: list[lg.OutCol]) -> Chunk:
    """Reassemble streamed batches into one chunk (pipeline breakers)."""
    chunks = [c for c in chunks if c.length]
    if not chunks:
        return Chunk.empty(schema)
    if len(chunks) == 1:
        return chunks[0]
    cids = list(chunks[0].columns)
    return Chunk(
        columns={cid: Column.concat([c.columns[cid] for c in chunks])
                 for cid in cids},
        length=sum(c.length for c in chunks),
    )


class PhysicalNode:
    """Base class for physical operators."""

    def __init__(self, schema: list[lg.OutCol]) -> None:
        self.schema = schema
        # Recyclable nodes carry their *logical* source; the signature is
        # rendered from it per execution (not baked at build time) so the
        # table versions and parameter values it embeds are always
        # current — plans live across many executions in the plan cache.
        self.signature_source: Optional[lg.LogicalNode] = None

    @property
    def signature(self) -> Optional[str]:
        if self.signature_source is None:
            return None
        from repro.db.exec.recycler import signature_of

        return signature_of(self.signature_source)

    def children(self) -> list["PhysicalNode"]:
        return []

    def describe(self) -> str:
        raise NotImplementedError

    def batches(self, ctx: ExecutionContext, batch_rows: int):
        """The operator itself: yield its output as non-empty chunks of at
        most ``batch_rows`` rows.  The one hook subclasses implement; run
        it through :meth:`execute_batches` or :meth:`execute`."""
        raise NotImplementedError

    def execute_batches(self, ctx: ExecutionContext,
                        batch_rows: int = DEFAULT_BATCH_ROWS):
        """Run the operator; returns the iterator of its row batches.

        Everything that applies to every operator happens here, once:
        the ``operators_run`` count, the recycler at signature nodes, and
        profiling when the context carries a profile.
        """
        ctx.operators_run += 1
        if ctx.recycler is not None and self.signature_source is not None:
            stream = self._recycled(ctx, batch_rows)
        else:
            stream = self.batches(ctx, batch_rows)
        if ctx.profile is not None:
            stream = ctx.profile.pulls(self, stream, ctx)
        return stream

    def execute(self, ctx: ExecutionContext) -> Chunk:
        """The operator's whole output as one chunk: ``concat(batches)``.

        What pipeline breakers call on their input.  The drain asks for
        one unbounded batch, so a child that has its output in hand
        passes it up as is.
        """
        return _concat_chunks(list(self.execute_batches(ctx, UNBOUNDED_ROWS)),
                              self.schema)

    def _recycled(self, ctx: ExecutionContext, batch_rows: int):
        """:meth:`batches` behind the recycler: replay a cached result,
        or drain the operator and admit what it produced."""
        signature = self.signature
        cached = ctx.recycler.lookup_validated(signature)
        if cached is not None:
            columns, length, depends = cached
            # Propagate the hit's file dependencies: an enclosing
            # recyclable node must pin them too, or a later admit
            # above this hit would lose the staleness anchor.
            ctx.file_deps.update(depends)
            ctx.trace.append(
                {"op": "recycler_hit", "node": type(self).__name__,
                 "signature": signature[:60]}
            )
            if ctx.profile is not None:
                ctx.profile.mark_recycled()
            # Cached results are positional; re-key to this plan's cids.
            chunk = Chunk(
                columns={c.cid: columns[i]
                         for i, c in enumerate(self.schema)},
                length=length,
            )
        else:
            chunk = _concat_chunks(list(self.batches(ctx, UNBOUNDED_ROWS)),
                                   self.schema)
            ctx.recycler.admit(
                signature,
                [chunk.columns[c.cid] for c in self.schema],
                chunk.length,
                depends=dict(ctx.file_deps) if ctx.file_deps else None,
            )
        yield from iter_chunk_slices(chunk, batch_rows)


# ---------------------------------------------------------------------------
# Join machinery
# ---------------------------------------------------------------------------


_CODE_BOUND_LIMIT = 1 << 62
"""Combined-code headroom: densify before the bound product can wrap."""


def _densify_codes(codes: np.ndarray) -> tuple[np.ndarray, int]:
    """Re-rank sparse non-negative codes densely (order-preserving).

    factorize() may return sparse range-bounds for integer columns;
    chaining several wide-range key columns could overflow int64, so the
    combiner compresses the running codes before that can happen.
    """
    uniques, inverse = np.unique(codes, return_inverse=True)
    return inverse.astype(np.int64), int(uniques.size)


def _combined_codes(columns: list[Column]) -> np.ndarray:
    """Factorize multi-column grouping keys into one int64 code.

    NULL is an ordinary key value here: per column it maps to code 0
    (every non-null code shifts up by one), so ``(NULL, 1)`` and
    ``(NULL, 2)`` stay distinct groups and NULL sorts first within each
    key column — SQL GROUP BY/DISTINCT treat NULLs as equal to each
    other (:func:`join_indices` masks them out: join keys never match).
    """
    if not columns:
        raise ExecutionError("grouping requires at least one key column")
    combined: Optional[np.ndarray] = None
    bound = 1  # max value currently representable in `combined`
    for col in columns:
        codes, count = col.factorize()
        if combined is None:
            combined = codes.astype(np.int64) + 1
            bound = count + 1
        else:
            if bound * (count + 2) >= _CODE_BOUND_LIMIT:
                combined, bound = _densify_codes(combined)
            combined = combined * (count + 2) + (codes + 1)
            bound = bound * (count + 2) + count + 1
    assert combined is not None
    return combined


def _common_typed(left: Column, right: Column) -> list[Column]:
    """Both join key sides at their common numeric type."""
    if left.dtype == right.dtype \
            or not (is_numeric(left.dtype) and is_numeric(right.dtype)):
        return [left, right]
    target = common_numeric(left.dtype, right.dtype)
    return [ex.cast_column(left, target), ex.cast_column(right, target)]


def join_indices(left_keys: list[Column], right_keys: list[Column]
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All matching row pairs for an equi join.

    Returns ``(left_idx, right_idx, left_match_counts)``; NULL keys never
    match.  Both sides are coded in one space by coding their
    concatenation (VARCHAR sides merge their uniques, so only the small
    dictionaries are touched, never the strings per row; a BIGINT and a
    DOUBLE side meet as DOUBLE, so 2.0 matches 2 and 2.5 matches
    nothing).  Vectorised: sort right codes once, binary-search the left
    side, then expand ranges without Python loops.
    """
    merged = [Column.concat(_common_typed(l, r))
              for l, r in zip(left_keys, right_keys)]
    codes = _combined_codes(merged)
    for col in merged:
        if col.valid is not None:
            codes[~col.valid] = -1
    split = len(left_keys[0])
    left_codes, right_codes = codes[:split], codes[split:]
    order = np.argsort(right_codes, kind="stable")
    sorted_right = right_codes[order]
    lo = np.searchsorted(sorted_right, left_codes, side="left")
    hi = np.searchsorted(sorted_right, left_codes, side="right")
    counts = hi - lo
    # NULL keys never match: -1 left codes are masked here, and -1 right
    # codes sort before every valid code so valid probes never reach them.
    counts[left_codes < 0] = 0
    lo[left_codes < 0] = 0
    total = int(counts.sum())
    left_idx = np.repeat(np.arange(len(left_codes)), counts)
    if total:
        starts = np.repeat(np.cumsum(counts) - counts, counts)
        offsets = np.arange(total) - starts
        right_idx = order[np.repeat(lo, counts) + offsets]
    else:
        right_idx = np.zeros(0, dtype=np.int64)
    return left_idx, right_idx, counts


# ---------------------------------------------------------------------------
# Leaf operators
# ---------------------------------------------------------------------------


class PTableScan(PhysicalNode):
    """Scan a base table, materialising only the pruned column set.

    The scan reads one snapshot of the table (a system table samples its
    provider once), so every column and every batch describe one
    instant, whatever mutation or runtime activity runs meanwhile.
    """

    def __init__(self, node: lg.LScan) -> None:
        super().__init__(node.output)
        self.table = node.table
        self.qualified_name = node.qualified_name

    def describe(self) -> str:
        cols = ", ".join(c.name for c in self.schema)
        return f"TableScan {self.qualified_name} [{cols}]"

    def batches(self, ctx: ExecutionContext, batch_rows: int):
        # Row slices: downstream streamable operators (and the cursor)
        # see the first rows before the scan's full output ever exists
        # as one chunk.
        by_name, length = self.table.snapshot_columns()
        yield from iter_chunk_slices(
            Chunk({c.cid: by_name[c.name] for c in self.schema}, length),
            batch_rows)


# -- zone-map page pruning ---------------------------------------------------

_ZONE_DTYPES = (DataType.BIGINT, DataType.DOUBLE, DataType.TIMESTAMP)

# Normalising `constant <cmp> column` to `column <cmp'> constant`.
_PRUNE_FLIP = {"=": "=", "!=": "!=", "<>": "<>",
               "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _prune_constant(node: ex.Expr) -> bool:
    if isinstance(node, (ex.Literal, ex.Param)):
        return True
    # Negative literals parse as unary minus over a literal.
    return (isinstance(node, ex.UnOp) and node.op == "-"
            and isinstance(node.operand, ex.Literal))


def prunable_conjuncts(predicate: ex.Expr,
                       schema: list[lg.OutCol]) -> list[tuple]:
    """``(col, op, value_expr)`` triples a zone map can evaluate.

    Only top-level AND conjuncts of the shape ``column <cmp> constant``
    (plus BETWEEN over constants) qualify, and only for numeric columns
    of the scan.  The filter above keeps the *full* predicate, so this
    extraction may be as partial as it likes — pruning must merely be
    sound, never complete.
    """
    by_cid = {c.cid: c for c in schema if c.dtype in _ZONE_DTYPES}
    out: list[tuple] = []
    stack = [predicate]
    while stack:
        node = stack.pop()
        if isinstance(node, ex.BinOp) and node.op == "and":
            stack.extend((node.left, node.right))
            continue
        if (isinstance(node, ex.Between) and not node.negated
                and isinstance(node.operand, ex.BoundRef)
                and node.operand.cid in by_cid):
            for op, bound in ((">=", node.low), ("<=", node.high)):
                if _prune_constant(bound):
                    out.append((by_cid[node.operand.cid], op, bound))
            continue
        if isinstance(node, ex.BinOp) and node.op in _PRUNE_FLIP:
            left, right, op = node.left, node.right, node.op
            if _prune_constant(left) and isinstance(right, ex.BoundRef):
                left, right, op = right, left, _PRUNE_FLIP[op]
            if (isinstance(left, ex.BoundRef) and left.cid in by_cid
                    and _prune_constant(right)):
                out.append((by_cid[left.cid], op, right))
    return out


def _zone_dead(zone: "tuple | None", op: str, value) -> bool:
    """True when no row of a page with this zone can satisfy the conjunct.

    NULL/NaN constants fail (or yield NULL for) every comparison, so
    they condemn every page; a ``None`` zone means the page holds no
    valid comparable value, so every row fails the conjunct too.
    """
    if value is None or (isinstance(value, float) and value != value):
        return True
    if zone is None:
        return True
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False  # shouldn't happen (dtype-gated), stay sound
    lo, hi = zone
    if op == "=":
        return value < lo or value > hi
    if op in ("!=", "<>"):
        return lo == hi == value
    if op == "<":
        return lo >= value
    if op == "<=":
        return lo > value
    if op == ">":
        return hi <= value
    if op == ">=":
        return hi < value
    return False


class PDiskScan(PTableScan):
    """Scan a disk-backed table, faulting in only the needed columns.

    This is lazy ETL extended into lazy I/O: the table's rows live in a
    compressed segment file, and only the pages of the columns this scan
    projects are read (through the store's buffer pool).  Pages of
    untouched columns never leave disk; the counters surface exactly that
    in EXPLAIN and the query report.

    When the filter directly above holds ``column <cmp> constant``
    conjuncts over numeric columns, the planner pushes them down here as
    ``prune_conjuncts``: pages whose footer zone map proves no row can
    qualify are skipped before decode.  Pruning is optimisation-only —
    the filter retains the full predicate, so an over-conservative (or
    absent) zone map costs nothing but I/O.
    """

    def __init__(self, node: lg.LScan) -> None:
        super().__init__(node)
        # (col, op, value_expr) triples installed by build_physical when
        # a filter sits directly above this scan.
        self.prune_conjuncts: list[tuple] = []

    def describe(self) -> str:
        cols = ", ".join(c.name for c in self.schema)
        backing = self.table.disk_backing
        if backing is not None:
            needed = sum(backing.pages_of(c.name) for c in self.schema)
            total = backing.total_pages()
            pages = f" pages={needed}/{total} (skip {total - needed})"
            pages += self._describe_zones(backing)
        else:  # the table was materialised between compile and describe
            pages = ""
        return f"DiskScan {self.qualified_name} [{cols}]{pages}"

    def _describe_zones(self, backing) -> str:
        if not self.prune_conjuncts:
            return ""
        conjuncts = ", ".join(
            f"{col.name} {op} "
            + (repr(value.value) if isinstance(value, ex.Literal) else "?")
            for col, op, value in self.prune_conjuncts
        )
        try:  # unbound Params make the dead-page count unknowable here
            dead = self._dead_pages(backing)
            n_pages = len(backing.page_row_counts(self.schema[0].name))
            count = f" skip {len(dead)}/{n_pages} pages/col"
        except Exception:
            count = ""
        return f" zone-prune[{conjuncts}]{count}"

    def _dead_pages(self, backing) -> set[int]:
        """Page indices no projected row can come from, per zone maps."""
        dead: set[int] = set()
        for col, op, value_expr in self.prune_conjuncts:
            zones = backing.zone_map(col.name)
            if zones is None:
                continue
            value = value_expr.eval({}, 1).value_at(0)
            for page, zone in enumerate(zones):
                if _zone_dead(zone, op, value):
                    dead.add(page)
        return dead

    def _page_offsets(self, backing) -> "tuple[list[int], list[int]]":
        """(row counts, row start offsets) of this table's page grid.

        Table segments are uniform (every column paginated identically),
        so any column describes the shared layout.
        """
        counts = backing.page_row_counts(self.table.schema.columns[0].name)
        offsets = [0]
        for count in counts:
            offsets.append(offsets[-1] + count)
        return counts, offsets

    @staticmethod
    def _page_runs(counts: list[int], dead: set[int], batch_rows: int):
        """Contiguous runs of live pages, each as many pages as fit in
        ``batch_rows`` rows (but at least one)."""
        run: list[int] = []
        rows = 0
        for page, count in enumerate(counts):
            if run and (page in dead or rows + count > batch_rows):
                yield run
                run, rows = [], 0
            if page not in dead:
                run.append(page)
                rows += count
        if run:
            yield run

    def batches(self, ctx: ExecutionContext, batch_rows: int):
        """Scan page-wise, reading only pages the zone maps could not
        condemn, through a private :class:`IOCounter` (the buffer pool's
        counters are shared by every concurrent query).

        Residency rule: a scan that read *every* page of a column leaves
        that column resident on the table, exactly as faulting it in
        would have.  A zone-pruned or abandoned scan never does — a
        partial column must never become the table's resident copy.
        Columns already resident are sliced to the same pages, so rows
        stay aligned.
        """
        backing = self.table.disk_backing
        if backing is None:
            # Mutated since planning: fall back to the resident columns.
            yield from super().batches(ctx, batch_rows)
            return
        from repro.storage.segment import IOCounter

        dead = (self._dead_pages(backing)
                if ctx.zone_pruning and self.prune_conjuncts else set())
        counts, offsets = self._page_offsets(backing)
        resident = Chunk(
            columns={c.cid: self.table.column(c.name) for c in self.schema
                     if self.table.is_column_resident(c.name)},
            length=backing.row_count,
        )
        faulting = [c for c in self.schema if c.cid not in resident.columns]
        read: list[Chunk] = []  # what an unpruned scan has faulted in so far
        io = IOCounter()
        try:
            for run in self._page_runs(counts, dead, batch_rows):
                start, stop = offsets[run[0]], offsets[run[-1] + 1]
                loaded = Chunk(
                    columns={c.cid: backing.load_column_pages(c.name, run, io)
                             for c in faulting},
                    length=stop - start,
                )
                if not dead:
                    read.append(loaded)
                yield from iter_chunk_slices(
                    Chunk({**resident.slice(start, stop).columns,
                           **loaded.columns}, stop - start),
                    batch_rows)
            # Not if DML detached the backing while a cursor held this
            # scan open: what was read is then a stale snapshot.
            if read and self.table.disk_backing is backing:
                whole = _concat_chunks(read, faulting)
                for c in faulting:
                    self.table.adopt_column(c.name, whole.columns[c.cid])
        finally:
            pages_skipped = backing.total_pages() - sum(
                backing.pages_of(c.name) for c in self.schema)
            zone_skipped = len(dead) * len(faulting)
            ctx.pages_read += io.disk_reads
            ctx.pages_skipped += pages_skipped
            ctx.pages_skipped_zone += zone_skipped
            ctx.trace.append({
                "op": "disk_scan",
                "table": self.qualified_name,
                "columns": [c.name for c in self.schema],
                "pages_read": io.disk_reads,
                "pages_skipped": pages_skipped,
                "pages_skipped_zone": zone_skipped,
                "zone_dead_pages": len(dead),
            })


class PScanAll(PhysicalNode):
    """Extract the entire repository for a lazy table (worst case / NoDB)."""

    def __init__(self, node: lg.LScanAll) -> None:
        super().__init__(node.output)
        self.binding = node.binding
        self.table_name = node.table_name

    def describe(self) -> str:
        cols = ", ".join(c.name for c in self.schema)
        return f"LazyScanAll {self.table_name} [{cols}] (full repository!)"

    def batches(self, ctx: ExecutionContext, batch_rows: int):
        named = self.binding.scan_all([c.name for c in self.schema],
                                      ctx.trace, ctx.file_deps)
        length = len(next(iter(named.values()))) if named else 0
        ctx.rows_extracted += length
        columns = {c.cid: named[c.name] for c in self.schema}
        yield from iter_chunk_slices(Chunk(columns, length), batch_rows)


# ---------------------------------------------------------------------------
# Unary operators
# ---------------------------------------------------------------------------


class PFilter(PhysicalNode):
    def __init__(self, node: lg.LFilter, child: PhysicalNode) -> None:
        super().__init__(node.output)
        self.child = child
        self.predicate = node.predicate

    def children(self) -> list[PhysicalNode]:
        return [self.child]

    def describe(self) -> str:
        return f"Filter {self.predicate!r}"

    def batches(self, ctx: ExecutionContext, batch_rows: int):
        for chunk in self.child.execute_batches(ctx, batch_rows):
            mask = ex.predicate_mask(
                self.predicate.eval(chunk.columns, chunk.length)
            )
            filtered = chunk.filter(mask)
            if filtered.length:
                yield filtered


class PProject(PhysicalNode):
    def __init__(self, node: lg.LProject, child: PhysicalNode) -> None:
        super().__init__(node.output)
        self.child = child
        self.exprs = node.exprs

    def children(self) -> list[PhysicalNode]:
        return [self.child]

    def describe(self) -> str:
        cols = ", ".join(c.name for c in self.schema)
        return f"Project [{cols}]"

    def batches(self, ctx: ExecutionContext, batch_rows: int):
        for chunk in self.child.execute_batches(ctx, batch_rows):
            columns = {}
            for out, expr in zip(self.schema, self.exprs):
                columns[out.cid] = expr.eval(chunk.columns, chunk.length)
            yield Chunk(columns=columns, length=chunk.length)


class PSort(PhysicalNode):
    def __init__(self, node: lg.LSort, child: PhysicalNode) -> None:
        super().__init__(node.output)
        self.child = child
        self.keys = node.keys

    def children(self) -> list[PhysicalNode]:
        return [self.child]

    def describe(self) -> str:
        parts = [f"{k!r} {'ASC' if asc else 'DESC'}" for k, asc in self.keys]
        return f"Sort [{', '.join(parts)}]"

    def _sorted(self, chunk: Chunk) -> Chunk:
        if chunk.length <= 1:
            return chunk
        lexsort_keys: list[np.ndarray] = []
        for key_expr, ascending in self.keys:
            col = key_expr.eval(chunk.columns, chunk.length)
            if col.dtype == DataType.VARCHAR:
                values, _count = col.factorize()
                values = values.astype(np.float64)
            else:
                values = col.values.astype(np.float64)
            if not ascending:
                values = -values
            null_rank = (~col.validity()).astype(np.int8)  # NULLS LAST
            # Within one ORDER BY key the null rank dominates the value.
            lexsort_keys.append(null_rank)
            lexsort_keys.append(values)
        # np.lexsort sorts by the LAST key first; our list is primary-first
        # with (null_rank, values) pairs, so reverse it wholesale.
        order = np.lexsort(tuple(reversed(lexsort_keys)))
        return chunk.take(order)

    def batches(self, ctx: ExecutionContext, batch_rows: int):
        yield from iter_chunk_slices(
            self._sorted(self.child.execute(ctx)), batch_rows)


class PLimit(PhysicalNode):
    def __init__(self, node: lg.LLimit, child: PhysicalNode) -> None:
        super().__init__(node.output)
        self.child = child
        self.limit = node.limit
        self.offset = node.offset

    def children(self) -> list[PhysicalNode]:
        return [self.child]

    def describe(self) -> str:
        return f"Limit {self.limit} OFFSET {self.offset}"

    def batches(self, ctx: ExecutionContext, batch_rows: int):
        # Genuinely lazy LIMIT: stop pulling child batches (and whatever
        # work upstream would have done to produce them) once satisfied.
        to_skip = self.offset
        remaining = self.limit  # None = unbounded
        if remaining is not None and remaining <= 0:
            # LIMIT 0 must not pull (and thus extract) a single child batch.
            return
        for chunk in self.child.execute_batches(ctx, batch_rows):
            if to_skip:
                if chunk.length <= to_skip:
                    to_skip -= chunk.length
                    continue
                chunk = chunk.slice(to_skip, chunk.length)
                to_skip = 0
            if remaining is not None:
                chunk = chunk.slice(0, remaining)
                remaining -= chunk.length
            yield chunk
            if remaining == 0:
                return


class PDistinct(PhysicalNode):
    def __init__(self, node: lg.LDistinct, child: PhysicalNode) -> None:
        super().__init__(node.output)
        self.child = child

    def children(self) -> list[PhysicalNode]:
        return [self.child]

    def describe(self) -> str:
        return "Distinct"

    def _row_keys(self, chunk: Chunk) -> list[tuple]:
        cols = [chunk.columns[c.cid] for c in self.schema]
        return [tuple(_distinct_key(col.value_at(i)) for col in cols)
                for i in range(chunk.length)]

    def batches(self, ctx: ExecutionContext, batch_rows: int):
        # Streaming first-occurrence dedup: each batch is first collapsed
        # vectorised (codes are batch-local), then its handful of
        # survivors is checked against the distinct rows seen so far, so
        # rows come out in order of first global occurrence.  The seen-set
        # is built only when a second batch arrives: a drain's single
        # batch never pays for per-row keys.
        first: Optional[Chunk] = None
        seen: set = set()
        for chunk in self.child.execute_batches(ctx, batch_rows):
            codes = _combined_codes([chunk.columns[c.cid]
                                     for c in self.schema])
            _uniques, first_index = np.unique(codes, return_index=True)
            local = chunk.take(np.sort(first_index))
            if first is None:
                first = local
                yield local
                continue
            if not seen:
                seen.update(self._row_keys(first))
            keys = self._row_keys(local)
            fresh = np.fromiter((key not in seen for key in keys),
                                dtype=bool, count=len(keys))
            seen.update(keys)
            if fresh.all():
                yield local
            elif fresh.any():
                yield local.filter(fresh)


# ---------------------------------------------------------------------------
# Join
# ---------------------------------------------------------------------------


class PJoin(PhysicalNode):
    def __init__(self, node: lg.LJoin, left: PhysicalNode,
                 right: PhysicalNode) -> None:
        super().__init__(node.output)
        self.left = left
        self.right = right
        self.kind = node.kind
        self.left_keys = node.left_keys
        self.right_keys = node.right_keys
        self.residual = node.residual

    def children(self) -> list[PhysicalNode]:
        return [self.left, self.right]

    def describe(self) -> str:
        if self.left_keys:
            keys = ", ".join(f"#{l}=#{r}" for l, r in
                             zip(self.left_keys, self.right_keys))
            base = f"HashJoin[{self.kind}] on {keys}"
        else:
            base = f"NestedJoin[{self.kind}]"
        if self.residual is not None:
            base += f" residual {self.residual!r}"
        return base

    def _probe_batch(self, batch: Chunk, right: Chunk
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Match one left batch against the materialised build side."""
        if self.left_keys:
            left_cols = [batch.columns[cid] for cid in self.left_keys]
            right_cols = [right.columns[cid] for cid in self.right_keys]
            left_idx, right_idx, _counts = join_indices(left_cols, right_cols)
        else:
            # Cross product (kept small by the optimiser in practice).
            left_idx = np.repeat(np.arange(batch.length), right.length)
            right_idx = np.tile(np.arange(right.length), batch.length)
        if self.residual is not None and len(left_idx):
            frame = {}
            for cid, col in batch.columns.items():
                frame[cid] = col.take(left_idx)
            for cid, col in right.columns.items():
                frame[cid] = col.take(right_idx)
            mask = ex.predicate_mask(
                self.residual.eval(frame, len(left_idx))
            )
            left_idx = left_idx[mask]
            right_idx = right_idx[mask]
        return left_idx, right_idx

    def batches(self, ctx: ExecutionContext, batch_rows: int):
        # Streamed hash join: materialise the (metadata-sized) build side
        # once, probe with each left batch as it arrives.  Inner/cross
        # matches flow straight through; a left join holds back only its
        # unmatched rows, emitting the NULL-padded tail last (matched
        # bitmaps are taken after the residual).
        right = self.right.execute(ctx)
        unmatched: list[Chunk] = []
        for batch in self.left.execute_batches(ctx, batch_rows):
            left_idx, right_idx = self._probe_batch(batch, right)
            if self.kind == "left":
                matched = np.zeros(batch.length, dtype=bool)
                if len(left_idx):
                    matched[left_idx] = True
                if not matched.all():
                    unmatched.append(batch.filter(~matched))
            if not len(left_idx):
                continue
            columns = {cid: col.take(left_idx)
                       for cid, col in batch.columns.items()}
            for cid, col in right.columns.items():
                columns[cid] = col.take(right_idx)
            yield from iter_chunk_slices(
                Chunk(columns=columns, length=len(left_idx)), batch_rows)
        if self.kind == "left" and unmatched:
            tail = _concat_chunks(unmatched, self.left.schema)
            columns = dict(tail.columns)
            for cid, col in right.columns.items():
                columns[cid] = Column.nulls(col.dtype, tail.length)
            yield from iter_chunk_slices(
                Chunk(columns=columns, length=tail.length), batch_rows)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


_MIN_SENTINELS = {
    DataType.BIGINT: np.iinfo(np.int64).max,
    DataType.TIMESTAMP: np.iinfo(np.int64).max,
    DataType.DOUBLE: np.inf,
    DataType.BOOLEAN: True,
}
_MAX_SENTINELS = {
    DataType.BIGINT: np.iinfo(np.int64).min,
    DataType.TIMESTAMP: np.iinfo(np.int64).min,
    DataType.DOUBLE: -np.inf,
    DataType.BOOLEAN: False,
}


class PAggregate(PhysicalNode):
    def __init__(self, node: lg.LAggregate, child: PhysicalNode) -> None:
        super().__init__(node.output)
        self.child = child
        self.group_exprs = node.group_exprs
        self.aggregates = node.aggregates
        self.group_cols = node.output[: len(node.group_exprs)]
        self.agg_cols = node.output[len(node.group_exprs):]

    def children(self) -> list[PhysicalNode]:
        return [self.child]

    def describe(self) -> str:
        groups = ", ".join(repr(g) for g in self.group_exprs) or "<global>"
        aggs = ", ".join(repr(a) for a in self.aggregates)
        return f"Aggregate groups=[{groups}] aggs=[{aggs}]"

    def batches(self, ctx: ExecutionContext, batch_rows: int):
        # A pipeline breaker: float reductions are order-sensitive, so the
        # kernels run once over the whole drained input.
        yield from iter_chunk_slices(
            self._aggregate_chunk(self.child.execute(ctx)), batch_rows)

    def _aggregate_chunk(self, chunk: Chunk) -> Chunk:
        length = chunk.length

        if not self.group_exprs and length == 0:
            # Global aggregate over empty input: one row, COUNT()=0, rest NULL.
            return Chunk(columns={
                out.cid: Column.from_values(DataType.BIGINT, [0])
                if agg.name == "count" else Column.nulls(out.dtype, 1)
                for out, agg in zip(self.agg_cols, self.aggregates)}, length=1)

        group_values = [g.eval(chunk.columns, length) for g in self.group_exprs]
        if group_values:
            groups = _Groups.of(_combined_codes(group_values))
        else:
            # Global aggregate: one group containing every row, in order.
            groups = _Groups(np.zeros(length, dtype=np.int64), None,
                             np.array([length]))

        first = groups.first_rows()
        columns = {out.cid: group_col.take(first)
                   for out, group_col in zip(self.group_cols, group_values)}
        # Aggregates over one argument (MIN, MAX and AVG of a column)
        # evaluate it, and gather it into group order, once.
        shared: list[tuple[ex.Expr, _Argument]] = []
        for out, agg in zip(self.agg_cols, self.aggregates):
            argument = next((a for arg, a in shared
                             if arg == agg.arg and not agg.distinct), None)
            if argument is None and agg.arg is not None:
                argument = _Argument(agg.arg.eval(chunk.columns, length), groups)
                if agg.distinct:
                    argument = argument.distinct()
                else:
                    shared.append((agg.arg, argument))
            columns[out.cid] = self._compute_aggregate(
                agg, out.dtype, groups, argument)
        return Chunk(columns=columns, length=len(groups.sizes))

    def _compute_aggregate(self, agg: ex.AggCall, dtype: DataType,
                           groups: "_Groups",
                           argument: Optional["_Argument"]) -> Column:
        if argument is None:  # COUNT(*)
            return Column(DataType.BIGINT, groups.sizes)
        col, valid, groups = argument.col, argument.valid, argument.groups
        starts = groups.starts
        counts_valid = argument.counts_valid
        empty_groups = counts_valid == 0
        nulls = None if not empty_groups.any() else ~empty_groups

        if agg.name == "count":
            return Column(DataType.BIGINT, counts_valid)

        if agg.name in ("min", "max"):
            reducer = np.minimum if agg.name == "min" else np.maximum
            if col.dtype != DataType.VARCHAR:
                sentinels = (_MIN_SENTINELS if agg.name == "min"
                             else _MAX_SENTINELS)
                best = reducer.reduceat(
                    argument.floats(float(sentinels[col.dtype])), starts)
                return Column.from_numpy(dtype, best, nulls)
            # Codes are in string order: reduce them, keep the uniques.
            sentinel = len(col.uniques) if agg.name == "min" else -1
            best = reducer.reduceat(
                groups.ordered(np.where(valid, col.values, sentinel)), starts)
            best[empty_groups] = 0  # NULL groups: the code is never read
            return Column(DataType.VARCHAR, best.astype(CODE_DTYPE), nulls,
                          col.uniques)

        ordered = argument.floats(0.0)
        sums = np.add.reduceat(ordered, starts)
        if agg.name == "sum":
            return Column.from_numpy(dtype, sums, nulls)
        if agg.name == "avg":
            with np.errstate(invalid="ignore", divide="ignore"):
                means = sums / np.where(counts_valid == 0, 1, counts_valid)
            return Column.from_numpy(DataType.DOUBLE, means, nulls)
        if agg.name == "stddev_samp":
            sq = np.add.reduceat(ordered * ordered, starts)
            n = counts_valid.astype(np.float64)
            with np.errstate(invalid="ignore", divide="ignore"):
                variance = (sq - sums * sums / np.where(n == 0, 1, n)) / \
                    np.where(n <= 1, 1, n - 1)
                variance = np.maximum(variance, 0.0)
                result = np.sqrt(variance)
            bad = counts_valid <= 1
            return Column.from_numpy(DataType.DOUBLE, result,
                                     None if not bad.any() else ~bad)
        if agg.name == "median":
            ordered_vals = groups.ordered(col.values.astype(np.float64))
            ordered_ok = groups.ordered(valid)
            bounds = list(starts) + [len(valid)]
            medians = np.zeros(len(starts), dtype=np.float64)
            for g in range(len(starts)):
                seg = ordered_vals[bounds[g]:bounds[g + 1]]
                seg = seg[ordered_ok[bounds[g]:bounds[g + 1]]]
                medians[g] = np.median(seg) if len(seg) else 0.0
            return Column.from_numpy(dtype, medians, nulls)
        raise ExecutionError(f"unknown aggregate {agg.name}")


class _Groups:
    """Rows grouped by key: dense group ids in key order (``inverse``),
    the stable permutation listing rows group by group (``order``,
    ``None`` when they already are), and each group's size and first
    position in that order (``sizes``, ``starts``)."""

    def __init__(self, inverse: np.ndarray, order: Optional[np.ndarray],
                 sizes: np.ndarray) -> None:
        self.inverse, self.order, self.sizes = inverse, order, sizes
        self.starts = np.cumsum(sizes) - sizes

    @classmethod
    def of(cls, codes: np.ndarray) -> "_Groups":
        """Group rows by non-negative, key-ordered combined codes: one
        counting pass, after densifying codes sparse next to the rows."""
        bound = int(codes.max()) + 1 if len(codes) else 0
        if bound > 2 * len(codes):
            codes, bound = _densify_codes(codes)
        sizes = np.bincount(codes, minlength=bound)
        codes = (np.cumsum(sizes > 0) - 1)[codes]  # rank among used codes
        sizes = sizes[sizes > 0]
        order = None
        if not (codes[1:] >= codes[:-1]).all():
            # Stable argsort gives one permutation whatever the dtype;
            # the narrow ones sort by radix.
            narrow = (np.uint8 if len(sizes) <= 1 << 8 else
                      np.uint16 if len(sizes) <= 1 << 16 else np.int64)
            order = np.argsort(codes.astype(narrow), kind="stable")
        return cls(codes, order, sizes)

    def ordered(self, array: np.ndarray) -> np.ndarray:
        """``array``'s rows in group order."""
        return array if self.order is None else array[self.order]

    def first_rows(self) -> np.ndarray:
        return self.starts if self.order is None else self.order[self.starts]


class _Argument:
    """One aggregate argument, evaluated once: its non-NULL count per
    group, and (on first use) its values as float64 in group order."""

    def __init__(self, col: Column, groups: _Groups) -> None:
        self.col, self.groups = col, groups
        self.valid = col.validity()
        self.counts_valid = groups.sizes if col.valid is None else \
            np.add.reduceat(groups.ordered(self.valid).astype(np.int64),
                            groups.starts)
        self._floats: dict[Optional[float], np.ndarray] = {}

    def distinct(self) -> "_Argument":
        """The argument cut to each group's first row per distinct value,
        the rows a DISTINCT aggregate reads."""
        col, valid, groups = self.col, self.valid, self.groups
        value_codes, _n = col.factorize()
        pair = groups.inverse * (np.int64(value_codes.max(initial=0)) + 2) \
            + value_codes
        _uniq, keep_first = np.unique(np.where(valid, pair, -1),
                                      return_index=True)
        sel = np.zeros(len(col), dtype=bool)
        sel[keep_first] = True
        sel &= valid
        # A group of only NULLs keeps one NULL row, so every group keeps
        # a reduceat start; it counts 0 and aggregates to NULL.
        members = np.bincount(groups.inverse[sel], minlength=len(groups.sizes))
        sel[groups.first_rows()[members == 0]] = True
        subset = np.flatnonzero(sel)
        return _Argument(col.take(subset), _Groups.of(groups.inverse[subset]))

    def floats(self, fill: float) -> np.ndarray:
        """The values as float64 in group order, NULLs as ``fill``."""
        key = None if self.col.valid is None else fill  # no NULL to fill
        if key not in self._floats:
            values = self.col.values.astype(np.float64)
            if key is not None:
                values = np.where(self.valid, values, fill)
            self._floats[key] = self.groups.ordered(values)
        return self._floats[key]


# ---------------------------------------------------------------------------
# The run-time rewriting operator (§3.1)
# ---------------------------------------------------------------------------


class PLazyFetch(PhysicalNode):
    def __init__(self, node: lg.LLazyFetch, meta: PhysicalNode) -> None:
        super().__init__(node.output)
        self.meta = meta
        self.node = node

    def children(self) -> list[PhysicalNode]:
        return [self.meta]

    def describe(self) -> str:
        lo, hi = self.node.time_bounds
        bounds = ""
        if lo is not None or hi is not None:
            bounds = f" time_bounds=[{lo}, {hi}]"
        res = f" residuals={len(self.node.residuals)}" if self.node.residuals else ""
        # Promotion state is live (rendered per EXPLAIN, not baked at
        # compile time): how many units would be served eagerly today.
        promoted = getattr(self.node.binding, "promoted", None)
        hot = (f" promoted_units={len(promoted)}"
               if promoted is not None and len(promoted) else "")
        return (
            f"LazyFetch {self.node.table_name} "
            f"keys={list(self.node.binding.key_columns)} "
            f"cols={self.node.needed}{bounds}{res}{hot} "
            "(run-time rewrite point)"
        )

    def _resolve_time_bounds(self) -> tuple[Optional[int], Optional[int]]:
        """Static bounds tightened by parameter-valued ones.

        Dynamic bounds come from prepared-statement placeholders on the
        range column; their values are read per execution (the matching
        predicates also remain in ``residuals``, so pruning here is an
        optimisation, never a semantic change).
        """
        node = self.node
        lo, hi = node.time_bounds
        for op, expr in node.dynamic_bounds:
            value = expr.eval({}, 1).value_at(0)
            if value is None:
                continue  # NULL bound prunes nothing; residuals decide
            value = int(value)
            if op in (">", ">="):
                lo = value if lo is None else max(lo, value)
            else:
                hi = value if hi is None else min(hi, value)
        return (lo, hi)

    def batches(self, ctx: ExecutionContext, batch_rows: int):
        meta_chunk = self.meta.execute(ctx)
        node = self.node

        if meta_chunk.length == 0:
            ctx.trace.append({"op": "rewrite", "table": node.table_name,
                              "files": 0, "note": "metadata selected nothing"})
            return

        keys = {name: meta_chunk.columns[cid] for name, cid
                in zip(node.binding.key_columns, node.meta_key_cids)}
        time_bounds = self._resolve_time_bounds()
        ctx.trace.append({
            "op": "rewrite",
            "table": node.table_name,
            "meta_rows": meta_chunk.length,
            "needed": list(node.needed),
            "time_bounds": time_bounds,
        })
        fetched = node.binding.fetch(keys, list(node.needed), time_bounds,
                                     ctx.trace, ctx.file_deps)
        run_lengths = fetched.run_lengths
        name_to_cid = {c.name: c.cid for c in node.lazy_output}
        lazy_chunk = Chunk(columns={name_to_cid[n]: col
                                    for n, col in fetched.columns.items()},
                           length=int(run_lengths.sum()))
        ctx.rows_extracted += lazy_chunk.length

        # Record/value-level residual predicates (e.g. sample_time windows)
        # run on the extracted rows first; each pair keeps its survivors.
        if node.residuals:
            pair_of = np.repeat(np.arange(len(run_lengths)), run_lengths)
            for residual in node.residuals:
                if lazy_chunk.length == 0:
                    break
                mask = ex.predicate_mask(
                    residual.eval(lazy_chunk.columns, lazy_chunk.length))
                lazy_chunk = lazy_chunk.filter(mask)
                pair_of = pair_of[mask]
            run_lengths = np.bincount(pair_of, minlength=len(run_lengths))

        # Pair by position: metadata row i gets its pair's run of data
        # rows, in data order — a key join's output, without the join.  A
        # row naming no pair (-1) gets the empty run appended last.
        lengths = np.append(run_lengths, 0)
        counts = lengths[fetched.pair_of_row]
        first = (np.cumsum(lengths) - lengths)[fetched.pair_of_row]
        shift = np.cumsum(counts) - counts - first  # output start - data start
        total = int(counts.sum())
        left_idx = np.repeat(np.arange(meta_chunk.length), counts)
        right_idx = None  # every run once, in data order: no gather
        if total != lazy_chunk.length or shift[counts > 0].any():
            right_idx = np.arange(total) - np.repeat(shift, counts)

        columns: dict[int, Column] = {}
        for out in self.schema:
            if out.cid in meta_chunk.columns:
                columns[out.cid] = meta_chunk.columns[out.cid].take(left_idx)
            else:
                col = lazy_chunk.columns[out.cid]
                columns[out.cid] = col if right_idx is None else col.take(right_idx)
        yield from iter_chunk_slices(Chunk(columns=columns, length=total),
                                     batch_rows)


# ---------------------------------------------------------------------------
# Physical plan construction
# ---------------------------------------------------------------------------


def build_physical(node: lg.LogicalNode,
                   recycler: Optional["Recycler"] = None) -> PhysicalNode:
    """Translate a logical plan 1:1 into physical operators.

    When a recycler with a budget is supplied, recyclable nodes
    (aggregates and lazy fetches — the expensive materialisation points)
    get a stable signature so their results can be reused across
    queries, unless they sit above a full-repository scan (see
    :func:`_recyclable`).  Signatures are
    rendered per execution (see :attr:`PhysicalNode.signature`), so
    fragments containing prepared-statement parameters embed the
    *currently bound values*: identical re-executions recycle, different
    bindings can never share an entry.
    """
    if isinstance(node, lg.LScan):
        if getattr(node.table, "disk_backing", None) is not None:
            return PDiskScan(node)
        return PTableScan(node)
    if isinstance(node, lg.LScanAll):
        return PScanAll(node)
    if isinstance(node, lg.LFilter):
        child = build_physical(node.child, recycler)
        if isinstance(child, PDiskScan):
            # Push zone-map prunable conjuncts into the scan.  The
            # filter keeps the full predicate: pruning stays
            # optimisation-only.
            child.prune_conjuncts = prunable_conjuncts(
                node.predicate, child.schema)
        return PFilter(node, child)
    if isinstance(node, lg.LProject):
        return PProject(node, build_physical(node.child, recycler))
    if isinstance(node, lg.LSort):
        return PSort(node, build_physical(node.child, recycler))
    if isinstance(node, lg.LLimit):
        return PLimit(node, build_physical(node.child, recycler))
    if isinstance(node, lg.LDistinct):
        return PDistinct(node, build_physical(node.child, recycler))
    if isinstance(node, lg.LJoin):
        return PJoin(node, build_physical(node.left, recycler),
                     build_physical(node.right, recycler))
    if isinstance(node, lg.LAggregate):
        physical = PAggregate(node, build_physical(node.child, recycler))
    elif isinstance(node, lg.LLazyFetch):
        physical = PLazyFetch(node, build_physical(node.meta, recycler))
    else:
        raise ExecutionError(
            f"no physical operator for {type(node).__name__}")
    if recycler is not None and recycler.enabled and _recyclable(node):
        physical.signature_source = node
    return physical


def _recyclable(node: lg.LogicalNode) -> bool:
    """Whether a result can be kept fresh by its signature and pins.  A
    full-repository scan cannot: a file added after admission is
    invisible to pins, so nothing above one is recycled."""
    return not isinstance(node, lg.LScanAll) and all(
        _recyclable(child) for child in node.children())
