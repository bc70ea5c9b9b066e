"""Logical-plan optimisation.

Four passes run in order, two of them generic and two embodying the
paper's compile-time plan modification for lazy extraction (§3.1):

1. **Predicate pushdown** — WHERE conjuncts sink to the lowest node whose
   output covers their columns.  This is what "reorganises the plan so the
   selection predicates on the metadata are applied first".
2. **Join reordering** — chains of inner/cross joins are rebuilt left-deep
   with the *metadata* (non-lazy) tables joined first and lazily-bound
   tables forced last; equi-join keys are recognised from conjuncts.
3. **Lazy-fetch planting** — a join between a metadata sub-plan and a
   lazily-bound table becomes :class:`LLazyFetch`, the compile-time
   placeholder whose execution performs the *run-time* plan rewriting
   (injecting per-file cache/extract operators).  A lazy table reached
   without usable metadata keys degrades to :class:`LScanAll` — the
   paper's worst case, a full-repository extraction.
4. **Column pruning** — scans and lazy fetches materialise only the
   columns the query needs (so Figure-1's Q2 never extracts timestamps).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.db import expr as ex
from repro.db.plan.logical import (
    LAggregate,
    LDistinct,
    LFilter,
    LJoin,
    LLazyFetch,
    LLimit,
    LogicalNode,
    LProject,
    LScan,
    LScanAll,
    LSort,
)
from repro.db.types import DataType
from repro.errors import BindError


# ---------------------------------------------------------------------------
# Conjunct utilities
# ---------------------------------------------------------------------------


def split_conjuncts(expr: ex.Expr) -> list[ex.Expr]:
    """Flatten an AND tree into its conjuncts."""
    if isinstance(expr, ex.BinOp) and expr.op == "and":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def and_together(conjuncts: list[ex.Expr]) -> Optional[ex.Expr]:
    """Rebuild an AND tree (``None`` for the empty list)."""
    if not conjuncts:
        return None
    result = conjuncts[0]
    for nxt in conjuncts[1:]:
        node = ex.BinOp(op="and", left=result, right=nxt)
        node.dtype = DataType.BOOLEAN
        result = node
    return result


def _equi_pair(conjunct: ex.Expr) -> Optional[tuple[int, int]]:
    """Return the two cids of a simple ``col = col`` conjunct."""
    if (isinstance(conjunct, ex.BinOp) and conjunct.op == "="
            and isinstance(conjunct.left, ex.BoundRef)
            and isinstance(conjunct.right, ex.BoundRef)):
        return conjunct.left.cid, conjunct.right.cid
    return None


# ---------------------------------------------------------------------------
# Pass 1: predicate pushdown
# ---------------------------------------------------------------------------


def push_down_filters(node: LogicalNode) -> LogicalNode:
    """Sink filter conjuncts as deep as their column references allow."""
    return _pushdown(node, [])


def _pushdown(node: LogicalNode, pending: list[ex.Expr]) -> LogicalNode:
    if isinstance(node, LFilter):
        conjuncts = split_conjuncts(node.predicate)
        return _pushdown(node.child, pending + conjuncts)

    if isinstance(node, LJoin):
        if node.residual is not None and node.kind in ("inner", "cross"):
            pending = pending + split_conjuncts(node.residual)
            node.residual = None
            if node.kind == "cross":
                node.kind = "inner"
        left_cids = node.left.output_cids()
        right_cids = node.right.output_cids()
        to_left: list[ex.Expr] = []
        to_right: list[ex.Expr] = []
        stay: list[ex.Expr] = []
        for conjunct in pending:
            refs = conjunct.referenced_cids()
            if refs and refs <= left_cids:
                to_left.append(conjunct)
            elif refs and refs <= right_cids and node.kind != "left":
                # Pushing below the NULL-padding side of a LEFT join would
                # change semantics; keep those at the join.
                to_right.append(conjunct)
            else:
                stay.append(conjunct)
        node.left = _pushdown(node.left, to_left)
        node.right = _pushdown(node.right, to_right)
        node.output = node.left.output + node.right.output
        if node.kind == "left":
            # residual conjuncts above a LEFT join must stay as a filter.
            node.residual = node.residual
            return _wrap_filter(node, stay)
        node.residual = and_together(stay) if stay else None
        if node.residual is not None and node.kind == "cross":
            node.kind = "inner"
        return node

    if isinstance(node, LProject):
        # A conjunct can sink below the projection if every referenced cid
        # is a pass-through BoundRef.
        passthrough: dict[int, ex.Expr] = {}
        for out, expr in zip(node.output, node.exprs):
            if isinstance(expr, ex.BoundRef):
                passthrough[out.cid] = expr
        sinkable: list[ex.Expr] = []
        stay: list[ex.Expr] = []
        for conjunct in pending:
            refs = conjunct.referenced_cids()
            if refs <= set(passthrough):
                sinkable.append(_substitute(conjunct, passthrough))
            else:
                stay.append(conjunct)
        node.child = _pushdown(node.child, sinkable)
        return _wrap_filter(node, stay)

    if isinstance(node, (LSort, LLimit, LDistinct)):
        if isinstance(node, LLimit):
            # Filters must not cross LIMIT.
            node.child = _pushdown(node.child, [])
            return _wrap_filter(node, pending)
        node.child = _pushdown(node.child, pending)
        node.output = node.child.output if not isinstance(node, LDistinct) \
            else node.output
        return node

    if isinstance(node, LAggregate):
        # Conjuncts above an aggregate referencing group outputs could sink,
        # but they arrive pre-bound to aggregate output cids; keep simple and
        # stop here (HAVING stays above the aggregate).
        node.child = _pushdown(node.child, [])
        return _wrap_filter(node, pending)

    if isinstance(node, (LScan, LScanAll, LLazyFetch)):
        return _wrap_filter(node, pending)

    # Unknown node: recurse into children conservatively.
    for child in node.children():
        _pushdown(child, [])
    return _wrap_filter(node, pending)


def _wrap_filter(node: LogicalNode, conjuncts: list[ex.Expr]) -> LogicalNode:
    predicate = and_together(conjuncts)
    if predicate is None:
        return node
    return LFilter(child=node, predicate=predicate, output=node.output)


def _substitute(expr: ex.Expr, mapping: dict[int, ex.Expr]) -> ex.Expr:
    from repro.db.plan.logical import _clone_with_children

    if isinstance(expr, ex.BoundRef):
        return mapping.get(expr.cid, expr)
    children = [_substitute(c, mapping) for c in expr.children()]
    if not children:
        return expr
    return _clone_with_children(expr, children)


# ---------------------------------------------------------------------------
# Pass 2 + 3: join reordering and lazy-fetch planting
# ---------------------------------------------------------------------------


@dataclass
class _Leaf:
    node: LogicalNode
    conjuncts: list[ex.Expr] = field(default_factory=list)

    @property
    def cids(self) -> set[int]:
        return self.node.output_cids()

    @property
    def lazy_scan(self) -> Optional[LScan]:
        base = self.node
        while isinstance(base, LFilter):
            base = base.child
        if isinstance(base, LScan) and base.is_lazy:
            return base
        return None

    def estimated_rows(self) -> float:
        base = self.node
        selectivity = 1.0
        while isinstance(base, LFilter):
            selectivity *= 0.25 ** len(split_conjuncts(base.predicate))
            base = base.child
        if isinstance(base, LScan):
            return max(base.table.row_count, 1) * selectivity
        return 1e6 * selectivity


def reorder_joins(node: LogicalNode) -> LogicalNode:
    """Rebuild inner/cross join chains metadata-first, lazy-last."""
    if isinstance(node, LJoin) and node.kind in ("inner", "cross"):
        leaves: list[_Leaf] = []
        conjuncts: list[ex.Expr] = []
        _flatten_join_chain(node, leaves, conjuncts)
        for leaf in leaves:
            leaf.node = reorder_joins(leaf.node)
        if len(leaves) == 1:
            return _wrap_filter(leaves[0].node, conjuncts)
        return _build_join_tree(leaves, conjuncts)
    for name in ("child", "left", "right", "meta"):
        child = getattr(node, name, None)
        if isinstance(child, LogicalNode):
            setattr(node, name, reorder_joins(child))
    _refresh_output(node)
    return node


def _flatten_join_chain(node: LogicalNode, leaves: list[_Leaf],
                        conjuncts: list[ex.Expr]) -> None:
    if isinstance(node, LJoin) and node.kind in ("inner", "cross"):
        if node.residual is not None:
            conjuncts.extend(split_conjuncts(node.residual))
        for left_cid, right_cid in zip(node.left_keys, node.right_keys):
            eq = ex.BinOp(
                op="=",
                left=ex.BoundRef(cid=left_cid, dtype=None),   # type: ignore[arg-type]
                right=ex.BoundRef(cid=right_cid, dtype=None),  # type: ignore[arg-type]
            )
            eq.dtype = DataType.BOOLEAN
            conjuncts.append(eq)
        _flatten_join_chain(node.left, leaves, conjuncts)
        _flatten_join_chain(node.right, leaves, conjuncts)
        return
    if isinstance(node, LFilter):
        # A filter directly over a join-chain member: keep its predicate with
        # the leaf so selectivity estimation sees it.
        leaves.append(_Leaf(node=node))
        return
    leaves.append(_Leaf(node=node))


def _build_join_tree(leaves: list[_Leaf],
                     conjuncts: list[ex.Expr]) -> LogicalNode:
    remaining = list(leaves)
    edges: list[tuple[ex.Expr, int, int]] = []  # (conjunct, cid_a, cid_b)
    other: list[ex.Expr] = []
    for conjunct in conjuncts:
        pair = _equi_pair(conjunct)
        if pair is None:
            other.append(conjunct)
        else:
            edges.append((conjunct, pair[0], pair[1]))

    def leaf_of(cid: int) -> Optional[_Leaf]:
        for leaf in remaining:
            if cid in leaf.cids:
                return leaf
        return None

    # Start with the most selective non-lazy leaf.
    non_lazy = [l for l in remaining if l.lazy_scan is None]
    start_pool = non_lazy or remaining
    current_leaf = min(start_pool, key=lambda l: l.estimated_rows())
    remaining.remove(current_leaf)
    plan: LogicalNode = current_leaf.node
    covered = set(plan.output_cids())
    used_edges: set[int] = set()

    while remaining:
        # Candidate leaves connected to the covered set by an equi edge.
        candidates: dict[int, list[tuple[ex.Expr, int, int]]] = {}
        for index, (conjunct, a, b) in enumerate(edges):
            if index in used_edges:
                continue
            if a in covered:
                target = leaf_of(b)
                if target is not None:
                    candidates.setdefault(id(target), []).append((conjunct, a, b))
            elif b in covered:
                target = leaf_of(a)
                if target is not None:
                    candidates.setdefault(id(target), []).append((conjunct, b, a))
        next_leaf: Optional[_Leaf] = None
        if candidates:
            connected = [l for l in remaining if id(l) in candidates]
            non_lazy_connected = [l for l in connected if l.lazy_scan is None]
            pool = non_lazy_connected or connected
            next_leaf = min(pool, key=lambda l: l.estimated_rows())
        else:
            non_lazy_left = [l for l in remaining if l.lazy_scan is None]
            next_leaf = min(non_lazy_left or remaining,
                            key=lambda l: l.estimated_rows())
        remaining.remove(next_leaf)

        keys = candidates.get(id(next_leaf), [])
        for conjunct, _a, _b in keys:
            for index, (edge_conjunct, _x, _y) in enumerate(edges):
                if edge_conjunct is conjunct:
                    used_edges.add(index)

        lazy_scan = next_leaf.lazy_scan
        if lazy_scan is not None and keys:
            planted = _plant_lazy_fetch(plan, next_leaf, lazy_scan, keys)
            if planted is not None:
                fetch, consumed = planted
                # Key conjuncts beyond the binding's key columns (e.g. a
                # redundant F.file = D.file next to R.file = D.file) are not
                # enforced by the fetch join — reapply them as filters.
                for conjunct, _a, _b in keys:
                    if conjunct not in consumed:
                        other.append(conjunct)
                plan = fetch
                covered = set(plan.output_cids())
                continue
        join = LJoin(
            left=plan,
            right=next_leaf.node,
            kind="inner" if keys else "cross",
            left_keys=[left for _c, left, _r in keys],
            right_keys=[right for _c, _l, right in keys],
            output=plan.output + next_leaf.node.output,
        )
        plan = join
        covered = set(plan.output_cids())

    # Remaining (non-equi or multi-leaf) conjuncts become a filter on top;
    # unused equi edges (e.g. redundant transitive ones) are restored too.
    leftovers = list(other)
    for index, (conjunct, _a, _b) in enumerate(edges):
        if index not in used_edges:
            leftovers.append(conjunct)
    applicable = [c for c in leftovers if c.referenced_cids() <= covered]
    dangling = [c for c in leftovers if not c.referenced_cids() <= covered]
    if dangling:
        raise BindError("internal: join reordering lost predicate columns")
    return _wrap_filter(plan, applicable)


def _plant_lazy_fetch(
    meta_plan: LogicalNode, leaf: _Leaf, scan: LScan,
    keys: list[tuple[ex.Expr, int, int]],
) -> Optional[tuple[LogicalNode, list[ex.Expr]]]:
    """Convert meta ⋈ lazy-scan into the LLazyFetch rewrite point.

    Returns ``(fetch_node, consumed_conjuncts)`` or ``None`` when the
    metadata join does not identify files/records.
    """
    binding = _binding_of(scan)
    if binding is None:
        return None
    name_by_cid = {c.cid: c.name for c in scan.output}
    key_names = []
    meta_key_cids = []
    for _conjunct, meta_cid, lazy_cid in keys:
        lazy_name = name_by_cid.get(lazy_cid)
        if lazy_name is None:
            return None
        key_names.append(lazy_name)
        meta_key_cids.append(meta_cid)
    if set(binding.key_columns) - set(key_names):
        # The metadata join does not identify files/records — cannot prune.
        return None
    # Order the key lists canonically by the binding's key columns.
    ordered_meta: list[int] = []
    consumed: list[ex.Expr] = []
    for key_col in binding.key_columns:
        index = key_names.index(key_col)
        ordered_meta.append(meta_key_cids[index])
        consumed.append(keys[index][0])

    residuals: list[ex.Expr] = []
    node = leaf.node
    while isinstance(node, LFilter):
        residuals.extend(split_conjuncts(node.predicate))
        node = node.child
    time_bounds, dynamic_bounds = _extract_time_bounds(residuals, scan,
                                                       binding)

    fetch = LLazyFetch(
        meta=meta_plan,
        binding=binding,
        table_name=scan.qualified_name,
        meta_key_cids=ordered_meta,
        lazy_output=list(scan.output),
        needed=[c.name for c in scan.output],
        residuals=residuals,
        time_bounds=time_bounds,
        dynamic_bounds=dynamic_bounds,
        output=meta_plan.output + list(scan.output),
    )
    return fetch, consumed


def _binding_of(scan: LScan):
    # The binding is attached to the table object by the engine before
    # optimisation (see Database._attach_bindings).
    return getattr(scan.table, "lazy_binding", None)


def _extract_time_bounds(
    residuals: list[ex.Expr], scan: LScan, binding
) -> tuple[tuple[Optional[int], Optional[int]], list[tuple[str, ex.Expr]]]:
    """Derive bounds on the binding's range column (sample_time).

    These bounds let extraction skip whole records whose metadata span
    falls outside the query's window — metadata identifying the actual
    data required, per §1.  Literal bounds tighten the static
    ``(lo, hi)`` tuple at compile time; parameter-valued bounds are
    returned as ``(op, expr)`` pairs the lazy-fetch operator resolves
    per execution, so prepared statements prune exactly like literal
    queries.
    """
    range_col = binding.range_column
    if range_col is None:
        return (None, None), []
    range_cid = None
    for col in scan.output:
        if col.name == range_col:
            range_cid = col.cid
            break
    if range_cid is None:
        return (None, None), []
    lo: Optional[int] = None
    hi: Optional[int] = None
    dynamic: list[tuple[str, ex.Expr]] = []

    def tighten(op: str, bound: ex.Expr) -> None:
        nonlocal lo, hi
        if isinstance(bound, ex.Param):
            dynamic.append((op, bound))
            return
        value = int(bound.value)  # ex.Literal
        if op in (">", ">="):
            lo = value if lo is None else max(lo, value)
        elif op in ("<", "<="):
            hi = value if hi is None else min(hi, value)

    def is_bound(expr: ex.Expr) -> bool:
        return (isinstance(expr, ex.Literal) and expr.value is not None) \
            or isinstance(expr, ex.Param)

    for conjunct in residuals:
        if isinstance(conjunct, ex.BinOp) and conjunct.op in ("<", "<=", ">", ">="):
            left, right, op = conjunct.left, conjunct.right, conjunct.op
            if (isinstance(left, ex.BoundRef) and left.cid == range_cid
                    and is_bound(right)):
                tighten(op, right)
            elif (isinstance(right, ex.BoundRef) and right.cid == range_cid
                    and is_bound(left)):
                flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]
                tighten(flipped, left)
        elif (isinstance(conjunct, ex.Between) and not conjunct.negated
                and isinstance(conjunct.operand, ex.BoundRef)
                and conjunct.operand.cid == range_cid
                and is_bound(conjunct.low)
                and is_bound(conjunct.high)):
            tighten(">=", conjunct.low)
            tighten("<=", conjunct.high)
    return (lo, hi), dynamic


# ---------------------------------------------------------------------------
# Fallback: lazy scans that never met metadata
# ---------------------------------------------------------------------------


def degrade_lazy_scans(node: LogicalNode) -> LogicalNode:
    """Replace remaining lazy LScans with full-repository LScanAll."""
    for name in ("child", "left", "right", "meta"):
        child = getattr(node, name, None)
        if isinstance(child, LogicalNode):
            setattr(node, name, degrade_lazy_scans(child))
    if isinstance(node, LScan) and node.is_lazy:
        binding = _binding_of(node)
        if binding is not None:
            return LScanAll(binding=binding, table_name=node.qualified_name,
                            output=node.output)
    _refresh_output(node)
    return node


def _refresh_output(node: LogicalNode) -> None:
    if isinstance(node, LJoin):
        node.output = node.left.output + node.right.output
    elif isinstance(node, (LFilter, LSort, LLimit)):
        node.output = node.child.output
    elif isinstance(node, LLazyFetch):
        node.output = node.meta.output + node.lazy_output


# ---------------------------------------------------------------------------
# Pass 4: column pruning
# ---------------------------------------------------------------------------


def prune_columns(node: LogicalNode, required: Optional[set[int]] = None
                  ) -> LogicalNode:
    if required is None:
        required = node.output_cids()

    if isinstance(node, LProject):
        keep = [i for i, col in enumerate(node.output) if col.cid in required]
        if keep and len(keep) < len(node.output):
            node.exprs = [node.exprs[i] for i in keep]
            node.output = [node.output[i] for i in keep]
        child_req: set[int] = set()
        for expr in node.exprs:
            child_req |= expr.referenced_cids()
        if not child_req and node.child.output:
            child_req = {node.child.output[0].cid}
        node.child = prune_columns(node.child, child_req)
        return node

    if isinstance(node, LFilter):
        node.child = prune_columns(
            node.child, required | node.predicate.referenced_cids()
        )
        node.output = node.child.output
        return node

    if isinstance(node, LSort):
        needed = set(required)
        for key, _asc in node.keys:
            needed |= key.referenced_cids()
        node.child = prune_columns(node.child, needed)
        node.output = node.child.output
        return node

    if isinstance(node, LLimit):
        node.child = prune_columns(node.child, required)
        node.output = node.child.output
        return node

    if isinstance(node, LDistinct):
        # DISTINCT depends on every one of its columns.
        node.child = prune_columns(node.child, node.child.output_cids())
        return node

    if isinstance(node, LAggregate):
        child_req: set[int] = set()
        for expr in node.group_exprs:
            child_req |= expr.referenced_cids()
        for agg in node.aggregates:
            if agg.arg is not None:
                child_req |= agg.arg.referenced_cids()
        if not child_req and node.child.output:
            child_req = {node.child.output[0].cid}
        node.child = prune_columns(node.child, child_req)
        return node

    if isinstance(node, LJoin):
        needed = set(required)
        needed |= set(node.left_keys) | set(node.right_keys)
        if node.residual is not None:
            needed |= node.residual.referenced_cids()
        left_req = needed & node.left.output_cids()
        right_req = needed & node.right.output_cids()
        node.left = prune_columns(node.left, left_req or
                                  ({node.left.output[0].cid}
                                   if node.left.output else set()))
        node.right = prune_columns(node.right, right_req or
                                   ({node.right.output[0].cid}
                                    if node.right.output else set()))
        node.output = node.left.output + node.right.output
        return node

    if isinstance(node, LLazyFetch):
        needed = set(required)
        for residual in node.residuals:
            needed |= residual.referenced_cids()
        meta_req = (needed & node.meta.output_cids()) | set(node.meta_key_cids)
        node.meta = prune_columns(node.meta, meta_req)
        # Rows pair by position, so the key columns are fetched — and
        # either side's columns output — only where a parent reads them.
        node.lazy_output = [c for c in node.lazy_output if c.cid in needed]
        node.needed = [c.name for c in node.lazy_output]
        output = node.meta.output + node.lazy_output
        node.output = [c for c in output if c.cid in required] or output[:1]
        return node

    if isinstance(node, LScan):
        kept = [c for c in node.output if c.cid in required]
        node.output = kept or node.output[:1]
        return node

    if isinstance(node, LScanAll):
        kept = [c for c in node.output if c.cid in required]
        node.output = kept or node.output[:1]
        return node

    for child_name in ("child", "left", "right", "meta"):
        child = getattr(node, child_name, None)
        if isinstance(child, LogicalNode):
            setattr(node, child_name, prune_columns(child))
    return node


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def optimize(node: LogicalNode) -> LogicalNode:
    """Run all optimisation passes."""
    node = push_down_filters(node)
    node = reorder_joins(node)
    node = degrade_lazy_scans(node)
    return prune_columns(node)
