"""Logical plan nodes and the binder.

The binder turns a parsed :class:`~repro.db.sql.ast.SelectStmt` into a tree
of logical nodes whose expressions are *bound*: every column reference
carries a plan-wide column id (cid) and every node a result type.

View references expand inline here — the paper's lazy transformation:
"view definitions are simply expanded into the query" (§3.2).  The binder
also implements the demo's addressing convention where a query over
``mseed.dataview`` may reference the view's *internal* aliases
(``F.station``, ``R.start_time``, ``D.sample_value``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.db import expr as ex
from repro.db.catalog import Catalog, Table, View
from repro.db.sql import ast
from repro.db.types import DataType, coerce_literal, comparable, common_numeric, literal_type
from repro.errors import BindError, TypeMismatchError


@dataclass(frozen=True)
class OutCol:
    """One output column of a logical node."""

    cid: int
    name: str
    dtype: DataType


class LogicalNode:
    """Base class; ``output`` is the ordered schema of produced columns."""

    output: list[OutCol]

    def children(self) -> list["LogicalNode"]:
        return []

    def out_by_cid(self, cid: int) -> OutCol:
        for col in self.output:
            if col.cid == cid:
                return col
        raise BindError(f"column #{cid} not produced by {type(self).__name__}")

    def output_cids(self) -> set[int]:
        return {c.cid for c in self.output}


@dataclass
class LScan(LogicalNode):
    """Scan of a base table (lazy tables are rewritten by the optimiser)."""

    table: Table
    qualified_name: str
    output: list[OutCol] = field(default_factory=list)
    is_lazy: bool = False

    def column_name(self, cid: int) -> str:
        return self.out_by_cid(cid).name


@dataclass
class LFilter(LogicalNode):
    child: LogicalNode
    predicate: ex.Expr
    output: list[OutCol] = field(default_factory=list)

    def children(self) -> list[LogicalNode]:
        return [self.child]


@dataclass
class LProject(LogicalNode):
    child: LogicalNode
    exprs: list[ex.Expr] = field(default_factory=list)
    output: list[OutCol] = field(default_factory=list)

    def children(self) -> list[LogicalNode]:
        return [self.child]


@dataclass
class LJoin(LogicalNode):
    """Join; ``left_keys``/``right_keys`` are equi-key cids (may be empty
    for cross joins before optimisation), ``residual`` any extra condition."""

    left: LogicalNode
    right: LogicalNode
    kind: str  # 'inner' | 'left' | 'cross'
    left_keys: list[int] = field(default_factory=list)
    right_keys: list[int] = field(default_factory=list)
    residual: Optional[ex.Expr] = None
    output: list[OutCol] = field(default_factory=list)

    def children(self) -> list[LogicalNode]:
        return [self.left, self.right]


@dataclass
class LAggregate(LogicalNode):
    child: LogicalNode
    group_exprs: list[ex.Expr] = field(default_factory=list)
    aggregates: list[ex.AggCall] = field(default_factory=list)
    output: list[OutCol] = field(default_factory=list)  # groups then aggs

    def children(self) -> list[LogicalNode]:
        return [self.child]


@dataclass
class LSort(LogicalNode):
    child: LogicalNode
    keys: list[tuple[ex.Expr, bool]] = field(default_factory=list)
    output: list[OutCol] = field(default_factory=list)

    def children(self) -> list[LogicalNode]:
        return [self.child]


@dataclass
class LLimit(LogicalNode):
    child: LogicalNode
    limit: Optional[int] = None
    offset: int = 0
    output: list[OutCol] = field(default_factory=list)

    def children(self) -> list[LogicalNode]:
        return [self.child]


@dataclass
class LDistinct(LogicalNode):
    child: LogicalNode
    output: list[OutCol] = field(default_factory=list)

    def children(self) -> list[LogicalNode]:
        return [self.child]


@dataclass
class LLazyFetch(LogicalNode):
    """The compile-time placeholder for run-time plan rewriting (§3.1).

    Executes ``meta`` first (the metadata sub-plan with its predicates),
    then asks the lazy binding to extract exactly the matching rows of the
    virtual table, and pairs them with the metadata rows by position.
    ``needed`` names the lazy columns to fetch (``lazy_output``: what a
    parent or a residual reads); ``output`` is the part of
    ``meta.output`` followed by ``lazy_output`` that a parent reads.
    """

    meta: LogicalNode
    binding: object  # LazyTableBinding
    table_name: str
    meta_key_cids: list[int] = field(default_factory=list)
    lazy_output: list[OutCol] = field(default_factory=list)
    needed: list[str] = field(default_factory=list)
    residuals: list[ex.Expr] = field(default_factory=list)
    time_bounds: tuple[Optional[int], Optional[int]] = (None, None)
    # Range-column bounds whose values are only known at execution time
    # (prepared-statement parameters): ``(op, expr)`` pairs, op in
    # ``('>', '>=', '<', '<=')``.  Resolved per execution and tightened
    # into ``time_bounds`` so parameterised windows prune extraction
    # exactly like literal ones.
    dynamic_bounds: list[tuple[str, ex.Expr]] = field(default_factory=list)
    output: list[OutCol] = field(default_factory=list)

    def children(self) -> list[LogicalNode]:
        return [self.meta]


@dataclass
class LScanAll(LogicalNode):
    """Full-repository extraction of a lazy table (no metadata pruning).

    The paper's §3.1 worst case: a lazy query over the data table that
    no metadata join narrows extracts every record of the repository.
    """

    binding: object
    table_name: str
    output: list[OutCol] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Binder
# ---------------------------------------------------------------------------


@dataclass
class FromEntry:
    """One FROM-clause item visible in the name-resolution scope."""

    alias: str
    columns: list[OutCol]
    view_alias_map: dict[tuple[str, str], str] | None = None


class Binder:
    """Binds one SELECT (including nested views/subqueries) to a plan."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog
        self._cids = itertools.count(1)

    def next_cid(self) -> int:
        return next(self._cids)

    # -- FROM clause -----------------------------------------------------------

    def bind_select(self, stmt: ast.SelectStmt) -> LogicalNode:
        plan, entries = self._bind_from(stmt.from_items)
        scope = _Scope(entries)

        if stmt.where is not None:
            predicate = self.bind_expr(stmt.where, scope)
            _require_boolean(predicate, "WHERE")
            _reject_aggregates(stmt.where, "WHERE")
            plan = LFilter(child=plan, predicate=predicate, output=plan.output)

        select_items = self._expand_stars(stmt.items, scope)

        agg_calls = _collect_aggregates(
            [item.expr for item in select_items]
            + ([stmt.having] if stmt.having else [])
            + [o.expr for o in stmt.order_by]
        )
        order_items = stmt.order_by
        if stmt.group_by or agg_calls:
            plan, scope, select_items, having, order_items = self._bind_aggregate(
                plan, scope, stmt, select_items, agg_calls
            )
            if having is not None:
                plan = LFilter(child=plan, predicate=having, output=plan.output)
        elif stmt.having is not None:
            raise BindError("HAVING requires GROUP BY or aggregates")

        # Bind the projection expressions (not yet planted as a node: the
        # Sort evaluates ORDER BY keys below the projection so keys may
        # reference any pre-projection column).
        exprs: list[ex.Expr] = []
        out_cols: list[OutCol] = []
        alias_exprs: dict[str, ex.Expr] = {}
        for item in select_items:
            bound = self.bind_expr(item.expr, scope)
            name = (item.alias or _default_name(item.expr)).lower()
            cid = self.next_cid()
            out_cols.append(OutCol(cid=cid, name=name, dtype=bound.dtype))
            exprs.append(bound)
            alias_exprs.setdefault(name, bound)

        if order_items:
            keys: list[tuple[ex.Expr, bool]] = []
            for order in order_items:
                expr = order.expr
                if (isinstance(expr, ex.ColumnRef) and len(expr.parts) == 1
                        and expr.parts[0].lower() in alias_exprs):
                    keys.append((alias_exprs[expr.parts[0].lower()],
                                 order.ascending))
                elif isinstance(expr, ex.Literal) and isinstance(expr.value, int):
                    index = expr.value - 1
                    if not 0 <= index < len(exprs):
                        raise BindError(
                            f"ORDER BY position {expr.value} out of range"
                        )
                    keys.append((exprs[index], order.ascending))
                else:
                    keys.append((self.bind_expr(expr, scope), order.ascending))
            plan = LSort(child=plan, keys=keys, output=plan.output)

        plan = LProject(child=plan, exprs=exprs, output=out_cols)

        if stmt.distinct:
            plan = LDistinct(child=plan, output=plan.output)

        if stmt.limit is not None or stmt.offset is not None:
            plan = LLimit(child=plan, limit=stmt.limit,
                          offset=stmt.offset or 0, output=plan.output)
        return plan

    def _bind_from(
        self, from_items: list[ast.TableExpr]
    ) -> tuple[LogicalNode, list[FromEntry]]:
        if not from_items:
            raise BindError("queries without FROM are not supported")
        plan: LogicalNode | None = None
        entries: list[FromEntry] = []
        for item in from_items:
            node, item_entries = self._bind_table_expr(item)
            entries.extend(item_entries)
            if plan is None:
                plan = node
            else:
                plan = LJoin(left=plan, right=node, kind="cross",
                             output=plan.output + node.output)
        assert plan is not None
        _check_duplicate_aliases(entries)
        return plan, entries

    def _bind_table_expr(
        self, item: ast.TableExpr
    ) -> tuple[LogicalNode, list[FromEntry]]:
        if isinstance(item, ast.TableRef):
            return self._bind_table_ref(item)
        if isinstance(item, ast.SubqueryRef):
            inner = self.bind_select(item.select)
            entry = FromEntry(alias=item.alias.lower(), columns=inner.output)
            return inner, [entry]
        if isinstance(item, ast.JoinRef):
            left, left_entries = self._bind_table_expr(item.left)
            right, right_entries = self._bind_table_expr(item.right)
            entries = left_entries + right_entries
            join = LJoin(left=left, right=right,
                         kind="cross" if item.kind == "cross" else item.kind,
                         output=left.output + right.output)
            if item.condition is not None:
                condition = self.bind_expr(item.condition, _Scope(entries))
                _require_boolean(condition, "JOIN ON")
                join.residual = condition
                if join.kind == "cross":
                    join.kind = "inner"
            return join, entries
        raise BindError(f"unsupported FROM item {item!r}")

    def _bind_table_ref(
        self, ref: ast.TableRef
    ) -> tuple[LogicalNode, list[FromEntry]]:
        obj = self.catalog.lookup(ref.parts)
        alias = (ref.alias or ref.parts[-1]).lower()
        if isinstance(obj, Table):
            output = [
                OutCol(cid=self.next_cid(), name=spec.name, dtype=spec.dtype)
                for spec in obj.schema.columns
            ]
            qualified = obj.name
            scan = LScan(table=obj, qualified_name=qualified, output=output,
                         is_lazy=self.catalog.is_lazy(qualified))
            return scan, [FromEntry(alias=alias, columns=output)]
        assert isinstance(obj, View)
        inner = self.bind_select(obj.select)
        entry = FromEntry(alias=alias, columns=inner.output,
                          view_alias_map=obj.alias_map)
        return inner, [entry]

    # -- star expansion -----------------------------------------------------------

    def _expand_stars(self, items: list[ast.SelectItem],
                      scope: "_Scope") -> list[ast.SelectItem]:
        out: list[ast.SelectItem] = []
        for item in items:
            if isinstance(item.expr, ex.Star):
                qualifier = item.expr.qualifier
                matched = False
                for entry in scope.entries:
                    if qualifier is not None and entry.alias != qualifier.lower():
                        continue
                    matched = True
                    for col in entry.columns:
                        out.append(
                            ast.SelectItem(
                                expr=ex.BoundRef(cid=col.cid, dtype=col.dtype,
                                                 name=col.name),
                                alias=col.name,
                            )
                        )
                if qualifier is not None and not matched:
                    raise BindError(f"unknown alias {qualifier!r} in {qualifier}.*")
            else:
                out.append(item)
        return out

    # -- aggregation ----------------------------------------------------------------

    def _bind_aggregate(self, plan, scope, stmt, select_items, agg_calls):
        group_bound: list[ex.Expr] = []
        group_cols: list[OutCol] = []
        for expr in stmt.group_by:
            bound = self.bind_expr(expr, scope)
            _reject_aggregates(expr, "GROUP BY")
            cid = self.next_cid()
            group_bound.append(bound)
            group_cols.append(
                OutCol(cid=cid, name=_default_name(expr).lower(),
                       dtype=bound.dtype)
            )

        bound_aggs: list[ex.AggCall] = []
        agg_cols: list[OutCol] = []
        seen: dict[tuple, OutCol] = {}
        for call in agg_calls:
            bound_arg = (None if call.arg is None
                         else self.bind_expr(call.arg, scope))
            if isinstance(bound_arg, ex.Param) and bound_arg.dtype is None:
                raise BindError(
                    f"cannot infer the type of a parameter passed to "
                    f"{call.name.upper()}(); wrap it in CAST(... AS <type>)"
                )
            bound_call = ex.AggCall(name=call.name, arg=bound_arg,
                                    distinct=call.distinct)
            bound_call.dtype = ex.aggregate_result_type(
                call.name, None if bound_arg is None else bound_arg.dtype
            )
            key = bound_call.key()
            if key in seen:
                continue
            cid = self.next_cid()
            col = OutCol(cid=cid, name=_default_name(call).lower(),
                         dtype=bound_call.dtype)
            seen[key] = col
            bound_aggs.append(bound_call)
            agg_cols.append(col)

        agg_node = LAggregate(
            child=plan,
            group_exprs=group_bound,
            aggregates=bound_aggs,
            output=group_cols + agg_cols,
        )

        # Rewrite post-aggregation expressions in terms of the agg output.
        group_keys = {expr.key(): col for expr, col in zip(group_bound, group_cols)}
        agg_keys = dict(seen)

        def rewrite(expr: ex.Expr) -> ex.Expr:
            if isinstance(expr, ex.AggCall):
                bound_arg = None if expr.arg is None else self.bind_expr(expr.arg, scope)
                probe = ex.AggCall(name=expr.name, arg=bound_arg,
                                   distinct=expr.distinct)
                col = agg_keys[probe.key()]
                return ex.BoundRef(cid=col.cid, dtype=col.dtype, name=col.name)
            bound_probe = None
            try:
                bound_probe = self.bind_expr(expr, scope)
            except BindError:
                pass
            if bound_probe is not None and bound_probe.key() in group_keys:
                col = group_keys[bound_probe.key()]
                return ex.BoundRef(cid=col.cid, dtype=col.dtype, name=col.name)
            clone = _clone_with_children(expr, [rewrite(c) for c in expr.children()])
            return clone

        valid_cids = agg_node.output_cids()
        new_items = []
        for item in select_items:
            rewritten = rewrite(item.expr)
            _ensure_no_raw_columns(rewritten, valid_cids)
            new_items.append(ast.SelectItem(expr=rewritten, alias=item.alias))
        having = None
        if stmt.having is not None:
            having_rewritten = rewrite(stmt.having)
            having_bound = self.bind_expr(
                having_rewritten,
                _Scope([FromEntry(alias="", columns=agg_node.output)]),
            )
            _require_boolean(having_bound, "HAVING")
            having = having_bound
        order_items = [
            ast.OrderItem(expr=rewrite(order.expr), ascending=order.ascending)
            for order in stmt.order_by
        ]
        post_scope = _Scope([FromEntry(alias="", columns=agg_node.output)])
        return agg_node, post_scope, new_items, having, order_items

    # -- expression binding ------------------------------------------------------------

    def bind_expr(self, expr: ex.Expr, scope: "_Scope") -> ex.Expr:
        if isinstance(expr, ex.BoundRef):
            return expr
        if isinstance(expr, ex.ColumnRef):
            col = scope.resolve(expr.parts)
            return ex.BoundRef(cid=col.cid, dtype=col.dtype, name=col.name)
        if isinstance(expr, ex.Literal):
            if expr.value is None:
                lit = ex.Literal(value=None, dtype=DataType.VARCHAR)
                return lit
            return ex.Literal(value=expr.value, dtype=literal_type(expr.value))
        if isinstance(expr, ex.Param):
            # Fresh copy per bind: the dtype is inferred from *this*
            # statement's context (comparison peer, BETWEEN/IN operand,
            # enclosing CAST) and must not leak between compilations.
            return ex.Param(slot=expr.slot, dtype=expr.dtype)
        if isinstance(expr, ex.BinOp):
            left = self.bind_expr(expr.left, scope)
            right = self.bind_expr(expr.right, scope)
            return _type_binop(expr.op, left, right)
        if isinstance(expr, ex.UnOp):
            operand = self.bind_expr(expr.operand, scope)
            node = ex.UnOp(op=expr.op, operand=operand)
            if expr.op == "-":
                if not operand.dtype or operand.dtype not in (
                    DataType.BIGINT, DataType.DOUBLE
                ):
                    raise TypeMismatchError("unary minus needs a numeric operand")
                node.dtype = operand.dtype
            else:
                _require_boolean(operand, "NOT")
                node.dtype = DataType.BOOLEAN
            return node
        if isinstance(expr, ex.FuncCall):
            spec = ex.FUNCTIONS.get(expr.name)
            if spec is None:
                raise BindError(f"unknown function {expr.name!r}")
            if not spec.min_args <= len(expr.args) <= spec.max_args:
                raise BindError(
                    f"{expr.name.upper()} expects between {spec.min_args} and "
                    f"{spec.max_args} arguments"
                )
            args = [self.bind_expr(a, scope) for a in expr.args]
            for arg in args:
                if isinstance(arg, ex.Param) and arg.dtype is None:
                    raise BindError(
                        f"cannot infer the type of a parameter passed to "
                        f"{expr.name.upper()}(); wrap it in "
                        "CAST(... AS <type>)"
                    )
            node = ex.FuncCall(name=expr.name, args=args)
            node.dtype = spec.result_type([a.dtype for a in args])
            return node
        if isinstance(expr, ex.Between):
            operand = self.bind_expr(expr.operand, scope)
            low = _coerce_to(self.bind_expr(expr.low, scope), operand.dtype)
            high = _coerce_to(self.bind_expr(expr.high, scope), operand.dtype)
            node = ex.Between(operand=operand, low=low, high=high,
                              negated=expr.negated)
            node.dtype = DataType.BOOLEAN
            return node
        if isinstance(expr, ex.InList):
            operand = self.bind_expr(expr.operand, scope)
            items = [
                _coerce_to(self.bind_expr(i, scope), operand.dtype)
                for i in expr.items
            ]
            node = ex.InList(operand=operand, items=items, negated=expr.negated)
            node.dtype = DataType.BOOLEAN
            return node
        if isinstance(expr, ex.IsNull):
            node = ex.IsNull(operand=self.bind_expr(expr.operand, scope),
                             negated=expr.negated)
            node.dtype = DataType.BOOLEAN
            return node
        if isinstance(expr, ex.Like):
            operand = self.bind_expr(expr.operand, scope)
            if operand.dtype != DataType.VARCHAR:
                raise TypeMismatchError("LIKE needs a VARCHAR operand")
            node = ex.Like(operand=operand, pattern=expr.pattern,
                           negated=expr.negated)
            node.dtype = DataType.BOOLEAN
            return node
        if isinstance(expr, ex.Case):
            whens = []
            value_types: list[DataType] = []
            for cond, value in expr.whens:
                bound_cond = self.bind_expr(cond, scope)
                _require_boolean(bound_cond, "CASE WHEN")
                bound_value = self.bind_expr(value, scope)
                whens.append((bound_cond, bound_value))
                value_types.append(bound_value.dtype)
            default = (None if expr.default is None
                       else self.bind_expr(expr.default, scope))
            if default is not None:
                value_types.append(default.dtype)
            result_type = value_types[0]
            for other in value_types[1:]:
                if other == result_type:
                    continue
                result_type = common_numeric(result_type, other)
            node = ex.Case(whens=whens, default=default)
            node.dtype = result_type
            return node
        if isinstance(expr, ex.Cast):
            operand = self.bind_expr(expr.operand, scope)
            if isinstance(operand, ex.Param) and operand.dtype is None:
                # CAST(? AS type) is the explicit escape hatch for
                # placeholders with no inferable context.
                operand.dtype = expr.target
            node = ex.Cast(operand=operand, target=expr.target)
            node.dtype = expr.target
            return node
        if isinstance(expr, ex.AggCall):
            raise BindError(
                f"aggregate {expr.name.upper()} is not allowed here"
            )
        raise BindError(f"cannot bind expression {expr!r}")


class _Scope:
    """Name-resolution scope over FROM entries."""

    def __init__(self, entries: list[FromEntry]) -> None:
        self.entries = entries

    def resolve(self, parts: tuple[str, ...]) -> OutCol:
        lowered = tuple(p.lower() for p in parts)
        if len(lowered) == 1:
            return self._resolve_bare(lowered[0])
        if len(lowered) == 2:
            qualifier, column = lowered
            for entry in self.entries:
                if entry.alias == qualifier:
                    return self._column_of(entry, column, qualifier)
            # The paper's view-internal alias addressing: F.station against
            # a dataview expansion.
            for entry in self.entries:
                if entry.view_alias_map is None:
                    continue
                out_name = entry.view_alias_map.get((qualifier, column))
                if out_name is not None:
                    return self._column_of(entry, out_name, qualifier)
            raise BindError(f"unknown column {'.'.join(parts)}")
        if len(lowered) == 3:
            _schema, table, column = lowered
            for entry in self.entries:
                if entry.alias == table:
                    return self._column_of(entry, column, table)
            raise BindError(f"unknown column {'.'.join(parts)}")
        raise BindError(f"over-qualified column name {'.'.join(parts)}")

    def _resolve_bare(self, name: str) -> OutCol:
        hits = []
        for entry in self.entries:
            for col in entry.columns:
                if col.name == name:
                    hits.append(col)
        if not hits:
            raise BindError(f"unknown column {name!r}")
        distinct_cids = {c.cid for c in hits}
        if len(distinct_cids) > 1:
            raise BindError(f"ambiguous column {name!r}")
        return hits[0]

    @staticmethod
    def _column_of(entry: FromEntry, name: str, qualifier: str) -> OutCol:
        for col in entry.columns:
            if col.name == name:
                return col
        raise BindError(f"unknown column {qualifier}.{name}")


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _check_duplicate_aliases(entries: list[FromEntry]) -> None:
    seen: set[str] = set()
    for entry in entries:
        if entry.alias and entry.alias in seen:
            raise BindError(f"duplicate table alias {entry.alias!r}")
        if entry.alias:
            seen.add(entry.alias)


def _require_boolean(expr: ex.Expr, context: str) -> None:
    if expr.dtype != DataType.BOOLEAN:
        raise TypeMismatchError(f"{context} requires a boolean, got {expr.dtype}")


def _reject_aggregates(expr: ex.Expr, context: str) -> None:
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, ex.AggCall):
            raise BindError(f"aggregates are not allowed in {context}")
        stack.extend(node.children())


def _ensure_no_raw_columns(expr: ex.Expr, valid_cids: set[int]) -> None:
    """After aggregation, outputs may only reference the aggregate node."""
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, ex.ColumnRef):
            raise BindError(
                f"column {node.display!r} must appear in GROUP BY or be "
                "wrapped in an aggregate"
            )
        if isinstance(node, ex.BoundRef) and node.cid not in valid_cids:
            raise BindError(
                f"column {node.name!r} must appear in GROUP BY or be "
                "wrapped in an aggregate"
            )
        stack.extend(node.children())


def _collect_aggregates(exprs: list[ex.Expr]) -> list[ex.AggCall]:
    out: list[ex.AggCall] = []

    def walk(node: ex.Expr) -> None:
        if isinstance(node, ex.AggCall):
            out.append(node)
            return  # nested aggregates are invalid; caught at bind time
        for child in node.children():
            walk(child)

    for expr in exprs:
        walk(expr)
    return out


def _default_name(expr: ex.Expr) -> str:
    if isinstance(expr, ex.ColumnRef):
        return expr.parts[-1]
    if isinstance(expr, ex.BoundRef):
        return expr.name or f"col{expr.cid}"
    if isinstance(expr, ex.AggCall):
        if expr.arg is None:
            return f"{expr.name}_star"
        return f"{expr.name}_{_default_name(expr.arg)}"
    if isinstance(expr, ex.FuncCall):
        return expr.name
    if isinstance(expr, ex.Literal):
        return "literal"
    return "expr"


def _coerce_to(expr: ex.Expr, target: DataType | None) -> ex.Expr:
    """Implicitly coerce literals (e.g. timestamp strings) to ``target``."""
    if target is None or expr.dtype == target:
        return expr
    if isinstance(expr, ex.Param) and expr.dtype is None:
        # Placeholders adopt the type of the operand they stand against
        # (BETWEEN bounds, IN-list items, comparison peers).
        expr.dtype = target
        return expr
    if isinstance(expr, ex.Literal) and expr.value is not None:
        if target == DataType.TIMESTAMP and expr.dtype == DataType.VARCHAR:
            return ex.Literal(value=coerce_literal(expr.value, target),
                              dtype=target)
        if target == DataType.DOUBLE and expr.dtype == DataType.BIGINT:
            return ex.Literal(value=float(expr.value), dtype=target)
        if target == DataType.BIGINT and expr.dtype == DataType.DOUBLE:
            return expr  # comparison handles numeric promotion
    if not comparable(expr.dtype, target):
        raise TypeMismatchError(f"cannot compare {expr.dtype} with {target}")
    return expr


def _type_binop(op: str, left: ex.Expr, right: ex.Expr) -> ex.BinOp:
    # Untyped placeholders adopt the peer operand's type before any
    # type checking below sees them.
    if isinstance(left, ex.Param) and left.dtype is None \
            and right.dtype is not None:
        left.dtype = right.dtype
    if isinstance(right, ex.Param) and right.dtype is None \
            and left.dtype is not None:
        right.dtype = left.dtype
    node = ex.BinOp(op=op, left=left, right=right)
    if op in ("and", "or"):
        _require_boolean(left, op.upper())
        _require_boolean(right, op.upper())
        node.dtype = DataType.BOOLEAN
        return node
    if op in ("=", "<>", "<", "<=", ">", ">="):
        # Implicit timestamp-literal parsing, the form the paper's queries use.
        if left.dtype == DataType.TIMESTAMP and right.dtype == DataType.VARCHAR:
            node.right = right = _coerce_to(right, DataType.TIMESTAMP)
        elif right.dtype == DataType.TIMESTAMP and left.dtype == DataType.VARCHAR:
            node.left = left = _coerce_to(left, DataType.TIMESTAMP)
        if not comparable(left.dtype, right.dtype):
            raise TypeMismatchError(
                f"cannot compare {left.dtype} with {right.dtype}"
            )
        node.dtype = DataType.BOOLEAN
        return node
    # Arithmetic
    if left.dtype == DataType.TIMESTAMP or right.dtype == DataType.TIMESTAMP:
        if op not in ("+", "-"):
            raise TypeMismatchError(f"operator {op} is not defined on timestamps")
        both = (left.dtype == DataType.TIMESTAMP
                and right.dtype == DataType.TIMESTAMP)
        node.dtype = DataType.BIGINT if (op == "-" and both) else DataType.TIMESTAMP
        return node
    if op == "/":
        node.dtype = DataType.DOUBLE
        if not (left.dtype in (DataType.BIGINT, DataType.DOUBLE)
                and right.dtype in (DataType.BIGINT, DataType.DOUBLE)):
            raise TypeMismatchError("division needs numeric operands")
        return node
    node.dtype = common_numeric(left.dtype, right.dtype)
    return node


def _clone_with_children(expr: ex.Expr, children: list[ex.Expr]) -> ex.Expr:
    """Rebuild an expression node with new children (rewrites)."""
    if isinstance(expr, ex.BinOp):
        node = ex.BinOp(op=expr.op, left=children[0], right=children[1])
    elif isinstance(expr, ex.UnOp):
        node = ex.UnOp(op=expr.op, operand=children[0])
    elif isinstance(expr, ex.FuncCall):
        node = ex.FuncCall(name=expr.name, args=children)
    elif isinstance(expr, ex.Between):
        node = ex.Between(operand=children[0], low=children[1],
                          high=children[2], negated=expr.negated)
    elif isinstance(expr, ex.InList):
        node = ex.InList(operand=children[0], items=children[1:],
                         negated=expr.negated)
    elif isinstance(expr, ex.IsNull):
        node = ex.IsNull(operand=children[0], negated=expr.negated)
    elif isinstance(expr, ex.Like):
        node = ex.Like(operand=children[0], pattern=expr.pattern,
                       negated=expr.negated)
    elif isinstance(expr, ex.Cast):
        node = ex.Cast(operand=children[0], target=expr.target)
    elif isinstance(expr, ex.Case):
        pair_count = len(expr.whens)
        whens = [(children[2 * i], children[2 * i + 1]) for i in range(pair_count)]
        default = children[-1] if expr.default is not None else None
        node = ex.Case(whens=whens, default=default)
    elif not children:
        return expr
    else:
        raise BindError(f"cannot rewrite expression {expr!r}")
    node.dtype = expr.dtype
    return node


def bind_select(catalog: Catalog, stmt: ast.SelectStmt) -> LogicalNode:
    """Entry point: bind a SELECT statement into a logical plan."""
    return Binder(catalog).bind_select(stmt)
