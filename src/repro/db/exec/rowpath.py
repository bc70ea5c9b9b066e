"""Row-at-a-time reference interpreter — the differential-testing oracle.

The vectorised executor in :mod:`repro.db.plan.physical` is the fast
path; this module is the *semantic anchor* it is tested against.  Every
physical operator is re-implemented here as a scalar, tuple-at-a-time
interpreter over plain Python values (``None`` for NULL), with SQL
three-valued logic written out longhand.  The oracle in
``tests/oracle.py`` runs each query through both paths and requires the
results to agree bit-for-bit.

Design rules that make bit-identity achievable:

* Expression nodes with no inputs (``Literal``/``Param``) delegate to
  their own vectorised ``eval`` on a length-1 frame, so literal/parameter
  coercion is shared by construction rather than re-implemented.
* Scalar functions run the registered vectorised implementation on
  length-1 columns: libm calls (``sqrt``, ``ln``…) are bit-identical
  only when the same code computes them.
* Floating-point aggregates replicate the kernels in
  ``PAggregate._compute_aggregate`` operation for operation —
  ``np.add.reduceat`` reduces strictly sequentially, so a Python loop
  adding in the same row order produces the same bits (including the
  ``+ 0.0`` contributed by NULL rows).
* Everything else (comparisons, Kleene AND/OR, LIKE, CASE, joins, sort
  order, group order) is written independently, which is what gives the
  differential tests their teeth.

The interpreter is deliberately slow — it *is* the pre-vectorisation
row-at-a-time engine, and doubles as the baseline that
``tests/test_batch_exec.py`` requires the vectorised path to beat 5x.
"""

from __future__ import annotations

import functools
import math
from typing import Optional

import numpy as np

from repro.db import expr as ex
from repro.db.column import Column
from repro.db.plan import physical as ph
from repro.db.types import DataType, render_value
from repro.errors import ExecutionError

Row = dict  # cid -> python value (None encodes NULL)

# ---------------------------------------------------------------------------
# Scalar expression evaluation
# ---------------------------------------------------------------------------

_CMP = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

def _coerce(value, dtype: DataType):
    """Coerce a computed scalar to its column dtype, as Column storage would."""
    if value is None:
        return None
    if dtype == DataType.VARCHAR:
        return str(value)
    if dtype == DataType.BOOLEAN:
        return bool(value)
    if dtype == DataType.DOUBLE:
        return float(value)
    # BIGINT / TIMESTAMP: numpy astype truncates toward zero, as int() does.
    return int(value)


def eval_scalar(node: ex.Expr, row: Row):
    """Evaluate a bound expression against one row of Python values."""
    if isinstance(node, ex.BoundRef):
        try:
            return row[node.cid]
        except KeyError:
            raise ExecutionError(
                f"column #{node.cid} ({node.name or 'unnamed'}) missing from row"
            ) from None

    if isinstance(node, (ex.Literal, ex.Param)):
        # Shared coercion path: identical to the vectorised evaluation.
        return node.eval({}, 1).value_at(0)

    if isinstance(node, ex.BinOp):
        return _scalar_binop(node.op,
                             eval_scalar(node.left, row), node.left.dtype,
                             eval_scalar(node.right, row), node.right.dtype)

    if isinstance(node, ex.UnOp):
        v = eval_scalar(node.operand, row)
        if v is None:
            return None
        if node.op == "-":
            return _coerce(-v, node.operand.dtype)
        if node.op == "not":
            return not bool(v)
        raise ExecutionError(f"unknown unary operator {node.op}")

    if isinstance(node, ex.FuncCall):
        spec = ex.FUNCTIONS.get(node.name)
        if spec is None:
            raise ExecutionError(f"unknown function {node.name}")
        cols = [Column.from_values(a.dtype, [eval_scalar(a, row)])
                for a in node.args]
        return spec.impl(cols, 1).value_at(0)

    if isinstance(node, ex.Between):
        operand = eval_scalar(node.operand, row)
        lower = _scalar_binop(">=", operand, node.operand.dtype,
                              eval_scalar(node.low, row), node.low.dtype)
        upper = _scalar_binop("<=", operand, node.operand.dtype,
                              eval_scalar(node.high, row), node.high.dtype)
        both = _kleene_and(lower, upper)
        if both is None:
            return None
        return (not both) if node.negated else both

    if isinstance(node, ex.InList):
        operand = eval_scalar(node.operand, row)
        if operand is None:
            return None
        saw_null = False
        for item in node.items:
            iv = eval_scalar(item, row)
            if iv is None:
                saw_null = True
            elif _raw_compare("=", operand, node.operand.dtype, iv, item.dtype):
                return not node.negated
        return None if saw_null else node.negated

    if isinstance(node, ex.IsNull):
        is_null = eval_scalar(node.operand, row) is None
        return (not is_null) if node.negated else is_null

    if isinstance(node, ex.Like):
        operand = eval_scalar(node.operand, row)
        if operand is None:
            return None
        hit = _like_matcher(node.pattern)(str(operand)) is not None
        return (not hit) if node.negated else hit

    if isinstance(node, ex.Case):
        for cond, value in node.whens:
            if eval_scalar(cond, row) is True:
                return eval_scalar(value, row)
        if node.default is not None:
            return eval_scalar(node.default, row)
        return None

    if isinstance(node, ex.Cast):
        return cast_scalar(eval_scalar(node.operand, row),
                           node.operand.dtype, node.target)

    if isinstance(node, ex.AggCall):
        raise ExecutionError(
            f"aggregate {node.name} outside an Aggregate operator"
        )

    raise ExecutionError(f"cannot evaluate {type(node).__name__} row-at-a-time")


@functools.lru_cache(maxsize=256)
def _like_matcher(pattern: str):
    import re

    return re.compile(ex._like_to_regex(pattern), re.DOTALL).fullmatch


def _raw_compare(op: str, lhs, ldt: DataType, rhs, rdt: DataType) -> bool:
    if ldt == DataType.VARCHAR or rdt == DataType.VARCHAR:
        lhs = str(lhs) if ldt == DataType.VARCHAR else lhs
        rhs = str(rhs) if rdt == DataType.VARCHAR else rhs
    return bool(_CMP[op](lhs, rhs))


def _kleene_and(a: Optional[bool], b: Optional[bool]) -> Optional[bool]:
    if a is False or b is False:
        return False
    if a is None or b is None:
        return None
    return True


def _kleene_or(a: Optional[bool], b: Optional[bool]) -> Optional[bool]:
    if a is True or b is True:
        return True
    if a is None or b is None:
        return None
    return False


def _scalar_binop(op: str, lhs, ldt: DataType, rhs, rdt: DataType):
    if op == "and":
        return _kleene_and(None if lhs is None else bool(lhs),
                           None if rhs is None else bool(rhs))
    if op == "or":
        return _kleene_or(None if lhs is None else bool(lhs),
                          None if rhs is None else bool(rhs))

    if lhs is None or rhs is None:
        return None

    if op in _CMP:
        return _raw_compare(op, lhs, ldt, rhs, rdt)

    if op in ("+", "-", "*", "/", "%"):
        if op == "/":
            if rhs == 0:
                return None
            value = lhs / rhs
        elif op == "%":
            if rhs == 0:
                return None
            value = lhs % rhs
        elif op == "+":
            value = lhs + rhs
        elif op == "-":
            value = lhs - rhs
        else:
            value = lhs * rhs
        # Result typing mirrors _eval_binop: timestamp arithmetic stays a
        # timestamp (difference of two is BIGINT), division is DOUBLE,
        # everything else follows numeric promotion.
        if ldt == DataType.TIMESTAMP or rdt == DataType.TIMESTAMP:
            both_ts = ldt == DataType.TIMESTAMP and rdt == DataType.TIMESTAMP
            dtype = (DataType.BIGINT if (op == "-" and both_ts)
                     else DataType.TIMESTAMP)
        elif op == "/":
            dtype = DataType.DOUBLE
        elif ldt == DataType.DOUBLE or rdt == DataType.DOUBLE:
            dtype = DataType.DOUBLE
        else:
            dtype = DataType.BIGINT
        return _coerce(value, dtype)

    raise ExecutionError(f"unknown binary operator {op}")


def cast_scalar(value, source: DataType, target: DataType):
    """Scalar twin of :func:`repro.db.expr.cast_column`."""
    if value is None or source == target:
        return value
    if target == DataType.VARCHAR:
        return render_value(value, source)
    if source == DataType.VARCHAR and target == DataType.TIMESTAMP:
        from repro.util.timefmt import parse_iso8601

        return parse_iso8601(str(value))
    if source == DataType.VARCHAR and target in (DataType.BIGINT,
                                                 DataType.DOUBLE):
        return int(str(value)) if target == DataType.BIGINT else float(str(value))
    try:
        return _coerce(value, target)
    except (TypeError, ValueError) as exc:
        raise ExecutionError(f"cannot cast {source} to {target}") from exc


# ---------------------------------------------------------------------------
# Row-at-a-time operators
# ---------------------------------------------------------------------------

_NAN_KEY = ("<nan>",)


def _hash_key(value):
    """Hashable group/join key: NaNs collapse, like np.unique's equal_nan."""
    if isinstance(value, float) and math.isnan(value):
        return _NAN_KEY
    return value


def _chunk_rows(chunk) -> list[Row]:
    cols = list(chunk.columns.items())
    return [{cid: col.value_at(i) for cid, col in cols}
            for i in range(chunk.length)]


def iter_rows(node: ph.PhysicalNode, ctx: ph.ExecutionContext) -> list[Row]:
    """Interpret a physical plan row-at-a-time; returns rows in order."""
    if isinstance(node, ph.PFilter):
        ctx.operators_run += 1
        return [row for row in iter_rows(node.child, ctx)
                if eval_scalar(node.predicate, row) is True]

    if isinstance(node, ph.PProject):
        ctx.operators_run += 1
        rows = iter_rows(node.child, ctx)
        return [{out.cid: eval_scalar(expr, row)
                 for out, expr in zip(node.schema, node.exprs)}
                for row in rows]

    if isinstance(node, ph.PLimit):
        ctx.operators_run += 1
        rows = iter_rows(node.child, ctx)
        start = node.offset
        stop = len(rows) if node.limit is None else start + node.limit
        return rows[start:stop]

    if isinstance(node, ph.PSort):
        ctx.operators_run += 1
        return _sort_rows(iter_rows(node.child, ctx), node.keys)

    if isinstance(node, ph.PDistinct):
        ctx.operators_run += 1
        seen: set = set()
        out = []
        for row in iter_rows(node.child, ctx):
            key = tuple(_hash_key(row[c.cid]) for c in node.schema)
            if key not in seen:
                seen.add(key)
                out.append(row)
        return out

    if isinstance(node, ph.PJoin):
        return _join_rows(node, ctx)

    if isinstance(node, ph.PAggregate):
        return _aggregate_rows(node, ctx)

    if isinstance(node, ph.PLazyFetch):
        return _lazy_fetch_rows(node, ctx)

    # Leaves (PTableScan / PDiskScan / PScanAll): the storage layer is
    # shared with the vectorised path — the oracle targets the executor,
    # not column materialisation.
    return _chunk_rows(node.execute(ctx))


# -- ORDER BY ----------------------------------------------------------------


def _sort_rows(rows: list[Row], keys) -> list[Row]:
    """Stable sort matching PSort's lexsort: NULLS LAST on every key
    regardless of direction (the null rank is never negated)."""
    decorated = [
        (tuple(eval_scalar(expr, row) for expr, _asc in keys), row)
        for row in rows
    ]
    directions = [asc for _expr, asc in keys]

    def compare(a, b) -> int:
        for ka, kb, ascending in zip(a[0], b[0], directions):
            if ka is None or kb is None:
                if ka is None and kb is None:
                    continue
                return 1 if ka is None else -1  # NULLS LAST, both directions
            a_nan = isinstance(ka, float) and math.isnan(ka)
            b_nan = isinstance(kb, float) and math.isnan(kb)
            if a_nan or b_nan:
                if a_nan and b_nan:
                    continue
                return 1 if a_nan else -1  # lexsort puts NaN last either way
            la = str(ka) if isinstance(ka, str) else ka
            lb = str(kb) if isinstance(kb, str) else kb
            if la == lb:
                continue
            verdict = -1 if la < lb else 1
            return verdict if ascending else -verdict
        return 0

    decorated.sort(key=functools.cmp_to_key(compare))
    return [row for _keys, row in decorated]


# -- Joins -------------------------------------------------------------------


def _hash_join(left_rows: list[Row], right_rows: list[Row],
               left_keys: list[int], right_keys: list[int]
               ) -> list[tuple[int, int]]:
    """(left, right) index pairs in the exact emission order of
    ``join_indices``: left rows in order, each paired with its matches in
    ascending right index.  NULL keys never match."""
    table: dict = {}
    for ri, row in enumerate(right_rows):
        key = tuple(row[cid] for cid in right_keys)
        if any(v is None for v in key):
            continue
        table.setdefault(tuple(_hash_key(v) for v in key), []).append(ri)
    pairs: list[tuple[int, int]] = []
    for li, row in enumerate(left_rows):
        key = tuple(row[cid] for cid in left_keys)
        if any(v is None for v in key):
            continue
        for ri in table.get(tuple(_hash_key(v) for v in key), ()):
            pairs.append((li, ri))
    return pairs


def _join_rows(node: ph.PJoin, ctx: ph.ExecutionContext) -> list[Row]:
    ctx.operators_run += 1
    left_rows = iter_rows(node.left, ctx)
    right_rows = iter_rows(node.right, ctx)

    if node.left_keys:
        pairs = _hash_join(left_rows, right_rows,
                           node.left_keys, node.right_keys)
    else:
        pairs = [(li, ri) for li in range(len(left_rows))
                 for ri in range(len(right_rows))]

    if node.residual is not None and pairs:
        pairs = [
            (li, ri) for li, ri in pairs
            if eval_scalar(node.residual,
                           {**left_rows[li], **right_rows[ri]}) is True
        ]

    merged = [{**left_rows[li], **right_rows[ri]} for li, ri in pairs]
    if node.kind == "left":
        # Matched bitmap is taken AFTER the residual, exactly like _run:
        # a left row whose only matches were vetoed is padded with NULLs.
        matched = {li for li, _ri in pairs}
        pad = {c.cid: None for c in node.right.schema}
        merged += [{**left_rows[li], **pad}
                   for li in range(len(left_rows)) if li not in matched]
    return merged


# -- Aggregation -------------------------------------------------------------


def _np_min(a: float, b: float) -> float:
    # np.minimum: NaN in either operand wins.
    if math.isnan(a) or math.isnan(b):
        return math.nan
    return a if a <= b else b


def _np_max(a: float, b: float) -> float:
    if math.isnan(a) or math.isnan(b):
        return math.nan
    return a if a >= b else b


def _group_sort_key(key_values: tuple):
    out = []
    for v in key_values:
        if v is None:
            out.append((0, 0))
        elif isinstance(v, str):
            out.append((1, v))
        elif isinstance(v, float) and math.isnan(v):
            out.append((2, 0))  # np.unique sorts NaN after every number
        else:
            out.append((1, v))
    return tuple(out)


def _aggregate_rows(node: ph.PAggregate, ctx: ph.ExecutionContext) -> list[Row]:
    ctx.operators_run += 1
    rows = iter_rows(node.child, ctx)

    if not node.group_exprs and not rows:
        out: Row = {}
        for col, agg in zip(node.agg_cols, node.aggregates):
            out[col.cid] = 0 if agg.name == "count" else None
        return [out]

    # Group rows preserving first-occurrence key values; output order is
    # ascending combined code = lexicographic over key columns.
    groups: dict = {}
    grouped_rows: dict = {}
    for row in rows:
        key_values = tuple(eval_scalar(g, row) for g in node.group_exprs)
        key = tuple(_hash_key(v) for v in key_values)
        if key not in groups:
            groups[key] = key_values
            grouped_rows[key] = []
        grouped_rows[key].append(row)

    if node.group_exprs:
        ordered_keys = sorted(groups,
                              key=lambda k: _group_sort_key(groups[k]))
    else:
        ordered_keys = [()]
        groups.setdefault((), ())
        grouped_rows.setdefault((), rows)

    out_rows: list[Row] = []
    for key in ordered_keys:
        member_rows = grouped_rows[key]
        out: Row = {}
        for col, value in zip(node.group_cols, groups[key]):
            out[col.cid] = value
        for col, agg in zip(node.agg_cols, node.aggregates):
            out[col.cid] = _scalar_aggregate(agg, col.dtype, member_rows)
        out_rows.append(out)
    return out_rows


def _scalar_aggregate(agg: ex.AggCall, dtype: DataType,
                      member_rows: list[Row]):
    if agg.name == "count" and agg.arg is None:
        return len(member_rows)

    assert agg.arg is not None
    values = [eval_scalar(agg.arg, row) for row in member_rows]

    if agg.distinct:
        seen: set = set()
        deduped = []
        for v in values:
            if v is None:
                continue
            k = _hash_key(v)
            if k not in seen:
                seen.add(k)
                deduped.append(v)
        values = deduped

    n_valid = sum(1 for v in values if v is not None)

    if agg.name == "count":
        return n_valid

    if n_valid == 0:
        return None

    arg_dt = agg.arg.dtype
    if agg.name in ("min", "max") and arg_dt == DataType.VARCHAR:
        strs = [str(v) for v in values if v is not None]
        return min(strs) if agg.name == "min" else max(strs)

    if agg.name in ("min", "max"):
        # Replicates reducer.reduceat over np.where(valid, x, sentinel):
        # NULL rows contribute the sentinel, NaNs poison the group.
        sentinels = (ph._MIN_SENTINELS if agg.name == "min"
                     else ph._MAX_SENTINELS)
        sentinel = float(sentinels[arg_dt])
        pick = _np_min if agg.name == "min" else _np_max
        best: Optional[float] = None
        for v in values:
            work = float(v) if v is not None else sentinel
            best = work if best is None else pick(best, work)
        assert best is not None
        return _coerce(best, dtype)

    # sum / avg / stddev_samp reduce the group's values in row order
    # (NULL rows contribute 0.0, exactly like np.where(valid, x, 0.0)).
    # Float addition is order- AND algorithm-sensitive: a Python loop or
    # np.add.reduce are both ulps away from np.add.reduceat's inner loop,
    # so the reduction primitive itself is part of the semantics the
    # oracle pins — the reference applies the same ufunc method to the
    # same values in the same order.
    work = np.array([float(v) if v is not None else 0.0 for v in values],
                    dtype=np.float64)
    acc = float(np.add.reduceat(work, [0])[0])

    if agg.name == "sum":
        return _coerce(acc, dtype)
    if agg.name == "avg":
        return acc / n_valid
    if agg.name == "stddev_samp":
        if n_valid <= 1:
            return None
        sq = float(np.add.reduceat(work * work, [0])[0])
        n = float(n_valid)
        variance = (sq - acc * acc / n) / (n - 1.0)
        if not math.isnan(variance):
            variance = max(variance, 0.0)
        return math.sqrt(variance) if variance >= 0 else math.nan
    if agg.name == "median":
        seg = np.array([float(v) for v in values if v is not None],
                       dtype=np.float64)
        return _coerce(float(np.median(seg)), dtype)
    raise ExecutionError(f"unknown aggregate {agg.name}")


# -- Lazy fetch (the run-time rewrite point) --------------------------------


def _lazy_fetch_rows(node: ph.PLazyFetch, ctx: ph.ExecutionContext
                     ) -> list[Row]:
    ctx.operators_run += 1
    lg_node = node.node
    binding = lg_node.binding
    key_names = list(binding.key_columns)
    meta_rows = iter_rows(node.meta, ctx)

    if not meta_rows:
        ctx.trace.append({"op": "rewrite", "table": lg_node.table_name,
                          "files": 0, "note": "metadata selected nothing"})
        return []

    meta_dtypes = {c.cid: c.dtype for c in node.meta.schema}
    keys = {}
    for name, cid in zip(key_names, lg_node.meta_key_cids):
        keys[name] = Column.from_values(
            meta_dtypes[cid], [row[cid] for row in meta_rows])
    time_bounds = node._resolve_time_bounds()
    ctx.trace.append({
        "op": "rewrite",
        "table": lg_node.table_name,
        "meta_rows": len(meta_rows),
        "needed": list(lg_node.needed),
        "time_bounds": time_bounds,
    })
    # The reference pairs rows by a real key join, so it asks for the key
    # columns whether or not a parent reads them.
    needed = list(lg_node.needed)
    needed += [name for name in key_names if name not in needed]
    fetched = binding.fetch(keys, needed, time_bounds, ctx.trace,
                            ctx.file_deps)
    lazy_len = int(fetched.run_lengths.sum())
    ctx.rows_extracted += lazy_len

    # Values sit under their cids; key columns no parent reads, under
    # their names.
    name_to_cid = {c.name: c.cid for c in lg_node.lazy_output}
    lazy_cols = {name_to_cid.get(n, n): col
                 for n, col in fetched.columns.items()}
    lazy_rows = [
        {cid: col.value_at(i) for cid, col in lazy_cols.items()}
        for i in range(lazy_len)
    ]

    for residual in lg_node.residuals:
        if not lazy_rows:
            break
        lazy_rows = [row for row in lazy_rows
                     if eval_scalar(residual, row) is True]

    pairs = _hash_join(meta_rows, lazy_rows, lg_node.meta_key_cids,
                       [name_to_cid.get(n, n) for n in key_names])
    out_cids = [c.cid for c in node.schema]
    rows = []
    for li, ri in pairs:
        merged = {**meta_rows[li], **lazy_rows[ri]}
        rows.append({cid: merged[cid] for cid in out_cids})
    return rows


# ---------------------------------------------------------------------------
# Materialisation
# ---------------------------------------------------------------------------


def rows_to_columns(rows: list[Row], output) -> dict[int, Column]:
    """Pack interpreter rows back into columns for Result construction."""
    return {
        out.cid: Column.from_values(out.dtype,
                                    [row[out.cid] for row in rows])
        for out in output
    }


def execute_rowpath(physical: ph.PhysicalNode, output,
                    ctx: ph.ExecutionContext) -> tuple[dict[int, Column], int]:
    """Run the plan through the scalar interpreter; returns (columns, rows)."""
    rows = iter_rows(physical, ctx)
    return rows_to_columns(rows, output), len(rows)
