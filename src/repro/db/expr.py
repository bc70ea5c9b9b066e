"""Expression trees and their vectorised, null-aware evaluation.

The parser produces *unbound* expressions whose :class:`ColumnRef` nodes
name columns textually.  The binder (in :mod:`repro.db.plan.logical`)
rewrites them into *bound* expressions where every node carries a result
``dtype`` and column references carry a plan-wide column id (``cid``).
Bound expressions evaluate against a *frame*: ``dict[cid, Column]``.

NULL semantics follow SQL three-valued logic: comparisons and arithmetic
propagate NULL; AND/OR use Kleene logic; predicates select rows that are
*true and valid*.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.db.column import Column
from repro.db.types import (
    DataType,
    coerce_literal,
    common_numeric,
    is_numeric,
    numpy_dtype,
    render_value,
)
from repro.errors import BindError, ExecutionError, TypeMismatchError
from repro.util.timefmt import parse_iso8601

# Parameter values for the query executing on this thread/context.  A
# compiled plan is shared by every execution of the same SQL (the plan
# cache), so parameter values can never live on the plan's Param nodes —
# they travel per-execution through this context variable, which
# isolates concurrent service sessions and interleaved cursors alike.
_ACTIVE_PARAMS: contextvars.ContextVar[Optional[dict]] = \
    contextvars.ContextVar("repro_active_params", default=None)


@contextlib.contextmanager
def active_params(values: Optional[dict]):
    """Make ``values`` (slot -> python value) visible to Param.eval."""
    if values is None:
        yield
        return
    token = _ACTIVE_PARAMS.set(values)
    try:
        yield
    finally:
        _ACTIVE_PARAMS.reset(token)


def current_param_values() -> Optional[dict]:
    """The parameter values bound to the execution on this context.

    Used by recycler signature rendering: a plan fragment containing
    placeholders is signed with the *values* of the current execution,
    so identical re-executions recycle while different bindings can
    never cross-contaminate.
    """
    return _ACTIVE_PARAMS.get()

# ---------------------------------------------------------------------------
# Node classes
# ---------------------------------------------------------------------------


class Expr:
    """Base class for all expression nodes.

    ``dtype`` is ``None`` until the node is bound.
    """

    dtype: Optional[DataType] = None

    def key(self) -> tuple:
        """Structural identity — used for GROUP BY matching and recycling."""
        raise NotImplementedError

    def children(self) -> list["Expr"]:
        return []

    def referenced_cids(self) -> set[int]:
        """All bound column ids this expression reads."""
        out: set[int] = set()
        stack: list[Expr] = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, BoundRef):
                out.add(node.cid)
            stack.extend(node.children())
        return out

    def eval(self, frame: dict[int, Column], length: int) -> Column:
        raise ExecutionError(f"cannot evaluate unbound expression {self!r}")


@dataclass
class ColumnRef(Expr):
    """An unbound column reference like ``station`` or ``F.station``."""

    parts: tuple[str, ...]

    @property
    def display(self) -> str:
        return ".".join(self.parts)

    def key(self) -> tuple:
        return ("colref", self.parts)

    def __repr__(self) -> str:
        return f"ColumnRef({self.display})"


@dataclass
class BoundRef(Expr):
    """A bound column reference: reads column ``cid`` from the frame."""

    cid: int
    dtype: DataType = None  # type: ignore[assignment]
    name: str = ""

    def key(self) -> tuple:
        return ("bound", self.cid)

    def eval(self, frame: dict[int, Column], length: int) -> Column:
        try:
            return frame[self.cid]
        except KeyError:
            raise ExecutionError(
                f"column #{self.cid} ({self.name or 'unnamed'}) missing from frame"
            ) from None

    def __repr__(self) -> str:
        return f"BoundRef(#{self.cid}:{self.name})"


@dataclass
class Literal(Expr):
    """A constant; bound literals carry their coerced value and dtype."""

    value: object
    dtype: Optional[DataType] = None

    def key(self) -> tuple:
        return ("lit", self.value, self.dtype)

    def eval(self, frame: dict[int, Column], length: int) -> Column:
        if self.dtype is None:
            raise ExecutionError("unbound literal")
        return Column.constant(self.dtype, self.value, length)

    def __repr__(self) -> str:
        return f"Literal({self.value!r})"


@dataclass
class Param(Expr):
    """A prepared-statement placeholder: ``?`` (int slot) or ``:name``.

    The dtype is inferred at bind time from the surrounding expression
    (the comparison peer, the BETWEEN/IN operand, an enclosing CAST).
    The *value* is never stored on the node — plans containing Param
    nodes are shared across executions, so values are read per
    execution from :data:`_ACTIVE_PARAMS`.
    """

    slot: "int | str"
    dtype: Optional[DataType] = None

    @property
    def display(self) -> str:
        return f"?{self.slot + 1}" if isinstance(self.slot, int) \
            else f":{self.slot}"

    def key(self) -> tuple:
        return ("param", self.slot)

    def eval(self, frame: dict[int, Column], length: int) -> Column:
        if self.dtype is None:
            raise ExecutionError(
                f"parameter {self.display} was never bound to a type"
            )
        values = _ACTIVE_PARAMS.get()
        if values is None or self.slot not in values:
            raise ExecutionError(
                f"no value bound for parameter {self.display}"
            )
        try:
            value = coerce_literal(values[self.slot], self.dtype)
        except (TypeError, ValueError) as exc:
            raise ExecutionError(
                f"parameter {self.display}: cannot bind "
                f"{values[self.slot]!r} as {self.dtype}"
            ) from exc
        return Column.constant(self.dtype, value, length)

    def __repr__(self) -> str:
        return f"Param({self.display})"


@dataclass
class BinOp(Expr):
    """Binary operator: arithmetic, comparison, AND/OR."""

    op: str
    left: Expr
    right: Expr
    dtype: Optional[DataType] = None

    def key(self) -> tuple:
        return ("bin", self.op, self.left.key(), self.right.key())

    def children(self) -> list[Expr]:
        return [self.left, self.right]

    def eval(self, frame: dict[int, Column], length: int) -> Column:
        left = self.left.eval(frame, length)
        right = self.right.eval(frame, length)
        return _eval_binop(self.op, left, right)

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


@dataclass
class UnOp(Expr):
    """Unary minus or NOT."""

    op: str  # '-' | 'not'
    operand: Expr
    dtype: Optional[DataType] = None

    def key(self) -> tuple:
        return ("un", self.op, self.operand.key())

    def children(self) -> list[Expr]:
        return [self.operand]

    def eval(self, frame: dict[int, Column], length: int) -> Column:
        inner = self.operand.eval(frame, length)
        if self.op == "-":
            return Column(inner.dtype, -inner.values, inner.valid)
        if self.op == "not":
            return Column(DataType.BOOLEAN, ~inner.values.astype(bool), inner.valid)
        raise ExecutionError(f"unknown unary operator {self.op}")


@dataclass
class FuncCall(Expr):
    """Scalar function call."""

    name: str
    args: list[Expr]
    dtype: Optional[DataType] = None

    def key(self) -> tuple:
        return ("func", self.name, tuple(a.key() for a in self.args))

    def children(self) -> list[Expr]:
        return list(self.args)

    def eval(self, frame: dict[int, Column], length: int) -> Column:
        spec = FUNCTIONS.get(self.name)
        if spec is None:
            raise ExecutionError(f"unknown function {self.name}")
        cols = [a.eval(frame, length) for a in self.args]
        return spec.impl(cols, length)


@dataclass
class AggCall(Expr):
    """Aggregate call placeholder — computed by the Aggregate operator.

    ``arg is None`` encodes ``COUNT(*)``.
    """

    name: str
    arg: Optional[Expr]
    distinct: bool = False
    dtype: Optional[DataType] = None

    def key(self) -> tuple:
        return ("agg", self.name, self.distinct,
                None if self.arg is None else self.arg.key())

    def children(self) -> list[Expr]:
        return [] if self.arg is None else [self.arg]

    def __repr__(self) -> str:
        inner = "*" if self.arg is None else repr(self.arg)
        word = "DISTINCT " if self.distinct else ""
        return f"{self.name.upper()}({word}{inner})"


@dataclass
class Between(Expr):
    """``x BETWEEN lo AND hi`` (inclusive)."""

    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False
    dtype: Optional[DataType] = None

    def key(self) -> tuple:
        return ("between", self.negated, self.operand.key(), self.low.key(),
                self.high.key())

    def children(self) -> list[Expr]:
        return [self.operand, self.low, self.high]

    def eval(self, frame: dict[int, Column], length: int) -> Column:
        lower = _eval_binop(">=", self.operand.eval(frame, length),
                            self.low.eval(frame, length))
        upper = _eval_binop("<=", self.operand.eval(frame, length),
                            self.high.eval(frame, length))
        both = _eval_binop("and", lower, upper)
        if self.negated:
            return Column(DataType.BOOLEAN, ~both.values, both.valid)
        return both


@dataclass
class InList(Expr):
    """``x IN (v1, v2, ...)`` over literal lists."""

    operand: Expr
    items: list[Expr]
    negated: bool = False
    dtype: Optional[DataType] = None

    def key(self) -> tuple:
        return ("in", self.negated, self.operand.key(),
                tuple(i.key() for i in self.items))

    def children(self) -> list[Expr]:
        return [self.operand] + list(self.items)

    def eval(self, frame: dict[int, Column], length: int) -> Column:
        # Three-valued: TRUE on a match; otherwise NULL when the operand
        # or an item is NULL, else FALSE.
        operand = self.operand.eval(frame, length)
        hit = np.zeros(length, dtype=bool)
        unknown = np.zeros(length, dtype=bool)
        for item in self.items:
            equal = _eval_binop("=", operand, item.eval(frame, length))
            known = equal.validity()
            hit |= equal.values & known
            unknown |= ~known
        valid = hit | ~unknown
        return Column(DataType.BOOLEAN, ~hit if self.negated else hit,
                      None if valid.all() else valid)


@dataclass
class IsNull(Expr):
    """``x IS [NOT] NULL`` — never returns NULL itself."""

    operand: Expr
    negated: bool = False
    dtype: Optional[DataType] = None

    def key(self) -> tuple:
        return ("isnull", self.negated, self.operand.key())

    def children(self) -> list[Expr]:
        return [self.operand]

    def eval(self, frame: dict[int, Column], length: int) -> Column:
        inner = self.operand.eval(frame, length)
        nulls = ~inner.validity()
        return Column(DataType.BOOLEAN, ~nulls if self.negated else nulls)


@dataclass
class Like(Expr):
    """``x [NOT] LIKE pattern`` with ``%`` and ``_`` wildcards."""

    operand: Expr
    pattern: str
    negated: bool = False
    dtype: Optional[DataType] = None

    def key(self) -> tuple:
        return ("like", self.negated, self.operand.key(), self.pattern)

    def children(self) -> list[Expr]:
        return [self.operand]

    def eval(self, frame: dict[int, Column], length: int) -> Column:
        operand = self.operand.eval(frame, length)
        regex = _like_regex(self.pattern)
        hits = _per_distinct(operand,
                             lambda text: regex.fullmatch(text) is not None,
                             DataType.BOOLEAN)
        if self.negated:
            return Column(DataType.BOOLEAN, ~hits.values, hits.valid)
        return hits


@dataclass
class Case(Expr):
    """Searched CASE: ``CASE WHEN c THEN v ... [ELSE e] END``."""

    whens: list[tuple[Expr, Expr]]
    default: Optional[Expr] = None
    dtype: Optional[DataType] = None

    def key(self) -> tuple:
        return (
            "case",
            tuple((c.key(), v.key()) for c, v in self.whens),
            None if self.default is None else self.default.key(),
        )

    def children(self) -> list[Expr]:
        out: list[Expr] = []
        for cond, value in self.whens:
            out.extend([cond, value])
        if self.default is not None:
            out.append(self.default)
        return out

    def eval(self, frame: dict[int, Column], length: int) -> Column:
        assert self.dtype is not None
        fills: list[tuple[np.ndarray, Column]] = []
        remaining = np.ones(length, dtype=bool)
        for cond, value in self.whens:
            cond_col = cond.eval(frame, length)
            fire = remaining & cond_col.values.astype(bool) & cond_col.validity()
            if fire.any():
                fills.append((fire, value.eval(frame, length)))
            remaining &= ~fire
        if self.default is not None and remaining.any():
            fills.append((remaining, self.default.eval(frame, length)))
        return _overlay(self.dtype, length, fills)


@dataclass
class Cast(Expr):
    """Explicit ``CAST(x AS type)``."""

    operand: Expr
    target: DataType
    dtype: Optional[DataType] = None

    def key(self) -> tuple:
        return ("cast", self.target, self.operand.key())

    def children(self) -> list[Expr]:
        return [self.operand]

    def eval(self, frame: dict[int, Column], length: int) -> Column:
        inner = self.operand.eval(frame, length)
        return cast_column(inner, self.target)


@dataclass
class Star(Expr):
    """``*`` or ``alias.*`` in a select list (expanded by the binder)."""

    qualifier: Optional[str] = None

    def key(self) -> tuple:
        return ("star", self.qualifier)


# ---------------------------------------------------------------------------
# Evaluation helpers
# ---------------------------------------------------------------------------


def _like_to_regex(pattern: str) -> str:
    import re

    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return "".join(out)


@functools.lru_cache(maxsize=256)
def _like_regex(pattern: str):
    import re

    return re.compile(_like_to_regex(pattern), re.DOTALL)


def _merge_valid(left: Column, right: Column) -> np.ndarray | None:
    if left.valid is None and right.valid is None:
        return None
    return left.validity() & right.validity()


_CMP_OPS = {"=", "<>", "!=", "<", "<=", ">", ">="}
_ARITH_OPS = {"+", "-", "*", "/", "%"}


def _compare_arrays(op: str, lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    if op == "=":
        return lhs == rhs
    if op in ("<>", "!="):
        return lhs != rhs
    if op == "<":
        return lhs < rhs
    if op == "<=":
        return lhs <= rhs
    if op == ">":
        return lhs > rhs
    return lhs >= rhs


def _eval_binop(op: str, left: Column, right: Column) -> Column:
    if op in ("and", "or"):
        lv = left.values.astype(bool)
        rv = right.values.astype(bool)
        l_ok, r_ok = left.validity(), right.validity()
        if op == "and":
            values = lv & rv
            # Kleene: definite false when either side is a valid false.
            definite = (l_ok & ~lv) | (r_ok & ~rv) | (l_ok & r_ok)
        else:
            values = lv | rv
            definite = (l_ok & lv) | (r_ok & rv) | (l_ok & r_ok)
        valid = None if definite.all() else definite
        return Column(DataType.BOOLEAN, values, valid)

    if op in _CMP_OPS:
        valid = _merge_valid(left, right)
        if left.dtype == DataType.VARCHAR and right.dtype == DataType.VARCHAR:
            # Codes over one sorted uniques compare as the strings do.
            left, right = Column.unified([left, right])
        elif DataType.VARCHAR in (left.dtype, right.dtype):
            # A string never equals a number, as in Python.  (The binder
            # parses string literals met by timestamps; what reaches here
            # is a bare NULL, typed VARCHAR, or a string column.)
            values = np.full(len(left), op in ("<>", "!="))
            return Column(DataType.BOOLEAN, values, valid)
        with np.errstate(invalid="ignore"):
            values = _compare_arrays(op, left.values, right.values)
        return Column(DataType.BOOLEAN, values, valid)

    if op in _ARITH_OPS:
        valid = _merge_valid(left, right)
        with np.errstate(divide="ignore", invalid="ignore"):
            if op == "+":
                values = left.values + right.values
            elif op == "-":
                values = left.values - right.values
            elif op == "*":
                values = left.values * right.values
            elif op == "/":
                values = left.values / np.where(right.values == 0, np.nan, right.values)
                zero = right.values == 0
                if zero.any():
                    valid = (valid if valid is not None
                             else np.ones(len(left), dtype=bool)) & ~zero
                    values = np.where(zero, 0.0, values)
            else:  # %
                rhs = np.where(right.values == 0, 1, right.values)
                values = left.values % rhs
                zero = right.values == 0
                if zero.any():
                    valid = (valid if valid is not None
                             else np.ones(len(left), dtype=bool)) & ~zero
        if left.dtype == DataType.TIMESTAMP or right.dtype == DataType.TIMESTAMP:
            # timestamp ± integer stays a timestamp; difference is BIGINT.
            both_ts = (left.dtype == DataType.TIMESTAMP
                       and right.dtype == DataType.TIMESTAMP)
            dtype = (DataType.BIGINT if (op == "-" and both_ts)
                     else DataType.TIMESTAMP)
        elif op == "/":
            dtype = DataType.DOUBLE
        else:
            dtype = common_numeric(left.dtype, right.dtype)
        return Column.from_numpy(dtype, np.asarray(values), valid)

    raise ExecutionError(f"unknown binary operator {op}")


def _per_distinct(col: Column, fn: Callable[[str], object],
                  dtype: DataType) -> Column:
    """``fn`` applied to a VARCHAR column once per distinct value its
    valid rows hold, gathered back by code; NULL rows stay NULL."""
    codes = col.values
    live = codes if col.valid is None else codes[col.valid]
    used = np.flatnonzero(np.bincount(live, minlength=len(col.uniques)))
    results = [fn(text) for text in col.uniques[used].tolist()]
    if not results:
        return Column.nulls(dtype, len(col))
    slot = np.zeros(len(col.uniques), dtype=np.int64)
    slot[used] = np.arange(len(used))
    rows = slot[codes]
    if dtype == DataType.VARCHAR:
        return Column.from_codes(rows, results, col.valid)
    return Column(dtype, np.array(results, dtype=numpy_dtype(dtype))[rows],
                  col.valid)


def _distinct_rows(col: Column) -> tuple[np.ndarray, np.ndarray]:
    """``(first, inverse)`` over a non-string column's distinct bit
    patterns: row ``i`` holds the value of row ``first[inverse[i]]``.
    Bits, not values, so ``-0.0`` and ``0.0`` stay apart."""
    bits = col.values.view(np.dtype(f"u{col.values.dtype.itemsize}"))
    _bits, first, inverse = np.unique(bits, return_index=True,
                                      return_inverse=True)
    return first, inverse


def _as_text(col: Column) -> Column:
    """A string-function argument as VARCHAR: a non-string column's
    values go through Python ``str()`` once per distinct value."""
    if col.dtype == DataType.VARCHAR:
        return col
    first, inverse = _distinct_rows(col)
    return Column.from_codes(inverse, [str(v) for v in col.values[first]],
                             col.valid)


def _overlay(dtype: DataType, length: int,
             fills: list[tuple[np.ndarray, Column]]) -> Column:
    """Rows picked from several columns: where a fill's mask is set the
    row (value and validity) comes from its column; rows no mask covers
    are NULL.  VARCHAR columns are first re-coded over shared uniques."""
    columns = [Column.nulls(dtype, length)] + [col for _mask, col in fills]
    if dtype == DataType.VARCHAR:
        columns = Column.unified([_as_text(col) for col in columns])
    elif any(col.dtype == DataType.VARCHAR and mask.any()
             for mask, col in fills):
        raise ExecutionError(f"cannot use a string as {dtype}")
    base = columns[0]
    values = base.values.copy()
    valid = np.zeros(length, dtype=bool)
    for (mask, _col), col in zip(fills, columns[1:]):
        values[mask] = col.values[mask]
        valid[mask] = col.validity()[mask]
    return Column(dtype, values, None if valid.all() else valid,
                  base.uniques)


_PARSERS = {
    DataType.TIMESTAMP: parse_iso8601,
    DataType.BIGINT: int,
    DataType.DOUBLE: float,
    DataType.BOOLEAN: bool,
}


def cast_column(col: Column, target: DataType) -> Column:
    """Cast a column to ``target``, with VARCHAR↔TIMESTAMP support."""
    if col.dtype == target:
        return col
    if target == DataType.VARCHAR:
        first, inverse = _distinct_rows(col)
        rendered = [render_value(v, col.dtype)
                    for v in Column(col.dtype, col.values[first]).to_pylist()]
        return Column.from_codes(inverse, rendered, col.valid)
    if col.dtype == DataType.VARCHAR:
        return _per_distinct(col, _PARSERS[target], target)
    try:
        return Column(target, col.values.astype(numpy_dtype(target)), col.valid)
    except (TypeError, ValueError) as exc:
        raise ExecutionError(f"cannot cast {col.dtype} to {target}") from exc


# ---------------------------------------------------------------------------
# Scalar function registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FunctionSpec:
    """Registry entry: argument checking + result typing + implementation."""

    name: str
    min_args: int
    max_args: int
    result_type: Callable[[list[DataType]], DataType]
    impl: Callable[[list[Column], int], Column]


def _numeric_passthrough(args: list[DataType]) -> DataType:
    if not is_numeric(args[0]):
        raise TypeMismatchError(f"expected a numeric argument, got {args[0]}")
    return args[0]


def _double_result(args: list[DataType]) -> DataType:
    if not is_numeric(args[0]):
        raise TypeMismatchError(f"expected a numeric argument, got {args[0]}")
    return DataType.DOUBLE


def _unary_numpy(fn: Callable[[np.ndarray], np.ndarray],
                 result: DataType | None = None):
    def impl(cols: list[Column], length: int) -> Column:
        col = cols[0]
        with np.errstate(invalid="ignore", divide="ignore"):
            values = fn(col.values)
        dtype = result or col.dtype
        return Column.from_numpy(dtype, np.asarray(values), col.valid)

    return impl


def _impl_round(cols: list[Column], length: int) -> Column:
    col = cols[0]
    digits = int(cols[1].values[0]) if len(cols) > 1 else 0
    return Column.from_numpy(DataType.DOUBLE, np.round(col.values.astype(float), digits),
                             col.valid)


def _impl_coalesce(cols: list[Column], length: int) -> Column:
    if cols[0].valid is None:
        return cols[0]
    filled = np.zeros(length, dtype=bool)
    fills = []
    for col in cols:
        take = col.validity() & ~filled
        fills.append((take, col))
        filled |= take
    return _overlay(cols[0].dtype, length, fills)


def _impl_nullif(cols: list[Column], length: int) -> Column:
    base, other = cols
    equal = _eval_binop("=", base, other)
    hit = equal.values.astype(bool) & equal.validity()
    valid = base.validity() & ~hit
    return Column(base.dtype, base.values, None if valid.all() else valid,
                  base.uniques)


def _string_impl(fn: Callable[[str], object], result: DataType):
    def impl(cols: list[Column], length: int) -> Column:
        return _per_distinct(_as_text(cols[0]), fn, result)

    return impl


def _per_distinct_tuple(columns: list[np.ndarray], fn, valid) -> Column:
    """``fn`` applied once per distinct row of aligned integer arrays
    (string codes, substr bounds), gathered back into a VARCHAR column."""
    keys = np.stack([c.astype(np.int64) for c in columns])
    distinct, inverse = np.unique(keys, axis=1, return_inverse=True)
    return Column.from_codes(inverse.reshape(-1),
                             [fn(*key) for key in distinct.T.tolist()],
                             valid)


def _impl_substr(cols: list[Column], length: int) -> Column:
    base = _as_text(cols[0])
    uniques = base.uniques

    def cut(code, start, count=None):
        text = uniques[code]
        begin = max(start - 1, 0)
        return text[begin:] if count is None else text[begin:begin + count]

    return _per_distinct_tuple([base.values] + [c.values for c in cols[1:]],
                               cut, base.valid)


def _impl_concat(cols: list[Column], length: int) -> Column:
    texts = [_as_text(c) for c in cols]
    valid = None
    for c in texts:
        if c.valid is not None:
            valid = c.validity() if valid is None else (valid & c.validity())
    return _per_distinct_tuple(
        [c.values for c in texts],
        lambda *codes: "".join(c.uniques[code]
                               for c, code in zip(texts, codes)),
        valid)


def _timestamp_part(part: str):
    def impl(cols: list[Column], length: int) -> Column:
        col = cols[0]
        stamps = col.values.astype("datetime64[us]")
        if part == "year":
            values = stamps.astype("datetime64[Y]").astype(np.int64) + 1970
        elif part == "month":
            values = stamps.astype("datetime64[M]").astype(np.int64) % 12 + 1
        elif part == "day":
            values = (stamps.astype("datetime64[D]")
                      - stamps.astype("datetime64[M]")).astype(np.int64) + 1
        elif part == "hour":
            values = (col.values // 3_600_000_000) % 24
        elif part == "minute":
            values = (col.values // 60_000_000) % 60
        else:  # second
            values = (col.values // 1_000_000) % 60
        return Column.from_numpy(DataType.BIGINT, values.astype(np.int64), col.valid)

    return impl


def _impl_greatest_least(best: Callable):
    def impl(cols: list[Column], length: int) -> Column:
        values = cols[0].values.astype(float)
        for c in cols[1:]:
            values = best(values, c.values.astype(float))
        valid = None
        for c in cols:
            if c.valid is not None:
                valid = c.validity() if valid is None else (valid & c.validity())
        dtype = cols[0].dtype if all(c.dtype == cols[0].dtype for c in cols) \
            else DataType.DOUBLE
        return Column.from_numpy(dtype, values, valid)

    return impl


def _first_arg_type(args: list[DataType]) -> DataType:
    return args[0]


def _no_string_args(args: list[DataType]) -> DataType:
    if DataType.VARCHAR in args:
        raise TypeMismatchError("expected numbers or timestamps, got VARCHAR")
    return args[0]


def _require_timestamp(args: list[DataType]) -> DataType:
    if args[0] != DataType.TIMESTAMP:
        raise TypeMismatchError(f"expected TIMESTAMP, got {args[0]}")
    return DataType.BIGINT


FUNCTIONS: dict[str, FunctionSpec] = {}


def _register(name: str, min_args: int, max_args: int, result_type, impl) -> None:
    FUNCTIONS[name] = FunctionSpec(name, min_args, max_args, result_type, impl)


_register("abs", 1, 1, _numeric_passthrough, _unary_numpy(np.abs))
_register("round", 1, 2, _double_result, _impl_round)
_register("floor", 1, 1, _double_result, _unary_numpy(np.floor, DataType.DOUBLE))
_register("ceil", 1, 1, _double_result, _unary_numpy(np.ceil, DataType.DOUBLE))
_register("sqrt", 1, 1, _double_result, _unary_numpy(np.sqrt, DataType.DOUBLE))
_register("ln", 1, 1, _double_result, _unary_numpy(np.log, DataType.DOUBLE))
_register("log10", 1, 1, _double_result, _unary_numpy(np.log10, DataType.DOUBLE))
_register("exp", 1, 1, _double_result, _unary_numpy(np.exp, DataType.DOUBLE))
_register("lower", 1, 1, lambda a: DataType.VARCHAR,
          _string_impl(str.lower, DataType.VARCHAR))
_register("upper", 1, 1, lambda a: DataType.VARCHAR,
          _string_impl(str.upper, DataType.VARCHAR))
_register("trim", 1, 1, lambda a: DataType.VARCHAR,
          _string_impl(str.strip, DataType.VARCHAR))
_register("length", 1, 1, lambda a: DataType.BIGINT,
          _string_impl(len, DataType.BIGINT))
_register("substr", 2, 3, lambda a: DataType.VARCHAR, _impl_substr)
_register("substring", 2, 3, lambda a: DataType.VARCHAR, _impl_substr)
_register("concat", 2, 8, lambda a: DataType.VARCHAR, _impl_concat)
_register("coalesce", 2, 8, _first_arg_type, _impl_coalesce)
_register("nullif", 2, 2, _first_arg_type, _impl_nullif)
_register("year", 1, 1, _require_timestamp, _timestamp_part("year"))
_register("month", 1, 1, _require_timestamp, _timestamp_part("month"))
_register("day", 1, 1, _require_timestamp, _timestamp_part("day"))
_register("hour", 1, 1, _require_timestamp, _timestamp_part("hour"))
_register("minute", 1, 1, _require_timestamp, _timestamp_part("minute"))
_register("second", 1, 1, _require_timestamp, _timestamp_part("second"))
_register("epoch_us", 1, 1, _require_timestamp,
          _unary_numpy(lambda v: v, DataType.BIGINT))
_register("greatest", 2, 8, _no_string_args, _impl_greatest_least(np.maximum))
_register("least", 2, 8, _no_string_args, _impl_greatest_least(np.minimum))


# ---------------------------------------------------------------------------
# Aggregate typing (implementations live in the physical Aggregate operator)
# ---------------------------------------------------------------------------

AGGREGATE_NAMES = {"count", "sum", "avg", "min", "max", "median", "stddev_samp"}


def aggregate_result_type(name: str, arg: Optional[DataType]) -> DataType:
    """Result type rules for the supported aggregates."""
    if name == "count":
        return DataType.BIGINT
    if arg is None:
        raise BindError(f"{name.upper()} requires an argument")
    if name in ("avg", "median", "stddev_samp"):
        if arg == DataType.TIMESTAMP:
            return DataType.TIMESTAMP if name == "median" else DataType.DOUBLE
        if not is_numeric(arg):
            raise TypeMismatchError(f"{name.upper()} needs a numeric argument")
        return DataType.DOUBLE
    if name == "sum":
        if not is_numeric(arg):
            raise TypeMismatchError("SUM needs a numeric argument")
        return arg
    if name in ("min", "max"):
        return arg
    raise BindError(f"unknown aggregate {name}")


def predicate_mask(col: Column) -> np.ndarray:
    """Rows selected by a predicate column: value is true AND valid."""
    return col.values.astype(bool) & col.validity()
