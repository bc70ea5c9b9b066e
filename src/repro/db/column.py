"""Typed, NumPy-backed columns with optional null masks.

A :class:`Column` is immutable-by-convention: operators produce new
columns.  ``valid`` is either ``None`` (all rows valid — the common case,
kept cheap) or a boolean array where ``False`` marks NULL.

A VARCHAR column has one representation: ``values`` holds int32 codes
into ``uniques``, a sorted object array of distinct ``str`` values.
Because ``uniques`` is sorted, code order is string order (plain Python
``str`` comparison), so comparisons, joins, grouping, sorting and
MIN/MAX work on the codes, and per-value work (LIKE, the string
functions, casts) runs once per distinct value and is gathered back by
code.  Strings become Python objects only where a result leaves the
engine: :meth:`Column.value_at` and :meth:`Column.to_pylist`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.db.types import DataType, numpy_dtype
from repro.errors import ExecutionError

CODE_DTYPE = np.int32
"""Physical dtype of VARCHAR codes."""


class Column:
    """One column of a (intermediate) result: dtype + values + null mask.

    For VARCHAR, ``values`` are :data:`CODE_DTYPE` codes and ``uniques``
    the sorted distinct strings they index; every other type has
    ``uniques is None``.  ``uniques`` may be a superset of the values
    present — take, filter and slice share their source's ``uniques``
    instead of compacting them — so ``len(uniques)`` bounds the distinct
    count without having to equal it.  Every code indexes ``uniques``,
    NULL rows included, but the code under a NULL row is never read.
    """

    __slots__ = ("dtype", "values", "valid", "uniques", "_mem_bytes")

    def __init__(self, dtype: DataType, values: np.ndarray,
                 valid: np.ndarray | None = None,
                 uniques: np.ndarray | None = None) -> None:
        self.dtype = dtype
        self.values = values
        self.valid = valid
        self.uniques = uniques
        self._mem_bytes: int | None = None  # lazy memory_bytes() cache
        if valid is not None and len(valid) != len(values):
            raise ExecutionError("null mask length does not match values")
        if (dtype == DataType.VARCHAR) != (uniques is not None):
            raise ExecutionError(
                "VARCHAR columns, and only they, carry their uniques")

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_values(cls, dtype: DataType, raw: Iterable) -> "Column":
        """Build from a Python iterable; ``None`` entries become NULLs."""
        items = list(raw)
        valid = None
        if any(v is None for v in items):
            valid = np.array([v is not None for v in items], dtype=bool)
        if dtype == DataType.VARCHAR:
            texts = ["" if v is None else str(v) for v in items]
            return cls.from_codes(np.arange(len(texts)), texts, valid)
        fill = False if dtype == DataType.BOOLEAN else 0
        values = np.array([fill if v is None else v for v in items],
                          dtype=numpy_dtype(dtype))
        return cls(dtype, values, valid)

    @classmethod
    def from_numpy(cls, dtype: DataType, array: np.ndarray,
                   valid: np.ndarray | None = None) -> "Column":
        """Wrap an existing array, coercing to the canonical physical dtype
        (an array of strings, for VARCHAR, is encoded into codes)."""
        if dtype == DataType.VARCHAR:
            return cls.from_codes(np.arange(len(array)),
                                  [str(v) for v in array.tolist()], valid)
        target = numpy_dtype(dtype)
        if array.dtype != target:
            array = array.astype(target)
        return cls(dtype, array, valid)

    @classmethod
    def from_codes(cls, codes: np.ndarray, strings: Sequence[str],
                   valid: np.ndarray | None = None) -> "Column":
        """The VARCHAR column whose row ``i`` is ``strings[codes[i]]``.

        ``strings`` may come in any order and repeat (one result per
        distinct input of a string function, one string per run of a
        page); they are sorted and deduplicated here, O(len(strings)).
        """
        uniques = sorted(set(strings))
        position = {text: code for code, text in enumerate(uniques)}
        remap = np.fromiter(map(position.__getitem__, strings),
                            dtype=CODE_DTYPE, count=len(strings))
        return cls(DataType.VARCHAR, remap[codes], valid,
                   np.array(uniques, dtype=object))

    @classmethod
    def constant(cls, dtype: DataType, value, length: int) -> "Column":
        """A column repeating one value (used for literals and LEFT-join pads)."""
        if value is None:
            return cls.nulls(dtype, length)
        if dtype == DataType.VARCHAR:
            return cls(dtype, np.zeros(length, dtype=CODE_DTYPE), None,
                       np.array([str(value)], dtype=object))
        return cls(dtype, np.full(length, value, dtype=numpy_dtype(dtype)))

    @classmethod
    def nulls(cls, dtype: DataType, length: int) -> "Column":
        """An all-NULL column."""
        valid = np.zeros(length, dtype=bool)
        if dtype == DataType.VARCHAR:
            return cls(dtype, np.zeros(length, dtype=CODE_DTYPE), valid,
                       np.array([""], dtype=object))
        fill = False if dtype == DataType.BOOLEAN else 0
        return cls(dtype, np.full(length, fill, dtype=numpy_dtype(dtype)),
                   valid)

    # -- basics --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.values)

    @property
    def has_nulls(self) -> bool:
        return self.valid is not None and not bool(self.valid.all())

    def validity(self) -> np.ndarray:
        """A boolean validity array (materialises the all-valid case)."""
        if self.valid is None:
            return np.ones(len(self.values), dtype=bool)
        return self.valid

    def value_at(self, index: int):
        """Python value at ``index`` (``None`` for NULL)."""
        if self.valid is not None and not self.valid[index]:
            return None
        value = self.values[index]
        if self.dtype == DataType.VARCHAR:
            return self.uniques[value]
        if self.dtype == DataType.BOOLEAN:
            return bool(value)
        if self.dtype == DataType.DOUBLE:
            return float(value)
        return int(value)

    def to_pylist(self) -> list:
        """The whole column as Python values (``None`` for NULL)."""
        if self.dtype == DataType.VARCHAR:
            out = self.uniques[self.values].tolist()
        else:
            out = self.values.astype(numpy_dtype(self.dtype),
                                     copy=False).tolist()
        if self.valid is not None:
            for row in np.flatnonzero(~self.valid).tolist():
                out[row] = None
        return out

    # -- transformations ------------------------------------------------------

    def take(self, indices: np.ndarray) -> "Column":
        """Gather rows by position."""
        return self._pick(indices)

    def filter(self, mask: np.ndarray) -> "Column":
        """Keep rows where ``mask`` is True."""
        return self._pick(mask)

    def slice(self, start: int, stop: int) -> "Column":
        return self._pick(slice(start, stop))

    def _pick(self, rows) -> "Column":
        """The rows an index array, mask or slice selects; a VARCHAR
        column's ``uniques`` are shared, not compacted."""
        valid = None if self.valid is None else self.valid[rows]
        return Column(self.dtype, self.values[rows], valid, self.uniques)

    def rows_equal(self, value) -> np.ndarray:
        """The mask of rows equal to ``value``; a NULL row never is.  A
        VARCHAR column compares its codes with the value's one code, so
        nothing is re-coded."""
        if self.dtype == DataType.VARCHAR:
            code = int(np.searchsorted(self.uniques, value))
            if code == len(self.uniques) or self.uniques[code] != value:
                return np.zeros(len(self), dtype=bool)
            value = code
        hit = self.values == value
        return hit if self.valid is None else hit & self.valid

    def with_nulls_at(self, invalid_mask: np.ndarray) -> "Column":
        """Mark additional rows NULL (used by LEFT joins)."""
        valid = self.validity() & ~invalid_mask
        return Column(self.dtype, self.values, valid, self.uniques)

    @staticmethod
    def unified(columns: Sequence["Column"]) -> list["Column"]:
        """VARCHAR columns re-coded over one shared ``uniques``.

        Columns that already share their uniques come back as they are;
        otherwise every column's codes are remapped into the sorted union
        (O(distinct) Python plus one fancy-index per column), so codes of
        different columns compare, join and merge directly.  A column
        whose uniques are the whole union keeps its codes as they are.
        """
        first = columns[0].uniques
        if all(c.uniques is first or _same_strings(c.uniques, first)
               for c in columns[1:]):
            return list(columns)
        union = np.array(sorted(set().union(
            *(c.uniques.tolist() for c in columns))), dtype=object)
        return [
            c if len(c.uniques) == len(union) else
            Column(DataType.VARCHAR,
                   np.searchsorted(union, c.uniques).astype(CODE_DTYPE)[
                       c.values],
                   c.valid, union)
            for c in columns
        ]

    @staticmethod
    def concat(parts: Sequence["Column"]) -> "Column":
        """Concatenate columns of identical dtype (VARCHAR parts are
        first re-coded over their merged uniques)."""
        if not parts:
            raise ExecutionError("cannot concatenate zero columns")
        dtype = parts[0].dtype
        if any(p.dtype != dtype for p in parts):
            raise ExecutionError("concat of mismatched column types")
        if dtype == DataType.VARCHAR:
            parts = Column.unified(parts)
        values = np.concatenate([p.values for p in parts])
        if any(p.valid is not None for p in parts):
            valid = np.concatenate([p.validity() for p in parts])
        else:
            valid = None
        return Column(dtype, values, valid, parts[0].uniques)

    # -- introspection ---------------------------------------------------------

    def memory_bytes(self) -> int:
        """Approximate resident bytes (drives cache budgets and exp. E4).

        The values (VARCHAR: the codes) plus, for VARCHAR, one 8-byte
        reference and the payload of each string in ``uniques``, matching
        what a dictionary-encoded column store holds.  Cached per
        instance (columns are immutable by convention) — this runs on
        every recycler admission.
        """
        if self._mem_bytes is not None:
            return self._mem_bytes
        total = self.values.nbytes
        if self.uniques is not None:
            total += self.uniques.size * 8 + sum(map(len, self.uniques))
        if self.valid is not None:
            total += self.valid.nbytes
        self._mem_bytes = int(total)
        return self._mem_bytes

    def factorize(self) -> tuple[np.ndarray, int]:
        """Map values to dense integer codes; NULL becomes code -1.

        Codes follow sort order of the distinct values, which keeps ORDER BY
        on codes consistent with value order.  Returns ``(codes, bound)``
        where ``bound`` is an exclusive upper bound for the codes: the
        exact distinct count for floats, ``len(uniques)`` for strings, and
        a (possibly sparse) value-range bound for narrow integer columns,
        which join/group-by code combination handles identically while
        skipping the O(n log n) sort on the hot lazy-join path.
        """
        if self.dtype == DataType.VARCHAR:
            codes = self.values.astype(np.int64)
            n_distinct = len(self.uniques)
        elif (self.values.dtype.kind in "iu" and len(self.values)
              and int(self.values.max()) - int(self.values.min()) < (1 << 21)):
            # Narrow integer range (seq_no, timestamps within a window):
            # order-preserving offset codes, no sort needed.
            lo = int(self.values.min())
            codes = self.values.astype(np.int64) - lo
            n_distinct = int(codes.max()) + 1
        else:
            uniques, codes = np.unique(self.values, return_inverse=True)
            codes = codes.astype(np.int64)
            n_distinct = len(uniques)
        if self.valid is not None:
            codes[~self.valid] = -1
        return codes, n_distinct

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        preview = ", ".join(str(self.value_at(i)) for i in range(min(5, len(self))))
        suffix = ", ..." if len(self) > 5 else ""
        return f"Column<{self.dtype}>[{preview}{suffix}] n={len(self)}"


def _same_strings(a: np.ndarray, b: np.ndarray) -> bool:
    return len(a) == len(b) and bool((a == b).all())
