"""Typed, NumPy-backed columns with optional null masks.

A :class:`Column` is immutable-by-convention: operators produce new
columns.  ``valid`` is either ``None`` (all rows valid — the common case,
kept cheap) or a boolean array where ``False`` marks NULL.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.db.types import DataType, numpy_dtype
from repro.errors import ExecutionError


class Column:
    """One column of a (intermediate) result: dtype + values + null mask."""

    __slots__ = ("dtype", "values", "valid", "_mem_bytes", "_dict")

    def __init__(self, dtype: DataType, values: np.ndarray,
                 valid: np.ndarray | None = None) -> None:
        self.dtype = dtype
        self.values = values
        self.valid = valid
        self._mem_bytes: int | None = None  # lazy memory_bytes() cache
        # Optional dictionary (codes, sorted uniques) of a VARCHAR column —
        # set by producers that know the value runs (lazy fetch assembly),
        # carried by take/filter/slice/concat, and read by joins, GROUP BY
        # and memory_bytes instead of walking the rows.
        self._dict: tuple[np.ndarray, list] | None = None
        if valid is not None and len(valid) != len(values):
            raise ExecutionError("null mask length does not match values")

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_values(cls, dtype: DataType, raw: Iterable) -> "Column":
        """Build from a Python iterable; ``None`` entries become NULLs."""
        items = list(raw)
        has_null = any(v is None for v in items)
        np_dtype = numpy_dtype(dtype)
        if dtype == DataType.VARCHAR:
            values = np.empty(len(items), dtype=object)
            for i, v in enumerate(items):
                values[i] = "" if v is None else str(v)
        else:
            fill = False if dtype == DataType.BOOLEAN else 0
            values = np.array(
                [fill if v is None else v for v in items], dtype=np_dtype
            )
        valid = None
        if has_null:
            valid = np.array([v is not None for v in items], dtype=bool)
        return cls(dtype, values, valid)

    @classmethod
    def from_numpy(cls, dtype: DataType, array: np.ndarray,
                   valid: np.ndarray | None = None) -> "Column":
        """Wrap an existing array, coercing to the canonical physical dtype."""
        target = numpy_dtype(dtype)
        if dtype == DataType.VARCHAR:
            if array.dtype != object:
                array = array.astype(object)
        elif array.dtype != target:
            array = array.astype(target)
        return cls(dtype, array, valid)

    @classmethod
    def constant(cls, dtype: DataType, value, length: int) -> "Column":
        """A column repeating one value (used for literals and LEFT-join pads)."""
        if value is None:
            return cls.nulls(dtype, length)
        if dtype == DataType.VARCHAR:
            values = np.empty(length, dtype=object)
            values[:] = str(value)
        else:
            values = np.full(length, value, dtype=numpy_dtype(dtype))
        return cls(dtype, values)

    @classmethod
    def nulls(cls, dtype: DataType, length: int) -> "Column":
        """An all-NULL column."""
        if dtype == DataType.VARCHAR:
            values = np.empty(length, dtype=object)
            values[:] = ""
        else:
            fill = False if dtype == DataType.BOOLEAN else 0
            values = np.full(length, fill, dtype=numpy_dtype(dtype))
        return cls(dtype, values, np.zeros(length, dtype=bool))

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
            return str(value)
        if self.dtype == DataType.BOOLEAN:
            return bool(value)
        if self.dtype == DataType.DOUBLE:
            return float(value)
        return int(value)

    def to_pylist(self) -> list:
        """The whole column as Python values."""
        return [self.value_at(i) for i in range(len(self))]

    # -- transformations ------------------------------------------------------

    def take(self, indices: np.ndarray) -> "Column":
        """Gather rows by position.

        A VARCHAR dictionary travels with the rows.  When the gather fans
        out (more indices than rows — a join repeating each metadata row
        once per sample), the small source's dictionary is computed
        first, so the wide result is never factorized row by row.
        """
        if self.dtype == DataType.VARCHAR and len(indices) > len(self.values):
            self.dictionary()
        return self._pick(indices)

    def filter(self, mask: np.ndarray) -> "Column":
        """Keep rows where ``mask`` is True."""
        return self._pick(mask)

    def slice(self, start: int, stop: int) -> "Column":
        return self._pick(slice(start, stop))

    def _pick(self, rows) -> "Column":
        """The rows an index array, mask or slice selects, dictionary
        included."""
        valid = None if self.valid is None else self.valid[rows]
        out = Column(self.dtype, self.values[rows], valid)
        if self._dict is not None:
            codes, uniques = self._dict
            out._dict = _compacted(codes[rows], uniques)
        return out

    def with_nulls_at(self, invalid_mask: np.ndarray) -> "Column":
        """Mark additional rows NULL (used by LEFT joins)."""
        valid = self.validity() & ~invalid_mask
        return Column(self.dtype, self.values, valid)

    @staticmethod
    def concat(parts: Sequence["Column"]) -> "Column":
        """Concatenate columns of identical dtype.  When every part
        carries a dictionary, so does the result."""
        if not parts:
            raise ExecutionError("cannot concatenate zero columns")
        dtype = parts[0].dtype
        if any(p.dtype != dtype for p in parts):
            raise ExecutionError("concat of mismatched column types")
        values = np.concatenate([p.values for p in parts])
        if any(p.valid is not None for p in parts):
            valid = np.concatenate([p.validity() for p in parts])
        else:
            valid = None
        out = Column(dtype, values, valid)
        if all(p._dict is not None for p in parts):
            out._dict = _merged([p._dict for p in parts])
        return out

    # -- introspection ---------------------------------------------------------

    def memory_bytes(self) -> int:
        """Approximate resident bytes (drives cache budgets and exp. E4).

        VARCHAR columns count one 8-byte reference per row plus each
        *distinct* string payload once, matching what a
        dictionary-encoded column store stores, plus the codes of a
        carried dictionary.  With a dictionary the distinct payloads are
        its uniques — O(distinct), no pass over the rows; without one,
        a C-speed ``set`` over them.  Cached per instance (columns are
        immutable by convention) — this runs on every recycler admission.
        """
        if self._mem_bytes is not None:
            return self._mem_bytes
        if self.dtype == DataType.VARCHAR:
            if self._dict is not None:
                codes, distinct = self._dict
                total = codes.nbytes  # resident dictionary codes
            else:
                distinct, total = set(self.values.tolist()), 0
            total += self.values.size * 8 + sum(map(len, distinct))
        else:
            total = self.values.nbytes
        if self.valid is not None:
            total += self.valid.nbytes
        self._mem_bytes = int(total)
        return self._mem_bytes

    def factorize(self) -> tuple[np.ndarray, int]:
        """Map values to dense integer codes; NULL becomes code -1.

        Codes follow sort order of the distinct values, which keeps ORDER BY
        on dictionary codes consistent with value order.  Returns
        ``(codes, bound)`` where ``bound`` is an exclusive upper bound for
        the codes — the exact distinct count for strings and floats, and a
        (possibly sparse) value-range bound for narrow integer columns,
        which join/group-by code combination handles identically while
        skipping the O(n log n) sort on the hot lazy-join path.
        """
        if self.dtype == DataType.VARCHAR:
            codes, uniques = self.dictionary()
            n_distinct = len(uniques)
            if self.valid is not None:
                codes = codes.copy()  # never mutate the cached codes
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

    def dictionary(self) -> tuple[np.ndarray, list]:
        """``(codes, sorted uniques)`` for a VARCHAR column, cached.

        Producers that know the value runs (lazy fetch assembly) pre-set
        this via :meth:`set_dictionary`, and columns derived by
        take/filter/slice/concat inherit it; otherwise it is computed once
        at C speed (set/map/fromiter — np.unique on object arrays falls
        back to per-element Python comparisons).  ``uniques`` is always
        exactly the distinct values present.  NULL rows carry the code of
        their placeholder value; :meth:`factorize` overlays -1.
        """
        if self._dict is not None:
            return self._dict
        if self.dtype != DataType.VARCHAR:
            raise ExecutionError("dictionary() requires a VARCHAR column")
        vals = self.values.tolist()
        try:
            uniques = sorted(set(vals))
        except TypeError:
            # Mixed non-string payloads: coerce like str(v) always did.
            vals = list(map(str, vals))
            uniques = sorted(set(vals))
        lookup = {v: i for i, v in enumerate(uniques)}
        codes = np.fromiter(map(lookup.__getitem__, vals),
                            dtype=np.int64, count=len(vals))
        self._dict = (codes, uniques)
        self._mem_bytes = None  # codes are resident: re-account on demand
        return self._dict

    def set_dictionary(self, codes: np.ndarray, uniques: list) -> None:
        """Install a precomputed dictionary (see :meth:`dictionary`)."""
        self._dict = (codes, uniques)
        self._mem_bytes = None  # codes are resident: re-account on demand

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        preview = ", ".join(str(self.value_at(i)) for i in range(min(5, len(self))))
        suffix = ", ..." if len(self) > 5 else ""
        return f"Column<{self.dtype}>[{preview}{suffix}] n={len(self)}"


def _compacted(codes: np.ndarray, uniques: list) -> tuple[np.ndarray, list]:
    """A selected subset's dictionary: drop the uniques no row uses any
    more and renumber, so ``uniques`` stays exactly the distinct values
    (factorize's count and VARCHAR MIN/MAX index by it)."""
    used = np.bincount(codes, minlength=len(uniques)) > 0
    if used.all():
        return codes, uniques
    renumber = np.cumsum(used) - 1
    return renumber[codes], [u for u, keep in zip(uniques, used.tolist())
                             if keep]


def _merged(dicts: list[tuple[np.ndarray, list]]) -> tuple[np.ndarray, list]:
    """One dictionary for concatenated parts: codes concatenate as they
    are when every part has the same uniques, otherwise each part's are
    remapped into the sorted union (O(distinct) Python per part)."""
    first = dicts[0][1]
    if all(uniques == first for _codes, uniques in dicts):
        return np.concatenate([codes for codes, _u in dicts]), first
    union = sorted(set().union(*(uniques for _codes, uniques in dicts)))
    position = {value: i for i, value in enumerate(union)}
    return np.concatenate([
        np.fromiter(map(position.__getitem__, uniques), dtype=np.int64,
                    count=len(uniques))[codes]
        for codes, uniques in dicts]), union
