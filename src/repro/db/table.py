"""Tables: columnar storage with schema and constraint metadata.

A :class:`Table` stores one :class:`~repro.db.column.Column` per attribute
(the column-store layout the paper's MonetDB host pioneered).  Tables keep
a monotonically increasing ``version`` that mutations bump; the recycler
uses it to invalidate cached intermediates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.db.column import Column
from repro.db.types import DataType
from repro.errors import CatalogError, ConstraintError, ExecutionError


@dataclass(frozen=True)
class ColumnSpec:
    """Schema entry for one column."""

    name: str
    dtype: DataType
    not_null: bool = False


@dataclass(frozen=True)
class ForeignKeySpec:
    """A foreign-key constraint (validated on demand)."""

    columns: tuple[str, ...]
    ref_table: str  # qualified name "schema.table"
    ref_columns: tuple[str, ...]


@dataclass
class TableSchema:
    """Ordered column specs plus key constraints."""

    columns: list[ColumnSpec]
    primary_key: tuple[str, ...] = ()
    foreign_keys: list[ForeignKeySpec] = field(default_factory=list)

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise CatalogError(f"duplicate column names in schema: {names}")
        for key_col in self.primary_key:
            if key_col not in names:
                raise CatalogError(f"primary key column {key_col!r} not in schema")

    def spec(self, name: str) -> ColumnSpec:
        for column in self.columns:
            if column.name == name:
                return column
        raise CatalogError(f"no column {name!r}")

    @property
    def names(self) -> list[str]:
        return [c.name for c in self.columns]


class Table:
    """A base table with columnar storage.

    A table may be **disk-backed**: attached to a
    :class:`~repro.storage.store.TableBacking` whose segment file holds
    the rows.  Columns then fault in lazily on first access — the lazy-ETL
    principle extended to I/O — and the first mutation materialises every
    column and detaches the backing (copy-on-write semantics), so DML
    behaves identically for resident and disk-backed tables.
    """

    def __init__(self, name: str, schema: TableSchema) -> None:
        self.name = name
        self.schema = schema
        self.version = 0
        self._columns: dict[str, Column] = {
            spec.name: Column.from_values(spec.dtype, [])
            for spec in schema.columns
        }
        self._pk_index: set | None = set() if schema.primary_key else None
        self._backing = None  # set via attach_backing()

    # -- disk backing -----------------------------------------------------------

    @property
    def disk_backing(self):
        """The storage backing, or ``None`` for purely resident tables."""
        return self._backing

    def attach_backing(self, backing) -> None:
        """Make this (empty) table serve rows from a segment file."""
        first = next(iter(self._columns.values()), None)
        if first is not None and len(first):
            raise CatalogError(
                f"cannot attach storage to non-empty table {self.name}"
            )
        self._backing = backing
        self._columns = {}
        # The PK index covers only resident rows; it is rebuilt from the
        # faulted columns when the first mutation materialises the table.
        self._pk_index = None

    def is_column_resident(self, name: str) -> bool:
        return name in self._columns

    def _fault_column(self, name: str) -> Column:
        self.schema.spec(name)  # raises CatalogError on unknown
        column = self._backing.load_column(name)
        self.adopt_column(name, column)
        return column

    def adopt_column(self, name: str, column: Column) -> None:
        """Keep a backed column that was read in full as the resident
        copy (a scan that touched every page has done the fault's work)."""
        spec = self.schema.spec(name)
        if column.dtype != spec.dtype:
            raise CatalogError(
                f"segment column {self.name}.{name} has dtype "
                f"{column.dtype}, schema says {spec.dtype}"
            )
        self._columns[name] = column

    def _materialize_all(self) -> None:
        """Fault in every column and detach the backing (before DML)."""
        if self._backing is None:
            return
        for spec in self.schema.columns:
            if spec.name not in self._columns:
                self._fault_column(spec.name)
        backing, self._backing = self._backing, None
        backing.close()
        if self.schema.primary_key:
            self._pk_index = set(
                self._pk_tuples(self._columns, self.row_count)
            )

    # -- introspection --------------------------------------------------------

    @property
    def row_count(self) -> int:
        if self._backing is not None:
            return self._backing.row_count
        first = next(iter(self._columns.values()), None)
        return 0 if first is None else len(first)

    def column(self, name: str) -> Column:
        try:
            return self._columns[name]
        except KeyError:
            if self._backing is not None:
                return self._fault_column(name)
            raise CatalogError(f"table {self.name} has no column {name!r}") from None

    def columns(self) -> dict[str, Column]:
        if self._backing is not None:
            return {spec.name: self.column(spec.name)
                    for spec in self.schema.columns}
        return dict(self._columns)

    def snapshot_columns(self) -> tuple[dict[str, Column], int]:
        """One consistent view of the rows: ``(columns by name, row
        count)``.  ``_columns`` is read once, and no mutation edits the
        dict it installed, so every column has the row count."""
        backing = self._backing
        if backing is not None:
            return self.columns(), backing.row_count
        columns = self._columns
        first = next(iter(columns.values()), None)
        return columns, 0 if first is None else len(first)

    def memory_bytes(self) -> int:
        """Resident bytes across all columns (experiment E4).

        For disk-backed tables only *faulted* columns count — pages still
        on disk cost no memory, which is the point of the storage engine.
        """
        return sum(col.memory_bytes() for col in self._columns.values())

    # -- mutation ---------------------------------------------------------------
    #
    # Every mutation builds the table's new columns aside and installs
    # them, with the primary-key set and ``version + 1``, in one
    # assignment (:meth:`_install`).  It never edits the column dict a
    # scan may hold, so a scan that reads ``_columns`` once
    # (:meth:`snapshot_columns`) sees the rows before the mutation or
    # after it, whole.

    def _install(self, columns: dict[str, Column], pk_index) -> None:
        self._columns, self._pk_index, self.version = \
            columns, pk_index, self.version + 1

    def _check_incoming(self, name: str, column: Column) -> None:
        """New values for column ``name``: its dtype, and no NULL where
        the schema says NOT NULL."""
        spec = self.schema.spec(name)
        if column.dtype != spec.dtype:
            raise ExecutionError(f"type mismatch writing {column.dtype} "
                                 f"into {self.name}.{name} ({spec.dtype})")
        if spec.not_null and column.has_nulls:
            raise ConstraintError(
                f"NULL in NOT NULL column {self.name}.{name}"
            )

    def _pk_tuples(self, batch: Mapping[str, Column], count: int) -> list[tuple]:
        """Each row's primary key, as :meth:`Column.value_at` gives the
        parts (``None`` for NULL), built column-wise."""
        return list(zip(*(batch[name].slice(0, count).to_pylist()
                          for name in self.schema.primary_key)))

    def replace_rows(self, mask: "np.ndarray | None",
                     batch: "Mapping[str, Column] | None",
                     *, enforce_keys: bool = True) -> None:
        """Replace the rows where ``mask`` is True with ``batch``'s rows,
        appended, in one installation — the table's only row-changing
        operation besides :meth:`update_rows` and :meth:`truncate`.  Each
        new column is one concat of the kept rows (one filter, or two
        slices when the replaced rows are one run) and the batch.
        ``mask`` ``None`` removes nothing (an insert); ``batch`` ``None``
        adds nothing (a delete)."""
        count = 0
        if batch is not None:
            lengths = {len(batch[name]) for name in self.schema.names}
            if len(lengths) != 1:
                raise ExecutionError("ragged insert batch")
            count = lengths.pop()
        removed = 0 if mask is None else int(np.count_nonzero(mask))
        if count == 0 and removed == 0:
            return
        if count:
            for name in self.schema.names:
                self._check_incoming(name, batch[name])
        self._materialize_all()
        current = self._columns
        pk_index = self._pk_index
        if pk_index is not None:
            doomed = self._pk_tuples({name: current[name].filter(mask)
                                      for name in self.schema.primary_key},
                                     removed) if removed else ()
            pk_index = pk_index.difference(doomed)
            fresh = self._pk_tuples(batch, count) if count else []
            keys = set(fresh)
            if enforce_keys and (len(keys) != len(fresh)
                                 or not keys.isdisjoint(pk_index)):
                raise ConstraintError(
                    f"duplicate primary key in {self.name}: "
                    f"{next(iter(keys & pk_index), 'within batch')}")
            pk_index.update(keys)
        spans = _kept_spans(mask) if removed else [(0, None)]
        columns = {}
        for name in self.schema.names:
            parts = [current[name].filter(~mask)] if spans is None else \
                [current[name].slice(lo, hi) for lo, hi in spans]
            if count:
                parts.append(batch[name])
            columns[name] = Column.concat(parts) if len(parts) > 1 \
                else parts[0]
        self._install(columns, pk_index)

    def append_pydict(self, data: Mapping[str, Sequence],
                      *, enforce_keys: bool = True) -> None:
        """Append from Python sequences (tests and small inserts)."""
        self.replace_rows(None, {
            spec.name: Column.from_values(spec.dtype, data[spec.name])
            for spec in self.schema.columns
        }, enforce_keys=enforce_keys)

    def update_rows(self, mask: np.ndarray,
                    assignments: Mapping[str, Column]) -> int:
        """Overwrite the given columns where ``mask`` is True."""
        touched = int(mask.sum())
        if touched == 0:
            return 0
        self._materialize_all()
        if self._pk_index is not None and (
            set(assignments) & set(self.schema.primary_key)
        ):
            raise ConstraintError("updating primary key columns is not supported")
        columns = dict(self._columns)
        for name, new_col in assignments.items():
            spec = self.schema.spec(name)
            self._check_incoming(name, new_col)
            current = columns[name]
            if spec.dtype == DataType.VARCHAR:
                current, new_col = Column.unified([current, new_col])
            values = current.values.copy()
            values[mask] = new_col.values[mask]
            valid = None
            if current.valid is not None or new_col.valid is not None:
                valid = current.validity().copy()
                valid[mask] = new_col.validity()[mask]
            columns[name] = Column(spec.dtype, values, valid, current.uniques)
        self._install(columns, self._pk_index)
        return touched

    def truncate(self) -> None:
        """Remove every row (``DELETE`` without ``WHERE``), without
        faulting a disk-backed table's columns in first."""
        if self._backing is not None:
            backing, self._backing = self._backing, None
            backing.close()
        self._install({spec.name: Column.from_values(spec.dtype, [])
                       for spec in self.schema.columns},
                      set() if self.schema.primary_key else None)

    def validate_foreign_keys(self, lookup) -> None:
        """Check FK constraints; ``lookup(qualified_name) -> Table``."""
        for fk in self.schema.foreign_keys:
            parent = lookup(fk.ref_table)
            parent_keys = set()
            parent_cols = [parent.column(c) for c in fk.ref_columns]
            for i in range(parent.row_count):
                parent_keys.add(tuple(col.value_at(i) for col in parent_cols))
            child_cols = [self.column(c) for c in fk.columns]
            for i in range(self.row_count):
                key = tuple(col.value_at(i) for col in child_cols)
                if any(part is None for part in key):
                    continue
                if key not in parent_keys:
                    raise ConstraintError(
                        f"foreign key violation in {self.name}: {key} not in "
                        f"{fk.ref_table}({', '.join(fk.ref_columns)})"
                    )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Table({self.name}, rows={self.row_count})"


def _kept_spans(mask: np.ndarray) -> "list[tuple[int, int]] | None":
    """When the rows ``mask`` selects are one run (one file's rows are),
    the two spans around it: slicing them gives views, so a new column
    is copied once.  ``None`` otherwise."""
    masked = np.flatnonzero(mask)
    first, last = int(masked[0]), int(masked[-1])
    if last - first + 1 != len(masked):
        return None
    return [(0, first), (last + 1, len(mask))]


class SystemTable(Table):
    """A read-only virtual table whose rows come from a provider.

    The provider is any callable returning ``{column_name: sequence}``
    with every schema column present and aligned.  Rows materialise at
    *scan* time, never at bind time, so a plan compiled once (and kept
    in the plan cache) always sees the current runtime state.  Each
    snapshot bumps :attr:`version`, which keeps recycler signatures —
    they embed table versions — from ever serving a stale aggregate
    over moving introspection data.

    System tables reject every mutation and are skipped by catalog
    checkpoints: they describe the warehouse, they are not data in it.
    """

    def __init__(self, name: str, schema: TableSchema, provider) -> None:
        super().__init__(name, schema)
        self._provider = provider
        self._columns = {}  # never holds resident data

    def snapshot_columns(self) -> tuple[dict[str, Column], int]:
        """One consistent snapshot: ``(columns by name, row count)``."""
        data = self._provider()
        columns: dict[str, Column] = {}
        length: int | None = None
        for spec in self.schema.columns:
            if spec.name not in data:
                raise ExecutionError(
                    f"system table {self.name} provider omitted "
                    f"column {spec.name!r}"
                )
            column = Column.from_values(spec.dtype, data[spec.name])
            if length is None:
                length = len(column)
            elif len(column) != length:
                raise ExecutionError(
                    f"system table {self.name} provider returned ragged "
                    f"columns ({spec.name!r}: {len(column)} vs {length})"
                )
            columns[spec.name] = column
        self.version += 1
        return columns, length or 0

    def rows(self) -> list[dict]:
        """The snapshot as JSON-friendly row dicts (HTTP /sys route)."""
        columns, length = self.snapshot_columns()
        names = self.schema.names
        return [
            {name: columns[name].value_at(i) for name in names}
            for i in range(length)
        ]

    # -- introspection: a system table is never resident ----------------------

    @property
    def row_count(self) -> int:
        return 0  # unknown until snapshot; 0 keeps planning provider-free

    def column(self, name: str) -> Column:
        raise ExecutionError(
            f"system table {self.name} has no resident columns; "
            "rows exist only inside a scan snapshot"
        )

    # -- mutation: rejected ----------------------------------------------------

    def _read_only(self) -> ExecutionError:
        return ExecutionError(f"system table {self.name} is read-only")

    def attach_backing(self, backing) -> None:
        raise self._read_only()

    def replace_rows(self, mask, batch, *, enforce_keys: bool = True) -> None:
        raise self._read_only()

    def append_pydict(self, data, *, enforce_keys: bool = True) -> None:
        raise self._read_only()

    def update_rows(self, mask, assignments) -> int:
        raise self._read_only()

    def truncate(self) -> None:
        raise self._read_only()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SystemTable({self.name})"
