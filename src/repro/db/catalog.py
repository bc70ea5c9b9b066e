"""Catalog: schemas, tables, non-materialised views, lazy bindings.

Two catalog concepts carry the paper's design:

* **Views are never materialised** (§3.2 "lazy transformation"): a view
  stores its SELECT AST and is expanded inline by the binder, so the
  transformations it encodes run inside the query plan and benefit from
  query optimisation.
* **Lazy table bindings** (§3.1 "lazy extraction"): a base table may be
  *virtual*, backed by a :class:`LazyTableBinding` that the ETL layer
  registers.  The optimiser recognises such tables and plans run-time
  extraction instead of scans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Protocol, runtime_checkable

import numpy as np

from repro.db.column import Column
from repro.db.expr import ColumnRef, Star
from repro.db.sql import ast
from repro.db.table import SystemTable, Table, TableSchema
from repro.errors import BindError, CatalogError

DEFAULT_SCHEMA = "main"

SYSTEM_SCHEMA = "sys"
"""Reserved schema for virtual system tables (``sys.queries`` & co).

User DDL — CREATE/DROP TABLE/VIEW/SCHEMA, lazy binding — is rejected in
it, and registering a system table does *not* bump the catalog epoch:
system tables appear under every connection without invalidating a
single cached plan (their providers produce rows at scan time, so
cached plans always see current data anyway).
"""


class LazyRows(NamedTuple):
    """What :meth:`LazyTableBinding.fetch` serves (see there)."""

    columns: dict[str, Column]
    pair_of_row: np.ndarray
    run_lengths: np.ndarray


@runtime_checkable
class LazyTableBinding(Protocol):
    """What the engine needs from a lazily-bound (virtual) table.

    Implementations live in :mod:`repro.etl.lazy`; the engine only relies
    on this protocol, keeping the DB substrate application-agnostic.
    """

    @property
    def key_columns(self) -> tuple[str, ...]:
        """Columns joining the lazy table to its metadata table."""
        ...

    @property
    def range_column(self) -> Optional[str]:
        """Column whose predicates can prune extraction (sample_time)."""
        ...

    def fetch(
        self,
        keys: dict[str, Column],
        needed: list[str],
        time_bounds: tuple[Optional[int], Optional[int]],
        trace: list[dict],
        versions: dict,
    ) -> LazyRows:
        """Extract/transform/load the rows matching ``keys`` (the key
        columns of the metadata rows, by name).

        The rows come back grouped by the distinct key tuples the
        metadata rows name (the *pairs*, in key order): ``columns`` holds
        ``needed`` for every served row, pair after pair;
        ``pair_of_row[i]`` is the pair metadata row ``i`` names (-1 when
        it names none, as a NULL key does); ``run_lengths[p]`` is how many
        rows pair ``p`` served (0 when its record was pruned or is gone).
        The caller pairs metadata rows with data rows by position from
        these two arrays, so key columns are built only when ``needed``
        names them.

        ``trace`` receives one entry per injected operator (cache hit,
        extraction, refresh) for plan introspection — demo items (5)-(7).
        ``versions`` receives, per source file the rows were served
        from, ``version token -> binding``: the recycler pins them and
        asks ``binding.is_current(token)`` before replaying a cached
        result.  Together with the metadata tables' versions in the
        recycler signature, these pins are the whole freshness check of
        a recycled fetch — what the binding itself has cached plays no
        part, so a binding carries no cache generation.
        """
        ...

    def scan_all(self, needed: list[str], trace: list[dict],
                 versions: dict) -> dict[str, Column]:
        """Worst case (§3.1): extract the entire repository.  Never
        recycled: no pin can see a file added after the scan."""
        ...


@dataclass
class View:
    """A non-materialised view."""

    name: str
    schema_name: str
    select: ast.SelectStmt
    sql_text: str
    # (inner_alias, inner_column) -> output column name.  Lets queries use
    # the paper's ``F.station`` syntax against the joined dataview.
    alias_map: dict[tuple[str, str], str] = field(default_factory=dict)

    @property
    def qualified_name(self) -> str:
        return f"{self.schema_name}.{self.name}"


@dataclass
class SchemaEntry:
    name: str
    tables: dict[str, Table] = field(default_factory=dict)
    views: dict[str, View] = field(default_factory=dict)


class Catalog:
    """All schema objects of one database."""

    def __init__(self) -> None:
        self._schemas: dict[str, SchemaEntry] = {
            DEFAULT_SCHEMA: SchemaEntry(DEFAULT_SCHEMA)
        }
        self._bindings: dict[str, LazyTableBinding] = {}
        self._store = None  # TableStore set by attach()
        self._checkpointed_versions: dict[str, int] = {}
        # Schema epoch: bumped by every DDL-level change (create/drop of
        # schemas, tables and views, lazy (un)binding, store attachment).
        # Compiled plans are cached keyed by (SQL, epoch), so any change
        # that could alter name resolution or plan shape makes every
        # previously cached plan unreachable.
        self.epoch = 0

    def _bump_epoch(self) -> None:
        self.epoch += 1

    # -- schemas ---------------------------------------------------------------

    @staticmethod
    def _reject_system_schema(key: str, action: str) -> None:
        if key == SYSTEM_SCHEMA:
            raise CatalogError(
                f"schema {SYSTEM_SCHEMA!r} is reserved for system tables; "
                f"cannot {action}"
            )

    def create_schema(self, name: str, *, if_not_exists: bool = False) -> None:
        key = name.lower()
        self._reject_system_schema(key, "create it")
        if key in self._schemas:
            if if_not_exists:
                return
            raise CatalogError(f"schema {name!r} already exists")
        self._schemas[key] = SchemaEntry(key)
        self._bump_epoch()

    def drop_schema(self, name: str, *, if_exists: bool = False) -> None:
        key = name.lower()
        if key == DEFAULT_SCHEMA:
            raise CatalogError("cannot drop the default schema")
        self._reject_system_schema(key, "drop it")
        if key not in self._schemas:
            if if_exists:
                return
            raise CatalogError(f"unknown schema {name!r}")
        del self._schemas[key]
        self._bump_epoch()

    def schema_names(self) -> list[str]:
        return sorted(self._schemas)

    def _schema(self, name: str) -> SchemaEntry:
        try:
            return self._schemas[name.lower()]
        except KeyError:
            raise CatalogError(f"unknown schema {name!r}") from None

    # -- tables -----------------------------------------------------------------

    @staticmethod
    def split_name(parts: tuple[str, ...]) -> tuple[str, str]:
        """Split a 1- or 2-part name into (schema, object)."""
        if len(parts) == 1:
            return DEFAULT_SCHEMA, parts[0].lower()
        if len(parts) == 2:
            return parts[0].lower(), parts[1].lower()
        raise CatalogError(f"name {'.'.join(parts)!r} has too many parts")

    def create_table(self, parts: tuple[str, ...], schema: TableSchema,
                     *, if_not_exists: bool = False) -> Table:
        schema_name, table_name = self.split_name(parts)
        self._reject_system_schema(schema_name, "create tables in it")
        entry = self._schema(schema_name)
        if table_name in entry.tables or table_name in entry.views:
            if if_not_exists and table_name in entry.tables:
                return entry.tables[table_name]
            raise CatalogError(
                f"object {schema_name}.{table_name} already exists"
            )
        table = Table(f"{schema_name}.{table_name}", schema)
        entry.tables[table_name] = table
        self._bump_epoch()
        return table

    def drop_table(self, parts: tuple[str, ...], *, if_exists: bool = False) -> None:
        schema_name, table_name = self.split_name(parts)
        self._reject_system_schema(schema_name, "drop tables in it")
        entry = self._schema(schema_name)
        if table_name not in entry.tables:
            if if_exists:
                return
            raise CatalogError(f"unknown table {schema_name}.{table_name}")
        del entry.tables[table_name]
        self._bindings.pop(f"{schema_name}.{table_name}", None)
        self._bump_epoch()

    def table(self, parts: tuple[str, ...]) -> Table:
        schema_name, table_name = self.split_name(parts)
        entry = self._schema(schema_name)
        try:
            return entry.tables[table_name]
        except KeyError:
            raise CatalogError(
                f"unknown table {schema_name}.{table_name}"
            ) from None

    def lookup(self, parts: tuple[str, ...]) -> Table | View:
        """Resolve a name to a table or view."""
        schema_name, obj_name = self.split_name(parts)
        entry = self._schema(schema_name)
        if obj_name in entry.tables:
            return entry.tables[obj_name]
        if obj_name in entry.views:
            return entry.views[obj_name]
        raise BindError(f"unknown table or view {schema_name}.{obj_name}")

    def tables(self) -> list[Table]:
        out: list[Table] = []
        for entry in self._schemas.values():
            out.extend(entry.tables.values())
        return out

    # -- system tables -----------------------------------------------------------

    def register_system_table(self, table: SystemTable) -> SystemTable:
        """Mount a virtual table under the reserved ``sys`` schema.

        Epoch-stable by design: registration never invalidates cached
        plans, and re-registering a name simply replaces the provider
        (warehouse wiring is idempotent).  ``table.name`` must be
        ``sys.<name>``.
        """
        schema_name, table_name = self.split_name(
            tuple(table.name.split("."))
        )
        if schema_name != SYSTEM_SCHEMA:
            raise CatalogError(
                f"system table {table.name!r} must live in the "
                f"{SYSTEM_SCHEMA!r} schema"
            )
        entry = self._schemas.get(SYSTEM_SCHEMA)
        if entry is None:
            entry = self._schemas[SYSTEM_SCHEMA] = SchemaEntry(SYSTEM_SCHEMA)
        entry.tables[table_name] = table
        return table

    def system_tables(self) -> dict[str, SystemTable]:
        """Registered system tables by bare name (``queries``, ...)."""
        entry = self._schemas.get(SYSTEM_SCHEMA)
        if entry is None:
            return {}
        return {name: table for name, table in entry.tables.items()
                if isinstance(table, SystemTable)}

    # -- views -------------------------------------------------------------------

    def create_view(self, parts: tuple[str, ...], select: ast.SelectStmt,
                    sql_text: str) -> View:
        schema_name, view_name = self.split_name(parts)
        self._reject_system_schema(schema_name, "create views in it")
        entry = self._schema(schema_name)
        if view_name in entry.views or view_name in entry.tables:
            raise CatalogError(f"object {schema_name}.{view_name} already exists")
        view = View(
            name=view_name,
            schema_name=schema_name,
            select=select,
            sql_text=sql_text,
            alias_map=self._provenance(select),
        )
        entry.views[view_name] = view
        self._bump_epoch()
        return view

    def drop_view(self, parts: tuple[str, ...], *, if_exists: bool = False) -> None:
        schema_name, view_name = self.split_name(parts)
        entry = self._schema(schema_name)
        if view_name not in entry.views:
            if if_exists:
                return
            raise CatalogError(f"unknown view {schema_name}.{view_name}")
        del entry.views[view_name]
        self._bump_epoch()

    def _provenance(self, select: ast.SelectStmt) -> dict[tuple[str, str], str]:
        """Map the view's inner aliases to output names.

        For a view ``SELECT F.station, ... FROM files AS F, ...`` the pair
        ``('f', 'station')`` maps to output ``'station'``.  ``alias.*``
        items are expanded against the catalog.  Queries over the view may
        then reference ``F.station`` even though the view's output column
        is plainly named ``station`` — exactly how the paper's Figure-1
        queries address ``mseed.dataview``.
        """
        alias_tables: dict[str, Table] = {}
        for item in select.from_items:
            stack = [item]
            while stack:
                node = stack.pop()
                if isinstance(node, ast.JoinRef):
                    stack.extend([node.left, node.right])
                elif isinstance(node, ast.TableRef):
                    alias = (node.alias or node.parts[-1]).lower()
                    try:
                        obj = self.lookup(node.parts)
                    except (BindError, CatalogError):
                        continue
                    if isinstance(obj, Table):
                        alias_tables[alias] = obj
        mapping: dict[tuple[str, str], str] = {}
        for item in select.items:
            expr = item.expr
            if isinstance(expr, Star):
                if expr.qualifier is None:
                    sources = alias_tables.items()
                else:
                    alias = expr.qualifier.lower()
                    sources = [(alias, alias_tables[alias])] \
                        if alias in alias_tables else []
                for alias, table in sources:
                    for spec in table.schema.columns:
                        mapping.setdefault((alias, spec.name), spec.name)
            elif isinstance(expr, ColumnRef) and len(expr.parts) == 2:
                alias, column = expr.parts[0].lower(), expr.parts[1].lower()
                out_name = (item.alias or column).lower()
                mapping.setdefault((alias, column), out_name)
        return mapping

    # -- lazy bindings --------------------------------------------------------------

    def bind_lazy(self, parts: tuple[str, ...], binding: LazyTableBinding) -> None:
        """Mark a table as lazily extracted (registered by the ETL layer)."""
        schema_name, table_name = self.split_name(parts)
        self._reject_system_schema(schema_name, "bind lazy tables in it")
        self._schema(schema_name)  # validate
        qualified = f"{schema_name}.{table_name}"
        table = self.table(parts)  # must exist
        self._bindings[qualified] = binding
        # The optimiser reads the binding straight off the table object.
        table.lazy_binding = binding  # type: ignore[attr-defined]
        self._bump_epoch()

    def unbind_lazy(self, parts: tuple[str, ...]) -> None:
        schema_name, table_name = self.split_name(parts)
        binding = self._bindings.pop(f"{schema_name}.{table_name}", None)
        if binding is not None:
            table = self.table(parts)
            if getattr(table, "lazy_binding", None) is binding:
                del table.lazy_binding  # type: ignore[attr-defined]
            self._bump_epoch()

    def lazy_binding(self, qualified_name: str) -> Optional[LazyTableBinding]:
        return self._bindings.get(qualified_name)

    def is_lazy(self, qualified_name: str) -> bool:
        return qualified_name in self._bindings

    # -- persistent storage -----------------------------------------------------

    @property
    def store(self):
        """The attached :class:`~repro.storage.store.TableStore`, if any."""
        return self._store

    def attach(self, storage, *,
               bufferpool_bytes: int = 64 * 1024 * 1024):
        """Attach a persistent table store and mount its tables.

        ``storage`` is a directory path (a :class:`TableStore` is opened
        there, created if absent) or an already-open store.  Each persisted
        table is mounted *disk-backed*: its schema enters the catalog but
        no column data is read — columns fault in lazily at scan time.  An
        existing *empty* catalog table with a matching schema is backed in
        place (the warm-start path, where DDL ran before ``attach``); an
        existing *non-empty* table keeps its resident rows — memory wins,
        and the next :meth:`checkpoint` overwrites the stored generation
        (the re-checkpoint path of an eagerly loaded warehouse).
        """
        from repro.storage.store import TableStore

        store = (storage if isinstance(storage, TableStore)
                 else TableStore(storage, bufferpool_bytes=bufferpool_bytes))
        if self._store is not None and self._store is not store:
            raise CatalogError("a table store is already attached")
        for qualified in store.table_names():
            schema_name, table_name = self.split_name(
                tuple(qualified.split("."))
            )
            self.create_schema(schema_name, if_not_exists=True)
            entry = self._schema(schema_name)
            stored_schema = store.schema_of(qualified)
            table = entry.tables.get(table_name)
            if table is None:
                table = Table(qualified, stored_schema)
                entry.tables[table_name] = table
            else:
                if table.disk_backing is not None:
                    continue  # already mounted (re-attach is idempotent)
                if table.row_count > 0:
                    continue  # resident data wins; checkpoint overwrites
                _check_schema_match(qualified, table.schema, stored_schema)
            table.attach_backing(store.backing_for(qualified))
        self._store = store
        self._bump_epoch()
        return store

    def checkpoint(self) -> list[str]:
        """Persist every mutated resident table to the attached store.

        Returns the qualified names written.  Skips virtual tables (lazy
        bindings have no rows of their own) and tables still disk-backed
        with no mutations (their segment on disk is already current).
        The manifest commits once, atomically, after all segments are
        written.
        """
        if self._store is None:
            raise CatalogError("no table store attached; call attach() first")
        written: list[str] = []
        for schema_entry in self._schemas.values():
            for table in schema_entry.tables.values():
                if isinstance(table, SystemTable):
                    continue  # runtime introspection, not warehouse data
                if getattr(table, "lazy_binding", None) is not None:
                    continue
                if table.disk_backing is not None:
                    continue  # unchanged since it was mounted from disk
                if (self._store.has_table(table.name)
                        and self._checkpointed_versions.get(table.name)
                        == table.version):
                    continue  # already checkpointed at this version
                self._store.save_table(table.name, table, commit=False)
                self._checkpointed_versions[table.name] = table.version
                written.append(table.name)
        self._store.commit()
        return written


def _check_schema_match(qualified: str, existing: "TableSchema",
                        stored: "TableSchema") -> None:
    ours = [(c.name, c.dtype) for c in existing.columns]
    theirs = [(c.name, c.dtype) for c in stored.columns]
    if ours != theirs:
        raise CatalogError(
            f"stored schema of {qualified} does not match the catalog: "
            f"{theirs} vs {ours}"
        )
