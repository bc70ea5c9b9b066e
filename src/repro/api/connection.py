"""Connections and prepared statements — the unified client API.

One :class:`Connection` wraps one :class:`~repro.db.exec.engine.Database`
(usually obtained via :meth:`SeismicWarehouse.connect`).  Cursors opened
on it stream results in row batches; statements run through the engine's
plan cache, so re-executing the same (or the same *parameterised*) SQL
skips parse/bind/optimise entirely.  :class:`PreparedStatement` makes
that contract explicit: compile once, execute many times with different
bound values.

The ``sys.*`` system tables are first-class through this API: any
cursor can ``SELECT`` from ``sys.queries``, ``sys.sessions`` (and, on a
warehouse, the subsystem tables) — including joins and aggregates — to
introspect the very engine it is connected to.
"""

from __future__ import annotations

from typing import Optional

from repro.api.cursor import Cursor
from repro.db.exec.engine import Database
from repro.db.exec.result import Result
from repro.errors import ExecutionError

__all__ = ["Connection", "PreparedStatement", "connect"]


class Connection:
    """A client handle on one database: the cursor factory.

    DB-API-2.0-shaped: :meth:`cursor`, :meth:`close`, context-manager
    support, and a :meth:`commit` no-op (the engine autocommits).  The
    sqlite3-style :meth:`execute` convenience opens a fresh cursor,
    executes, and returns it.
    """

    def __init__(self, db: Database, *,
                 batch_rows: Optional[int] = None) -> None:
        self._db = db
        self._batch_rows = batch_rows
        self._closed = False

    @property
    def db(self) -> Database:
        """The underlying engine (introspection: plans, journal, recycler)."""
        return self._db

    # -- cursors ------------------------------------------------------------

    def cursor(self, *, batch_rows: Optional[int] = None) -> Cursor:
        """Open a new streaming cursor on this connection."""
        self._check_open()
        return Cursor(self._run, batch_rows=batch_rows or self._batch_rows)

    def execute(self, sql: str, params=None) -> Cursor:
        """Open a cursor, execute, return it (sqlite3-style shortcut)."""
        return self.cursor().execute(sql, params)

    def query(self, sql: str, params=None) -> Result:
        """Execute a SELECT and materialise the full Result in one call."""
        self._check_open()
        return self._db.query(sql, params)

    def prepare(self, sql: str) -> "PreparedStatement":
        """Compile ``sql`` now; execute it later with bound values."""
        self._check_open()
        return PreparedStatement(self, sql)

    def _run(self, sql: str, params, batch_rows: int):
        self._check_open()
        return self._db.open_query(sql, params, batch_rows=batch_rows)

    # -- transaction shape (autocommit engine) ------------------------------

    def commit(self) -> None:
        """No-op: every statement autocommits."""

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise ExecutionError("connection is closed")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "closed" if self._closed else "open"
        return f"Connection({state}, plan_cache={self._db.plan_cache_len()})"


class PreparedStatement:
    """One statement compiled once and executed many times.

    Construction compiles (and plan-caches) the SQL immediately, so
    syntax and binding errors surface at prepare time; each
    :meth:`execute` then starts from a plan-cache hit and only binds the
    supplied values.  ``param_count`` / ``param_names`` describe the
    declared placeholders.
    """

    def __init__(self, connection: Connection, sql: str) -> None:
        self.connection = connection
        self.sql = sql
        kind, payload, _report = connection.db._compile_sql(sql)
        if kind == "select":
            spec = payload.spec
        else:
            _stmt, spec = payload
        self.param_style = spec.style  # None | 'positional' | 'named'
        self.param_count = spec.count
        self.param_names = tuple(spec.names)

    def execute(self, params=None, *,
                cursor: Optional[Cursor] = None) -> Cursor:
        """Execute with ``params`` bound; returns the (given) cursor."""
        target = cursor if cursor is not None else self.connection.cursor()
        return target.execute(self.sql, params)

    def query(self, params=None) -> Result:
        """Execute and materialise the full Result in one call."""
        return self.connection.query(self.sql, params)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        head = " ".join(self.sql.split())[:60]
        return f"PreparedStatement({head!r})"


def connect(target) -> Connection:
    """Open a :class:`Connection` over a Database or a warehouse.

    Accepts a :class:`~repro.db.exec.engine.Database` or any object with
    a ``db`` attribute (e.g. :class:`~repro.seismology.warehouse.
    SeismicWarehouse`).
    """
    if isinstance(target, Database):
        return Connection(target)
    db = getattr(target, "db", None)
    if isinstance(db, Database):
        return Connection(db)
    raise ExecutionError(
        f"cannot connect to {type(target).__name__}: expected a Database "
        "or an object exposing one as .db"
    )
