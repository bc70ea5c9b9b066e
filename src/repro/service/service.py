"""The concurrent query service: one shared warehouse, many sessions.

:class:`WarehouseService` turns a :class:`~repro.seismology.warehouse.
SeismicWarehouse` from a library object into a *server*: client sessions
submit SQL concurrently, a bounded admission controller keeps the fan-in
fair and finite, a worker pool executes queries, and — in lazy mode —
the extraction layers underneath are wired for concurrency:

* a **single-flight coalescer** so N sessions needing the same (file,
  record) ranges pay for one extraction (\"Fluid ETL\"-style on-demand
  serving under concurrent load);
* per-session :class:`QueryOutcome` reports that distinguish rows the
  session *extracted here* from rows it obtained by *waiting on another
  session's extraction*.

Scope: the service serves **queries**.  DDL/DML and repository syncs
remain single-writer operations — run them before :meth:`start` or after
:meth:`close` (query-time staleness refresh is the one sanctioned
exception and is internally serialised).
"""

from __future__ import annotations

import itertools
import logging
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

from repro.db.exec.result import Result
from repro.db.plan.physical import UNBOUNDED_ROWS
from repro.errors import ServiceClosedError, ServiceError
from repro.obs.http import ObservabilityServer
from repro.obs.journal import query_context
from repro.obs.metrics import MetricsSnapshotter
from repro.obs.slowlog import SlowQueryLog
from repro.service.admission import AdmissionController, AdmissionStats
from repro.service.coalescer import CoalescerStats, ExtractionCoalescer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.db.exec.engine import QueryReport
    from repro.seismology.warehouse import SeismicWarehouse

logger = logging.getLogger("repro.service")


@dataclass
class ServiceConfig:
    """Tunables for one service instance."""

    max_workers: int = 4          # query-executing threads
    queue_depth: int = 128        # bounded admission queue
    wait_timeout_s: float = 30.0  # coalesced-wait patience before fallback
    # Sharded scatter-gather execution: >1 brings up (or reuses) the
    # warehouse's shard worker-process pool for the service's lifetime.
    shards: int = 1
    # Observability: served queries feed the warehouse's metrics
    # registry unconditionally; these gate the *extras*.
    slow_query_s: Optional[float] = None  # threshold-gated slow-query log
    metrics_interval_s: float = 0.0       # 0 disables the snapshot thread
    metrics_history: int = 120            # snapshots the thread retains
    # HTTP observability endpoint (/metrics, /healthz, /sys/<table>);
    # None disables it, 0 binds an ephemeral port (service.http_port
    # publishes the resolved one).
    http_port: Optional[int] = None
    http_host: str = "127.0.0.1"
    # TCP query wire protocol (repro.net): None disables it, 0 binds an
    # ephemeral port (service.tcp_port publishes the resolved one).
    # Serving TCP requires at least one pre-shared auth token — either a
    # plain secret string or "principal=secret" to name the principal.
    tcp_port: Optional[int] = None
    tcp_host: str = "127.0.0.1"
    auth_tokens: Sequence[str] = ()
    tcp_max_frame_bytes: int = 16 * 1024 * 1024
    cursor_window_batches: int = 4    # per-cursor server-side batch window
    cursor_stall_timeout_s: float = 30.0  # abort cursors nobody fetches
    tcp_drain_s: float = 5.0          # graceful-drain deadline on close

    def __post_init__(self) -> None:
        if self.max_workers <= 0:
            raise ServiceError("max_workers must be positive")
        if not isinstance(self.shards, int) or isinstance(self.shards, bool) \
                or self.shards < 1:
            raise ServiceError(
                f"shards must be a positive integer, got {self.shards!r}")
        if self.slow_query_s is not None and self.slow_query_s <= 0:
            raise ServiceError("slow_query_s must be positive (or None "
                               "to disable the slow-query log)")
        if self.metrics_interval_s < 0:
            raise ServiceError("metrics_interval_s cannot be negative")
        if self.metrics_history <= 0:
            raise ServiceError("metrics_history must be positive")
        if self.http_port is not None and \
                not (0 <= self.http_port <= 65535):
            raise ServiceError("http_port must be in [0, 65535] "
                               "(or None to disable the endpoint)")
        if self.tcp_port is not None:
            if not (0 <= self.tcp_port <= 65535):
                raise ServiceError("tcp_port must be in [0, 65535] "
                                   "(or None to disable the wire server)")
            tokens = tuple(self.auth_tokens)
            if not tokens:
                raise ServiceError(
                    "serving TCP requires at least one auth token "
                    "(ServiceConfig.auth_tokens) — the wire protocol "
                    "refuses unauthenticated sessions")
            if any(not isinstance(t, str) or not t for t in tokens):
                raise ServiceError("auth tokens must be non-empty strings")
        if self.tcp_max_frame_bytes <= 0:
            raise ServiceError("tcp_max_frame_bytes must be positive")
        if self.cursor_window_batches <= 0:
            raise ServiceError(
                "cursor_window_batches must be positive (the window is "
                "what bounds per-cursor server memory)")
        if self.cursor_stall_timeout_s <= 0:
            raise ServiceError("cursor_stall_timeout_s must be positive")
        if self.tcp_drain_s < 0:
            raise ServiceError("tcp_drain_s cannot be negative")


@dataclass
class QueryOutcome:
    """Everything one served query produced and cost."""

    session_id: str
    sql: str
    result: object                # repro.db.exec.result.Result
    report: "QueryReport"
    trace: list[dict]
    queued_s: float               # admission queue wait
    execute_s: float              # worker execution time
    total_s: float                # submit -> completion

    @property
    def rows_extracted_here(self) -> int:
        return self.report.rows_extracted_here

    @property
    def rows_coalesced(self) -> int:
        return self.report.rows_coalesced


@dataclass
class ServiceStats:
    """Aggregate service counters (admission + coalescing).  Latency
    lives in the bounded ``repro_query_seconds`` histogram."""

    completed: int = 0
    failed: int = 0
    admission: AdmissionStats = field(default_factory=AdmissionStats)
    coalescer: Optional[CoalescerStats] = None


class _QueuedQuery:
    """One admitted submission: a SELECT and the sink its batches feed
    (the wire layer's server-side cursor, or a :class:`_FutureSink`)."""

    __slots__ = ("session_id", "sql", "params", "submitted_at",
                 "sink", "batch_rows")

    def __init__(self, session_id: str, sql: str, sink: object,
                 params: object = None, *,
                 batch_rows: Optional[int] = None) -> None:
        self.session_id = session_id
        self.sql = sql
        self.params = params
        self.submitted_at = time.perf_counter()
        self.sink = sink
        self.batch_rows = batch_rows


class _FutureSink:
    """The sink behind :meth:`WarehouseService.submit`: collects the
    stream's batches and resolves a future with the whole
    :class:`QueryOutcome`."""

    def __init__(self, session_id: str, sql: str) -> None:
        self.future: "Future[QueryOutcome]" = Future()
        self._session_id = session_id
        self._sql = sql
        self._batches: list[Result] = []

    def opened(self, names, dtypes) -> None:
        self._names, self._dtypes = names, dtypes

    def push(self, batch: Result) -> bool:
        self._batches.append(batch)
        return True

    def fail(self, exc: BaseException) -> None:
        self.future.set_exception(exc)

    def finish(self, report, trace, *, queued_s: float, execute_s: float,
               total_s: float) -> None:
        self.future.set_result(QueryOutcome(
            session_id=self._session_id,
            sql=self._sql,
            result=Result.concat(self._names, self._dtypes, self._batches),
            report=report,
            trace=trace,
            queued_s=queued_s,
            execute_s=execute_s,
            total_s=total_s,
        ))


class ClientSession:
    """One client's handle on the service (its fairness unit).

    Exposes the unified cursor protocol: :meth:`cursor` returns the same
    :class:`~repro.api.cursor.Cursor` a direct
    :class:`~repro.api.connection.Connection` hands out, with a private
    :class:`~repro.db.exec.engine.QueryReport` per execution — the
    ``query_with_report`` tuple juggling is not needed here.
    """

    def __init__(self, service: "WarehouseService", session_id: str) -> None:
        self.service = service
        self.session_id = session_id

    def submit(self, sql: str, params: object = None
               ) -> "Future[QueryOutcome]":
        """Enqueue a query; the future resolves to a :class:`QueryOutcome`."""
        return self.service.submit(self.session_id, sql, params)

    def query(self, sql: str, params: object = None) -> QueryOutcome:
        """Submit and block for the outcome."""
        return self.submit(sql, params).result()

    def cursor(self):
        """A :class:`~repro.api.cursor.Cursor` executing via the service.

        Queries run remotely on the worker pool (admission-controlled and
        coalesced like any submitted query) and are fetched locally
        through the standard cursor surface; ``cursor.report`` is the
        per-query :class:`QueryReport`.  The service's scope applies:
        SELECT only — DDL/DML raise :class:`ServiceError` here and belong
        on a direct connection before :meth:`WarehouseService.start` or
        after :meth:`WarehouseService.close`.
        """
        from repro.api.cursor import Cursor

        return Cursor(self._run_for_cursor)

    def _run_for_cursor(self, sql: str, params: object, _batch_rows: int):
        from repro.db.exec.engine import CompletedQuery
        from repro.db.sql import ast
        from repro.db.sql.parser import parse_statement

        if not isinstance(parse_statement(sql), ast.SelectStmt):
            raise ServiceError(
                "service sessions serve queries only (SELECT); run "
                "DDL/DML on a direct connection outside the service"
            )
        outcome = self.query(sql, params)
        return CompletedQuery(outcome.result, outcome.report, outcome.trace)


class WarehouseService:
    """Serve one warehouse to many concurrent sessions."""

    def __init__(self, warehouse: "SeismicWarehouse",
                 config: Optional[ServiceConfig] = None,
                 **overrides: object) -> None:
        if config is None:
            config = ServiceConfig(**overrides)  # type: ignore[arg-type]
        elif overrides:
            raise ServiceError("pass either config or keyword overrides")
        self.warehouse = warehouse
        self.config = config
        self.admission: AdmissionController[_QueuedQuery] = AdmissionController(
            queue_depth=config.queue_depth,
        )
        self.coalescer: Optional[ExtractionCoalescer] = None
        self._sessions: dict[str, ClientSession] = {}
        self._session_counter = itertools.count(1)
        self._workers: list[threading.Thread] = []
        self._stats_lock = threading.Lock()
        self._completed = 0
        self._failed = 0
        self._started = False
        self._closed = False
        # Observability: instruments live on the warehouse's registry so
        # one scrape covers storage, ETL and serving together.
        self.metrics = warehouse.metrics_registry
        self._query_seconds = self.metrics.histogram(
            "repro_query_seconds",
            "Served query latency, submit to completion",
            labels=("session",))
        self._queue_wait_seconds = self.metrics.histogram(
            "repro_queue_wait_seconds",
            "Time queries spent in the admission queue")
        self._queries_total = self.metrics.counter(
            "repro_queries_total", "Queries served", labels=("status",))
        self.slow_log = (SlowQueryLog(config.slow_query_s)
                         if config.slow_query_s is not None else None)
        self.snapshotter: Optional[MetricsSnapshotter] = None
        self._service_collector = None
        self.http: Optional[ObservabilityServer] = None
        self.wire = None  # repro.net.server.WireServer when config.tcp_port
        self._close_lock = threading.Lock()
        self.start()

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> None:
        """Install concurrency hooks on the warehouse and spawn workers."""
        if self._started:
            return
        self._owns_sharding = False
        if self.config.shards > 1:
            # Before any binding hooks: ensure_sharding installs its own
            # (remote_extractor, extract_pool).
            self._owns_sharding = self.warehouse.ensure_sharding(
                self.config.shards)
        binding = getattr(self.warehouse.pipeline, "binding", None)
        if binding is not None:
            self.coalescer = ExtractionCoalescer()
            binding.coalescer = self.coalescer
            binding.wait_timeout_s = self.config.wait_timeout_s
        for i in range(self.config.max_workers):
            worker = threading.Thread(
                target=self._worker_loop,
                name=f"repro-service-{i}",
                daemon=True,
            )
            worker.start()
            self._workers.append(worker)
        self._service_collector = self.metrics.register_collector(
            self._collect_service_metrics)
        if self.config.metrics_interval_s > 0:
            self.snapshotter = MetricsSnapshotter(
                self.metrics, self.config.metrics_interval_s,
                history=self.config.metrics_history)
            self.snapshotter.start()
        if self.config.http_port is not None:
            self.http = ObservabilityServer(
                self, host=self.config.http_host,
                port=self.config.http_port).start()
        if self.config.tcp_port is not None:
            from repro.net.server import WireServer

            self.wire = WireServer(self).start()
        self._started = True
        logger.info(
            "service started: %d workers, queue depth %d",
            self.config.max_workers, self.config.queue_depth)

    def close(self) -> None:
        """Stop accepting work, finish in-flight queries, detach hooks.

        Idempotent: a second (or concurrent) ``close()`` is a no-op —
        the first caller tears everything down, later callers return
        immediately instead of re-joining already-dead workers.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        if self.wire is not None:
            # Drain the wire first, while workers are still alive to
            # finish in-flight server-side cursors: stop accepting,
            # finish cursors up to the deadline, then abort with a
            # typed shutdown frame.
            self.wire.stop(drain_s=self.config.tcp_drain_s)
        if self.http is not None:
            self.http.stop()
        if self.snapshotter is not None:
            self.snapshotter.stop()
        self.admission.close()
        for item in self.admission.drain():
            item.sink.fail(
                ServiceClosedError("service shut down before execution"))
        for worker in self._workers:
            worker.join()
        binding = getattr(self.warehouse.pipeline, "binding", None)
        if binding is not None:
            if binding.coalescer is self.coalescer:
                binding.coalescer = None
        if getattr(self, "_owns_sharding", False):
            # This service brought the shard pool up, so it drains and
            # joins the workers now that no query thread can scatter to
            # them — and before any caller proceeds to storage teardown.
            self.warehouse.shutdown_sharding()
            self._owns_sharding = False
        if self._service_collector is not None:
            self.metrics.unregister_collector(self._service_collector)
            self._service_collector = None
        logger.info("service stopped: %d completed, %d failed",
                    self._completed, self._failed)

    def __enter__(self) -> "WarehouseService":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- sessions & submission -----------------------------------------------------

    def session(self, name: Optional[str] = None) -> ClientSession:
        """Open a client session (the unit of admission fairness)."""
        session_id = name or f"session-{next(self._session_counter)}"
        with self._stats_lock:
            session = self._sessions.get(session_id)
            if session is None:
                session = ClientSession(self, session_id)
                self._sessions[session_id] = session
            return session

    def submit(self, session_id: str, sql: str, params: object = None
               ) -> "Future[QueryOutcome]":
        if self._closed:
            raise ServiceClosedError("service is shut down")
        # One unbounded batch: the outcome is the stream drained.
        sink = _FutureSink(session_id, sql)
        item = _QueuedQuery(session_id, sql, sink, params,
                            batch_rows=UNBOUNDED_ROWS)
        self.admission.submit(session_id, item)
        return sink.future

    def submit_stream(self, session_id: str, sql: str, sink,
                      params: object = None, *,
                      batch_rows: Optional[int] = None) -> None:
        """Enqueue a *streaming* SELECT whose batches feed ``sink``.

        The wire layer's server-side cursors run through here: the same
        admission queue, fairness and worker body as :meth:`submit`
        (which is this with a collecting sink); the worker pushes row
        batches into ``sink`` as the engine produces them instead of
        materialising a full result.  ``sink`` must expose
        ``opened(names, dtypes)``, ``push(result) -> bool`` (False stops
        the stream — client gone), ``fail(exc)`` and
        ``finish(report, trace, *, queued_s, execute_s, total_s)``.

        SELECT-only, like :meth:`ClientSession.cursor`: DDL/DML belong
        on a direct connection outside the service.
        """
        from repro.db.sql import ast
        from repro.db.sql.parser import parse_statement

        if self._closed:
            raise ServiceClosedError("service is shut down")
        if not isinstance(parse_statement(sql), ast.SelectStmt):
            raise ServiceError(
                "the wire protocol serves queries only (SELECT); run "
                "DDL/DML on a direct connection outside the service")
        item = _QueuedQuery(session_id, sql, sink, params,
                            batch_rows=batch_rows)
        self.admission.submit(session_id, item)

    def query(self, sql: str, *, session: Optional[str] = None,
              params: object = None) -> QueryOutcome:
        """One-shot convenience: submit on a (named) session and wait."""
        return self.session(session).query(sql, params)

    # -- workers ---------------------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            # Block until notified (submit/close both signal the queue's
            # condition) — an idle service must not busy-poll.
            item = self.admission.next_item(timeout=None)
            if item is None:
                if self._closed and self.admission.queued() == 0:
                    return
                continue
            queued_s = time.perf_counter() - item.submitted_at
            self._queue_wait_seconds.observe(queued_s)
            self._serve(item, queued_s)

    def _serve(self, item: _QueuedQuery, queued_s: float) -> None:
        """Drive one admitted query on this worker, start to finish.

        The worker owns the stream end-to-end: it opens the query under
        the session's :func:`query_context` (journal/slow-log
        attribution), pushes each batch into the item's sink (for a wire
        cursor, blocking there is the backpressure — the full result is
        never materialised for a slow client) and reports completion.  A
        sink that refuses a push (client disconnected, cursor closed,
        stall timeout) stops the stream; the engine still journals the
        partial execution.
        """
        db = self.warehouse.db
        sink = item.sink
        started = time.perf_counter()
        try:
            with query_context(item.session_id, queued_s=queued_s):
                run = db.open_query(item.sql, item.params,
                                    batch_rows=item.batch_rows,
                                    select_only=True)
                sink.opened(run.names, run.dtypes)
                try:
                    for batch in run.batches():
                        if not sink.push(batch):
                            break
                finally:
                    run.close()
        except BaseException as exc:
            with self._stats_lock:
                self._failed += 1
            self._queries_total.inc(status="error")
            logger.warning("query failed on %s: %s",
                           item.session_id, exc)
            sink.fail(exc)
            return
        execute_s = time.perf_counter() - started
        total_s = time.perf_counter() - item.submitted_at
        with self._stats_lock:
            self._completed += 1
        self._queries_total.inc(status="ok")
        self._query_seconds.observe(total_s, session=item.session_id)
        if self.slow_log is not None:
            self.slow_log.observe(
                session_id=item.session_id, sql=item.sql,
                total_s=total_s, queued_s=queued_s,
                execute_s=execute_s, report=run.report,
            )
        sink.finish(run.report, run.trace, queued_s=queued_s,
                    execute_s=execute_s, total_s=total_s)

    # -- introspection ----------------------------------------------------------------

    @property
    def http_port(self) -> Optional[int]:
        """The bound observability port (None when the endpoint is off)."""
        return None if self.http is None else self.http.port

    @property
    def tcp_port(self) -> Optional[int]:
        """The bound query wire-protocol port (None when TCP is off)."""
        return None if self.wire is None else self.wire.port

    def health(self) -> dict:
        """Liveness + degradation summary (the /healthz payload).

        ``status`` is ``"ok"`` or ``"degraded"``; ``degraded`` lists
        which checks tripped: a closed service, a near-full admission
        queue (>= 80% of depth), dead workers, or a metrics snapshotter
        that stopped ticking (staleness > 3 intervals).
        """
        queued = self.admission.queued()
        capacity = self.config.queue_depth
        workers_alive = sum(1 for w in self._workers if w.is_alive())
        degraded: list[str] = []
        if self._closed:
            degraded.append("closed")
        if capacity > 0 and queued >= 0.8 * capacity:
            degraded.append("queue_depth")
        if not self._closed and workers_alive < self.config.max_workers:
            degraded.append("workers")
        staleness_s: Optional[float] = None
        if self.snapshotter is not None:
            snapshots = self.snapshotter.snapshots()
            if snapshots:
                staleness_s = time.time() - snapshots[-1]["at"]
                if staleness_s > 3 * self.config.metrics_interval_s:
                    degraded.append("metrics_stale")
        checks = {
            "queue_depth": queued,
            "queue_capacity": capacity,
            "workers_alive": workers_alive,
            "workers_expected": self.config.max_workers,
            "sessions": len(self._sessions),
            "completed": self._completed,
            "failed": self._failed,
            "journal_entries": len(self.warehouse.db.journal),
        }
        if staleness_s is not None:
            checks["metrics_staleness_s"] = round(staleness_s, 3)
        return {
            "status": "degraded" if degraded else "ok",
            "degraded": degraded,
            "checks": checks,
        }

    def _collect_service_metrics(self) -> dict:
        """Scrape-time sampler over counters the service already keeps
        (registered on :meth:`start`, removed on :meth:`close`)."""
        admission = self.admission.stats
        out = {
            "repro_service_queue_depth": self.admission.queued(),
            "repro_service_sessions": len(self._sessions),
            "repro_service_submitted_total": admission.submitted,
            "repro_service_rejected_total": admission.rejected,
            "repro_service_dispatched_total": admission.dispatched,
            "repro_service_max_queued": admission.max_queued,
        }
        if self.coalescer is not None:
            for name, value in self.coalescer.stats.snapshot().items():
                out[f"repro_coalescer_{name}_total"] = value
        if self.slow_log is not None:
            out["repro_slow_queries_total"] = len(self.slow_log)
        if self.wire is not None:
            for name, value in self.wire.stats().items():
                out[f"repro_wire_{name}"] = value
        return out

    def stats(self) -> ServiceStats:
        with self._stats_lock:
            return ServiceStats(
                completed=self._completed,
                failed=self._failed,
                admission=self.admission.stats,
                coalescer=self.coalescer.stats if self.coalescer else None,
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"WarehouseService(workers={self.config.max_workers}, "
                f"queued={self.admission.queued()}, "
                f"completed={self._completed})")
