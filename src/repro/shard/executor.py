"""Parent-side management of the shard worker pool.

:class:`ShardedExtractor` owns N warm worker processes (spawn context —
no inherited locks or file descriptors, identical behaviour on every
platform), one per shard.  It exposes exactly the two operations the
execution stack scatters:

* :meth:`query_all` — run one partial SELECT on every shard
  concurrently (the scatter half of :class:`~repro.shard.gather.
  PShardGather`);
* :meth:`extract` — decode specific records of one file on its owning
  shard (the remote half of ``LazyDataBinding._extract_direct``).

Failure model: every request waits on *both* the reply pipe and the
worker's process sentinel, so a worker killed mid-request surfaces as a
typed :class:`~repro.errors.ShardWorkerError` immediately — never a
hang.  A dead worker is respawned lazily on its next use (counted in
``restarts``); in-flight requests on other shards are unaffected.
"""

from __future__ import annotations

import logging
import multiprocessing
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Optional

from repro.errors import ShardError, ShardWorkerError
from repro.etl.framework import ExtractedRecords
from repro.shard.partition import ShardMap
from repro.shard.transport import open_blob, decode_pieces

logger = logging.getLogger("repro.shard")


@dataclass
class ShardStats:
    """Parent-side counters for one shard (no pipe traffic to read)."""

    shard_id: int
    files: int = 0
    queries: int = 0
    extracts: int = 0
    rows_extracted: int = 0
    errors: int = 0
    restarts: int = 0


@dataclass
class _WorkerHandle:
    shard_id: int
    proc: "multiprocessing.process.BaseProcess | None" = None
    conn: object = None
    lock: threading.RLock = field(default_factory=threading.RLock)
    alive: bool = False


class ShardedExtractor:
    """A warm pool of shard worker processes plus their control pipes."""

    def __init__(
        self,
        root: str,
        shard_map: ShardMap,
        *,
        extension: str = ".mseed",
        cache_budget_bytes: int = 256 * 1024 * 1024,
        spawn_timeout_s: float = 120.0,
    ) -> None:
        self.root = str(root)
        self.shard_map = shard_map
        self.extension = extension
        self.cache_budget_bytes = cache_budget_bytes
        self.spawn_timeout_s = spawn_timeout_s
        self.n_shards = shard_map.n_shards
        self._ctx = multiprocessing.get_context("spawn")
        self._handles = [_WorkerHandle(shard_id=i)
                         for i in range(self.n_shards)]
        self.stats = [ShardStats(shard_id=i, files=count)
                      for i, count in enumerate(shard_map.counts())]
        self._scatter_pool: Optional[ThreadPoolExecutor] = None
        self._closed = False
        self._close_lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Spawn every worker and wait until each shard warehouse is up."""
        self._scatter_pool = ThreadPoolExecutor(
            max_workers=self.n_shards,
            thread_name_prefix="repro-shard-scatter")
        for handle in self._handles:
            self._spawn(handle)

    def _worker_spec(self, shard_id: int) -> dict:
        return {
            "shard_id": shard_id,
            "root": self.root,
            "uris": self.shard_map.uris_of(shard_id),
            "extension": self.extension,
            "cache_budget_bytes": self.cache_budget_bytes,
        }

    def _spawn(self, handle: _WorkerHandle) -> None:
        from repro.shard.worker import worker_main

        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=worker_main,
            args=(child_conn, self._worker_spec(handle.shard_id)),
            name=f"repro-shard-{handle.shard_id}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        handle.proc = proc
        handle.conn = parent_conn
        handle.alive = True
        ready = self._recv(handle, self.spawn_timeout_s, "startup")
        if not ready.get("ok") or ready.get("event") != "ready":
            self._mark_dead(handle)
            raise ShardWorkerError(
                f"shard {handle.shard_id} worker failed to start: {ready}",
                shard_id=handle.shard_id)
        logger.info("shard %d worker ready: pid %d, %d files",
                    handle.shard_id, ready["pid"], ready["files"])

    def _respawn(self, handle: _WorkerHandle) -> None:
        self.stats[handle.shard_id].restarts += 1
        logger.warning("respawning dead shard %d worker", handle.shard_id)
        self._spawn(handle)

    def close(self) -> None:
        """Drain and join every worker.  Idempotent and unordered-safe:
        callers run this before any storage teardown."""
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        for handle in self._handles:
            with handle.lock:
                proc, conn = handle.proc, handle.conn
                if conn is not None and handle.alive and \
                        proc is not None and proc.is_alive():
                    try:
                        conn.send({"cmd": "close"})
                        mp_connection.wait([conn, proc.sentinel], 10.0)
                    except (OSError, BrokenPipeError, EOFError):
                        pass
                if proc is not None:
                    proc.join(timeout=10.0)
                    if proc.is_alive():
                        proc.terminate()
                        proc.join(timeout=5.0)
                if conn is not None:
                    conn.close()
                handle.alive = False
        if self._scatter_pool is not None:
            self._scatter_pool.shutdown(wait=True)
            self._scatter_pool = None

    @property
    def closed(self) -> bool:
        return self._closed

    # -- request plumbing ----------------------------------------------------

    def _recv(self, handle: _WorkerHandle, timeout: "float | None",
              what: str) -> dict:
        """One reply, or a typed error if the worker died instead."""
        conn, proc = handle.conn, handle.proc
        ready = mp_connection.wait([conn, proc.sentinel], timeout)
        if conn in ready:
            try:
                return conn.recv()
            except (EOFError, OSError):
                pass  # died mid-send
        elif ready:
            # Sentinel fired: the worker exited.  It may have managed to
            # flush a reply first — drain the pipe before concluding.
            try:
                if conn.poll(0.2):
                    return conn.recv()
            except (EOFError, OSError):
                pass
        else:
            self._mark_dead(handle, kill=True)
            raise ShardWorkerError(
                f"shard {handle.shard_id} worker timed out during {what} "
                f"(waited {timeout:.0f}s); worker killed",
                shard_id=handle.shard_id)
        pid = proc.pid if proc is not None else -1
        self._mark_dead(handle)
        raise ShardWorkerError(
            f"shard {handle.shard_id} worker (pid {pid}) died during "
            f"{what}; it will be respawned on next use",
            shard_id=handle.shard_id)

    def _mark_dead(self, handle: _WorkerHandle, *, kill: bool = False) -> None:
        handle.alive = False
        self.stats[handle.shard_id].errors += 1
        if handle.proc is not None:
            if kill and handle.proc.is_alive():
                handle.proc.terminate()
            handle.proc.join(timeout=5.0)
        if handle.conn is not None:
            handle.conn.close()
            handle.conn = None

    def _roundtrip(self, shard_id: int, message: dict,
                   timeout: "float | None" = None) -> dict:
        if self._closed:
            raise ShardError("sharded executor is closed")
        handle = self._handles[shard_id]
        with handle.lock:
            if not handle.alive or handle.proc is None \
                    or not handle.proc.is_alive():
                if handle.alive:
                    # Found dead without a request in flight (e.g. killed
                    # between queries): account it before respawning.
                    self._mark_dead(handle)
                self._respawn(handle)
            try:
                handle.conn.send(message)
            except (OSError, BrokenPipeError) as exc:
                self._mark_dead(handle)
                raise ShardWorkerError(
                    f"shard {shard_id} worker pipe broke sending "
                    f"{message.get('cmd')!r}: {exc}",
                    shard_id=shard_id) from exc
            reply = self._recv(handle, timeout, repr(message.get("cmd")))
            blob = reply.get("blob")
            if reply.get("ok") and isinstance(blob, dict):
                reply["data"] = open_blob(blob)
                if blob.get("kind") == "shm":
                    handle.conn.send({"cmd": "release",
                                      "names": [blob["name"]]})
                    self._recv(handle, timeout, "'release'")
            return reply

    @staticmethod
    def _check(reply: dict, shard_id: int, what: str) -> dict:
        if not reply.get("ok"):
            raise ShardError(
                f"shard {shard_id} {what} failed: "
                f"{reply.get('error')}: {reply.get('message')}")
        return reply

    # -- scatter operations --------------------------------------------------

    def query_all(self, sql: str, params: "dict | None"
                  ) -> "list[tuple]":
        """Run one partial SELECT on every shard; returns per-shard
        ``(Result, report_dict)`` in shard order."""
        if self._scatter_pool is None:
            raise ShardError("sharded executor not started")
        futures = [
            self._scatter_pool.submit(self._query_shard, i, sql, params)
            for i in range(self.n_shards)
        ]
        results, errors = [], []
        for future in futures:
            try:
                results.append(future.result())
            except Exception as exc:
                errors.append(exc)
        if errors:
            raise errors[0]
        return results

    def _query_shard(self, shard_id: int, sql: str,
                     params: "dict | None") -> tuple:
        from repro.net.frames import decode_result_batch

        reply = self._check(
            self._roundtrip(shard_id, {"cmd": "query", "sql": sql,
                                       "params": params}),
            shard_id, "partial query")
        _cursor, result = decode_result_batch(reply["data"], reply["names"])
        stats = self.stats[shard_id]
        stats.queries += 1
        stats.rows_extracted += reply["report"].get("rows_extracted", 0)
        return result, reply["report"]

    def extract(self, uri: str, seq_nos: "list[int]",
                data_cols: "list[str]") -> ExtractedRecords:
        """Remote-extract records of ``uri`` on its owning shard."""
        shard_id = self.shard_map.shard_of(uri)
        reply = self._check(
            self._roundtrip(shard_id, {
                "cmd": "extract", "uri": uri,
                "seqs": [int(seq) for seq in seq_nos],
                "data_cols": list(data_cols),
            }),
            shard_id, f"extract of {uri}")
        stats = self.stats[shard_id]
        stats.extracts += 1
        stats.rows_extracted += reply.get("rows", 0)
        return decode_pieces(uri, reply["data"])

    # -- introspection -------------------------------------------------------

    def worker_stats(self) -> "list[dict]":
        """Live per-worker stats over the pipe (tests/diagnostics)."""
        out = []
        for i in range(self.n_shards):
            reply = self._check(self._roundtrip(i, {"cmd": "stats"}),
                                i, "stats")
            out.append(reply)
        return out

    def clear_caches(self) -> None:
        """Drop every shard's extraction cache, recycler and plan cache
        (cold benches)."""
        for i in range(self.n_shards):
            self._check(self._roundtrip(i, {"cmd": "clear_cache"}),
                        i, "clear_cache")

    def describe(self) -> "list[dict]":
        """Parent-side snapshot for ``sys.shards`` (no pipe traffic)."""
        rows = []
        for handle, stats in zip(self._handles, self.stats):
            proc = handle.proc
            rows.append({
                "shard_id": handle.shard_id,
                "pid": proc.pid if proc is not None else 0,
                "alive": bool(handle.alive and proc is not None
                              and proc.is_alive()),
                "files": stats.files,
                "queries": stats.queries,
                "extracts": stats.extracts,
                "rows_extracted": stats.rows_extracted,
                "errors": stats.errors,
                "restarts": stats.restarts,
            })
        return rows
