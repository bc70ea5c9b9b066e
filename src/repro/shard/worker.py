"""The shard worker process: one warehouse over one shard of the corpus.

``worker_main`` is the (spawn-safe, picklable) process target.  Each
worker builds a full ``SeismicWarehouse`` in lazy mode over a
:class:`~repro.shard.partition.ShardRepositoryView` restricted to its
shard's files — so it harvests only its shard's metadata, owns its
shard's extraction cache, and runs its own staleness detection.  It then
serves a tiny command loop over the control pipe:

``ping``
    liveness + identity (pid, file count).
``query``
    run a partial SELECT against the shard warehouse; the result ships
    as a wire BATCH payload (:func:`repro.net.frames.encode_result_batch`)
    through shared memory, plus the worker-side :class:`QueryReport`
    counters.
``extract``
    decode specific records of one owned file (the remote half of the
    parent's ``LazyDataBinding._extract_direct``); the file's run ships
    as the same storage pages under
    :func:`~repro.shard.transport.encode_pieces` framing.
``stats``
    live cache snapshot + served-command counters (tests and
    ``sys.shards``).
``clear_cache``
    drop the shard's extraction cache, recycled intermediates and plan
    cache (cold benchmarks).
``release``
    unlink shared-memory blocks the parent has finished reading.
``close``
    drain and exit.

Replies are ``{"ok": True, ...}`` or ``{"ok": False, "error": <type>,
"message": <str>}``; a worker never dies from a request error.
"""

from __future__ import annotations

import os
import traceback

import numpy as np

from repro.shard.partition import ShardRepositoryView
from repro.shard.transport import INLINE_LIMIT, BlobShipper, encode_pieces

_REPORT_KEYS = (
    "rows_out", "rows_extracted", "rows_extracted_here", "rows_coalesced",
    "rows_served_eager", "promotions", "pages_read", "pages_skipped",
    "pages_skipped_zone", "operators_run", "execute_s", "plan_cache_hit",
)


class _ShardServer:
    """The live state of one worker: warehouse, shipper, counters."""

    def __init__(self, spec: dict) -> None:
        from repro.seismology.warehouse import SeismicWarehouse

        self.spec = spec
        self.repo = ShardRepositoryView(
            spec["root"], spec["uris"], extension=spec["extension"])
        self.warehouse = SeismicWarehouse(
            self.repo,
            mode="lazy",
            cache_budget_bytes=spec["cache_budget_bytes"],
        )
        self.shipper = BlobShipper(spec.get("inline_limit", INLINE_LIMIT))
        self.queries = 0
        self.extracts = 0

    def handle(self, message: dict) -> dict:
        cmd = message.get("cmd")
        if cmd == "ping":
            return {"ok": True, "pid": os.getpid(),
                    "files": len(self.spec["uris"])}
        if cmd == "query":
            return self._query(message)
        if cmd == "extract":
            return self._extract(message)
        if cmd == "stats":
            return self._stats()
        if cmd == "clear_cache":
            cache = self.warehouse.cache
            if cache is not None:
                cache.clear()
            # Clearing the extraction cache changes no source file, so it
            # leaves recycled results valid; a cold shard drops them too.
            self.warehouse.recycler.invalidate_all()
            self.warehouse.db.clear_plan_cache()
            return {"ok": True}
        if cmd == "release":
            freed = self.shipper.release(message.get("names", []))
            return {"ok": True, "freed": freed}
        raise ValueError(f"unknown shard command {cmd!r}")

    def _query(self, message: dict) -> dict:
        from repro.net.frames import encode_result_batch

        self.queries += 1
        result, report, _trace = self.warehouse.db.query_with_report(
            message["sql"], message.get("params"))
        payload = encode_result_batch(0, result)
        return {
            "ok": True,
            "names": result.names,
            "rows": result.row_count,
            "blob": self.shipper.ship(payload),
            "report": {key: getattr(report, key) for key in _REPORT_KEYS},
        }

    def _extract(self, message: dict) -> dict:
        self.extracts += 1
        binding = self.warehouse.pipeline.binding
        trace: list[dict] = []
        run = binding._fetch_file(
            message["uri"],
            np.sort(np.asarray(message["seqs"], dtype=np.int64)),
            list(message["data_cols"]),
            (None, None),
            trace,
            {},  # versions: the parent observes (and pins) the file itself
        )
        return {"ok": True, "blob": self.shipper.ship(encode_pieces(run)),
                "records": len(run.seq_nos), "rows": run.total_rows()}

    def _stats(self) -> dict:
        cache = self.warehouse.cache
        return {
            "ok": True,
            "pid": os.getpid(),
            "files": len(self.spec["uris"]),
            "queries": self.queries,
            "extracts": self.extracts,
            "cache": cache.snapshot() if cache is not None else {},
            "shipped_blocks": self.shipper.shipped_blocks,
            "shipped_bytes": self.shipper.shipped_bytes,
        }

    def close(self) -> None:
        self.shipper.close()
        self.warehouse.close()


def worker_main(conn, spec: dict) -> None:
    """Process entrypoint: build the shard warehouse, serve the pipe."""
    server = _ShardServer(spec)
    try:
        conn.send({"ok": True, "event": "ready", "pid": os.getpid(),
                   "files": len(spec["uris"])})
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if message.get("cmd") == "close":
                conn.send({"ok": True})
                break
            try:
                reply = server.handle(message)
            except Exception as exc:  # reply, never die, on request errors
                reply = {"ok": False, "error": type(exc).__name__,
                         "message": str(exc),
                         "detail": traceback.format_exc(limit=4)}
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):
                break
    finally:
        server.close()
        conn.close()
