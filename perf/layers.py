"""The layer boundaries the traced run instruments.

``LAYERS`` maps a layer — a module path under ``src/repro/`` — to the
public callables at its boundary, each ``(module, qualname)`` or
``(module, qualname, counters)`` where ``counters(args, kwargs, result)``
returns a dict of work counts read at that boundary.

The tracer installs a timing wrapper around each target from outside the
program.  A target that no longer resolves (renamed, deleted) is reported
under ``unresolved_layers`` and its time falls into its caller's self
time; the traced run never fails on it, because refactors of ``src/`` may
not edit this directory.
"""

from __future__ import annotations


def _nsamples(args, kwargs, result):
    return {"samples_decoded": args[1]}


def _harvested(args, kwargs, result):
    return {"files_harvested": len(result.files)}


def _extracted(args, kwargs, result):
    return {"samples_extracted": sum(
        len(next(iter(cols.values()), ())) for cols in result.per_record)}


def _synced(args, kwargs, result):
    return {"files_updated": result.changed}


def _encoded(args, kwargs, result):
    return {"bytes_in": args[1].nbytes, "bytes_out": len(result[1])}


def _batch_encoded(args, kwargs, result):
    return {"rows": args[1].row_count, "bytes": len(result)}


def _shipped(args, kwargs, result):
    return {"bytes_shipped": len(args[1])}


def _read_bytes(args, kwargs, result):
    return {"bytes_read": sum(r.header.record_length for r in result)}


LAYERS: dict[str, list[tuple]] = {
    "seismology.warehouse": [
        ("repro.seismology.warehouse", "SeismicWarehouse.__init__"),
        ("repro.seismology.warehouse", "SeismicWarehouse.connect"),
        ("repro.seismology.warehouse", "SeismicWarehouse.sync"),
        ("repro.seismology.warehouse", "SeismicWarehouse.checkpoint"),
        ("repro.seismology.warehouse", "SeismicWarehouse.promote"),
        ("repro.seismology.warehouse", "SeismicWarehouse.close"),
    ],
    "mseed.files": [
        ("repro.mseed.files", "read_records_from", _read_bytes),
        ("repro.mseed.files", "read_records"),
        ("repro.mseed.files", "read_file"),
        ("repro.mseed.files", "scan_file_headers"),
    ],
    "mseed.steim": [
        ("repro.mseed.steim", "decode_steim2", _nsamples),
        ("repro.mseed.steim", "decode_steim1", _nsamples),
    ],
    "etl.metadata": [
        ("repro.etl.metadata", "harvest_repository", _harvested),
    ],
    "etl.mseed_adapter": [
        ("repro.etl.mseed_adapter", "MSeedAdapter.extract", _extracted),
        ("repro.etl.mseed_adapter", "MSeedAdapter.harvest_file"),
        ("repro.etl.mseed_adapter", "MSeedAdapter.harvest_from_filename"),
    ],
    "etl.lazy": [
        ("repro.etl.lazy", "LazyDataBinding.fetch"),
        ("repro.etl.lazy", "LazyDataBinding.scan_all"),
        ("repro.etl.lazy", "LazyDataBinding.handle_stale_file"),
        ("repro.etl.lazy", "LazyETL.initial_load"),
        ("repro.etl.lazy", "LazyETL.warm_start"),
        ("repro.etl.lazy", "LazyETL.checkpoint"),
        ("repro.etl.lazy", "LazyETL.refresh_file_metadata"),
    ],
    "etl.eager": [
        ("repro.etl.eager", "EagerETL.initial_load"),
    ],
    "etl.cache": [
        ("repro.etl.cache", "ExtractionCache.get"),
        ("repro.etl.cache", "ExtractionCache.put"),
        ("repro.etl.cache", "ExtractionCache.validate_file"),
        ("repro.etl.cache", "ExtractionCache.invalidate_file"),
        ("repro.etl.cache", "ExtractionCache.spill"),
        ("repro.etl.cache", "ExtractionCache.restore"),
    ],
    "etl.refresh": [
        ("repro.etl.refresh", "MetadataSync.sync", _synced),
    ],
    "db.sql": [
        ("repro.db.sql.parser", "parse_prepared"),
        ("repro.db.sql.parser", "parse_statement"),
    ],
    "db.plan": [
        ("repro.db.plan.logical", "bind_select"),
        ("repro.db.plan.optimizer", "optimize"),
        ("repro.db.plan.physical", "build_physical"),
    ],
    "db.exec": [
        ("repro.db.exec.engine", "Database.open_query"),
        ("repro.db.exec.engine", "Database.query_with_report"),
        ("repro.db.exec.engine", "Database.bulk_insert"),
        ("repro.db.exec.engine", "StreamingQuery.batches"),
        ("repro.db.exec.engine", "StreamingQuery.close"),
    ],
    "db.exec.recycler": [
        ("repro.db.exec.recycler", "Recycler.lookup_validated"),
        ("repro.db.exec.recycler", "Recycler.admit"),
    ],
    "api": [
        ("repro.api.connection", "Connection.cursor"),
        ("repro.api.connection", "Connection.prepare"),
        ("repro.api.cursor", "Cursor.execute"),
        ("repro.api.cursor", "Cursor.fetchall"),
        ("repro.api.cursor", "Cursor.close"),
    ],
    "storage.codecs": [
        ("repro.storage.codecs", "encode_array", _encoded),
        ("repro.storage.codecs", "decode_array"),
    ],
    "storage.segment": [
        ("repro.storage.segment", "SegmentWriter.write_column"),
        ("repro.storage.segment", "SegmentWriter.finish"),
        ("repro.storage.segment", "SegmentReader.read_column"),
        ("repro.storage.segment", "SegmentReader.read_column_pages"),
    ],
    "storage.store": [
        ("repro.storage.store", "TableStore.commit"),
        ("repro.storage.store", "TableStore.save_table"),
        ("repro.storage.store", "TableStore.save_cache_snapshot"),
        ("repro.storage.store", "TableStore.load_cache_snapshot"),
        ("repro.storage.store", "TableStore.save_promoted_segment"),
        ("os", "fsync"),
    ],
    "storage.promoted": [
        ("repro.storage.promoted", "PromotedStore.fetch"),
        ("repro.storage.promoted", "PromotedStore.promote_batch"),
    ],
    "service": [
        ("repro.service.service", "WarehouseService.submit_stream"),
        ("repro.service.coalescer", "ExtractionCoalescer.claim"),
        ("repro.service.coalescer", "ExtractionCoalescer.publish"),
        ("repro.service.coalescer", "ExtractionCoalescer.wait"),
        ("repro.service.admission", "AdmissionController.submit"),
    ],
    "net.frames": [
        ("repro.net.frames", "encode_result_batch", _batch_encoded),
        ("repro.net.frames", "decode_result_batch"),
        ("repro.net.frames", "pack_json_frame"),
        ("repro.net.frames", "decode_json_payload"),
    ],
    # The wire server's public surface is start/stop; the per-request
    # boundary a worker thread crosses is the server-side cursor's sink
    # methods (public names on a module-private class).  push() parks
    # when the client's window is full, so its time includes that wait.
    "net.server": [
        ("repro.net.server", "_ServerCursor.opened"),
        ("repro.net.server", "_ServerCursor.push"),
        ("repro.net.server", "_ServerCursor.finish"),
    ],
    # Client side only: time blocked in recv is the server's turn.
    "net.client": [
        ("repro.net.frames", "recv_frame_sock"),
    ],
    "shard.executor": [
        ("repro.shard.executor", "ShardedExtractor.start"),
        ("repro.shard.executor", "ShardedExtractor.query_all"),
        ("repro.shard.executor", "ShardedExtractor.extract"),
        ("repro.shard.executor", "ShardedExtractor.close"),
    ],
    "shard.transport": [
        ("repro.shard.transport", "encode_pieces"),
        ("repro.shard.transport", "decode_pieces"),
        ("repro.shard.transport", "BlobShipper.ship", _shipped),
        ("repro.shard.transport", "open_blob"),
    ],
    "shard.gather": [
        ("repro.shard.gather", "ShardRouter.maybe_shard"),
        ("repro.shard.gather", "PShardGather.execute"),
    ],
}
