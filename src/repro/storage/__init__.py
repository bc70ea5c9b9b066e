"""Persistent columnar storage: segment files, codecs, buffer pool, store.

The paper's §3.3 reads "materialization of the extracted and transformed
data is simply caching"; this package makes that cache (and the metadata
warehouse around it) survive process restarts.  Layers, bottom up:

* :mod:`repro.storage.codecs` — lightweight per-page compression (RLE,
  dictionary, frame-of-reference/delta, plain fallback);
* :mod:`repro.storage.format` — the on-disk page / segment-footer binary
  format with CRC checksums;
* :mod:`repro.storage.segment` — segment files: one file per table, one
  page run per column, read lazily via ``mmap`` so untouched columns
  never leave disk;
* :mod:`repro.storage.bufferpool` — a byte-budgeted LRU page cache with
  pin counts, shared by every reader of one store;
* :mod:`repro.storage.store` — the :class:`~repro.storage.store.TableStore`
  directory: schema manifest with atomic-rename commits, table
  persistence, and extraction-cache snapshots for warm starts.
"""

from repro.storage.bufferpool import BufferPool, PoolStats
from repro.storage.codecs import (
    CODEC_NAMES,
    decode_array,
    encode_array,
)
from repro.storage.segment import (
    PAGE_ROWS,
    SegmentReader,
    SegmentWriter,
)
from repro.storage.promoted import (
    PromotedStore,
    PromotedUnit,
    PromotionReport,
)
from repro.storage.store import TableBacking, TableStore

__all__ = [
    "PromotedStore",
    "PromotedUnit",
    "PromotionReport",
    "BufferPool",
    "PoolStats",
    "CODEC_NAMES",
    "decode_array",
    "encode_array",
    "PAGE_ROWS",
    "SegmentReader",
    "SegmentWriter",
    "TableBacking",
    "TableStore",
]
