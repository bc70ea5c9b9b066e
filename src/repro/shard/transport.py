"""Bulk-data transport between shard workers and the parent process.

Extracted column batches and query results never travel as pickles: a
column on this carrier is the same checksummed storage page
(:func:`repro.storage.format.encode_page`) a segment file or a wire
BATCH frame holds — a ``query`` reply is literally a BATCH payload, an
``extract`` reply is :func:`encode_pieces` — and the bytes move through
``multiprocessing.shared_memory`` blocks.  Small payloads (below
:data:`INLINE_LIMIT`) ride inline on the control pipe — a shared-memory
segment per tiny reply would cost more in syscalls than it saves in
copies.

The worker owns its shared-memory blocks until the parent confirms it
has read them (a ``release`` command), so a block can never be unlinked
while the parent still maps it.

Blob shapes
-----------

* an **array block**: ``[u8 name_len][name][u8 np_descr_len][np_descr]
  [u32 page_len][page]`` — ``np_descr`` restores the exact numpy dtype
  after the page layer widened integers to int64 / floats to float64.
* **an extracted run** (one file's worth): ``[u16 n_columns]``, then
  array blocks for the run's seq_nos and its per-record row counts,
  then one array block per column.
"""

from __future__ import annotations

import struct
from multiprocessing import shared_memory

import numpy as np

from repro.db.column import Column
from repro.errors import ShardError
from repro.etl.framework import ExtractedRecords
from repro.storage.format import decode_page, dtype_of_array, encode_page

INLINE_LIMIT = 64 * 1024

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")


def encode_named_array(name: str, array: np.ndarray) -> bytes:
    page = encode_page(Column.from_numpy(dtype_of_array(array), array))
    name_b = name.encode("utf-8")
    descr_b = array.dtype.str.encode("ascii")
    return b"".join((bytes([len(name_b)]), name_b,
                     bytes([len(descr_b)]), descr_b,
                     _U32.pack(len(page)), page))


def decode_named_array(buffer: memoryview, offset: int
                       ) -> tuple[str, np.ndarray, int]:
    name_len = buffer[offset]
    offset += 1
    name = str(buffer[offset:offset + name_len], "utf-8")
    offset += name_len
    descr_len = buffer[offset]
    offset += 1
    wanted = np.dtype(str(buffer[offset:offset + descr_len], "ascii"))
    offset += descr_len
    (page_len,) = _U32.unpack_from(buffer, offset)
    offset += _U32.size
    array = decode_page(bytes(buffer[offset:offset + page_len])).values
    offset += page_len
    if array.dtype != wanted:
        array = array.astype(wanted)
    return name, array, offset


def encode_pieces(run: ExtractedRecords) -> bytes:
    """Encode one file's extracted run: seq_nos, counts, one page per
    column."""
    return b"".join([
        _U16.pack(len(run.columns)),
        encode_named_array("seq_nos", run.seq_nos),
        encode_named_array("counts", run.counts),
        *(encode_named_array(name, run.columns[name])
          for name in sorted(run.columns)),
    ])


def decode_pieces(uri: str, data: bytes) -> ExtractedRecords:
    """Decode (and checksum) :func:`encode_pieces` output as ``uri``'s
    run; any torn or tampered blob raises :class:`ShardError`."""
    buffer = memoryview(data)
    try:
        (n_columns,) = _U16.unpack_from(buffer, 0)
        _name, seq_nos, offset = decode_named_array(buffer, _U16.size)
        _name, counts, offset = decode_named_array(buffer, offset)
        columns: dict[str, np.ndarray] = {}
        for _ in range(n_columns):
            name, columns[name], offset = decode_named_array(buffer, offset)
    except Exception as exc:  # struct/index errors, CorruptSegmentError, ...
        raise ShardError(f"malformed extraction blob: {exc}") from exc
    rows = int(counts.sum())
    if len(counts) != len(seq_nos) or any(
            len(column) != rows for column in columns.values()):
        raise ShardError("malformed extraction blob: columns and counts "
                         "disagree")
    return ExtractedRecords.of_counts(uri, seq_nos, counts, columns)


class BlobShipper:
    """Worker-side outbox of shared-memory blocks awaiting release.

    ``ship()`` turns an encoded byte string into a pipe-safe descriptor:
    small payloads inline, larger ones into a fresh shared-memory block
    whose name the parent echoes back in a ``release`` command once
    read.  Keeping the handle open here (not just unlinking) is what
    guarantees the block outlives the parent's attach.
    """

    def __init__(self, inline_limit: int = INLINE_LIMIT) -> None:
        self.inline_limit = inline_limit
        self._pending: dict[str, shared_memory.SharedMemory] = {}
        self.shipped_blocks = 0
        self.shipped_bytes = 0

    def ship(self, data: bytes) -> dict:
        self.shipped_bytes += len(data)
        if len(data) <= self.inline_limit:
            return {"kind": "inline", "data": data}
        block = shared_memory.SharedMemory(create=True, size=len(data))
        block.buf[:len(data)] = data
        self._pending[block.name] = block
        self.shipped_blocks += 1
        return {"kind": "shm", "name": block.name, "size": len(data)}

    def release(self, names: "list[str]") -> int:
        freed = 0
        for name in names:
            block = self._pending.pop(name, None)
            if block is not None:
                block.close()
                block.unlink()
                freed += 1
        return freed

    def close(self) -> None:
        self.release(list(self._pending))


def open_blob(descriptor: dict) -> bytes:
    """Parent-side: materialise a shipped blob into local bytes."""
    if descriptor["kind"] == "inline":
        return descriptor["data"]
    block = shared_memory.SharedMemory(name=descriptor["name"])
    try:
        return bytes(block.buf[:descriptor["size"]])
    finally:
        block.close()
