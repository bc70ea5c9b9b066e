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
* **extraction pieces** (one file's worth): ``[u32 n_pieces]`` then per
  piece ``[u64 seq_no][u16 n_arrays]`` + that many array blocks.
"""

from __future__ import annotations

import struct
from multiprocessing import shared_memory

import numpy as np

from repro.db.column import Column
from repro.errors import ShardError
from repro.storage.format import decode_page, dtype_of_array, encode_page

INLINE_LIMIT = 64 * 1024

_U32 = struct.Struct("<I")
_PIECE_HEAD = struct.Struct("<QH")  # seq_no, n_arrays


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


def encode_pieces(pieces: "list[tuple[int, dict[str, np.ndarray]]]") -> bytes:
    """Encode one file's extraction pieces: ``[(seq_no, {col: array})]``."""
    chunks = [_U32.pack(len(pieces))]
    for seq_no, arrays in pieces:
        chunks.append(_PIECE_HEAD.pack(seq_no, len(arrays)))
        for name in sorted(arrays):
            chunks.append(encode_named_array(name, arrays[name]))
    return b"".join(chunks)


def decode_pieces(data: bytes) -> "list[tuple[int, dict[str, np.ndarray]]]":
    """Decode (and checksum) :func:`encode_pieces` output; any torn or
    tampered blob raises :class:`ShardError`."""
    buffer = memoryview(data)
    try:
        (n_pieces,) = _U32.unpack_from(buffer, 0)
        offset = _U32.size
        pieces = []
        for _ in range(n_pieces):
            seq_no, n_arrays = _PIECE_HEAD.unpack_from(buffer, offset)
            offset += _PIECE_HEAD.size
            arrays: dict[str, np.ndarray] = {}
            for _ in range(n_arrays):
                name, array, offset = decode_named_array(buffer, offset)
                arrays[name] = array
            pieces.append((seq_no, arrays))
        return pieces
    except Exception as exc:  # struct/index errors, CorruptSegmentError, ...
        raise ShardError(f"malformed extraction blob: {exc}") from exc


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
