"""The on-disk binary format: pages, segment framing, checksums.

A *page* is the unit of I/O and of buffer-pool caching: one encoded run
of up to :data:`repro.storage.segment.PAGE_ROWS` values of a single
column, framed as::

    +--------+-------+-------+-------+-----------+-------------+---------+
    | "LPG1" | codec | dtype | flags | row_count | payload_len | crc32   |
    |  4 B   |  u8   |  u8   |  u16  |    u32    |     u32     |  u32    |
    +--------+-------+-------+-------+-----------+-------------+---------+
    | payload (codec output) | null-mask bits (present iff flags & 1)    |
    +------------------------+-------------------------------------------+

The CRC covers payload *and* mask, so a flipped bit anywhere in the body
is detected at read time (:class:`~repro.errors.CorruptSegmentError`).
The segment footer (a JSON column directory, see
:mod:`repro.storage.segment`) carries its own CRC trailer, and the store
manifest commits via write-temp-then-``os.replace`` so a crash mid-write
can never expose a torn manifest.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from repro.db.column import Column
from repro.db.types import DataType
from repro.errors import CorruptSegmentError, StorageError
from repro.storage.codecs import decode_array, encode_array

PAGE_MAGIC = b"LPG1"
SEGMENT_MAGIC = b"LSEG1\0"
SEGMENT_VERSION = 1
FOOTER_TRAILER = struct.Struct("<II4s")   # footer_len, footer_crc, magic
FOOTER_END_MAGIC = b"GESL"

_PAGE_HEADER = struct.Struct("<4sBBHIII")
PAGE_HEADER_BYTES = _PAGE_HEADER.size

_FLAG_HAS_NULLS = 1

_DTYPE_CODES = {
    DataType.BOOLEAN: 0,
    DataType.BIGINT: 1,
    DataType.DOUBLE: 2,
    DataType.VARCHAR: 3,
    DataType.TIMESTAMP: 4,
}
_CODE_DTYPES = {code: dtype for dtype, code in _DTYPE_CODES.items()}


def encode_page(column: Column) -> bytes:
    """Frame one column slice as a checksummed page.

    The CRC covers the header fields *and* the body — a flipped bit in
    ``row_count`` or ``payload_len`` is as corrupting as one in the
    payload, so it must be equally detectable.
    """
    codec_id, payload = encode_array(column.dtype, column.values,
                                     column.uniques)
    flags = 0
    body = payload
    if column.valid is not None:
        flags |= _FLAG_HAS_NULLS
        body = payload + np.packbits(column.valid.astype(bool)).tobytes()
    bare_header = _PAGE_HEADER.pack(
        PAGE_MAGIC,
        codec_id,
        _DTYPE_CODES[column.dtype],
        flags,
        len(column),
        len(payload),
        0,  # crc slot, excluded from its own checksum
    )
    crc = zlib.crc32(body, zlib.crc32(bare_header[:-4])) & 0xFFFFFFFF
    return bare_header[:-4] + struct.pack("<I", crc) + body


def decode_page(raw: bytes) -> Column:
    """Parse + verify one page; raises on corruption."""
    if len(raw) < PAGE_HEADER_BYTES:
        raise CorruptSegmentError("page truncated before header end")
    magic, codec_id, dtype_code, flags, row_count, payload_len, crc = \
        _PAGE_HEADER.unpack_from(raw, 0)
    if magic != PAGE_MAGIC:
        raise CorruptSegmentError(f"bad page magic {magic!r}")
    dtype = _CODE_DTYPES.get(dtype_code)
    if dtype is None:
        raise CorruptSegmentError(f"unknown dtype code {dtype_code}")
    body = raw[PAGE_HEADER_BYTES:]
    header_crc = zlib.crc32(raw[:PAGE_HEADER_BYTES - 4])
    if zlib.crc32(body, header_crc) & 0xFFFFFFFF != crc:
        raise CorruptSegmentError("page checksum mismatch")
    column = decode_array(dtype, codec_id, body[:payload_len], row_count)
    if not flags & _FLAG_HAS_NULLS:
        return column
    bits = np.unpackbits(np.frombuffer(body[payload_len:], dtype=np.uint8),
                         count=row_count)
    return Column(dtype, column.values, bits.astype(bool), column.uniques)


def page_codec(raw: bytes) -> int:
    """The codec id of a framed page (introspection / stats)."""
    if len(raw) < PAGE_HEADER_BYTES:
        raise CorruptSegmentError("page truncated before header end")
    return _PAGE_HEADER.unpack_from(raw, 0)[1]


def dtype_of_array(array: np.ndarray) -> DataType:
    """The SQL type whose pages carry a raw numeric NumPy array (cache
    snapshots and shard blobs hold extraction arrays, not typed Columns);
    narrower integers and floats widen losslessly to BIGINT / DOUBLE.
    Strings travel only as VARCHAR Columns (codes + uniques), so a string
    array is refused like any other dtype no page carries."""
    kind = array.dtype.kind
    if kind in "iu":
        return DataType.BIGINT
    if kind == "f":
        return DataType.DOUBLE
    if kind == "b":
        return DataType.BOOLEAN
    raise StorageError(f"no page type carries an array of dtype {array.dtype}")


def dtype_name(dtype: DataType) -> str:
    return dtype.value


def dtype_from_name(name: str) -> DataType:
    for dtype in DataType:
        if dtype.value == name:
            return dtype
    raise CorruptSegmentError(f"unknown dtype name {name!r}")
