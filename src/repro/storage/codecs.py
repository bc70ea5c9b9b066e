"""Lightweight per-page compression codecs.

Four codecs cover the engine's physical types, in the same spirit as the
Steim coders in :mod:`repro.mseed.steim` (difference coding with reduced
bit widths) but simplified to byte-aligned widths so encode/decode stay
pure NumPy:

* ``plain``   — raw little-endian values (the always-correct fallback);
* ``rle``     — run-length pairs, for near-constant columns such as
  ``file_location`` or ``frequency``;
* ``dict``    — distinct-value dictionary + width-reduced codes, the
  natural VARCHAR encoding (repeated station/channel strings).  It is
  the in-engine form of a VARCHAR column written out: the page holds
  the column's codes (renumbered over the strings the page uses) and
  decodes straight back to codes + sorted uniques;
* ``for``     — frame of reference: ``min`` + unsigned offsets stored in
  the smallest byte width that fits, optionally after a delta transform
  (``delta`` flag) which suits monotone int64 sample times.

``encode_array`` tries every applicable codec and keeps the smallest
output, so callers never choose wrong — they only pay a small encode-time
cost.  A VARCHAR page is encoded from a column's codes and uniques and
decodes to a :class:`~repro.db.column.Column` of codes + uniques, whatever
its codec: no per-row string array is built either way.  Every payload
round-trips exactly: ``decode_array(…encode_array())`` is the identity,
NULL masks included (masks travel in the page layer, see
:mod:`repro.storage.format`).
"""

from __future__ import annotations

import struct

import numpy as np

from repro.db.column import Column
from repro.db.types import DataType, numpy_dtype
from repro.errors import CorruptSegmentError, StorageError

CODEC_PLAIN = 0
CODEC_RLE = 1
CODEC_DICT = 2
CODEC_FOR = 3
CODEC_DELTA_FOR = 4

CODEC_NAMES = {
    CODEC_PLAIN: "plain",
    CODEC_RLE: "rle",
    CODEC_DICT: "dict",
    CODEC_FOR: "for",
    CODEC_DELTA_FOR: "delta+for",
}

_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")

# Byte widths frame-of-reference offsets may use; 0 means "constant page".
_FOR_WIDTHS = (1, 2, 4, 8)
_WIDTH_DTYPES = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}


# ---------------------------------------------------------------------------
# Primitive helpers
# ---------------------------------------------------------------------------


def _pack_strings(values: list[str]) -> bytes:
    parts = [_U32.pack(len(values))]
    for text in values:
        raw = text.encode("utf-8")
        parts.append(_U32.pack(len(raw)))
        parts.append(raw)
    return b"".join(parts)


def _unpack_strings(payload: bytes, offset: int = 0) -> tuple[list[str], int]:
    (count,) = _U32.unpack_from(payload, offset)
    offset += 4
    out: list[str] = []
    for _ in range(count):
        (length,) = _U32.unpack_from(payload, offset)
        offset += 4
        out.append(payload[offset:offset + length].decode("utf-8"))
        offset += length
    return out, offset


def _for_pack(values: np.ndarray) -> bytes:
    """Frame-of-reference pack signed int64 offsets from their minimum."""
    if len(values) == 0:
        return _I64.pack(0) + bytes([0])
    reference = int(values.min())
    # Offsets are non-negative; width 0 encodes a constant page.
    offsets = (values.astype(np.int64) - reference).astype(np.uint64)
    top = int(offsets.max())
    if top == 0:
        return _I64.pack(reference) + bytes([0])
    for width in _FOR_WIDTHS:
        if top < (1 << (8 * width)):
            packed = offsets.astype(_WIDTH_DTYPES[width])
            return _I64.pack(reference) + bytes([width]) + packed.tobytes()
    raise StorageError("frame-of-reference offsets exceed 8 bytes")


def _for_unpack(payload: bytes, count: int) -> np.ndarray:
    (reference,) = _I64.unpack_from(payload, 0)
    width = payload[8]
    if width == 0:
        return np.full(count, reference, dtype=np.int64)
    if width not in _WIDTH_DTYPES:
        raise CorruptSegmentError(f"invalid FOR width {width}")
    offsets = np.frombuffer(payload, dtype=_WIDTH_DTYPES[width], count=count,
                            offset=9)
    return (offsets.astype(np.int64) + reference).astype(np.int64)


def _run_lengths(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Starts-of-runs boolean → (run values, run lengths)."""
    if len(values) == 0:
        return values, np.zeros(0, dtype=np.int64)
    change = np.empty(len(values), dtype=bool)
    change[0] = True
    np.not_equal(values[1:], values[:-1], out=change[1:])
    starts = np.flatnonzero(change)
    lengths = np.diff(np.append(starts, len(values)))
    return values[starts], lengths


# ---------------------------------------------------------------------------
# Per-codec encoders (return None when the codec does not apply) and
# decoders (return a Column without a null mask).  ``uniques`` is the
# VARCHAR column's sorted strings that ``values`` (its codes) index, and
# ``None`` for every other type.
# ---------------------------------------------------------------------------


def _is_int_typed(dtype: DataType) -> bool:
    return dtype in (DataType.BIGINT, DataType.TIMESTAMP)


def _encode_plain(dtype: DataType, values: np.ndarray,
                  uniques: np.ndarray | None) -> bytes:
    if dtype == DataType.VARCHAR:
        # Each distinct string's length-prefixed bytes, once per row.
        records = [_U32.pack(len(raw)) + raw
                   for raw in (text.encode("utf-8") for text in uniques)]
        return _U32.pack(len(values)) + b"".join(
            map(records.__getitem__, values.tolist()))
    if dtype == DataType.BOOLEAN:
        return np.packbits(values.astype(bool)).tobytes()
    return values.astype(numpy_dtype(dtype)).tobytes()


def _decode_plain(dtype: DataType, payload: bytes, count: int) -> Column:
    if dtype == DataType.VARCHAR:
        strings, _ = _unpack_strings(payload)
        return Column.from_codes(np.arange(len(strings)), strings)
    if dtype == DataType.BOOLEAN:
        bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8),
                             count=count)
        return Column(dtype, bits.astype(bool))
    return Column(dtype, np.frombuffer(payload, dtype=numpy_dtype(dtype),
                                       count=count).copy())


def _encode_rle(dtype: DataType, values: np.ndarray,
                uniques: np.ndarray | None) -> bytes | None:
    if dtype == DataType.BOOLEAN or len(values) == 0:
        return None
    run_values, lengths = _run_lengths(values)
    if len(run_values) * 2 >= len(values):
        return None  # runs too short to pay off
    body = _U32.pack(len(run_values)) + \
        lengths.astype(np.uint32).tobytes()
    if dtype == DataType.VARCHAR:
        body += _pack_strings(uniques[run_values].tolist())
    else:
        body += run_values.astype(numpy_dtype(dtype)).tobytes()
    return body


def _decode_rle(dtype: DataType, payload: bytes, count: int) -> Column:
    (n_runs,) = _U32.unpack_from(payload, 0)
    offset = 4
    lengths = np.frombuffer(payload, dtype=np.uint32, count=n_runs,
                            offset=offset).astype(np.int64)
    offset += 4 * n_runs
    if dtype == DataType.VARCHAR:
        strings, _ = _unpack_strings(payload, offset)
        return Column.from_codes(np.repeat(np.arange(n_runs), lengths),
                                 strings)
    run_values = np.frombuffer(payload, dtype=numpy_dtype(dtype),
                               count=n_runs, offset=offset)
    return Column(dtype, np.repeat(run_values, lengths))


def _encode_dict(dtype: DataType, values: np.ndarray,
                 uniques: np.ndarray | None) -> bytes | None:
    if dtype != DataType.VARCHAR or len(values) == 0:
        return None
    if len(uniques) >= max(2, len(values) // 2):
        return None  # dictionary would not be smaller than plain
    return _pack_strings(uniques.tolist()) + _for_pack(values)


def _decode_dict(dtype: DataType, payload: bytes, count: int) -> Column:
    uniques, offset = _unpack_strings(payload)
    codes = _for_unpack(payload[offset:], count)
    # The strings were written sorted and distinct; from_codes keeps that
    # an invariant of this column, not a trust in the page.
    return Column.from_codes(codes, uniques)


def _encode_for(dtype: DataType, values: np.ndarray,
                uniques: np.ndarray | None) -> bytes | None:
    if not _is_int_typed(dtype) or len(values) == 0:
        return None
    return _for_pack(values.astype(np.int64))


def _decode_for(dtype: DataType, payload: bytes, count: int) -> Column:
    return Column(dtype, _for_unpack(payload, count))


def _encode_delta_for(dtype: DataType, values: np.ndarray,
                      uniques: np.ndarray | None) -> bytes | None:
    if not _is_int_typed(dtype) or len(values) < 2:
        return None
    as_int = values.astype(np.int64)
    diffs = np.diff(as_int)
    return _I64.pack(int(as_int[0])) + _for_pack(diffs)


def _decode_delta_for(dtype: DataType, payload: bytes,
                      count: int) -> Column:
    (first,) = _I64.unpack_from(payload, 0)
    diffs = _for_unpack(payload[8:], count - 1)
    out = np.empty(count, dtype=np.int64)
    out[0] = first
    np.cumsum(diffs, out=out[1:])
    out[1:] += first
    return Column(dtype, out)


_ENCODERS = {
    CODEC_RLE: _encode_rle,
    CODEC_DICT: _encode_dict,
    CODEC_FOR: _encode_for,
    CODEC_DELTA_FOR: _encode_delta_for,
}

_DECODERS = {
    CODEC_PLAIN: _decode_plain,
    CODEC_RLE: _decode_rle,
    CODEC_DICT: _decode_dict,
    CODEC_FOR: _decode_for,
    CODEC_DELTA_FOR: _decode_delta_for,
}


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def encode_array(dtype: DataType, values: np.ndarray,
                 uniques: np.ndarray | None = None) -> tuple[int, bytes]:
    """Encode one page of values; returns ``(codec_id, payload)``.

    For VARCHAR, ``values`` are a column's codes and ``uniques`` the
    strings they index.  Tries every codec applicable to ``dtype`` and
    keeps the smallest payload, falling back to ``plain`` which always
    applies.
    """
    if uniques is not None:
        # Recode over the strings this page uses: a column's uniques may
        # be far more than one page holds.  They stay sorted.
        used = np.unique(values)
        values, uniques = np.searchsorted(used, values), uniques[used]
    best_codec = CODEC_PLAIN
    best = _encode_plain(dtype, values, uniques)
    for codec_id, encoder in _ENCODERS.items():
        candidate = encoder(dtype, values, uniques)
        if candidate is not None and len(candidate) < len(best):
            best_codec = codec_id
            best = candidate
    return best_codec, best


def decode_array(dtype: DataType, codec_id: int, payload: bytes,
                 count: int) -> Column:
    """Decode one page back to a column (its null mask travels in the
    page layer)."""
    decoder = _DECODERS.get(codec_id)
    if decoder is None:
        raise CorruptSegmentError(f"unknown codec id {codec_id}")
    column = decoder(dtype, payload, count)
    if len(column) != count:
        raise CorruptSegmentError(
            f"codec {CODEC_NAMES[codec_id]} produced {len(column)} values, "
            f"expected {count}"
        )
    return column
