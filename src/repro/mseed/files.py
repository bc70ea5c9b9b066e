"""Multi-record mSEED file I/O.

Two read paths with very different costs, mirroring the paper's central
asymmetry:

* the *metadata* path reads only each record's first
  :data:`~repro.mseed.records.HEADER_SCAN_BYTES` (fixed header plus
  blockettes 1000/1001) and never the payload.  It comes in two forms.
  :func:`scan_headers` is the batched one Lazy ETL's initial loading
  uses: per file one read and a strided copy of every record's head
  at the first record's length, then one numpy decode
  (:func:`~repro.mseed.records.decode_headers`) across all the files.
  :func:`scan_file_headers` is the reference: a per-record loop of
  ``seek``, 64-byte ``read`` and :func:`~repro.mseed.records.decode_header`.
  A file the batch does not vouch for (mixed record lengths, a foreign
  blockette layout, any record failing a check) goes through the
  reference, which decodes it or raises the typed error.
* the *actual data* path: full parse with Steim decompression.  This is
  what lazy extraction defers to query time and what eager ETL pays for
  every record up front.  It too comes in two forms.  :func:`decode_file`
  is the one extraction uses: the file's bytes, read once, cut at the
  first record's length; one numpy decode of every record head; one
  ``np.isin`` picking the wanted records; and one
  :func:`~repro.mseed.steim.decode_records` unpacking all their
  payloads.  :func:`read_records_from` (and :func:`read_records` /
  :func:`read_file` over it) is the reference: per record a ``seek``,
  a header decode, a ``read`` and a Steim decode.  A file the pass does
  not vouch for (mixed lengths, encodings or data offsets, a non-Steim
  encoding, any header failing a check) and every file under
  :func:`~repro.mseed.steim.reference_decoding` go through the
  reference, which decodes them or raises the typed error.
"""

from __future__ import annotations

import io
import os
from typing import BinaryIO, Iterator, Optional, Sequence

import numpy as np

from repro.errors import CorruptRecordError
from repro.mseed import encodings, steim
from repro.mseed.records import (
    DEFAULT_RECORD_LENGTH,
    HEADER_SCAN_BYTES,
    HeaderColumns,
    MSeedRecord,
    RECORD_HEADER_SIZE,
    RecordHeader,
    decode_header,
    decode_headers,
    decode_record,
    encode_record,
)

# Where a standard first record keeps its blockette-1000 length power.
_LENGTH_POWER_AT = RECORD_HEADER_SIZE + 6


def write_mseed_file(
    path: str | os.PathLike,
    *,
    network: str,
    station: str,
    location: str,
    channel: str,
    start_time_us: int,
    sample_rate: float,
    samples: np.ndarray,
    encoding: int = encodings.ENC_STEIM2,
    record_length: int = DEFAULT_RECORD_LENGTH,
    quality: str = "D",
    timing_quality: int = 100,
) -> int:
    """Write ``samples`` as a sequence of records; returns the record count.

    The sample-rate factor/multiplier pair is derived from ``sample_rate``:
    integer rates are stored as ``(rate, 1)``, sub-Hz rates as
    ``(-round(1/rate), 1)``.
    """
    if sample_rate >= 1:
        if abs(sample_rate - round(sample_rate)) > 1e-9:
            raise CorruptRecordError(
                f"non-integer sample rate {sample_rate} not supported by writer"
            )
        factor, multiplier = int(round(sample_rate)), 1
    else:
        period = 1.0 / sample_rate
        if abs(period - round(period)) > 1e-9:
            raise CorruptRecordError(
                f"sub-Hz rate {sample_rate} must have an integer period"
            )
        factor, multiplier = -int(round(period)), 1

    samples = np.asarray(samples)
    if samples.size == 0:
        raise CorruptRecordError("refusing to write a file with zero samples")

    written = 0
    position = 0
    sequence = 1
    previous: int | None = None
    with open(path, "wb") as handle:
        while position < samples.size:
            chunk = samples[position:]
            chunk_start = start_time_us + round(position * 1_000_000 / sample_rate)
            record, encoded = encode_record(
                sequence_number=sequence,
                quality=quality,
                station=station,
                location=location,
                channel=channel,
                network=network,
                start_time_us=chunk_start,
                samples=chunk,
                sample_rate_factor=factor,
                sample_rate_multiplier=multiplier,
                encoding=encoding,
                record_length=record_length,
                timing_quality=timing_quality,
                previous_sample=previous,
            )
            handle.write(record)
            if np.issubdtype(samples.dtype, np.integer):
                previous = int(samples[position + encoded - 1])
            position += encoded
            sequence += 1
            written += 1
    return written


def _iter_record_offsets(handle: BinaryIO) -> Iterator[tuple[int, RecordHeader]]:
    """Yield ``(byte_offset, header)`` per record, seeking over payloads."""
    handle.seek(0, io.SEEK_END)
    file_size = handle.tell()
    offset = 0
    while True:
        handle.seek(offset)
        head = handle.read(HEADER_SCAN_BYTES)
        if not head:
            return
        if len(head) < RECORD_HEADER_SIZE:
            raise CorruptRecordError(
                f"trailing garbage of {len(head)} bytes at offset {offset}"
            )
        header = decode_header(head)
        if offset + header.record_length > file_size:
            raise CorruptRecordError(
                f"record at offset {offset} truncated: needs "
                f"{header.record_length} bytes, file ends at {file_size}"
            )
        yield offset, header
        offset += header.record_length


def scan_file_headers(path: str | os.PathLike) -> list[RecordHeader]:
    """Header-only scan: all record headers, payloads never read."""
    with open(path, "rb") as handle:
        return [header for _off, header in _iter_record_offsets(handle)]


def record_heads(path: str | os.PathLike) -> Optional[np.ndarray]:
    """Every record's first :data:`HEADER_SCAN_BYTES`, as one
    ``(records, HEADER_SCAN_BYTES)`` uint8 array.

    One read of the file and a strided copy at the first record's
    length, read from a blockette 1000 at its standard place.  ``None``
    when the file cannot be cut that way: unreadable, empty, no
    plausible length there, or a size that is not a multiple of it.
    Nothing is checked beyond that;
    :func:`~repro.mseed.records.decode_headers` does the checking.
    A read, not an ``mmap``: a file truncated in place under a mapping
    (a torn rewrite, which ``sync()`` expects) would kill the process
    with SIGBUS instead of failing a check.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError:
        return None
    records = _cut(data)
    return None if records is None else records[:, :HEADER_SCAN_BYTES].copy()


def _cut(data: bytes) -> Optional[np.ndarray]:
    """``data`` as a ``(records, length)`` uint8 view at the first
    record's length, read from a blockette 1000 at its standard place;
    ``None`` if there is none or the size is not a multiple of it."""
    power = data[_LENGTH_POWER_AT] if len(data) >= HEADER_SCAN_BYTES else 0
    if not 6 <= power <= 16 or len(data) % (1 << power):
        return None
    return np.frombuffer(data, np.uint8).reshape(-1, 1 << power)


def scan_headers(
    paths: Sequence[Optional[str | os.PathLike]],
) -> list[Optional[tuple[RecordHeader, HeaderColumns]]]:
    """Batched header-only scan of many files, decoded in one numpy pass.

    Per path: the first record's header (from :func:`decode_header`, the
    one per-file decode) and all its records as columns — or ``None``
    when the pass does not vouch for the whole file (``path`` is
    ``None``, the file cannot be cut by :func:`record_heads`, a record
    fails a check or has another length).  The caller sends those
    through :func:`scan_file_headers`.
    """
    blocks = [None if path is None else record_heads(path) for path in paths]
    present = [block for block in blocks if block is not None]
    if not present:
        return [None] * len(blocks)
    columns = decode_headers(np.concatenate(present))
    counts = np.array([len(block) for block in present])
    starts = np.cumsum(counts) - counts
    first_length = np.repeat(columns.record_length[starts], counts)
    vouched = np.logical_and.reduceat(
        columns.ok & (columns.record_length == first_length), starts)
    out: list[Optional[tuple[RecordHeader, HeaderColumns]]] = []
    at = iter(zip(starts.tolist(), counts.tolist(), vouched.tolist(), present))
    for block in blocks:
        if block is None:
            out.append(None)
            continue
        start, count, good, heads = next(at)
        out.append((decode_header(heads[0].tobytes()),
                    columns[start:start + count]) if good else None)
    return out


_STEIM_LEVELS = {encodings.ENC_STEIM1: 1, encodings.ENC_STEIM2: 2}


def decode_file(
    data: bytes,
    sequence_numbers: Sequence[int] | None = None,
) -> Optional[tuple[HeaderColumns, np.ndarray]]:
    """:func:`read_records_from` over a whole file's bytes, in one pass.

    Every record header decoded by one
    :func:`~repro.mseed.records.decode_headers` call, the wanted records
    picked by one ``np.isin`` on their sequence numbers, and all their
    payloads unpacked by one :func:`~repro.mseed.steim.decode_records`.
    Returns the picked records' header columns, in file order, and their
    samples concatenated (int32).  A Steim error in a picked record is
    raised as ``read_records_from`` raises it.

    ``None`` when the pass does not vouch for the file: it cannot be cut
    at one record length, a header fails a check, the records differ in
    encoding or data offset, the encoding is not Steim, the payload is
    not whole frames, a sample rate is 0, or
    :func:`~repro.mseed.steim.reference_decoding` is in force.  The
    caller then reads it with ``read_records_from``, the per-record
    reference, which decodes it or raises the typed error.
    """
    records = None if steim.reference_active() else _cut(data)
    if records is None:
        return None
    columns = decode_headers(
        np.ascontiguousarray(records[:, :HEADER_SCAN_BYTES]))
    level = _STEIM_LEVELS.get(int(columns.encoding[0]))
    offset, length = int(columns.data_offset[0]), records.shape[1]
    payload_bytes = length - offset
    if (level is None or payload_bytes <= 0
            or payload_bytes % steim.FRAME_BYTES
            or not (columns.ok.all() and (columns.record_length == length).all()
                    and (columns.data_offset == offset).all()
                    and (columns.encoding == columns.encoding[0]).all()
                    and (columns.sample_rate > 0).all())):
        return None
    if sequence_numbers is not None:
        keep = np.isin(columns.sequence_number,
                       np.asarray(sequence_numbers, dtype=np.int64))
        columns, records = columns[keep], records[keep]
    samples = steim.decode_records(records[:, offset:], columns.sample_count,
                                   level)
    return columns, samples


def read_records_from(
    handle: BinaryIO,
    sequence_numbers: Sequence[int] | None = None,
) -> list[MSeedRecord]:
    """Fully decode records from an open binary stream, record by record.

    Selective reads still header-scan the whole file (records are
    variable-content but fixed-length, so the scan is cheap) and decompress
    only the requested payloads.  This is the reference
    :func:`decode_file` is held to, and what extraction falls back to for
    a file that pass does not vouch for.
    """
    wanted = set(sequence_numbers) if sequence_numbers is not None else None
    out: list[MSeedRecord] = []
    for offset, header in _iter_record_offsets(handle):
        if wanted is not None and header.sequence_number not in wanted:
            continue
        handle.seek(offset)
        blob = handle.read(header.record_length)
        out.append(decode_record(blob, header))
    return out


def read_records(
    path: str | os.PathLike,
    sequence_numbers: Sequence[int] | None = None,
) -> list[MSeedRecord]:
    """Fully decode records of a file; see :func:`read_records_from`."""
    with open(path, "rb") as handle:
        return read_records_from(handle, sequence_numbers)


def read_file(path: str | os.PathLike) -> list[MSeedRecord]:
    """Fully decode every record in the file."""
    return read_records(path, None)


def read_file_bytes(data: bytes) -> list[MSeedRecord]:
    """Decode every record from an in-memory mSEED volume."""
    out = []
    handle = io.BytesIO(data)
    for offset, header in _iter_record_offsets(handle):
        out.append(decode_record(data[offset : offset + header.record_length],
                                 header))
    return out


def file_time_span(headers: Sequence[RecordHeader]) -> tuple[int, int]:
    """``(first_start, last_end)`` microsecond span covered by the headers."""
    if not headers:
        raise CorruptRecordError("cannot compute the span of an empty file")
    start = min(h.start_time_us for h in headers)
    end = max(h.end_time_us for h in headers)
    return start, end
