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
  every record up front.  Extraction has one form, :func:`decode_file`:
  the file's bytes, read once and cut at the first record's length; one
  numpy decode of every record head (a walk over the headers instead
  when the file is not one run of standard records); one ``np.isin``
  picking the wanted records; and one
  :func:`~repro.mseed.encodings.decode_payloads` per run of records
  alike in length, data offset and encoding.
  :func:`read_records_from` (and :func:`read_records` /
  :func:`read_file` over it) is the reference it is held to: per record
  a ``seek``, a header decode, a ``read`` and the scalar Steim decode.
"""

from __future__ import annotations

import io
import os
from typing import BinaryIO, Iterator, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.errors import CorruptRecordError, MSeedError
from repro.mseed import encodings
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


def decode_file(
    data: bytes,
    sequence_numbers: Sequence[int] | None = None,
) -> tuple[HeaderColumns, np.ndarray]:
    """:func:`read_records_from` over a whole file's bytes, in one pass.

    A file of one record length is cut at it and every record header is
    decoded by one :func:`~repro.mseed.records.decode_headers` call.  A
    file that cannot be cut that way, or with a header that pass does not
    vouch for (another blockette layout, a corrupt field), has its
    headers walked as the reference walks them.  The wanted records are
    picked by one ``np.isin`` on their sequence numbers, and each run of
    consecutive records alike in length, data offset and encoding is
    decoded by one :func:`~repro.mseed.encodings.decode_payloads`.
    Returns the picked records' header columns, in file order, and their
    samples concatenated.  A bad file raises what ``read_records_from``
    raises: the typed error of its first bad record.
    """
    records, failure = _cut(data), None
    columns = None if records is None else decode_headers(
        np.ascontiguousarray(records[:, :HEADER_SCAN_BYTES]))
    if columns is not None and columns.ok.all() and (
            columns.record_length == records.shape[1]).all():
        offsets = np.arange(len(records)) * records.shape[1]
    else:
        walked = []
        try:
            for record in _iter_record_offsets(io.BytesIO(data)):
                walked.append(record)
        except MSeedError as exc:
            failure = exc  # raised after any bad payload before it
        columns = HeaderColumns.from_headers([head for _at, head in walked])
        offsets = np.array([at for at, _head in walked], dtype=np.int64)
    if sequence_numbers is not None:
        keep = np.isin(columns.sequence_number,
                       np.asarray(sequence_numbers, dtype=np.int64))
        columns, offsets = columns[keep], offsets[keep]
    buf = np.frombuffer(data, np.uint8)
    alike = np.stack([columns.record_length, columns.data_offset,
                      columns.encoding])
    starts = np.flatnonzero((np.diff(alike, prepend=-1) != 0).any(axis=0))
    pieces = []
    for lo, hi in zip(starts.tolist(), [*starts[1:].tolist(), len(offsets)]):
        length, at, encoding = alike[:, lo].tolist()
        rows = sliding_window_view(buf, length)[offsets[lo:hi]]
        pieces.append(encodings.decode_payloads(
            rows[:, at:], columns.sample_count[lo:hi], encoding))
    if failure is not None:
        raise failure
    return columns, (pieces[0] if len(pieces) == 1 else np.concatenate(
        [np.zeros(0, np.int32), *pieces]))


def read_records_from(
    handle: BinaryIO,
    sequence_numbers: Sequence[int] | None = None,
) -> list[MSeedRecord]:
    """Fully decode records from an open binary stream, record by record.

    Selective reads still header-scan the whole file (records are
    variable-content but fixed-length, so the scan is cheap) and decompress
    only the requested payloads.  This is the reference
    :func:`decode_file` is held to; extraction does not call it.
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


def file_time_span(headers: Sequence[RecordHeader]) -> tuple[int, int]:
    """``(first_start, last_end)`` microsecond span covered by the headers."""
    if not headers:
        raise CorruptRecordError("cannot compute the span of an empty file")
    start = min(h.start_time_us for h in headers)
    end = max(h.end_time_us for h in headers)
    return start, end
