"""mSEED record layer: the 48-byte fixed header plus blockettes and payload.

A record is the unit of metadata granularity in the paper's schema: the
``R`` table has one row per record, keyed by ``(file, seq_no)``.  Reading
only headers (48 + 16 bytes per record, seeking over payloads) is what
makes metadata-only initial loading cheap; decoding payloads is the
expensive step deferred to lazy extraction.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields

import numpy as np

from repro.errors import CorruptRecordError
from repro.mseed import encodings
from repro.mseed.blockettes import (
    Blockette1000,
    Blockette1001,
    BLOCKETTE_1000_SIZE,
    BLOCKETTE_1001_SIZE,
    decode_blockette_1000,
    decode_blockette_1001,
    decode_blockette_header,
)
from repro.mseed.btime import BTIME_SIZE, btime_residual_us, decode_btime, encode_btime

RECORD_HEADER_SIZE = 48
DEFAULT_RECORD_LENGTH = 512
HEADER_SCAN_BYTES = 64
"""Fixed header + blockette 1000 + blockette 1001: all a header scan reads."""

_FIXED_TAIL = struct.Struct(">HhhBBBBiHH")  # fields after BTIME

QUALITY_CODES = ("D", "R", "Q", "M")


@dataclass(frozen=True)
class RecordHeader:
    """Decoded fixed section + blockette-1000/1001 essentials.

    This is exactly the per-record metadata the warehouse's ``R`` table
    stores; it is obtainable without touching the payload.
    """

    sequence_number: int
    quality: str
    station: str
    location: str
    channel: str
    network: str
    start_time_us: int
    sample_count: int
    sample_rate_factor: int
    sample_rate_multiplier: int
    activity_flags: int
    io_flags: int
    quality_flags: int
    time_correction: int
    data_offset: int
    blockette_offset: int
    encoding: int
    record_length: int
    timing_quality: int

    @property
    def sample_rate(self) -> float:
        """Samples per second derived from the factor/multiplier pair."""
        factor, mult = self.sample_rate_factor, self.sample_rate_multiplier
        if factor == 0:
            return 0.0
        if factor > 0 and mult > 0:
            return float(factor * mult)
        if factor > 0 and mult < 0:
            return -float(factor) / mult
        if factor < 0 and mult > 0:
            return -float(mult) / factor
        return 1.0 / float(factor * mult)

    @property
    def end_time_us(self) -> int:
        """Timestamp of the last sample in the record."""
        if self.sample_count <= 1 or self.sample_rate <= 0:
            return self.start_time_us
        span = round((self.sample_count - 1) * 1_000_000 / self.sample_rate)
        return self.start_time_us + span

    @property
    def source_id(self) -> str:
        """Canonical ``NET.STA.LOC.CHA`` stream identifier."""
        return f"{self.network}.{self.station}.{self.location}.{self.channel}"


@dataclass(frozen=True)
class MSeedRecord:
    """A fully decoded record: header plus native sample array."""

    header: RecordHeader
    samples: np.ndarray

    def sample_times_us(self) -> np.ndarray:
        """Exact integer-microsecond timestamps for every sample (none
        for a log record, whose rate may be 0)."""
        count = len(self.samples)
        if count == 0:
            return np.empty(0, dtype=np.int64)
        rate = self.header.sample_rate
        offsets = np.round(np.arange(count, dtype=np.float64) * (1e6 / rate))
        return self.header.start_time_us + offsets.astype(np.int64)


def _pad(text: str, width: int) -> bytes:
    raw = text.encode("ascii")
    if len(raw) > width:
        raise CorruptRecordError(f"field {text!r} longer than {width} bytes")
    return raw.ljust(width)


def encode_record(
    *,
    sequence_number: int,
    quality: str,
    station: str,
    location: str,
    channel: str,
    network: str,
    start_time_us: int,
    samples: np.ndarray,
    sample_rate_factor: int,
    sample_rate_multiplier: int,
    encoding: int,
    record_length: int = DEFAULT_RECORD_LENGTH,
    timing_quality: int = 100,
    previous_sample: int | None = None,
) -> tuple[bytes, int]:
    """Assemble one record; returns ``(record_bytes, n_samples_encoded)``.

    The payload encoder packs as many samples as fit in the record; callers
    write the remainder into subsequent records.
    """
    if record_length & (record_length - 1):
        raise CorruptRecordError(f"record length {record_length} not a power of two")
    if not 0 <= sequence_number <= 999999:
        raise CorruptRecordError(f"sequence number {sequence_number} out of range")
    if quality not in QUALITY_CODES:
        raise CorruptRecordError(f"invalid quality code {quality!r}")

    data_offset = RECORD_HEADER_SIZE + BLOCKETTE_1000_SIZE + BLOCKETTE_1001_SIZE
    capacity = record_length - data_offset
    payload, encoded = encodings.encode_payload(
        samples, encoding, capacity, previous=previous_sample
    )
    if encoded > 0xFFFF:
        raise CorruptRecordError("more than 65535 samples in one record")

    header = bytearray()
    header.extend(f"{sequence_number:06d}".encode("ascii"))
    header.extend(quality.encode("ascii"))
    header.extend(b" ")
    header.extend(_pad(station, 5))
    header.extend(_pad(location, 2))
    header.extend(_pad(channel, 3))
    header.extend(_pad(network, 2))
    header.extend(encode_btime(start_time_us))
    header.extend(
        _FIXED_TAIL.pack(
            encoded,
            sample_rate_factor,
            sample_rate_multiplier,
            0,  # activity flags
            0,  # io/clock flags
            0,  # data quality flags
            2,  # number of blockettes
            0,  # time correction
            data_offset,
            RECORD_HEADER_SIZE,
        )
    )
    assert len(header) == RECORD_HEADER_SIZE

    power = record_length.bit_length() - 1
    b1000 = Blockette1000(
        encoding=encoding, word_order=1, record_length_power=power
    ).encode(next_offset=RECORD_HEADER_SIZE + BLOCKETTE_1000_SIZE)
    b1001 = Blockette1001(
        timing_quality=timing_quality,
        microseconds=btime_residual_us(start_time_us),
        frame_count=len(payload) // 64 if encoding in (10, 11) else 0,
    ).encode(next_offset=0)

    record = bytearray(record_length)
    record[:RECORD_HEADER_SIZE] = header
    record[RECORD_HEADER_SIZE:data_offset] = b1000 + b1001
    record[data_offset : data_offset + len(payload)] = payload
    return bytes(record), encoded


def decode_header(data: bytes) -> RecordHeader:
    """Decode the fixed section and walk the blockette chain (no payload).

    ``data`` must contain at least the fixed header and the blockettes —
    passing an entire record is fine; passing the first 64 bytes of a
    standard record is also fine (header-only scans do exactly that).
    """
    if len(data) < RECORD_HEADER_SIZE:
        raise CorruptRecordError(
            f"record shorter than fixed header: {len(data)} bytes"
        )
    seq_raw = data[0:6]
    try:
        sequence_number = int(seq_raw.decode("ascii"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise CorruptRecordError(f"bad sequence number field {seq_raw!r}") from exc
    quality = chr(data[6])
    if quality not in QUALITY_CODES:
        raise CorruptRecordError(f"invalid quality code {quality!r}")
    station = _ascii_field(data, 8, 13, "station")
    location = _ascii_field(data, 13, 15, "location")
    channel = _ascii_field(data, 15, 18, "channel")
    network = _ascii_field(data, 18, 20, "network")
    (
        sample_count,
        rate_factor,
        rate_multiplier,
        act_flags,
        io_flags,
        dq_flags,
        num_blockettes,
        time_correction,
        data_offset,
        blockette_offset,
    ) = _FIXED_TAIL.unpack_from(data, 20 + BTIME_SIZE)

    encoding = -1
    record_length = 0
    timing_quality = 0
    extra_us = 0
    offset = blockette_offset
    walked = 0
    while offset and walked < num_blockettes:
        btype, nxt = decode_blockette_header(data, offset)
        if btype == 1000:
            b1000 = decode_blockette_1000(data, offset)
            encoding = b1000.encoding
            record_length = b1000.record_length
        elif btype == 1001:
            b1001 = decode_blockette_1001(data, offset)
            timing_quality = b1001.timing_quality
            extra_us = b1001.microseconds
        if nxt and nxt <= offset:
            raise CorruptRecordError("blockette chain does not advance")
        offset = nxt
        walked += 1
    if encoding < 0 or record_length == 0:
        raise CorruptRecordError("record lacks mandatory blockette 1000")
    if rate_multiplier == 0 and rate_factor != 0:
        raise CorruptRecordError(
            f"sample-rate multiplier 0 with factor {rate_factor}"
        )
    if rate_factor == 0 and sample_count:
        # Only a log record (no samples) may have no sample rate.
        raise CorruptRecordError(
            f"{sample_count} samples at sample-rate factor 0")

    start_time_us = decode_btime(data[20 : 20 + BTIME_SIZE], extra_us=extra_us)
    # The time-correction field is in 0.0001 s units and applies unless the
    # "time correction applied" activity-flag bit (0x02) is set.
    if time_correction and not act_flags & 0x02:
        start_time_us += time_correction * 100

    header = RecordHeader(
        sequence_number=sequence_number,
        quality=quality,
        station=station,
        location=location,
        channel=channel,
        network=network,
        start_time_us=start_time_us,
        sample_count=sample_count,
        sample_rate_factor=rate_factor,
        sample_rate_multiplier=rate_multiplier,
        activity_flags=act_flags,
        io_flags=io_flags,
        quality_flags=dq_flags,
        time_correction=time_correction,
        data_offset=data_offset,
        blockette_offset=blockette_offset,
        encoding=encoding,
        record_length=record_length,
        timing_quality=timing_quality,
    )
    # decode_headers' bound: the end time of such a record fits no int64.
    if abs(header.end_time_us - start_time_us) >= _SPAN_LIMIT:
        raise CorruptRecordError(
            f"{sample_count} samples at {header.sample_rate!r} Hz span "
            f"beyond any timestamp")
    return header


# The first HEADER_SCAN_BYTES of a record in the one layout decode_headers
# vouches for: blockette 1000 at 48, blockette 1001 at 56, nothing after.
_HEAD = np.dtype({
    "names": ["quality", "year", "yday", "hour", "minute", "second", "tenk",
              "nsamples", "factor", "mult", "act", "nblk", "tcorr", "doff",
              "boff", "b1000", "b1000_next", "encoding", "power", "b1001",
              "b1001_next", "timing_quality", "micros"],
    "formats": ["u1", ">u2", ">u2", "u1", "u1", "u1", ">u2",
                ">u2", ">i2", ">i2", "u1", "u1", ">i4", ">u2",
                ">u2", ">u2", ">u2", "u1", "u1", ">u2",
                ">u2", "u1", "i1"],
    "offsets": [6, 20, 22, 24, 25, 26, 28,
                30, 32, 34, 36, 39, 40, 44,
                46, 48, 50, 52, 54, 56,
                58, 60, 61],
    "itemsize": HEADER_SCAN_BYTES,
})
_QUALITY_BYTES = np.frombuffer("".join(QUALITY_CODES).encode("ascii"), np.uint8)
_DIGIT_WEIGHTS = 10 ** np.arange(5, -1, -1, dtype=np.int64)
_SPAN_LIMIT = float(2 ** 62)


@dataclass(frozen=True)
class HeaderColumns:
    """:func:`decode_headers`' output, one entry per record.

    ``ok[i]`` says record ``i`` passed every check :func:`decode_header`
    makes, in the standard blockette layout; the other arrays then hold
    exactly the values ``decode_header`` (and :class:`RecordHeader`'s
    properties) give for it.  Where ``ok`` is false they mean nothing.
    """

    ok: np.ndarray
    sequence_number: np.ndarray
    record_length: np.ndarray
    start_time_us: np.ndarray
    end_time_us: np.ndarray
    sample_rate: np.ndarray
    sample_count: np.ndarray
    timing_quality: np.ndarray
    data_offset: np.ndarray
    encoding: np.ndarray

    @classmethod
    def from_headers(cls, headers: list[RecordHeader]) -> "HeaderColumns":
        """The same columns from :func:`decode_header`'s objects."""
        def column(values, dtype=np.int64):
            return np.array(values, dtype=dtype)

        return cls(
            ok=np.ones(len(headers), dtype=bool),
            sequence_number=column([h.sequence_number for h in headers]),
            record_length=column([h.record_length for h in headers]),
            start_time_us=column([h.start_time_us for h in headers]),
            end_time_us=column([h.end_time_us for h in headers]),
            sample_rate=column([h.sample_rate for h in headers], np.float64),
            sample_count=column([h.sample_count for h in headers]),
            timing_quality=column([h.timing_quality for h in headers]),
            data_offset=column([h.data_offset for h in headers]),
            encoding=column([h.encoding for h in headers]),
        )

    def __getitem__(self, rows: slice | np.ndarray) -> "HeaderColumns":
        return HeaderColumns(*(getattr(self, f.name)[rows]
                               for f in fields(self)))


def decode_headers(heads: np.ndarray) -> HeaderColumns:
    """Decode many record headers in one numpy pass.

    ``heads`` is a C-contiguous ``(records, HEADER_SCAN_BYTES)`` uint8
    array, each row a record's first bytes.  A record is vouched for
    (``ok``) only in the layout every writer here produces — blockette
    chain 48 → 1000 → 56 → 1001 → 0 with two blockettes — and only if no
    check of :func:`decode_header` could fail on it.  Callers hand the
    rest to ``decode_header``, the reference, which raises the typed
    error or decodes a layout this pass does not cover.
    """
    f = heads.view(_HEAD)[:, 0]
    digits = heads[:, :6].astype(np.int64) - ord("0")
    ok = ((digits >= 0) & (digits <= 9)).all(axis=1)
    ok &= np.isin(f["quality"], _QUALITY_BYTES)
    ok &= (heads[:, 8:20] < 0x80).all(axis=1)
    ok &= ((f["nblk"] == 2) & (f["boff"] == RECORD_HEADER_SIZE)
           & (f["b1000"] == 1000) & (f["b1000_next"] == 56)
           & (f["b1001"] == 1001) & (f["b1001_next"] == 0))
    power = f["power"].astype(np.int64)
    ok &= (power >= 6) & (power <= 16)

    year = f["year"].astype(np.int64)
    yday = f["yday"].astype(np.int64)
    second = f["second"].astype(np.int64)
    tenk = f["tenk"].astype(np.int64)
    ok &= ((year >= 1) & (year <= 9998) & (yday >= 1) & (yday <= 366)
           & (f["hour"] <= 23) & (f["minute"] <= 59) & (second <= 60)
           & (tenk <= 9999))
    # BTIME as decode_btime computes it: a leap second folds into the
    # next minute, then the .0001 s field and blockette 1001's micros.
    jan1 = (year - 1970).astype("datetime64[Y]")
    days = jan1.astype("datetime64[D]").astype(np.int64) + yday - 1
    seconds = (((days * 24 + f["hour"]) * 60 + f["minute"]) * 60
               + np.minimum(second, 59))
    start = seconds * 1_000_000 + (second == 60) * 1_000_000 + tenk * 100
    start += f["micros"].astype(np.int64)
    tcorr = f["tcorr"].astype(np.int64)
    start += np.where((f["act"] & 0x02) == 0, tcorr * 100, 0)

    # RecordHeader.sample_rate, branch for branch.
    factor = f["factor"].astype(np.int64)
    mult = f["mult"].astype(np.int64)
    count = f["nsamples"].astype(np.int64)
    ok &= ((mult != 0) | (factor == 0)) & ((factor != 0) | (count == 0))
    fa = np.where(factor == 0, 1, factor).astype(np.float64)
    mu = np.where(mult == 0, 1, mult).astype(np.float64)
    rate = np.select(
        [factor == 0, (factor > 0) & (mult > 0), factor > 0, mult > 0],
        [0.0, fa * mu, -fa / mu, -mu / fa],
        default=1.0 / (fa * mu),
    )

    # RecordHeader.end_time_us: round() is half-to-even, as np.rint.
    spanned = (count > 1) & (rate > 0)
    span = np.rint(((count - 1) * 1_000_000).astype(np.float64)
                   / np.where(spanned, rate, 1.0))
    ok &= ~spanned | (np.abs(span) < _SPAN_LIMIT)
    end = start + np.where(spanned & ok, span, 0).astype(np.int64)

    return HeaderColumns(
        ok=ok,
        sequence_number=digits @ _DIGIT_WEIGHTS,
        record_length=np.left_shift(1, np.clip(power, 0, 16)),
        start_time_us=start,
        end_time_us=end,
        sample_rate=rate,
        sample_count=count,
        timing_quality=f["timing_quality"].astype(np.int64),
        data_offset=f["doff"].astype(np.int64),
        encoding=f["encoding"].astype(np.int64),
    )


def _ascii_field(data: bytes, start: int, stop: int, name: str) -> str:
    raw = data[start:stop]
    try:
        return raw.decode("ascii").strip()
    except UnicodeDecodeError as exc:
        raise CorruptRecordError(f"non-ASCII {name} field {raw!r}") from exc


def decode_record(data: bytes,
                  header: RecordHeader | None = None) -> MSeedRecord:
    """Decode one full record (header + payload) into samples.

    ``header`` is the record's header when the caller has decoded it
    already; it is then not decoded a second time.
    """
    if header is None:
        header = decode_header(data)
    if len(data) < header.record_length:
        raise CorruptRecordError(
            f"record truncated: {len(data)} of {header.record_length} bytes"
        )
    payload = data[header.data_offset : header.record_length]
    samples = encodings.decode_payload(payload, header.sample_count, header.encoding)
    return MSeedRecord(header=header, samples=samples)
