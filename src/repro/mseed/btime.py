"""SEED BTIME codec.

BTIME is SEED's 10-byte big-endian timestamp: year, day-of-year, hour,
minute, second, one unused byte, and a ``.0001 s`` (100 microsecond) field.
Sub-100-microsecond precision travels in blockette 1001's microsecond
field, handled by the record layer.
"""

from __future__ import annotations

import struct

from repro.errors import CorruptRecordError
from repro.util.timefmt import day_of_year, from_yday, to_datetime

BTIME_SIZE = 10
_STRUCT = struct.Struct(">HHBBBBH")


def encode_btime(micros: int) -> bytes:
    """Encode epoch microseconds into a 10-byte BTIME.

    The 100-microsecond remainder below BTIME resolution is dropped here;
    callers that need it (blockette 1001) must compute it themselves via
    :func:`btime_residual_us`.
    """
    moment = to_datetime(micros)
    year, yday = day_of_year(micros)
    ten_thousandths = moment.microsecond // 100
    return _STRUCT.pack(
        year, yday, moment.hour, moment.minute, moment.second, 0, ten_thousandths
    )


def btime_residual_us(micros: int) -> int:
    """Microseconds below BTIME's 100-us resolution (0..99)."""
    return int(micros) % 100


def decode_btime(data: bytes, *, extra_us: int = 0) -> int:
    """Decode a 10-byte BTIME (+ optional blockette-1001 microseconds)."""
    if len(data) < BTIME_SIZE:
        raise CorruptRecordError(f"BTIME needs {BTIME_SIZE} bytes, got {len(data)}")
    year, yday, hour, minute, second, _unused, tenk = _STRUCT.unpack(data[:BTIME_SIZE])
    if not 1 <= yday <= 366:
        raise CorruptRecordError(f"BTIME day-of-year out of range: {yday}")
    if hour > 23 or minute > 59 or second > 60:
        raise CorruptRecordError(
            f"BTIME time fields out of range: {hour:02d}:{minute:02d}:{second:02d}"
        )
    if tenk > 9999:
        raise CorruptRecordError(f"BTIME .0001s field out of range: {tenk}")
    try:
        base = from_yday(year, yday, hour, minute, min(second, 59))
    except (ValueError, OverflowError) as exc:  # a year datetime rejects
        raise CorruptRecordError(
            f"BTIME date out of range: year {year}, day {yday}"
        ) from exc
    if second == 60:  # leap second: fold into the next minute like obspy does
        base += 1_000_000
    return base + tenk * 100 + int(extra_us)
