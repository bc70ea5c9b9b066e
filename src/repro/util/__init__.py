"""Shared utilities: time handling and humanised formatting."""

from repro.util.timefmt import (
    MICROS_PER_SECOND,
    parse_iso8601,
    format_iso8601,
    day_of_year,
    from_ymd,
)
from repro.util.human import format_bytes, format_duration

__all__ = [
    "MICROS_PER_SECOND",
    "parse_iso8601",
    "format_iso8601",
    "day_of_year",
    "from_ymd",
    "format_bytes",
    "format_duration",
]
