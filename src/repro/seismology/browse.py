"""Metadata browsing and navigation — demo capability (2).

Everything here touches only the metadata tables, so in lazy mode these
run instantly regardless of repository size: "easy browsing of metadata
and navigation in the data" (§1).
"""

from __future__ import annotations

from repro.etl.framework import SCHEMA
from repro.util.timefmt import format_iso8601


def station_overview(warehouse) -> str:
    """Networks, stations, channels and their record counts."""
    result = warehouse.query(f"""
SELECT F.network, F.station, F.channel, COUNT(*) AS files,
       SUM(F.n_records) AS records, MIN(F.start_time) AS coverage_start,
       MAX(F.end_time) AS coverage_end
FROM {SCHEMA}.files AS F
GROUP BY F.network, F.station, F.channel
ORDER BY F.network, F.station, F.channel""")
    return result.format(max_rows=100)


def time_coverage(warehouse, network: str | None = None) -> list[dict]:
    """Per-station time coverage from file metadata."""
    where = "WHERE network = ?" if network else ""
    rows = warehouse.connect().execute(f"""
SELECT network, station, MIN(start_time) AS first_sample,
       MAX(end_time) AS last_sample, COUNT(*) AS files
FROM {SCHEMA}.files {where}
GROUP BY network, station
ORDER BY network, station""", [network] if network else None).fetchall()
    out = []
    for network_code, station, first, last, files in rows:
        out.append({
            "network": network_code,
            "station": station,
            "first": format_iso8601(first),
            "last": format_iso8601(last),
            "files": files,
        })
    return out


def file_listing(warehouse, station: str | None = None,
                 channel: str | None = None) -> list[tuple]:
    """Files (uri, records, span) for navigation drill-down."""
    bound = {name: value for name, value in
             (("station", station), ("channel", channel)) if value}
    where = ("WHERE " + " AND ".join(f"{name} = :{name}" for name in bound)
             if bound else "")
    return warehouse.connect().execute(f"""
SELECT file_location, n_records, start_time, end_time, file_size
FROM {SCHEMA}.files {where}
ORDER BY file_location""", bound or None).fetchall()


def record_listing(warehouse, file_location: str) -> list[tuple]:
    """Records of one file: the navigation leaf level."""
    return warehouse.connect().execute(f"""
SELECT seq_no, start_time, end_time, frequency, sample_count
FROM {SCHEMA}.records
WHERE file_location = ?
ORDER BY seq_no""", [file_location]).fetchall()
