"""The paper's queries.

:func:`fig1_query1` and :func:`fig1_query2` are the two sample queries of
Figure 1, verbatim (modulo parametrised constants).  :func:`analytical_suite`
is the broader set of "tasks that help hunt for interesting seismic
events" (§4): short/long-term averaging windows, record retrieval for
visual analysis, per-station amplitude statistics, metadata browsing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.timefmt import format_iso8601


@dataclass(frozen=True)
class QuerySpec:
    """One benchmarkable query."""

    qid: str
    title: str
    sql: str


def fig1_query1(
    *,
    station: str = "ISK",
    channel: str = "BHE",
    day_start: str = "2010-01-12T00:00:00.000",
    day_end: str = "2010-01-12T23:59:59.999",
    window_start: str = "2010-01-12T22:15:00.000",
    window_end: str = "2010-01-12T22:15:02.000",
    view: str = "mseed.dataview",
) -> str:
    """Figure 1, first query: a short-term average (STA) over 2 seconds."""
    return f"""SELECT AVG(D.sample_value)
FROM {view}
WHERE F.station = '{station}'
AND F.channel = '{channel}'
AND R.start_time > '{day_start}'
AND R.start_time < '{day_end}'
AND D.sample_time > '{window_start}'
AND D.sample_time < '{window_end}'"""


def fig1_query2(
    *,
    network: str = "NL",
    channel: str = "BHZ",
    view: str = "mseed.dataview",
) -> str:
    """Figure 1, second query: min/max amplitude per station of a network."""
    return f"""SELECT F.station,
MIN(D.sample_value), MAX(D.sample_value)
FROM {view}
WHERE F.network = '{network}'
AND F.channel = '{channel}'
GROUP BY F.station"""


def fig1_query1_template(*, view: str = "mseed.dataview") -> str:
    """Figure 1 Q1 as a prepared statement (named parameters).

    Bind ``{"station": ..., "channel": ..., "day_start": ...,
    "day_end": ..., "window_start": ..., "window_end": ...}`` —
    timestamp parameters accept ISO-8601 strings, exactly like the
    literals in :func:`fig1_query1`.
    """
    return f"""SELECT AVG(D.sample_value)
FROM {view}
WHERE F.station = :station
AND F.channel = :channel
AND R.start_time > :day_start
AND R.start_time < :day_end
AND D.sample_time > :window_start
AND D.sample_time < :window_end"""


def fig1_query2_template(*, view: str = "mseed.dataview") -> str:
    """Figure 1 Q2 as a prepared statement (named parameters).

    Bind ``{"network": ..., "channel": ...}``; one plan-cached compile
    serves every network/channel combination.
    """
    return f"""SELECT F.station,
MIN(D.sample_value), MAX(D.sample_value)
FROM {view}
WHERE F.network = :network
AND F.channel = :channel
GROUP BY F.station"""


def analytical_suite(
    *,
    view: str = "mseed.dataview",
    station: str = "ISK",
    channel: str = "BHE",
    network: str = "NL",
    group_channel: str = "BHZ",
    sta_start_us: int = 1263334500_000_000,  # 2010-01-12T22:15:00
    sta_seconds: float = 2.0,
    lta_seconds: float = 15.0,
    record_start: str = "2010-01-12T22:10:00.000",
    record_end: str = "2010-01-12T22:10:10.000",
) -> list[QuerySpec]:
    """The BIRTE'12-style analytical workload (Q1..Q8)."""
    sta_start = format_iso8601(sta_start_us)
    sta_end = format_iso8601(sta_start_us + round(sta_seconds * 1_000_000))
    lta_end = format_iso8601(sta_start_us + round(lta_seconds * 1_000_000))
    day_start = "2010-01-12T00:00:00.000"
    day_end = "2010-01-12T23:59:59.999"
    return [
        QuerySpec(
            "Q1", "STA: short term average over 2 s (Figure 1, top)",
            fig1_query1(station=station, channel=channel,
                        window_start=sta_start, window_end=sta_end,
                        view=view),
        ),
        QuerySpec(
            "Q2", "min/max amplitude per station (Figure 1, bottom)",
            fig1_query2(network=network, channel=group_channel, view=view),
        ),
        QuerySpec(
            "Q3", "LTA: long term average over 15 s",
            fig1_query1(station=station, channel=channel,
                        window_start=sta_start, window_end=lta_end,
                        view=view),
        ),
        QuerySpec(
            "Q4", "retrieve one record's samples for visual analysis",
            f"""SELECT D.sample_time, D.sample_value
FROM {view}
WHERE F.station = '{station}' AND F.channel = '{channel}'
AND D.sample_time >= '{record_start}' AND D.sample_time < '{record_end}'
ORDER BY D.sample_time""",
        ),
        QuerySpec(
            "Q5", "energy proxy: average absolute amplitude per channel",
            f"""SELECT F.channel, AVG(ABS(D.sample_value)) AS mean_abs
FROM {view}
WHERE F.station = '{station}'
AND D.sample_time > '{sta_start}' AND D.sample_time < '{lta_end}'
GROUP BY F.channel
ORDER BY F.channel""",
        ),
        QuerySpec(
            "Q6", "sample counts per network (activity overview)",
            f"""SELECT F.network, COUNT(*) AS samples
FROM {view}
WHERE R.start_time > '{day_start}' AND R.start_time < '{day_end}'
GROUP BY F.network
ORDER BY F.network""",
        ),
        QuerySpec(
            "Q7", "amplitude spread per NL station (stddev)",
            f"""SELECT F.station, STDDEV_SAMP(D.sample_value) AS spread
FROM {view}
WHERE F.network = '{network}' AND F.channel = '{group_channel}'
GROUP BY F.station
ORDER BY spread DESC""",
        ),
        QuerySpec(
            "Q8", "metadata browsing: records per stream (no actual data!)",
            f"""SELECT F.network, F.station, F.channel,
COUNT(*) AS n_records, SUM(R.sample_count) AS n_samples
FROM mseed.files AS F, mseed.records AS R
WHERE F.file_location = R.file_location
GROUP BY F.network, F.station, F.channel
ORDER BY F.network, F.station, F.channel""",
        ),
    ]
