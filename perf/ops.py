"""Seeded generation of the SQL the workloads issue, each statement paired
with its expected answer from the numpy oracle.

Everything here is a pure function of (seed, oracle state): the same seed
gives a byte-identical op list, a different seed a different one.  The
program under test only ever sees the SQL text and parameters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from corpus import SAMPLE_STEP_US, Entry
from oracle import REL_AVG, REL_STDDEV, Oracle, stddev_samp
from repro.seismology.queries import fig1_query1, fig1_query1_template
from repro.util.timefmt import format_iso8601

VIEW = "mseed.dataview"
DAY_START = "2010-01-12T00:00:00.000"
DAY_END = "2010-01-12T23:59:59.999"
SECOND_US = 1_000_000
ZIPF_EXPONENT = 1.1


@dataclass(frozen=True)
class Op:
    """One statement and the rows it must return."""

    sql: str
    want: tuple
    params: Optional[dict] = None
    rel: float = REL_AVG
    ordered: bool = True


def rng_for(seed: int, stream: str) -> random.Random:
    """An independent, hash-seed-proof generator per (seed, purpose)."""
    return random.Random(f"{seed}:{stream}")


# -- window queries ----------------------------------------------------------

def _draw_window(oracle: Oracle, rng: random.Random, seconds: float,
                 *, inside: Optional[Entry] = None) -> tuple[str, str, int, int]:
    """A (station, channel, lo, hi) window on a 25 ms grid.

    Drawn over the whole stream, or inside one file when ``inside`` is
    given (the rewrite workload aims at a specific file).
    """
    if inside is None:
        station, channel = rng.choice(oracle.streams())
        first, last = oracle.span(station, channel)
    else:
        station, channel = inside.station, inside.channel
        first = inside.start_us
        last = first + inside.n_samples * SAMPLE_STEP_US
    width = round(seconds * SECOND_US)
    steps = (last - first - width) // SAMPLE_STEP_US
    lo = first + rng.randrange(steps) * SAMPLE_STEP_US
    return station, channel, lo, lo + width


def _avg(values: np.ndarray) -> float:
    return float(np.mean(values.astype(np.float64)))


def fig1_q1_op(oracle: Oracle, rng: random.Random) -> Op:
    """Figure 1, first query, verbatim: a 2 s short-term average."""
    station, channel, lo, hi = _draw_window(oracle, rng, 2.0)
    _, values = oracle.window(station, channel, lo, hi)
    return Op(
        sql=fig1_query1(station=station, channel=channel,
                        window_start=format_iso8601(lo),
                        window_end=format_iso8601(hi)),
        want=((_avg(values),),))


def adhoc_window_op(oracle: Oracle, rng: random.Random, seconds: float,
                    *, inside: Optional[Entry] = None) -> Op:
    """An ad-hoc literal AVG+COUNT over one stream's window: every text
    is distinct, so each one is parsed, bound and optimised afresh."""
    station, channel, lo, hi = _draw_window(oracle, rng, seconds,
                                            inside=inside)
    _, values = oracle.window(station, channel, lo, hi)
    sql = (f"SELECT AVG(D.sample_value), COUNT(*) FROM {VIEW} "
           f"WHERE F.station = '{station}' AND F.channel = '{channel}' "
           f"AND D.sample_time > '{format_iso8601(lo)}' "
           f"AND D.sample_time < '{format_iso8601(hi)}'")
    return Op(sql=sql, want=((_avg(values), len(values)),))


def prepared_q1_op(oracle: Oracle, rng: random.Random) -> Op:
    """One binding of ``fig1_query1_template()`` (plan-cache hit path)."""
    station, channel, lo, hi = _draw_window(oracle, rng, 2.0)
    _, values = oracle.window(station, channel, lo, hi)
    return Op(
        sql=fig1_query1_template(),
        params={"station": station, "channel": channel,
                "day_start": DAY_START, "day_end": DAY_END,
                "window_start": format_iso8601(lo),
                "window_end": format_iso8601(hi)},
        want=((_avg(values),),))


def distinct_ops(make, count: int) -> list[Op]:
    """``count`` ops from ``make()`` with no (sql, params) repeated, so
    no answer can come from a result recycled for an earlier op."""
    seen, out = set(), []
    while len(out) < count:
        op = make()
        key = (op.sql, tuple(sorted((op.params or {}).items())))
        if key not in seen:
            seen.add(key)
            out.append(op)
    return out


# -- scans -------------------------------------------------------------------

def scan_op(oracle: Oracle) -> Op:
    """COUNT/MIN/MAX over every sample of every file.  The time predicate
    (true for every sample) makes the scan materialise both data columns,
    so it warms the extraction cache for window queries."""
    values = oracle.samples()
    first = min(e.start_us for e in oracle.entries)
    return Op(sql=f"SELECT COUNT(*), MIN(D.sample_value), "
                  f"MAX(D.sample_value) FROM {VIEW} "
                  f"WHERE D.sample_time >= '{format_iso8601(first)}'",
              want=((len(values), int(values.min()), int(values.max())),))


def _per_channel(oracle: Oracle, station: str, select: str, row,
                 rel: float = REL_AVG) -> Op:
    """``select`` per channel over every sample of one station's files
    (18 of the 162); ``row(values)`` is the expected tuple per channel."""
    channels = sorted({e.channel for e in oracle.entries
                       if e.station == station})
    want = tuple(
        (channel, *row(oracle.samples(station=station, channel=channel)))
        for channel in channels)
    return Op(sql=f"SELECT F.channel, {select} FROM {VIEW} "
                  f"WHERE F.station = '{station}' GROUP BY F.channel",
              want=want, rel=rel, ordered=False)


def station_scan_op(oracle: Oracle, station: str) -> Op:
    """The cold scan: four aggregates over all of one station's samples."""
    return _per_channel(
        oracle, station,
        "COUNT(*), MIN(D.sample_value), MAX(D.sample_value), "
        "AVG(D.sample_value)",
        lambda v: (len(v), int(v.min()), int(v.max()), _avg(v)))


def station_count_max_op(oracle: Oracle, station: str) -> Op:
    """Shard D1: decomposable COUNT + MAX."""
    return _per_channel(oracle, station, "COUNT(*), MAX(D.sample_value)",
                        lambda v: (len(v), int(v.max())))


def station_min_op(oracle: Oracle, station: str) -> Op:
    """Shard D2: decomposable MIN."""
    return _per_channel(oracle, station, "MIN(D.sample_value)",
                        lambda v: (int(v.min()),))


def station_stddev_op(oracle: Oracle, station: str) -> Op:
    """STDDEV_SAMP does not decompose: sharded (F1), it falls back to
    scatter-extraction with the parent aggregating shipped arrays."""
    return _per_channel(oracle, station, "STDDEV_SAMP(D.sample_value)",
                        lambda v: (stddev_samp(v),), rel=REL_STDDEV)


def file_retrieval_op(oracle: Oracle, entry: Entry) -> Op:
    """Every sample of one file in time order (a 24 000-row result)."""
    lo = entry.start_us
    hi = lo + entry.n_samples * SAMPLE_STEP_US
    times, values = oracle.window(entry.station, entry.channel, lo, hi,
                                  closed_lo=True)
    sql = (f"SELECT D.sample_time, D.sample_value FROM {VIEW} "
           f"WHERE F.station = '{entry.station}' "
           f"AND F.channel = '{entry.channel}' "
           f"AND D.sample_time >= '{format_iso8601(lo)}' "
           f"AND D.sample_time < '{format_iso8601(hi)}' "
           f"ORDER BY D.sample_time")
    return Op(sql=sql, want=tuple(zip(times.tolist(), values.tolist())))


# -- skewed file choice ------------------------------------------------------

def zipf_ranks(rng: random.Random, n_items: int, count: int) -> list[int]:
    """``count`` ranks in [0, n_items) drawn with P(r) ~ 1/(r+1)^1.1."""
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(n_items)]
    return rng.choices(range(n_items), weights=weights, k=count)
