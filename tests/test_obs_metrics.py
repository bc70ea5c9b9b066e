"""Metrics registry, exporters, snapshotter, slow-query log.

Includes the concurrency stress the registry's whole design hangs on:
counters must never lose updates under contention and a snapshot taken
mid-storm must be internally consistent.
"""

from __future__ import annotations

import json
import logging
import threading
import time

import pytest

from repro.obs.export import (
    label_cardinality,
    parse_exposition,
    render_prometheus,
    snapshot_json,
)
from repro.obs.metrics import (
    DEFAULT_MAX_LABEL_SETS,
    OVERFLOW_LABEL,
    MetricsError,
    MetricsRegistry,
    MetricsSnapshotter,
)
from repro.obs.slowlog import SlowQueryLog


# ---------------------------------------------------------------------------
# instruments
# ---------------------------------------------------------------------------


class TestCounter:
    def test_inc_and_value(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_test_total", "help")
        c.inc()
        c.inc(4)
        assert c.value() == 5

    def test_negative_increment_rejected(self):
        c = MetricsRegistry().counter("repro_test_total")
        with pytest.raises(MetricsError):
            c.inc(-1)

    def test_labelled_series_are_independent(self):
        c = MetricsRegistry().counter("repro_q_total", labels=("status",))
        c.inc(status="ok")
        c.inc(2, status="error")
        values = {s["labels"]["status"]: s["value"] for s in c.samples()}
        assert values == {"ok": 1, "error": 2}

    def test_unknown_label_rejected(self):
        c = MetricsRegistry().counter("repro_q_total", labels=("status",))
        with pytest.raises(MetricsError):
            c.inc(nope="x")

    def test_label_overflow_folds(self):
        c = MetricsRegistry().counter("repro_s_total", labels=("session",))
        for i in range(DEFAULT_MAX_LABEL_SETS + 25):
            c.inc(session=f"s{i}")
        values = {s["labels"]["session"]: s["value"] for s in c.samples()}
        assert values[OVERFLOW_LABEL] == 25
        # Bounded cardinality: the named sets plus the overflow bucket.
        assert len(values) == DEFAULT_MAX_LABEL_SETS + 1


class TestGauge:
    def test_set_inc_dec(self):
        g = MetricsRegistry().gauge("repro_depth")
        g.set(10)
        g.inc(5)
        g.dec(3)
        assert g.value() == 12

    def test_set_function_sampled_at_snapshot(self):
        reg = MetricsRegistry()
        g = reg.gauge("repro_live")
        state = {"v": 1.0}
        g.set_function(lambda: state["v"])
        state["v"] = 7.5
        (sample,) = g.samples()
        assert sample["labels"] == {} and sample["value"] == 7.5


# (sample, q, nearest-rank answer): the smallest value with at least q
# percent of the sample at or below it.  The even-length p50 cases pin the
# lower middle; round-half-even on (n - 1) * q used to pick the upper one
# for n = 4 and n = 8.
_ONE_TO_100 = list(range(1, 101))
NEAREST_RANK_CASES = [
    ([1, 2], 50, 1),
    ([1, 2, 3, 4], 50, 2),
    ([1, 2, 3, 4, 5, 6], 50, 3),
    ([1, 2, 3, 4, 5, 6, 7, 8], 50, 4),
    ([7], 0, 7), ([7], 50, 7), ([7], 100, 7),
    (_ONE_TO_100, 50, 50), (_ONE_TO_100, 95, 95), (_ONE_TO_100, 99, 99),
    (_ONE_TO_100, 0, 1), (_ONE_TO_100, 100, 100),
    ([1, 2, 3, 4], 0, 1), ([1, 2, 3, 4], 100, 4),
]


@pytest.mark.parametrize("values, q, expected", NEAREST_RANK_CASES)
def test_nearest_rank_percentile_everywhere(values, q, expected):
    h = MetricsRegistry().histogram("repro_lat_seconds")
    for v in reversed(values):  # observation order must not matter
        h.observe(float(v))
    assert h.percentile(q) == expected
    (sample,) = h.samples()
    if f"p{q}" in sample:
        assert sample[f"p{q}"] == expected


def test_percentile_of_nothing_is_zero():
    h = MetricsRegistry().histogram("repro_lat_seconds")
    assert h.percentile(50) == 0.0


class TestHistogram:
    def test_percentiles_exact_below_reservoir(self):
        h = MetricsRegistry().histogram("repro_lat_seconds")
        for v in range(1, 101):
            h.observe(v / 100)
        assert h.count() == 100
        # Nearest-rank: within one rank of the exact percentile.
        assert h.percentile(50) == pytest.approx(0.50, abs=0.011)
        assert h.percentile(95) == pytest.approx(0.95, abs=0.011)
        assert h.percentile(99) == pytest.approx(0.99, abs=0.011)

    def test_count_and_sum_exact_beyond_reservoir(self):
        h = MetricsRegistry().histogram("repro_lat_seconds")
        n = 5000  # > reservoir size: sampling kicks in, totals stay exact
        for _ in range(n):
            h.observe(2.0)
        (sample,) = h.samples()
        assert sample["count"] == n
        assert sample["sum"] == pytest.approx(2.0 * n)
        assert sample["p50"] == pytest.approx(2.0)


class TestRegistry:
    def test_get_or_create_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("repro_a_total") is reg.counter("repro_a_total")

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("repro_a_total")
        with pytest.raises(MetricsError):
            reg.gauge("repro_a_total")

    def test_label_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("repro_a_total", labels=("x",))
        with pytest.raises(MetricsError):
            reg.counter("repro_a_total", labels=("y",))

    def test_collectors_merge_into_snapshot(self):
        reg = MetricsRegistry()
        handle = reg.register_collector(
            lambda: {"repro_cache_hits_total": 3, "repro_cache_entries": 9})
        snap = reg.snapshot()
        assert snap["repro_cache_hits_total"]["type"] == "counter"
        assert snap["repro_cache_entries"]["type"] == "gauge"
        reg.unregister_collector(handle)
        assert "repro_cache_hits_total" not in reg.snapshot()

    def test_failing_collector_skipped(self, caplog):
        reg = MetricsRegistry()
        reg.counter("repro_ok_total").inc()

        def broken():
            raise RuntimeError("boom")

        reg.register_collector(broken)
        with caplog.at_level(logging.ERROR, logger="repro.obs.metrics"):
            snap = reg.snapshot()
        assert "repro_ok_total" in snap
        assert any("collector" in r.message for r in caplog.records)


# ---------------------------------------------------------------------------
# exporters
# ---------------------------------------------------------------------------


class TestExport:
    def _registry(self) -> MetricsRegistry:
        reg = MetricsRegistry()
        c = reg.counter("repro_q_total", "queries", labels=("status",))
        c.inc(3, status="ok")
        c.inc(status="error")
        reg.gauge("repro_depth", "queue depth").set(2)
        h = reg.histogram("repro_lat_seconds", "latency")
        for v in (0.1, 0.2, 0.3):
            h.observe(v)
        return reg

    def test_prometheus_round_trip(self):
        text = render_prometheus(self._registry())
        samples = parse_exposition(text)
        by_name = {}
        for name, labels, value in samples:
            by_name.setdefault(name, []).append((labels, value))
        assert ({"status": "ok"}, 3.0) in by_name["repro_q_total"]
        assert by_name["repro_depth"] == [({}, 2.0)]
        assert ({}, 3.0) in by_name["repro_lat_seconds_count"]
        quantiles = {lbl["quantile"]: v
                     for lbl, v in by_name["repro_lat_seconds"]}
        assert quantiles["0.5"] == pytest.approx(0.2)

    def test_parse_rejects_garbage(self):
        with pytest.raises(MetricsError):
            parse_exposition("this is { not exposition\n")

    def test_label_cardinality(self):
        card = label_cardinality(parse_exposition(
            render_prometheus(self._registry())))
        assert card["repro_q_total"] == 2
        assert card["repro_depth"] == 1
        # Quantile labels must not count toward series cardinality.
        assert card["repro_lat_seconds"] == 1

    def test_snapshot_json(self):
        payload = json.loads(snapshot_json(self._registry(), note="x"))
        assert payload["note"] == "x"
        assert payload["metrics"]["repro_depth"]["samples"][0]["value"] == 2

    # -- exposition escaping (format 0.0.4) regressions --------------------

    HOSTILE_LABELS = [
        'SELECT * FROM t WHERE a = "x" AND b = 1',   # quotes + equals
        "line1\nline2",                              # newline
        "C:\\temp\\dump",                            # backslashes
        "\\n",                                       # literal \ then n
        'mix="v",other={1,2}\\',                     # comma/braces/trailing \
        "SELECT s, count(*) FROM sys.queries GROUP BY s",
    ]

    def test_hostile_label_values_round_trip(self):
        # SQL fragments (and worse) as label values must render per the
        # text format and parse back byte-identically: a sequential
        # replace-chain unescaper corrupts "\\n" and an '='-counting
        # completeness check false-fails on the WHERE clause.
        reg = MetricsRegistry()
        c = reg.counter("repro_sql_total", "by statement", labels=("sql",))
        for value in self.HOSTILE_LABELS:
            c.inc(sql=value)
        samples = parse_exposition(render_prometheus(reg))
        seen = {labels["sql"] for name, labels, _v in samples
                if name == "repro_sql_total"}
        assert seen == set(self.HOSTILE_LABELS)

    def test_help_text_escapes_newline_and_backslash(self):
        reg = MetricsRegistry()
        reg.gauge("repro_g", "first\nsecond \\ third").set(1)
        text = render_prometheus(reg)
        (help_line,) = [l for l in text.splitlines()
                        if l.startswith("# HELP")]
        assert help_line == "# HELP repro_g first\\nsecond \\\\ third"
        # Still one logical line per sample: strict parse accepts it.
        assert parse_exposition(text) == [("repro_g", {}, 1.0)]

    def test_parser_rejects_unknown_or_trailing_escape(self):
        with pytest.raises(MetricsError):
            parse_exposition('m{a="bad\\q"} 1\n')
        with pytest.raises(MetricsError):
            parse_exposition('m{a="trailing\\"} 1\n')

    def test_parser_rejects_unseparated_label_pairs(self):
        with pytest.raises(MetricsError):
            parse_exposition('m{a="1"b="2"} 1\n')


# ---------------------------------------------------------------------------
# concurrency stress
# ---------------------------------------------------------------------------


class TestConcurrency:
    THREADS = 16
    INCS = 2000

    def test_no_lost_counter_updates(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_stress_total", labels=("worker",))
        h = reg.histogram("repro_stress_seconds")
        start = threading.Barrier(self.THREADS)

        def worker(n: int) -> None:
            start.wait()
            for _ in range(self.INCS):
                c.inc(worker=f"w{n % 4}")
                h.observe(0.001)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(self.THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = sum(s["value"] for s in c.samples())
        assert total == self.THREADS * self.INCS
        assert h.count() == self.THREADS * self.INCS

    def test_snapshot_consistent_under_writes(self):
        """Snapshots taken mid-storm never go backwards or tear."""
        reg = MetricsRegistry()
        c = reg.counter("repro_stress_total")
        stop = threading.Event()

        def writer() -> None:
            while not stop.is_set():
                c.inc()

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for t in threads:
            t.start()
        seen = []
        try:
            for _ in range(50):
                snap = reg.snapshot()
                (sample,) = snap["repro_stress_total"]["samples"]
                seen.append(sample["value"])
        finally:
            stop.set()
            for t in threads:
                t.join()
        assert all(a <= b for a, b in zip(seen, seen[1:]))
        assert seen[-1] <= c.value()


# ---------------------------------------------------------------------------
# snapshotter + slow-query log
# ---------------------------------------------------------------------------


class TestSnapshotter:
    def test_background_snapshots_and_history_bound(self):
        reg = MetricsRegistry()
        reg.counter("repro_x_total").inc()
        snapper = MetricsSnapshotter(reg, 0.01, history=5)
        snapper.start()
        time.sleep(0.08)
        snapper.stop()
        snaps = snapper.snapshots()
        assert 1 <= len(snaps) <= 5
        assert snaps[-1]["metrics"]["repro_x_total"]["samples"][0]["value"] == 1
        assert all(a["at"] <= b["at"] for a, b in zip(snaps, snaps[1:]))


class TestSlowQueryLog:
    def _observe(self, log: SlowQueryLog, total_s: float) -> bool:
        return log.observe(session_id="s1", sql="SELECT 1", total_s=total_s,
                           queued_s=0.0, execute_s=total_s)

    def test_threshold_gates(self):
        log = SlowQueryLog(0.5)
        assert self._observe(log, 0.1) is False
        assert self._observe(log, 0.9) is True
        assert len(log) == 1
        assert log.entries()[0]["total_s"] == pytest.approx(0.9)

    def test_capacity_bounded(self):
        log = SlowQueryLog(0.0, capacity=3)
        for i in range(6):
            self._observe(log, float(i))
        totals = [e["total_s"] for e in log.entries()]
        assert totals == [3.0, 4.0, 5.0]

    def test_structured_logging_record(self, caplog):
        log = SlowQueryLog(0.0)
        with caplog.at_level(logging.WARNING, logger="repro.obs.slowquery"):
            self._observe(log, 1.25)
        (record,) = caplog.records
        assert "slow query" in record.message
        assert record.slow_query["sql"] == "SELECT 1"

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            SlowQueryLog(-1.0)
