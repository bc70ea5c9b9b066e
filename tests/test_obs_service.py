"""Warehouse- and service-level metrics: collectors, scrape, slow log.

The warehouse owns one :class:`MetricsRegistry`; the service hangs its
latency instruments and subsystem collectors on it, so a single scrape
covers storage, ETL and serving.
"""

from __future__ import annotations

import json
import logging
import time

import pytest

from repro.errors import ServiceError, SQLError
from repro.obs.export import label_cardinality, parse_exposition
from repro.seismology.warehouse import SeismicWarehouse

COUNT_NL = "SELECT COUNT(*) AS n FROM mseed.dataview WHERE F.network = 'NL'"


def _values(snapshot: dict, name: str) -> dict:
    return {tuple(sorted(s["labels"].items())): s
            for s in snapshot[name]["samples"]}


# ---------------------------------------------------------------------------
# warehouse collectors
# ---------------------------------------------------------------------------


def test_warehouse_metrics_cover_subsystems(demo_repo, tmp_path):
    # Attached storage so the buffer-pool series exist too.
    wh = SeismicWarehouse(demo_repo.root, mode="lazy",
                          storage_path=tmp_path / "store")
    wh.query(COUNT_NL)
    extracted_by_first = wh.db.last_report.rows_extracted
    wh.query(COUNT_NL)
    snap = wh.metrics()
    for name in ("repro_cache_hits_total", "repro_cache_misses_total",
                 "repro_cache_used_bytes", "repro_bufferpool_lookups_total",
                 "repro_plan_cache_hits_total", "repro_recycler_hits_total",
                 "repro_extract_seconds",
                 "repro_extract_rows_total"):
        assert name in snap, f"missing {name}"
    # The second run compiled from the plan cache and was answered by
    # the recycler: nothing more was extracted.
    (hits,) = snap["repro_plan_cache_hits_total"]["samples"]
    assert hits["value"] >= 1
    (recycled,) = snap["repro_recycler_hits_total"]["samples"]
    assert recycled["value"] >= 1
    extracted = snap["repro_extract_rows_total"]["samples"][0]["value"]
    assert extracted == extracted_by_first > 0


def test_extract_seconds_histogram_counts_files(demo_repo):
    wh = SeismicWarehouse(demo_repo.root, mode="lazy")
    wh.query(COUNT_NL)
    (sample,) = wh.metrics()["repro_extract_seconds"]["samples"]
    assert sample["count"] == len(wh.files_extracted_by_last_query())
    assert sample["sum"] > 0


def test_eager_mode_scrapes_without_extraction_instruments(demo_repo):
    wh = SeismicWarehouse(demo_repo.root, mode="eager")
    wh.query("SELECT COUNT(*) AS n FROM mseed.data")
    snap = wh.metrics()
    assert "repro_plan_cache_misses_total" in snap
    assert "repro_extract_seconds" not in snap
    parse_exposition(wh.metrics_text())


def test_metrics_text_parses_with_bounded_cardinality(demo_repo):
    wh = SeismicWarehouse(demo_repo.root, mode="lazy")
    wh.query(COUNT_NL)
    samples = parse_exposition(wh.metrics_text())
    assert samples
    card = label_cardinality(samples)
    assert max(card.values()) <= 64


def test_metrics_json_embeds_extras(demo_repo):
    wh = SeismicWarehouse(demo_repo.root, mode="lazy")
    wh.query(COUNT_NL)
    payload = json.loads(wh.metrics_json(run="r1"))
    assert payload["run"] == "r1"
    assert "repro_cache_lookups_total" in payload["metrics"]


# ---------------------------------------------------------------------------
# served warehouse
# ---------------------------------------------------------------------------


def test_service_latency_and_status_metrics(demo_repo):
    wh = SeismicWarehouse(demo_repo.root, mode="lazy")
    with wh.serve(max_workers=2) as svc:
        for _ in range(3):
            svc.query(COUNT_NL, session="alice")
        svc.query(COUNT_NL, session="bob")
        with pytest.raises(SQLError):
            svc.query("SELECT nope FROM nowhere")
        snap = wh.metrics()
        status = _values(snap, "repro_queries_total")
        assert status[(("status", "ok"),)]["value"] == 4
        assert status[(("status", "error"),)]["value"] == 1
        latency = _values(snap, "repro_query_seconds")
        assert latency[(("session", "alice"),)]["count"] == 3
        assert latency[(("session", "bob"),)]["count"] == 1
        (wait,) = snap["repro_queue_wait_seconds"]["samples"]
        assert wait["count"] == 5
        assert "repro_service_queue_depth" in snap
        assert snap["repro_service_submitted_total"]["samples"][0]["value"] == 5


def test_service_failure_logged(demo_repo, caplog):
    wh = SeismicWarehouse(demo_repo.root, mode="lazy")
    with wh.serve(max_workers=1) as svc:
        with caplog.at_level(logging.WARNING, logger="repro.service"):
            with pytest.raises(SQLError):
                svc.query("SELECT nope FROM nowhere", session="s1")
    assert any("query failed on s1" in r.message for r in caplog.records)


def test_service_slow_query_log(demo_repo):
    wh = SeismicWarehouse(demo_repo.root, mode="lazy")
    with wh.serve(max_workers=1, slow_query_s=1e-9) as svc:
        svc.query(COUNT_NL, session="s1")
        assert len(svc.slow_log) == 1
        (entry,) = svc.slow_log.entries()
        assert entry["session"] == "s1"
        assert entry["rows_out"] == 1
        assert wh.metrics()["repro_slow_queries_total"]["samples"][0]["value"] == 1


def test_service_slow_log_threshold_filters(demo_repo):
    wh = SeismicWarehouse(demo_repo.root, mode="lazy")
    with wh.serve(max_workers=1, slow_query_s=3600.0) as svc:
        svc.query(COUNT_NL)
        assert len(svc.slow_log) == 0


def test_service_snapshotter_lifecycle(demo_repo):
    wh = SeismicWarehouse(demo_repo.root, mode="lazy")
    with wh.serve(max_workers=1, metrics_interval_s=0.02,
                  metrics_history=4) as svc:
        svc.query(COUNT_NL)
        time.sleep(0.06)
        snapshotter = svc.snapshotter
        assert snapshotter is not None
    snaps = snapshotter.snapshots()
    assert 1 <= len(snaps) <= 4
    assert "repro_queries_total" in snaps[-1]["metrics"]


def test_closed_service_stops_contributing_series(demo_repo):
    wh = SeismicWarehouse(demo_repo.root, mode="lazy")
    with wh.serve(max_workers=1) as svc:
        svc.query(COUNT_NL)
        assert "repro_service_queue_depth" in wh.metrics()
    snap = wh.metrics()
    assert "repro_service_queue_depth" not in snap
    # Directly-registered instruments survive: history is not erased.
    assert "repro_queries_total" in snap


def test_service_config_validation(demo_repo):
    wh = SeismicWarehouse(demo_repo.root, mode="lazy")
    with pytest.raises(ServiceError):
        wh.serve(slow_query_s=0.0)
    with pytest.raises(ServiceError):
        wh.serve(metrics_interval_s=-1.0)
    with pytest.raises(ServiceError):
        wh.serve(metrics_history=0)
