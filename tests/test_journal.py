"""The query journal: ring bounds, durability, concurrent appends.

Satellite coverage for ``repro.obs.journal``: eviction order under the
ring-buffer capacity (and no per-query growth once it is full),
byte-identical spill/restore across
``checkpoint()`` → warm start, and appends racing in from concurrent
service sessions.
"""

from __future__ import annotations

import json
import os
import threading
import tracemalloc

import pytest

import repro
from repro.db.exec.engine import Database
from repro.obs.journal import (
    DEFAULT_SESSION,
    QueryJournal,
    params_hash,
    query_context,
)
from repro.seismology.warehouse import SeismicWarehouse


def _entry(sql: str, **extra) -> dict:
    entry = {"sql": sql, "session": "t", "status": "ok"}
    entry.update(extra)
    return entry


# ---------------------------------------------------------------------------
# ring bounds
# ---------------------------------------------------------------------------


def test_ring_evicts_oldest_first_with_monotonic_ids():
    journal = QueryJournal(capacity=4)
    ids = [journal.append(_entry(f"q{i}")) for i in range(10)]
    assert ids == list(range(1, 11))
    kept = journal.entries()
    assert [e["sql"] for e in kept] == ["q6", "q7", "q8", "q9"]
    assert [e["id"] for e in kept] == [7, 8, 9, 10]
    stats = journal.stats()
    assert stats["recorded_total"] == 10
    assert stats["evicted_total"] == 6
    assert stats["entries"] == stats["capacity"] == 4


def test_append_does_not_alias_caller_dict():
    journal = QueryJournal(capacity=2)
    raw = _entry("q")
    journal.append(raw)
    raw["sql"] = "mutated"
    assert journal.entries()[0]["sql"] == "q"


def test_repeat_selects_do_not_grow_memory_once_the_journal_is_full():
    """Every per-query record the engine keeps is bounded: once the
    journal ring is full and the plans are cached, a thousand more
    SELECTs leave the package's heap where it was."""
    db = Database(journal_capacity=8)
    db.execute("CREATE TABLE t (k BIGINT, v DOUBLE)")
    db.execute("INSERT INTO t VALUES (1, 1.5), (2, 2.5), (3, 3.5)")
    statements = ["SELECT COUNT(*) FROM t",
                  "SELECT k, v FROM t WHERE k > 1",
                  "SELECT SUM(v) FROM t"]

    def run(count: int) -> None:
        for i in range(count):
            db.query(statements[i % len(statements)])

    package = [tracemalloc.Filter(
        True, os.path.join(os.path.dirname(repro.__file__), "*"))]
    # Traced from before the warm-up: what a warm query replaces (a
    # recycler entry, a journal slot) must have been traced when it was
    # allocated, or its replacement reads as growth.
    tracemalloc.start()
    try:
        run(32)
        before = tracemalloc.take_snapshot().filter_traces(package)
        run(1000)
        after = tracemalloc.take_snapshot().filter_traces(package)
    finally:
        tracemalloc.stop()
    grown = sum(stat.size_diff
                for stat in after.compare_to(before, "filename"))
    assert db.journal.stats()["entries"] == 8
    assert grown < 64 * 1024, f"grew {grown / 1024:.1f} KiB"


def test_session_summary_aggregates_per_session():
    journal = QueryJournal(capacity=16)
    journal.append(_entry("a", session="alice", rows_out=3, total_s=0.5))
    journal.append(_entry("b", session="bob", status="error"))
    journal.append(_entry("c", session="alice", rows_out=2, total_s=0.25))
    by_session = {row["session"]: row
                  for row in journal.session_summary()}
    assert by_session["alice"]["queries"] == 2
    assert by_session["alice"]["rows_out"] == 5
    assert by_session["alice"]["total_s"] == pytest.approx(0.75)
    assert by_session["bob"]["errors"] == 1


# ---------------------------------------------------------------------------
# params_hash + query context
# ---------------------------------------------------------------------------


def test_params_hash_is_stable_and_discriminating():
    assert params_hash(None) == params_hash(()) == ""
    a = params_hash({"net": "NL", "k": 1})
    assert a == params_hash({"k": 1, "net": "NL"})  # order-insensitive
    assert a != params_hash({"net": "BE", "k": 1})
    assert params_hash((1, "x")) == params_hash((1, "x"))
    assert params_hash((1, "x")) != params_hash(("1", "x"))


def test_query_context_tags_recorded_entries():
    journal = QueryJournal(capacity=4)

    class _Report:
        pass

    report = _Report()
    for name in ("sql", "params_hash"):
        setattr(report, name, "")
    for name in ("parse_s", "bind_s", "optimize_s", "execute_s",
                 "total_s"):
        setattr(report, name, 0.0)
    for name in ("rows_out", "rows_extracted", "rows_extracted_here",
                 "rows_coalesced", "rows_served_eager", "pages_read",
                 "pages_skipped_zone"):
        setattr(report, name, 0)
    report.plan_cache_hit = False
    with query_context("carol", queued_s=0.125):
        journal.record_report(report)
    journal.record_report(report)
    first, second = journal.entries()
    assert first["session"] == "carol"
    assert first["queued_s"] == pytest.approx(0.125)
    assert second["session"] == DEFAULT_SESSION


# ---------------------------------------------------------------------------
# durability: checkpoint → warm start
# ---------------------------------------------------------------------------


def test_journal_spill_restore_identity(demo_repo, tmp_path):
    wh = SeismicWarehouse(demo_repo.root, mode="lazy",
                          storage_path=tmp_path / "store")
    wh.query("SELECT COUNT(*) AS n FROM mseed.files")
    with pytest.raises(Exception):
        wh.query("SELECT nope FROM mseed.files")
    wh.query("SELECT network, COUNT(*) FROM mseed.files GROUP BY network")
    state = wh.db.journal.export_state()
    wh.checkpoint()
    wh.close()

    warm = SeismicWarehouse(demo_repo.root, mode="lazy",
                            storage_path=tmp_path / "store")
    try:
        # Byte-identical restore: the exported state round-trips through
        # the manifest meta area unchanged (JSON-stable, id counter too).
        assert json.dumps(warm.db.journal.export_state(), sort_keys=True) \
            == json.dumps(state, sort_keys=True)
        # New queries continue the id sequence instead of reusing ids.
        warm.query("SELECT COUNT(*) AS n FROM mseed.files")
        tail = warm.db.journal.entries()[-1]
        assert tail["id"] == state["next_id"]
        statuses = dict(warm.query(
            "SELECT status, count(*) FROM sys.queries GROUP BY status"
        ).rows())
        assert statuses["error"] == 1
        assert statuses["ok"] >= 3
    finally:
        warm.close()


def test_restore_caps_to_capacity_tail(tmp_path):
    big = QueryJournal(capacity=64)
    for i in range(20):
        big.append(_entry(f"q{i}"))
    small = QueryJournal(capacity=5)
    assert small.import_state(big.export_state()) == 5
    assert [e["sql"] for e in small.entries()] == \
        [f"q{i}" for i in range(15, 20)]
    assert small.append(_entry("next")) == 21


def test_import_tolerates_missing_or_foreign_state():
    journal = QueryJournal(capacity=4)
    assert journal.import_state(None) == 0
    assert journal.import_state({"version": 999}) == 0
    assert len(journal) == 0


# ---------------------------------------------------------------------------
# concurrency: 16 service sessions appending at once
# ---------------------------------------------------------------------------


def test_concurrent_appends_from_16_service_sessions(demo_repo):
    wh = SeismicWarehouse(demo_repo.root, mode="lazy")
    per_session = 4
    with wh.serve(max_workers=8) as svc:
        sessions = [svc.session(f"s{i:02d}") for i in range(16)]
        futures = [
            session.submit("SELECT COUNT(*) AS n FROM mseed.files")
            for _ in range(per_session) for session in sessions
        ]
        for future in futures:
            assert future.result().report.rows_out == 1
        entries = wh.db.journal.entries()
    wh.close()
    mine = [e for e in entries if e["session"].startswith("s")]
    assert len(mine) == 16 * per_session
    # Ids are unique and strictly increasing in journal order.
    ids = [e["id"] for e in entries]
    assert ids == sorted(ids) and len(set(ids)) == len(ids)
    per = {}
    for e in mine:
        per[e["session"]] = per.get(e["session"], 0) + 1
    assert per == {f"s{i:02d}": per_session for i in range(16)}


def test_raw_journal_thread_safety():
    journal = QueryJournal(capacity=128)
    barrier = threading.Barrier(16)

    def hammer(tag: str) -> None:
        barrier.wait()
        for i in range(25):
            journal.append(_entry(f"{tag}-{i}", session=tag))

    threads = [threading.Thread(target=hammer, args=(f"t{i}",))
               for i in range(16)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    stats = journal.stats()
    assert stats["recorded_total"] == 400
    assert stats["entries"] == 128
    ids = [e["id"] for e in journal.entries()]
    assert ids == list(range(273, 401))
