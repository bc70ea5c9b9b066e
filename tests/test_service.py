"""The concurrent query service: coalescing, fairness, admission, safety."""

import os
import threading
import time
import tracemalloc

import pytest

import repro
from repro.errors import AdmissionError, ServiceClosedError
from repro.etl.mseed_adapter import MSeedAdapter
from repro.seismology.warehouse import SeismicWarehouse
from repro.service.admission import AdmissionController
from repro.service.coalescer import ExtractionCoalescer


class CountingAdapter(MSeedAdapter):
    """MSeedAdapter that counts extract() calls per file, optionally slowly.

    The delay widens the window in which concurrent sessions' extractions
    overlap, so coalescing (not lucky cache timing) is what the asserts
    exercise.
    """

    def __init__(self, delay_s: float = 0.0) -> None:
        super().__init__()
        self.delay_s = delay_s
        self.extract_calls: dict[str, int] = {}
        self._lock = threading.Lock()

    def extract(self, repo, uri, seq_nos, needed):
        with self._lock:
            self.extract_calls[uri] = self.extract_calls.get(uri, 0) + 1
        if self.delay_s:
            time.sleep(self.delay_s)
        return super().extract(repo, uri, seq_nos, needed)


MULTI_FILE_QUERY = (
    "SELECT MIN(D.sample_value), MAX(D.sample_value), COUNT(*) "
    "FROM mseed.dataview"
)


def test_sixteen_concurrent_identical_queries_extract_once(tiny_repo):
    """The acceptance criterion: N identical in-flight queries, one
    extraction per file — the single-flight coalescer at work."""
    adapter = CountingAdapter(delay_s=0.05)
    wh = SeismicWarehouse(tiny_repo.root, mode="lazy", adapter=adapter,
                          recycler_budget_bytes=0)
    with wh.serve(max_workers=16) as svc:
        sessions = [svc.session(f"client-{i}") for i in range(16)]
        futures = [s.submit(MULTI_FILE_QUERY) for s in sessions]
        outcomes = [f.result(timeout=120) for f in futures]
    rows = [tuple(o.result.rows()[0]) for o in outcomes]
    assert len(set(rows)) == 1  # all sessions agree
    # The coalescing guarantee: every file was extracted exactly once,
    # despite 16 sessions needing it concurrently.
    assert adapter.extract_calls, "queries never reached extraction"
    assert all(count == 1 for count in adapter.extract_calls.values()), \
        adapter.extract_calls
    # At least one session shared another session's extraction, and the
    # per-session reports distinguish the two kinds of work.
    total_here = sum(o.rows_extracted_here for o in outcomes)
    total_waited = sum(o.rows_coalesced for o in outcomes)
    assert total_waited > 0
    assert total_here > 0


def test_concurrent_distinct_queries_match_serial_results(demo_repo):
    """Concurrency must never change answers (with parallel extraction)."""
    serial = SeismicWarehouse(demo_repo.root, mode="lazy")
    queries = [
        ("SELECT MIN(D.sample_value), MAX(D.sample_value), COUNT(*) "
         f"FROM mseed.dataview WHERE F.station = '{station}' "
         f"AND F.channel = '{channel}'")
        for station in ("HGN", "DBN", "ISK")
        for channel in ("BHE", "BHZ")
    ]
    expected = [serial.query(q).rows() for q in queries]

    wh = SeismicWarehouse(demo_repo.root, mode="lazy")
    with wh.serve(max_workers=6) as svc:
        sessions = [svc.session(f"s{i}") for i in range(len(queries))]
        futures = [s.submit(q) for s, q in zip(sessions, queries)]
        outcomes = [f.result(timeout=120) for f in futures]
    for outcome, rows in zip(outcomes, expected):
        assert outcome.result.rows() == rows


def test_repeated_service_queries_hit_cache(tiny_repo):
    adapter = CountingAdapter()
    wh = SeismicWarehouse(tiny_repo.root, mode="lazy", adapter=adapter,
                          recycler_budget_bytes=0)
    with wh.serve(max_workers=4) as svc:
        session = svc.session("repeat")
        session.query(MULTI_FILE_QUERY)
        first_calls = dict(adapter.extract_calls)
        session.query(MULTI_FILE_QUERY)
    assert adapter.extract_calls == first_calls  # warm pass: zero extraction


def test_admission_controller_round_robin_fairness():
    admission = AdmissionController(queue_depth=32)
    for i in range(10):
        admission.submit("greedy", f"g{i}")
    admission.submit("interactive", "i0")
    order = [admission.next_item(timeout=0) for _ in range(4)]
    # The interactive session is served on the second slot, not slot 11.
    assert order[0] == "g0"
    assert order[1] == "i0"
    assert order[2:] == ["g1", "g2"]


def test_admission_queue_rejects_when_full(tiny_repo):
    adapter = CountingAdapter(delay_s=0.5)
    wh = SeismicWarehouse(tiny_repo.root, mode="lazy", adapter=adapter,
                          recycler_budget_bytes=0)
    with wh.serve(max_workers=1, queue_depth=2) as svc:
        blocker = svc.session("blocker")
        first = blocker.submit(MULTI_FILE_QUERY)  # occupies the worker
        time.sleep(0.1)  # let the worker dequeue it
        backlog = [blocker.submit(MULTI_FILE_QUERY) for _ in range(2)]
        with pytest.raises(AdmissionError):
            for _ in range(8):  # the queue is full; some submit must bounce
                backlog.append(blocker.submit(MULTI_FILE_QUERY))
        rejected = svc.stats().admission.rejected
        assert rejected >= 1
        for future in [first, *backlog]:
            future.result(timeout=120)


def test_closed_service_rejects_submissions(tiny_repo):
    wh = SeismicWarehouse(tiny_repo.root, mode="lazy")
    svc = wh.serve(max_workers=1)
    svc.close()
    with pytest.raises(ServiceClosedError):
        svc.submit("anyone", "SELECT COUNT(*) FROM mseed.files")
    # Hooks are detached so the warehouse keeps working single-threaded.
    assert wh.pipeline.binding.coalescer is None
    assert wh.query("SELECT COUNT(*) FROM mseed.files").scalar() == \
        len(tiny_repo.entries)


def test_coalescer_claim_partition_and_publish():
    coalescer = ExtractionCoalescer()
    first = coalescer.claim("f.mseed", [1, 2, 3], ["sample_value"])
    assert first.led_seqs == [1, 2, 3] and not first.waits
    second = coalescer.claim("f.mseed", [2, 3, 4], ["sample_value"])
    assert second.led_seqs == [4]
    assert list(second.waits.values()) == [[2, 3]]
    import numpy as np

    from repro.etl.framework import ExtractedRecords

    run = ExtractedRecords.of_counts(
        "f.mseed", [1, 2, 3], [4, 4, 4],
        {"sample_value": np.tile(np.arange(4), 3)})
    coalescer.publish("f.mseed", first.flight, run)
    got = coalescer.wait(first.flight, [2, 3], timeout=1.0)
    assert got is not None and got.seq_nos.tolist() == [2, 3]
    assert got.total_rows() == 8
    # All keys retired: a fresh claim leads again.
    third = coalescer.claim("f.mseed", [1, 2], ["sample_value"])
    assert third.led_seqs == [1, 2]
    coalescer.publish("f.mseed", second.flight, None)
    coalescer.publish("f.mseed", third.flight, None)


def test_coalescer_failed_flight_falls_back():
    coalescer = ExtractionCoalescer()
    lead = coalescer.claim("g.mseed", [7], ["sample_value"])
    wait = coalescer.claim("g.mseed", [7], ["sample_value"])
    coalescer.publish("g.mseed", lead.flight, None, error=RuntimeError("boom"))
    flight = next(iter(wait.waits))
    assert coalescer.wait(flight, [7], timeout=1.0) is None
    # The failure retired the keys: the waiter can claim leadership now.
    retry = coalescer.claim("g.mseed", [7], ["sample_value"])
    assert retry.led_seqs == [7]
    coalescer.publish("g.mseed", retry.flight, None)


def test_service_stats_latencies(tiny_repo):
    wh = SeismicWarehouse(tiny_repo.root, mode="lazy")
    with wh.serve(max_workers=2) as svc:
        session = svc.session()
        for _ in range(5):
            session.query("SELECT COUNT(*) FROM mseed.files")
        stats = svc.stats()
    assert stats.completed == 5 and stats.failed == 0
    latency = wh.metrics_registry.histogram("repro_query_seconds",
                                            labels=("session",))
    assert latency.count(session=session.session_id) == 5
    assert latency.percentile(99, session=session.session_id) >= \
        latency.percentile(50, session=session.session_id) >= 0.0


def test_repeat_session_queries_do_not_grow_memory(tiny_repo):
    """A served session keeps no per-query record: once the journal ring
    is full, a thousand more queries leave the package's heap where it
    was (latency lives in the bounded ``repro_query_seconds``)."""
    wh = SeismicWarehouse(tiny_repo.root, mode="lazy")
    package = [tracemalloc.Filter(
        True, os.path.join(os.path.dirname(repro.__file__), "*"))]
    with wh.serve(max_workers=2) as svc:
        session = svc.session("steady")

        def run(count: int) -> None:
            for _ in range(count):
                session.query("SELECT COUNT(*) FROM mseed.files")

        # Traced from before the warm-up, which fills the 1 024-entry
        # journal: a replaced slot must have been traced when allocated.
        tracemalloc.start()
        try:
            run(1100)
            before = tracemalloc.take_snapshot().filter_traces(package)
            run(1000)
            after = tracemalloc.take_snapshot().filter_traces(package)
        finally:
            tracemalloc.stop()
    grown = sum(stat.size_diff
                for stat in after.compare_to(before, "filename"))
    assert svc.stats().completed == 2100
    assert grown < 256 * 1024, f"grew {grown / 1024:.1f} KiB"


def test_service_query_error_propagates(tiny_repo):
    wh = SeismicWarehouse(tiny_repo.root, mode="lazy")
    with wh.serve(max_workers=1) as svc:
        future = svc.submit("s", "SELECT nonsense FROM nowhere")
        with pytest.raises(Exception):
            future.result(timeout=60)
        assert svc.stats().failed == 1
        # The worker survives a failed query.
        ok = svc.session("s").query("SELECT COUNT(*) FROM mseed.files")
    assert ok.result.scalar() == len(tiny_repo.entries)
