"""QueryReport accounting on the one execution path.

Every entry point — ``Database.query``, cursors, service sessions — is a
drain of the same operator stream, so there are no two paths to keep in
agreement any more.  What is pinned here instead: a cursor's span tree
carries one span per operator and accounts for the execute time at any
batch size; an abandoned stream closes cleanly and reports what it
delivered; the service's future and cursor faces return the same bytes
and counters; and ``_fold_trace_counters`` counts promoted-fetch page
I/O exactly once.
"""

from __future__ import annotations

import pytest
from oracle import _canon_value

from repro.db.exec.engine import QueryReport, _fold_trace_counters
from repro.db.plan.physical import UNBOUNDED_ROWS
from repro.seismology.warehouse import SeismicWarehouse

PARITY_COUNTERS = (
    "rows_out", "rows_extracted", "pages_read", "pages_skipped",
    "rows_extracted_here", "rows_coalesced", "rows_served_eager",
)

QUERIES = [
    "SELECT COUNT(*) AS n FROM mseed.dataview WHERE F.network = 'NL'",
    "SELECT F.station, MIN(D.sample_value) AS lo FROM mseed.dataview "
    "WHERE F.network = 'NL' GROUP BY F.station ORDER BY F.station",
    "SELECT R.seq_no FROM mseed.dataview "
    "WHERE F.station = 'HGN' AND F.channel = 'BHZ'",
]


def _materialized(wh, sql) -> QueryReport:
    _result, report, _trace = wh.db.query_with_report(sql)
    return report


def _streamed(wh, sql) -> QueryReport:
    with wh.connect() as conn:
        cur = conn.cursor().execute(sql, batch_rows=128)
        cur.fetchall()
        return cur.report


def _plan_nodes(node):
    yield node
    for child in node.children():
        yield from _plan_nodes(child)


def _operator_spans(span):
    for child in span.get("children", ()):
        if not child["name"].startswith("trace:"):
            yield child
            yield from _operator_spans(child)


# ---------------------------------------------------------------------------
# Cursors carry operator spans
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("batch_rows", [64, UNBOUNDED_ROWS])
@pytest.mark.parametrize("sql", QUERIES)
def test_cursor_spans_cover_every_operator(demo_repo, sql, batch_rows):
    wh = SeismicWarehouse(demo_repo.root, mode="lazy", trace_spans=True)
    with wh.connect() as conn:
        cur = conn.cursor().execute(sql, batch_rows=batch_rows)
        cur.fetchall()
        report = cur.report
    execute = next(s for s in report.spans["children"]
                   if s["name"] == "execute")
    spans = list(_operator_spans(execute))
    # One span per operator of the plan (a cold run recycles nothing, so
    # every operator ran) ...
    assert sorted(s["name"] for s in spans) == sorted(
        type(n).__name__ for n in _plan_nodes(wh.db.last_plan_physical))
    assert spans[0]["rows_out"] == report.rows_out
    # ... whose self times add up to the time the engine spent pulling
    # (same slack as the EXPLAIN ANALYZE attribution test).
    self_total = sum(s["self_s"] for s in spans)
    slack = max(0.10 * report.execute_s, 0.002)
    assert abs(self_total - report.execute_s) <= slack


# ---------------------------------------------------------------------------
# Abandoned streams
# ---------------------------------------------------------------------------


def _journal_entry(wh, report) -> dict:
    return next(e for e in wh.db.journal.entries()
                if e["id"] == report.journal_id)


def test_cursor_closed_mid_stream_reports_what_it_delivered(demo_repo):
    wh = SeismicWarehouse(demo_repo.root, mode="lazy", trace_spans=True)
    run = wh.db.open_query(QUERIES[2], batch_rows=64)
    batches = run.batches()
    assert next(batches).row_count == 64
    assert run.profile.open_frames == 0  # nothing is open between pulls
    run.close()
    assert run.profile.open_frames == 0
    assert run.report.rows_out == run.rowcount == 64
    assert run.report.spans is not None
    entry = _journal_entry(wh, run.report)
    assert (entry["status"], entry["rows_out"]) == ("ok", 64)

    # The same through the public cursor: one fetchmany, then close().
    with wh.connect() as conn:
        cur = conn.cursor().execute(QUERIES[2], batch_rows=64)
        assert len(cur.fetchmany(10)) == 10
        report = cur.report
        cur.close()
        assert report.rows_out == 64  # the one batch the engine delivered
        assert _journal_entry(wh, report)["status"] == "ok"


def test_satisfied_limit_leaves_no_open_frame(demo_repo):
    wh = SeismicWarehouse(demo_repo.root, mode="lazy", trace_spans=True)
    # The limit is satisfied inside the first batch: PLimit returns
    # while its child stream is still open, and abandons it.
    run = wh.db.open_query("SELECT sample_value FROM mseed.data LIMIT 5",
                           batch_rows=64)
    assert sum(batch.row_count for batch in run.batches()) == 5
    assert run.profile.open_frames == 0
    assert run.report.rows_out == 5
    entry = _journal_entry(wh, run.report)
    assert (entry["status"], entry["rows_out"]) == ("ok", 5)
    execute = next(s for s in run.report.spans["children"]
                   if s["name"] == "execute")
    limit, child = list(_operator_spans(execute))[:2]
    assert limit["name"] == "PLimit" and limit["rows_out"] == 5
    assert child["rows_out"] >= 5  # what the abandoned child handed over


# ---------------------------------------------------------------------------
# One worker body: the service's future and cursor faces agree
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("sql", QUERIES)
def test_service_query_and_cursor_agree(demo_repo, sql):
    # Two fresh warehouses: each face starts from the same cold state.
    def served(run):
        wh = SeismicWarehouse(demo_repo.root, mode="lazy")
        with wh.serve(max_workers=2) as svc:
            return run(svc.session("s"))

    outcome = served(lambda session: session.query(sql))

    def through_cursor(session):
        cur = session.cursor().execute(sql)
        return cur.fetchall(), cur.report

    def bits(rows):
        return [tuple(_canon_value(v) for v in row) for row in rows]

    rows, report = served(through_cursor)
    assert bits(rows) == bits(outcome.result.rows())
    for name in PARITY_COUNTERS + ("operators_run",):
        assert getattr(report, name) == getattr(outcome.report, name), name
    assert outcome.report.rows_extracted_here > 0


# ---------------------------------------------------------------------------
# _fold_trace_counters
# ---------------------------------------------------------------------------


def test_fold_trace_counters_accumulates_each_op():
    report = QueryReport(pages_read=5)  # scan-side I/O already counted
    trace = [
        {"op": "rewrite", "table": "mseed.data"},
        {"op": "extract", "rows": 100, "records": 2},
        {"op": "extract", "rows": 50, "records": 1},
        {"op": "extract_wait", "rows": 30},
        {"op": "promoted_fetch", "rows": 40, "records": 3, "pages_read": 7},
    ]
    _fold_trace_counters(report, trace)
    assert report.rows_extracted_here == 150
    assert report.rows_coalesced == 30
    assert report.rows_served_eager == 40
    assert report.promotions == 3
    # Promoted pages add to the scan pages exactly once.
    assert report.pages_read == 12


def test_fold_trace_counters_ignores_unknown_ops():
    report = QueryReport()
    _fold_trace_counters(report, [{"op": "cache_fetch", "rows": 99},
                                  {"no_op_key": True}])
    assert report.rows_extracted_here == 0
    assert report.rows_served_eager == 0


def test_promoted_fetch_pages_counted_once(demo_repo, tmp_path):
    # Recycler off: it would answer the repeat before the promoted path.
    wh = SeismicWarehouse(demo_repo.root, mode="lazy",
                          storage_path=tmp_path / "store",
                          recycler_budget_bytes=0)
    sql = QUERIES[0]
    wh.query(sql)
    wh.query(sql)  # a cache hit per record: the default promotion signal
    promoted = wh.promote(min_score=0.0)
    assert promoted.promoted_units > 0
    wh.cache.clear()  # the warm cache would shadow the promoted path

    _result, report, trace = wh.db.query_with_report(sql)
    promoted_pages = sum(e.get("pages_read", 0) for e in trace
                         if e.get("op") == "promoted_fetch")
    assert report.rows_served_eager > 0
    assert promoted_pages > 0
    # All page I/O of this metadata-light query is the promoted fetch;
    # a double-fold would report twice this.
    assert report.pages_read == promoted_pages


def test_promoted_parity_between_paths(demo_repo, tmp_path):
    sql = QUERIES[0]

    def promoted_wh(where):
        # Recycler off: it would answer the repeat before the promoted path.
        wh = SeismicWarehouse(demo_repo.root, mode="lazy",
                              storage_path=tmp_path / where,
                              recycler_budget_bytes=0)
        wh.query(sql)
        wh.query(sql)
        wh.promote(min_score=0.0)
        wh.cache.clear()  # force the next run onto the promoted path
        return wh

    mat = _materialized(promoted_wh("a"), sql)
    stream = _streamed(promoted_wh("b"), sql)
    for name in PARITY_COUNTERS:
        assert getattr(mat, name) == getattr(stream, name), f"{name} diverged"
    assert mat.rows_served_eager > 0
