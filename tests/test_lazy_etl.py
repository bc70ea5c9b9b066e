"""Behavioural tests for the lazy pipeline: §3.1-§3.3 step by step."""

from repro.seismology.queries import fig1_query1
from repro.seismology.warehouse import SeismicWarehouse


def test_initial_load_fills_only_metadata(lazy_wh, demo_repo):
    files = lazy_wh.query("SELECT COUNT(*) FROM mseed.files").scalar()
    records = lazy_wh.query("SELECT COUNT(*) FROM mseed.records").scalar()
    assert files == len(demo_repo.entries)
    assert records == sum(e.n_records for e in demo_repo.entries)
    # The actual-data table is virtual: zero stored rows.
    assert lazy_wh.db.table("mseed.data").row_count == 0
    assert lazy_wh.load_report.samples_loaded == 0


def test_metadata_only_load_is_much_cheaper_than_repo(lazy_wh, demo_repo):
    # Initial loading read at most the headers: far less than the repo size.
    assert lazy_wh.load_report.bytes_read < demo_repo.total_bytes / 3


def test_query_extracts_only_matching_files(lazy_wh):
    lazy_wh.query(fig1_query1())
    touched = lazy_wh.files_extracted_by_last_query()
    assert len(touched) == 1
    assert "ISK" in touched[0] and "BHE" in touched[0]


def test_trace_shows_rewrite_prune_extract(lazy_wh):
    lazy_wh.query(fig1_query1())
    ops = [entry["op"] for entry in lazy_wh.last_trace]
    assert "rewrite" in ops
    assert "extract" in ops
    assert "prune" in ops  # the 2-second window prunes most records
    rendered = lazy_wh.render_last_trace()
    assert "extract" in rendered


def test_time_bound_pruning_limits_extraction(lazy_wh):
    lazy_wh.query(fig1_query1())
    # 2 seconds at 40 Hz live in a single 512-byte record (plus a possible
    # boundary neighbour): extraction must be a handful of records, not
    # the ~47 records of the file.
    extract_ops = [e for e in lazy_wh.last_trace if e["op"] == "extract"]
    assert sum(e["records"] for e in extract_ops) <= 3


def test_second_query_hits_cache_without_file_reads(demo_repo):
    wh = SeismicWarehouse(demo_repo.root, mode="lazy",
                          recycler_budget_bytes=0)
    wh.query(fig1_query1())
    wh.repo.reset_counters()
    wh.query(fig1_query1())
    assert wh.repo.reads == 0  # §3.1 best case: no ETL at all
    ops = [e["op"] for e in wh.last_trace]
    assert "cache_fetch" in ops and "extract" not in ops


def test_overlapping_query_reuses_partial_cache(demo_repo):
    wh = SeismicWarehouse(demo_repo.root, mode="lazy",
                          recycler_budget_bytes=0)
    wh.query(fig1_query1(window_start="2010-01-12T22:15:00.000",
                         window_end="2010-01-12T22:15:02.000"))
    baseline_hits = wh.cache.stats.hits
    # A wider window over the same stream reuses the cached records and
    # extracts only the difference.
    wh.query(fig1_query1(window_start="2010-01-12T22:15:00.000",
                         window_end="2010-01-12T22:15:10.000"))
    assert wh.cache.stats.hits > baseline_hits
    extract_ops = [e for e in wh.last_trace if e["op"] == "extract"]
    cache_ops = [e for e in wh.last_trace if e["op"] == "cache_fetch"]
    assert cache_ops, "expected partial cache reuse"
    assert extract_ops, "expected the window difference to be extracted"


def test_metadata_browsing_reads_no_payload(lazy_wh):
    lazy_wh.repo.reset_counters()
    lazy_wh.query(
        "SELECT network, station, COUNT(*) FROM mseed.files "
        "GROUP BY network, station")
    assert lazy_wh.repo.reads == 0


def test_worst_case_full_scan(lazy_wh, demo_repo):
    total = lazy_wh.query("SELECT COUNT(*) FROM mseed.data").scalar()
    assert total == demo_repo.total_samples


def test_oplog_records_lazy_steps(lazy_wh, demo_repo):
    """Each lazy step leaves its record where it belongs: the harvest in
    the load report, the extraction in the query's trace, the query in
    ``sys.queries``."""
    assert lazy_wh.load_report.files_opened == len(demo_repo.entries)
    lazy_wh.query(fig1_query1())
    assert any(e["op"] == "extract" for e in lazy_wh.last_trace)
    extracted = lazy_wh.db.last_report.rows_extracted
    assert extracted > 0
    rows = lazy_wh.query(
        "SELECT status, rows_extracted, sql FROM sys.queries "
        "ORDER BY id").rows()
    assert ("ok", extracted, fig1_query1()) in rows
