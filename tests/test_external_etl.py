"""Tests for the external-table / NoDB-style baseline."""

import pytest

from repro.etl.external import external_table_columns
from repro.etl.mseed_adapter import MSeedAdapter
from repro.seismology.queries import fig1_query1


def test_no_initial_loading(external_wh):
    assert external_wh.load_report.records_loaded == 0
    assert external_wh.load_report.bytes_read == 0
    raw = external_wh.db.table("mseed.raw")
    assert raw.row_count == 0  # the wide table is purely virtual


def test_every_query_scans_everything(external_wh, demo_repo):
    external_wh.repo.reset_counters()
    external_wh.query(fig1_query1())
    first_reads = external_wh.repo.reads
    assert first_reads >= len(demo_repo.entries)
    external_wh.query(fig1_query1())
    assert external_wh.repo.reads >= 2 * first_reads  # no caching at all


def test_scan_counter_advances(external_wh):
    binding = external_wh.pipeline.binding
    before = binding.scans
    external_wh.query("SELECT COUNT(*) FROM mseed.dataview")
    assert binding.scans == before + 1


def test_rows_extracted_reported(external_wh, demo_repo):
    external_wh.query("SELECT COUNT(*) FROM mseed.dataview")
    assert external_wh.db.last_report.rows_extracted == \
        demo_repo.total_samples


def test_external_trace_shows_full_scan(external_wh):
    external_wh.query(fig1_query1())
    ops = [e["op"] for e in external_wh.last_trace]
    assert "external_scan" in ops


def test_wide_table_schema_resolves_collisions():
    adapter = MSeedAdapter()
    columns = external_table_columns(adapter)
    names = [c.name for c in columns]
    assert len(names) == len(set(names))
    # Record attributes win collisions (start_time is the record's).
    assert "start_time" in names and "sample_time" in names


def test_external_binding_has_no_keys(external_wh):
    binding = external_wh.pipeline.binding
    assert binding.key_columns == ()
    assert binding.range_column is None
    with pytest.raises(NotImplementedError):
        binding.fetch({}, [], (None, None), [], {})


def test_external_alias_addressing_matches_lazy(external_wh, lazy_wh):
    sql = ("SELECT F.station, COUNT(*) FROM mseed.dataview "
           "WHERE D.sample_value > 0 AND R.seq_no > 0 "
           "GROUP BY F.station ORDER BY F.station")
    assert external_wh.query(sql).rows() == lazy_wh.query(sql).rows()


def test_external_never_recycles(external_wh):
    """A full scan cannot be pinned (a newly added file is invisible to
    pins), so an external result is never admitted, let alone replayed."""
    sql = "SELECT COUNT(*) FROM mseed.dataview"
    binding = external_wh.pipeline.binding
    before = binding.scans
    first = external_wh.query(sql).scalar()
    second = external_wh.query(sql).scalar()
    assert first == second
    assert binding.scans == before + 2
    assert not any(e.get("op") == "recycler_hit"
                   for e in external_wh.last_trace)
    assert external_wh.recycler.stats.admissions == 0
