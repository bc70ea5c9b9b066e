"""Tests for the eager ETL baseline."""

from repro.seismology.warehouse import SeismicWarehouse


def test_eager_loads_everything_up_front(eager_wh, demo_repo):
    data = eager_wh.db.table("mseed.data")
    assert data.row_count == demo_repo.total_samples
    files = eager_wh.db.table("mseed.files")
    assert files.row_count == len(demo_repo.entries)


def test_eager_report_accounts_bytes(eager_wh, demo_repo):
    # Eager reads every payload byte (headers twice: harvest + extract).
    assert eager_wh.load_report.bytes_read >= demo_repo.total_bytes


def test_eager_queries_read_no_files(eager_wh):
    eager_wh.repo.reset_counters()
    eager_wh.query(
        "SELECT AVG(D.sample_value) FROM mseed.dataview "
        "WHERE F.station = 'ISK'")
    assert eager_wh.repo.reads == 0


def test_eager_data_join_keys_are_consistent(eager_wh):
    # Every D row joins to exactly one R row: the join loses nothing.
    d_count = eager_wh.query("SELECT COUNT(*) FROM mseed.data").scalar()
    joined = eager_wh.query(
        "SELECT COUNT(*) FROM mseed.records AS R, mseed.data AS D "
        "WHERE R.file_location = D.file_location AND R.seq_no = D.seq_no"
    ).scalar()
    assert joined == d_count


def test_eager_sample_counts_match_record_metadata(eager_wh):
    rows = eager_wh.query("""
        SELECT R.file_location, R.seq_no, R.sample_count, COUNT(*) AS actual
        FROM mseed.records AS R, mseed.data AS D
        WHERE R.file_location = D.file_location AND R.seq_no = D.seq_no
        GROUP BY R.file_location, R.seq_no, R.sample_count""").rows()
    assert rows
    for _uri, _seq, declared, actual in rows:
        assert declared == actual


def test_eager_delete_file_data(demo_repo):
    wh = SeismicWarehouse(demo_repo.root, mode="eager")
    uri = wh.repo.list_files()[0].uri
    before = wh.query("SELECT COUNT(*) FROM mseed.data").scalar()
    wh.pipeline.delete_file_data(uri)
    after = wh.query("SELECT COUNT(*) FROM mseed.data").scalar()
    assert after < before
    remaining = wh.query(
        f"SELECT COUNT(*) FROM mseed.data WHERE file_location = '{uri}'"
    ).scalar()
    assert remaining == 0


def test_eager_load_file_data_roundtrip(demo_repo):
    wh = SeismicWarehouse(demo_repo.root, mode="eager")
    uri = wh.repo.list_files()[0].uri
    before = wh.query("SELECT COUNT(*) FROM mseed.data").scalar()
    wh.pipeline.delete_file_data(uri)
    reloaded = wh.pipeline.load_file_data(uri)
    assert reloaded > 0
    assert wh.query("SELECT COUNT(*) FROM mseed.data").scalar() == before


def test_eager_load_appends_data_once(tiny_repo):
    """Counted, not timed: one append of D per load.  Appending per file
    re-concatenated the whole growing column each time (quadratic)."""
    wh = SeismicWarehouse(tiny_repo.root, mode="eager")
    data = wh.db.table("mseed.data")
    assert len(tiny_repo.entries) > 1
    assert data.row_count == tiny_repo.total_samples
    assert data.version == 1
