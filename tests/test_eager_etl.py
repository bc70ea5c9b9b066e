"""Tests for the eager ETL baseline."""

import os
import shutil

from test_refresh import _rewrite_file

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


def test_eager_sync_reloads_a_rewritten_files_data(mutable_repo):
    """After a rewrite and sync(), D holds exactly the rows a fresh eager
    warehouse loads: the file's new ones, and every other file's."""
    wh = SeismicWarehouse(mutable_repo.root, mode="eager")
    entry = mutable_repo.entries[0]
    uri = os.path.relpath(entry.path, mutable_repo.root)
    rows = ("SELECT seq_no, sample_time, sample_value FROM mseed.data "
            "WHERE file_location = ? ORDER BY seq_no, sample_time")
    before = wh.query(rows, [uri]).rows()
    _rewrite_file(entry, offset=70_000)
    assert wh.sync().updated == [uri]
    after = wh.query(rows, [uri]).rows()
    assert after != before
    fresh = SeismicWarehouse(mutable_repo.root, mode="eager")
    assert after == fresh.query(rows, [uri]).rows()
    count = "SELECT COUNT(*), SUM(sample_value) FROM mseed.data"
    assert wh.query(count).rows() == fresh.query(count).rows()


def test_eager_delete_file_data(mutable_repo):
    """A file removed from the repository loses all its D rows on sync()."""
    wh = SeismicWarehouse(mutable_repo.root, mode="eager")
    entry = mutable_repo.entries[0]
    uri = os.path.relpath(entry.path, mutable_repo.root)
    before = wh.query("SELECT COUNT(*) FROM mseed.data").scalar()
    os.remove(entry.path)
    assert wh.sync().removed == [uri]
    after = wh.query("SELECT COUNT(*) FROM mseed.data").scalar()
    assert after < before
    remaining = wh.query(
        "SELECT COUNT(*) FROM mseed.data WHERE file_location = ?", [uri]
    ).scalar()
    assert remaining == 0


def test_eager_load_file_data_roundtrip(mutable_repo, tmp_path):
    """A file taken away and put back is reloaded: D's count is as before."""
    wh = SeismicWarehouse(mutable_repo.root, mode="eager")
    entry = mutable_repo.entries[0]
    uri = os.path.relpath(entry.path, mutable_repo.root)
    before = wh.query("SELECT COUNT(*) FROM mseed.data").scalar()
    aside = tmp_path / "aside.mseed"
    shutil.move(entry.path, aside)
    assert wh.sync().removed == [uri]
    shutil.move(aside, entry.path)
    report = wh.sync()
    assert report.added == [uri]
    assert report.samples_reloaded > 0
    assert wh.query("SELECT COUNT(*) FROM mseed.data").scalar() == before


def test_eager_load_appends_data_once(tiny_repo):
    """Counted, not timed: one append of D per load.  Appending per file
    re-concatenated the whole growing column each time (quadratic)."""
    wh = SeismicWarehouse(tiny_repo.root, mode="eager")
    data = wh.db.table("mseed.data")
    assert len(tiny_repo.entries) > 1
    assert data.row_count == tiny_repo.total_samples
    assert data.version == 1
