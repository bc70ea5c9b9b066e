"""Tests for metadata harvesting and the record index."""

import pytest
from hypothesis import given, strategies as st

from repro.etl.metadata import (
    Granularity,
    RecordIndex,
    RecordMeta,
    WHOLE_FILE_SEQ,
    harvest_repository,
)
from repro.etl.mseed_adapter import MSeedAdapter
from repro.mseed.repository import FileInfo, Repository


@pytest.fixture(scope="module")
def repo(demo_repo):
    return Repository(demo_repo.root)


def test_record_granularity_exact(repo, demo_repo):
    result = harvest_repository(repo, MSeedAdapter(), Granularity.RECORD)
    assert len(result.files) == len(demo_repo.entries)
    assert len(result.records) == sum(e.n_records for e in demo_repo.entries)
    by_uri = {m.uri: m for m in result.files}
    for entry in demo_repo.entries:
        uri = entry.path.split(str(demo_repo.root) + "/")[-1]
        meta = by_uri[uri]
        assert meta.station == entry.station
        assert meta.start_time_us == entry.start_time_us
        assert meta.n_records == entry.n_records
        assert meta.exact_span


def test_file_granularity_one_pseudo_record(repo, demo_repo):
    result = harvest_repository(repo, MSeedAdapter(), Granularity.FILE)
    assert len(result.records) == len(demo_repo.entries)
    assert all(r.seq_no == WHOLE_FILE_SEQ for r in result.records)
    assert all(not m.exact_span for m in result.files)


def test_filename_granularity_opens_nothing(repo):
    repo.reset_counters()
    result = harvest_repository(repo, MSeedAdapter(), Granularity.FILENAME)
    assert result.files_opened == 0
    assert repo.bytes_read == 0
    assert all(r.seq_no == WHOLE_FILE_SEQ for r in result.records)


def test_granularity_cost_ordering(repo):
    filename = harvest_repository(repo, MSeedAdapter(), Granularity.FILENAME)
    file_level = harvest_repository(repo, MSeedAdapter(), Granularity.FILE)
    record = harvest_repository(repo, MSeedAdapter(), Granularity.RECORD)
    assert filename.bytes_read <= file_level.bytes_read <= record.bytes_read
    assert record.bytes_read > file_level.bytes_read


F = FileInfo("f", size=0, mtime_ns=0)


def _record(seq, start, end):
    return RecordMeta(uri="f", seq_no=seq, start_time_us=start,
                      end_time_us=end, frequency=40.0, sample_count=10)


def test_index_prune_overlap():
    index = RecordIndex()
    index.replace_file(F, [_record(1, 0, 100), _record(2, 100, 200),
                           _record(3, 200, 300)], exact=True)
    assert index.prune("f", [1, 2, 3], (None, None)) == [1, 2, 3]
    assert index.prune("f", [1, 2, 3], (150, 160)) == [2]
    assert index.prune("f", [1, 2, 3], (None, 50)) == [1]
    assert index.prune("f", [1, 2, 3], (250, None)) == [3]
    # Boundary inclusivity: a record ending exactly at lo survives.
    assert 1 in index.prune("f", [1, 2, 3], (100, 120))


def test_index_prune_inexact_never_drops():
    index = RecordIndex()
    index.replace_file(F, [_record(0, 0, 100)], exact=False)
    assert index.prune("f", [0], (500, 600)) == [0]


def test_index_prune_unknown_record_kept():
    index = RecordIndex()
    index.replace_file(F, [_record(1, 0, 100)], exact=True)
    assert index.prune("f", [1, 99], (500, 600)) == [99]


def test_index_drop_file():
    index = RecordIndex()
    index.replace_file(F, [_record(1, 0, 100)], exact=True)
    index.drop_file("f")
    assert index.files() == []
    assert index.spans("f") == []


@given(
    st.lists(
        st.tuples(st.integers(0, 1000), st.integers(0, 1000)),
        min_size=1, max_size=20,
    ),
    st.integers(0, 1000), st.integers(0, 1000),
)
def test_prune_soundness_property(spans, lo, hi):
    """Pruning never removes a record that overlaps the bounds."""
    lo, hi = min(lo, hi), max(lo, hi)
    index = RecordIndex()
    records = [
        _record(i, min(a, b), max(a, b))
        for i, (a, b) in enumerate(spans)
    ]
    index.replace_file(F, records, exact=True)
    kept = set(index.prune("f", [r.seq_no for r in records], (lo, hi)))
    for record in records:
        overlaps = record.end_time_us >= lo and record.start_time_us <= hi
        if overlaps:
            assert record.seq_no in kept
