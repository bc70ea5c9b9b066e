"""Tests for metadata harvesting and the record index."""

import pytest
from hypothesis import given, strategies as st

from repro.etl.metadata import (
    RecordColumns,
    RecordIndex,
    harvest_repository,
)
from repro.etl.mseed_adapter import MSeedAdapter
from repro.mseed.repository import FileInfo, Repository


@pytest.fixture(scope="module")
def repo(demo_repo):
    return Repository(demo_repo.root)


def test_record_granularity_exact(repo, demo_repo):
    result = harvest_repository(repo, MSeedAdapter())
    assert len(result.files) == len(demo_repo.entries)
    assert len(result.records) == sum(e.n_records for e in demo_repo.entries)
    by_uri = {m.uri: m for m in result.files}
    for entry in demo_repo.entries:
        uri = entry.path.split(str(demo_repo.root) + "/")[-1]
        meta = by_uri[uri]
        assert meta.station == entry.station
        assert meta.start_time_us == entry.start_time_us
        assert meta.n_records == entry.n_records


F = FileInfo("f", size=0, mtime_ns=0)


def _records(*spans):
    """File ``f``'s records from ``(seq_no, start, end)`` triples."""
    seqs, starts, ends = zip(*spans) if spans else ((), (), ())
    return RecordColumns.of_file("f", seq_no=seqs, start_time_us=starts,
                                 end_time_us=ends,
                                 frequency=[40.0] * len(seqs),
                                 sample_count=[10] * len(seqs),
                                 timing_quality=[100] * len(seqs))


def test_index_prune_overlap():
    index = RecordIndex()
    index.replace_file(F, _records((1, 0, 100), (2, 100, 200),
                                   (3, 200, 300)))
    assert index.prune("f", [1, 2, 3], (None, None)) == [1, 2, 3]
    assert index.prune("f", [1, 2, 3], (150, 160)) == [2]
    assert index.prune("f", [1, 2, 3], (None, 50)) == [1]
    assert index.prune("f", [1, 2, 3], (250, None)) == [3]
    # Boundary inclusivity: a record ending exactly at lo survives.
    assert 1 in index.prune("f", [1, 2, 3], (100, 120))


def test_index_prune_unknown_record_kept():
    index = RecordIndex()
    index.replace_file(F, _records((1, 0, 100)))
    assert index.prune("f", [1, 99], (500, 600)) == [99]


def test_index_drop_file():
    index = RecordIndex()
    index.replace_file(F, _records((1, 0, 100)))
    index.drop_file("f")
    assert index.files() == []
    assert index.records("f") is None
    assert len(index.seq_nos("f")) == 0


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
    records = [(i, min(a, b), max(a, b)) for i, (a, b) in enumerate(spans)]
    index.replace_file(F, _records(*records))
    kept = set(index.prune("f", [seq for seq, _s, _e in records], (lo, hi)))
    for seq, start, end in records:
        overlaps = end >= lo and start <= hi
        if overlaps:
            assert seq in kept


def test_lazy_boot_decodes_one_header_per_file(tiny_repo, monkeypatch):
    """Counted boot: the batched pass decodes every record header in
    numpy; decode_header runs at most once per file (its first record,
    for the F row), never once per record."""
    import repro.mseed.files as mseed_files
    from repro.seismology.warehouse import SeismicWarehouse

    calls = []
    original = mseed_files.decode_header

    def counting(data):
        calls.append(len(data))
        return original(data)

    monkeypatch.setattr(mseed_files, "decode_header", counting)
    wh = SeismicWarehouse(tiny_repo.root, mode="lazy")
    n_files = len(tiny_repo.entries)
    n_records = sum(e.n_records for e in tiny_repo.entries)
    assert n_records > 2 * n_files
    assert len(calls) <= n_files
    index = wh.pipeline.index
    assert sum(len(index.seq_nos(uri)) for uri in index.files()) == n_records
    assert wh.load_report.bytes_read == n_records * 64


def _index_state(index: RecordIndex) -> dict:
    return {
        uri: (index.version(uri),
              {name: getattr(index.records(uri), name).tolist()
               for name in ("seq_no", "start_time_us", "end_time_us",
                            "frequency", "sample_count", "timing_quality")})
        for uri in index.files()
    }


def test_harvested_index_equals_rebuilt_index(tiny_repo, tmp_path):
    """The index a harvest builds and the one a warm start rebuilds from
    the checkpointed F and R tables agree: spans and versions."""
    from repro.seismology.warehouse import SeismicWarehouse

    store = tmp_path / "store"
    first = SeismicWarehouse(tiny_repo.root, mode="lazy", storage_path=store)
    harvested = _index_state(first.pipeline.index)
    first.checkpoint()
    first.close()
    reopened = SeismicWarehouse(tiny_repo.root, mode="lazy",
                                storage_path=store)
    assert reopened.load_report.strategy.endswith("+warm")
    assert _index_state(reopened.pipeline.index) == harvested
    assert len(harvested) == len(tiny_repo.entries)
