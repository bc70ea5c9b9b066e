"""SeismicWarehouse facade tests across the two modes: lazy and eager."""

import pytest

from repro.errors import ETLError
from repro.etl.mseed_adapter import MSeedAdapter
from repro.mseed.repository import Repository
from repro.seismology import browse
from repro.seismology.queries import fig1_query1
from repro.seismology.warehouse import SeismicWarehouse


def test_unknown_mode_rejected(demo_repo):
    for mode in ("psychic", "external"):
        with pytest.raises(ETLError):
            SeismicWarehouse(demo_repo.root, mode=mode)


def test_load_report_shapes(demo_repo, lazy_wh, eager_wh):
    assert lazy_wh.load_report.strategy.startswith("lazy")
    assert lazy_wh.load_report.samples_loaded == 0
    assert eager_wh.load_report.strategy == "eager"
    assert eager_wh.load_report.samples_loaded == demo_repo.total_samples


class _CountingAdapter(MSeedAdapter):
    """Counts what ``extract`` was asked for and what it returned."""

    def __init__(self) -> None:
        super().__init__()
        self.files: set[str] = set()
        self.calls = 0
        self.samples = 0

    def extract(self, repo, uri, seq_nos, needed):
        extracted = super().extract(repo, uri, seq_nos, needed)
        self.files.add(uri)
        self.calls += 1
        self.samples += extracted.total_rows()
        return extracted


def test_lazy_boot_extracts_nothing_eager_extracts_everything(demo_repo):
    """The paper's initial-loading claim as counted work, not wall time:
    counted by the adapter and the repository, outside the load report."""
    uris = {info.uri for info in Repository(demo_repo.root).list_files()}
    assert len(uris) == len(demo_repo.entries)

    lazy_repo, lazy_adapter = Repository(demo_repo.root), _CountingAdapter()
    SeismicWarehouse(lazy_repo, mode="lazy", adapter=lazy_adapter)
    assert lazy_adapter.calls == 0 and lazy_adapter.samples == 0
    assert lazy_repo.bytes_read < demo_repo.total_bytes / 3  # headers only

    eager_repo, eager_adapter = Repository(demo_repo.root), _CountingAdapter()
    eager = SeismicWarehouse(eager_repo, mode="eager", adapter=eager_adapter)
    assert eager_adapter.files == uris
    assert eager_adapter.samples == demo_repo.total_samples
    assert eager.db.table("mseed.data").row_count == demo_repo.total_samples
    assert eager_repo.bytes_read >= demo_repo.total_bytes


def test_storage_blowup_shape(demo_repo, lazy_wh, eager_wh):
    repo_bytes = lazy_wh.repository_bytes()
    assert repo_bytes == demo_repo.total_bytes
    # Metadata-only warehouse is much smaller than the repository...
    assert lazy_wh.warehouse_bytes() < repo_bytes
    # ...while the eager warehouse blows up several-fold (§4: 'up to 10x').
    assert eager_wh.warehouse_bytes() > 5 * repo_bytes


def test_browse_overview(lazy_wh):
    text = browse.station_overview(lazy_wh)
    assert "HGN" in text and "ISK" in text


def test_browse_time_coverage(lazy_wh):
    coverage = browse.time_coverage(lazy_wh, network="NL")
    assert all(row["network"] == "NL" for row in coverage)
    assert any(row["station"] == "HGN" for row in coverage)
    assert coverage[0]["first"].startswith("2010-01-12")


def test_browse_file_and_record_listing(lazy_wh):
    files = browse.file_listing(lazy_wh, station="ISK", channel="BHE")
    assert len(files) == 2  # two windows per stream in the fixture
    uri = files[0][0]
    records = browse.record_listing(lazy_wh, uri)
    assert records[0][0] == 1  # seq_no starts at 1
    assert len(records) == files[0][1]


def test_browse_binds_its_values(lazy_wh):
    """A quote in a browsed value is data, not SQL."""
    assert browse.file_listing(lazy_wh, station="O'NL") == []
    assert browse.time_coverage(lazy_wh, network="N'L") == []
    assert browse.record_listing(lazy_wh, "NL/HGN/it's.mseed") == []


def test_files_extracted_introspection(lazy_wh):
    lazy_wh.query(fig1_query1())
    touched = lazy_wh.files_extracted_by_last_query()
    assert len(touched) == 1


def test_cache_property_modes(lazy_wh, eager_wh):
    assert lazy_wh.cache is not None
    assert eager_wh.cache is None


def test_repr(lazy_wh):
    assert "lazy" in repr(lazy_wh)
