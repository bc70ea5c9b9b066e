"""Failure injection: corrupt files, vanished files, foreign content."""

import logging
import os

import pytest

from repro.errors import FileMissingError
from repro.etl.metadata import Granularity, harvest_repository
from repro.etl.mseed_adapter import MSeedAdapter
from repro.mseed.repository import Repository
from repro.seismology.queries import fig1_query2
from repro.seismology.warehouse import SeismicWarehouse


def _corrupt(path: str) -> None:
    with open(path, "r+b") as handle:
        handle.seek(0)
        handle.write(b"\xff" * 64)


def test_harvest_skips_corrupt_files(mutable_repo):
    _corrupt(mutable_repo.entries[0].path)
    repo = Repository(mutable_repo.root)
    result = harvest_repository(repo, MSeedAdapter(), Granularity.RECORD)
    assert len(result.skipped) == 1
    assert len(result.files) == len(mutable_repo.entries) - 1


def test_harvest_strict_raises(mutable_repo):
    from repro.errors import MSeedError

    _corrupt(mutable_repo.entries[0].path)
    repo = Repository(mutable_repo.root)
    with pytest.raises(MSeedError):
        harvest_repository(repo, MSeedAdapter(), Granularity.RECORD,
                           strict=True)


def test_warehouse_boots_over_partially_corrupt_repo(mutable_repo):
    doomed = next(e for e in mutable_repo.entries
                  if e.station == "ISK" and e.channel == "BHZ")
    _corrupt(doomed.path)
    wh = SeismicWarehouse(mutable_repo.root, mode="lazy")
    # The corrupt file is absent from metadata; everything else works.
    assert wh.query(
        "SELECT COUNT(*) FROM mseed.files").scalar() == \
        len(mutable_repo.entries) - 1
    result = wh.query(fig1_query2())
    assert result.row_count >= 1


def test_file_vanishing_between_metadata_and_fetch(mutable_repo):
    wh = SeismicWarehouse(mutable_repo.root, mode="lazy")
    victim = next(e for e in mutable_repo.entries
                  if e.station == "HGN" and e.channel == "BHZ")
    os.remove(victim.path)
    # Metadata still references the file; extraction must surface a clear
    # error rather than a stack of OS noise.
    with pytest.raises(FileMissingError):
        wh.query("SELECT COUNT(*) FROM mseed.dataview "
                 "WHERE F.station = 'HGN' AND F.channel = 'BHZ'")
    # After a sync the warehouse recovers.
    wh.sync()
    count = wh.query("SELECT COUNT(*) FROM mseed.dataview "
                     "WHERE F.station = 'HGN' AND F.channel = 'BHZ'").scalar()
    assert count == sum(
        e.n_samples for e in mutable_repo.entries
        if e.station == "HGN" and e.channel == "BHZ" and e.path != victim.path
    )


def test_truncated_file_mid_repo(mutable_repo):
    victim = mutable_repo.entries[0]
    size = os.path.getsize(victim.path)
    with open(victim.path, "r+b") as handle:
        handle.truncate(size - 100)  # no longer a record multiple
    repo = Repository(mutable_repo.root)
    result = harvest_repository(repo, MSeedAdapter(), Granularity.RECORD)
    uri = os.path.relpath(victim.path, mutable_repo.root)
    assert any(skipped_uri == uri for skipped_uri, _err in result.skipped)


def test_oplog_notes_skipped_files(mutable_repo, caplog):
    """A warehouse booted over a torn file says so in the log."""
    _corrupt(mutable_repo.entries[0].path)
    repo = Repository(mutable_repo.root)
    uri = os.path.relpath(mutable_repo.entries[0].path, mutable_repo.root)
    with caplog.at_level(logging.WARNING, logger="repro.etl.metadata"):
        harvest_repository(repo, MSeedAdapter(), Granularity.RECORD)
    warnings = [r.getMessage() for r in caplog.records
                if r.name == "repro.etl.metadata"
                and r.levelno == logging.WARNING]
    assert len(warnings) == 1
    assert warnings[0].startswith(f"skipping corrupt file {uri}: ")
