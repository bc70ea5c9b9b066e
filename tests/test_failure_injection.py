"""Failure injection: corrupt files, vanished files, foreign content."""

import logging
import os
import struct

import pytest

from repro.errors import CorruptRecordError, FileMissingError
from repro.etl.metadata import harvest_repository
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
    result = harvest_repository(repo, MSeedAdapter())
    assert len(result.skipped) == 1
    assert len(result.files) == len(mutable_repo.entries) - 1


def test_harvest_strict_raises(mutable_repo):
    from repro.errors import MSeedError

    _corrupt(mutable_repo.entries[0].path)
    repo = Repository(mutable_repo.root)
    with pytest.raises(MSeedError):
        harvest_repository(repo, MSeedAdapter(), strict=True)


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
    result = harvest_repository(repo, MSeedAdapter())
    uri = os.path.relpath(victim.path, mutable_repo.root)
    assert any(skipped_uri == uri for skipped_uri, _err in result.skipped)


def test_oplog_notes_skipped_files(mutable_repo, caplog):
    """A warehouse booted over a torn file says so in the log."""
    _corrupt(mutable_repo.entries[0].path)
    repo = Repository(mutable_repo.root)
    uri = os.path.relpath(mutable_repo.entries[0].path, mutable_repo.root)
    with caplog.at_level(logging.WARNING, logger="repro.etl.metadata"):
        harvest_repository(repo, MSeedAdapter())
    warnings = [r.getMessage() for r in caplog.records
                if r.name == "repro.etl.metadata"
                and r.levelno == logging.WARNING]
    assert len(warnings) == 1
    assert warnings[0].startswith(f"skipping corrupt file {uri}: ")


def _patch_record(path: str, record: int, offset: int, data: bytes) -> None:
    """Overwrite ``data`` at ``offset`` inside the ``record``-th record."""
    with open(path, "r+b") as handle:
        handle.seek(record * 512 + offset)
        handle.write(data)


# One foreign value in a later record: the station field (bytes 8-12) and
# the BTIME year (bytes 20-21) and the rate multiplier (bytes 34-35).
FOREIGN_HEADER_BYTES = {
    "non-ascii-station": (8, b"H\xc9N"),
    "btime-year-0": (20, b"\x00\x00"),
    "rate-multiplier-0": (34, b"\x00\x00"),
}


@pytest.mark.parametrize("case", sorted(FOREIGN_HEADER_BYTES))
def test_foreign_header_byte_skips_the_file(mutable_repo, caplog, case):
    """Such a value used to escape as UnicodeDecodeError, ValueError or
    ZeroDivisionError and abort the whole boot."""
    victim = mutable_repo.entries[0].path
    _patch_record(victim, 2, *FOREIGN_HEADER_BYTES[case])
    uri = os.path.relpath(victim, mutable_repo.root)
    with caplog.at_level(logging.WARNING, logger="repro.etl.metadata"):
        wh = SeismicWarehouse(mutable_repo.root, mode="lazy")
    assert wh.query("SELECT COUNT(*) FROM mseed.files").scalar() == \
        len(mutable_repo.entries) - 1
    assert any(r.getMessage().startswith(f"skipping corrupt file {uri}: ")
               for r in caplog.records if r.name == "repro.etl.metadata")
    with pytest.raises(CorruptRecordError):
        harvest_repository(Repository(mutable_repo.root), MSeedAdapter(),
                           strict=True)


def _empty(path: str) -> None:
    open(path, "wb").close()


def _span_beyond_int64(path: str) -> None:
    # 65 535 samples at 1 / (32768 * 32768) Hz: ~7e19 us, an end time
    # no int64 holds.
    _patch_record(path, 2, 30, struct.pack(">Hhh", 0xFFFF, -0x8000, -0x8000))


def _rate_factor_0(path: str) -> None:
    # Record 2 keeps its samples but loses its sample rate.
    _patch_record(path, 2, 32, struct.pack(">h", 0))


UNREADABLE = {"zero-length": _empty, "span-beyond-int64": _span_beyond_int64,
              "rate-factor-0": _rate_factor_0}


def _samples_without(manifest, victim) -> int:
    return sum(e.n_samples for e in manifest.entries if e is not victim)


@pytest.mark.parametrize("mode", ["lazy", "eager"])
@pytest.mark.parametrize("case", sorted(UNREADABLE))
def test_unreadable_file_skips_only_itself_at_boot(mutable_repo, caplog,
                                                   case, mode):
    """Both used to abort the boot: an empty file with an ExtractionError
    no harvest caught, an overflowing span with a bare OverflowError."""
    victim = mutable_repo.entries[0]
    UNREADABLE[case](victim.path)
    uri = os.path.relpath(victim.path, mutable_repo.root)
    with caplog.at_level(logging.WARNING, logger="repro.etl.metadata"):
        wh = SeismicWarehouse(mutable_repo.root, mode=mode)
    assert any(r.getMessage().startswith(f"skipping corrupt file {uri}: ")
               for r in caplog.records if r.name == "repro.etl.metadata")
    assert wh.query("SELECT COUNT(*) FROM mseed.files").scalar() == \
        len(mutable_repo.entries) - 1
    assert wh.query("SELECT COUNT(*) FROM mseed.dataview").scalar() == \
        _samples_without(mutable_repo, victim)


@pytest.mark.parametrize("case", sorted(UNREADABLE))
def test_unreadable_rewrite_skips_only_itself_at_sync(mutable_repo, caplog,
                                                      case):
    wh = SeismicWarehouse(mutable_repo.root, mode="lazy")
    victim = mutable_repo.entries[0]
    UNREADABLE[case](victim.path)
    stat = os.stat(victim.path)
    os.utime(victim.path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))
    uri = os.path.relpath(victim.path, mutable_repo.root)
    with caplog.at_level(logging.WARNING, logger="repro.etl.refresh"):
        report = wh.sync()
    assert report.removed == [uri]
    assert any(r.getMessage().startswith(f"file {uri} unreadable during sync")
               for r in caplog.records if r.name == "repro.etl.refresh")
    assert wh.query("SELECT COUNT(*) FROM mseed.dataview").scalar() == \
        _samples_without(mutable_repo, victim)


@pytest.mark.parametrize("mode", ["lazy", "eager"])
def test_repeated_sequence_number_skips_only_its_file(mutable_repo, caplog,
                                                      mode):
    """Records numbered 1, 2, 2, 3, ...: the boot used to abort on R's
    primary key (``duplicate primary key in mseed.records``)."""
    victim = mutable_repo.entries[0]
    _patch_record(victim.path, 2, 0, b"000002")
    uri = os.path.relpath(victim.path, mutable_repo.root)
    with caplog.at_level(logging.WARNING, logger="repro.etl.metadata"):
        wh = SeismicWarehouse(mutable_repo.root, mode=mode)
    assert any(r.getMessage() == f"skipping corrupt file {uri}: {uri}: "
               "sequence number 2 repeats"
               for r in caplog.records if r.name == "repro.etl.metadata")
    assert wh.query("SELECT COUNT(*) FROM mseed.files").scalar() == \
        len(mutable_repo.entries) - 1
    assert wh.query("SELECT COUNT(*) FROM mseed.dataview").scalar() == \
        _samples_without(mutable_repo, victim)
    with pytest.raises(CorruptRecordError, match="sequence number 2 repeats"):
        harvest_repository(Repository(mutable_repo.root), MSeedAdapter(),
                           strict=True)


def test_samples_at_rate_factor_0_skip_their_file(mutable_repo, caplog):
    """Such a record used to pass the harvest; the first query needing
    ``sample_time`` then died of a bare ZeroDivisionError."""
    victim = mutable_repo.entries[0]
    _rate_factor_0(victim.path)
    uri = os.path.relpath(victim.path, mutable_repo.root)
    with caplog.at_level(logging.WARNING, logger="repro.etl.metadata"):
        wh = SeismicWarehouse(mutable_repo.root, mode="lazy")
    count, _first = wh.query(
        "SELECT COUNT(*), MIN(D.sample_time) FROM mseed.dataview").first()
    assert count == _samples_without(mutable_repo, victim)
    assert any(r.getMessage().startswith(f"skipping corrupt file {uri}: ")
               and r.getMessage().endswith(" samples at sample-rate factor 0")
               for r in caplog.records if r.name == "repro.etl.metadata")
    with pytest.raises(CorruptRecordError,
                       match="samples at sample-rate factor 0"):
        harvest_repository(Repository(mutable_repo.root), MSeedAdapter(),
                           strict=True)


def test_log_record_at_rate_0_extracts_no_samples(mutable_repo):
    """A log record (no samples, sample-rate factor 0) is legal: its file
    is harvested and extracts without it.  The per-record reference used
    to compute ``1e6 / rate`` before looking at the count."""
    victim = mutable_repo.entries[0]
    with open(victim.path, "rb") as handle:
        handle.seek(2 * 512 + 30)
        (logged,) = struct.unpack(">H", handle.read(2))
    _patch_record(victim.path, 2, 30, struct.pack(">Hh", 0, 0))
    wh = SeismicWarehouse(mutable_repo.root, mode="lazy")
    assert wh.query("SELECT COUNT(*) FROM mseed.files").scalar() == \
        len(mutable_repo.entries)
    count, _first = wh.query(
        "SELECT COUNT(*), MIN(D.sample_time) FROM mseed.dataview").first()
    assert count == sum(e.n_samples for e in mutable_repo.entries) - logged
