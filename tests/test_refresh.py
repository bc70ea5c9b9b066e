"""Refresh behaviour: new, modified and removed files (§1, §3.3)."""

import dataclasses
import os
import sys
import threading

import numpy as np
import pytest

from repro.mseed.files import scan_file_headers, write_mseed_file
from repro.mseed.repository import Repository
from repro.seismology.queries import fig1_query1
from repro.seismology.warehouse import SeismicWarehouse
from repro.util.timefmt import from_ymd


def _rewrite_file(entry, offset=1000, keep_mtime=False):
    """Overwrite a manifest entry's file with shifted content.

    The mtime moves forward a second — or, with ``keep_mtime``, is put
    back to what it was (a restored backup, ``rsync -t``)."""
    old = os.stat(entry.path)
    samples = (np.arange(entry.n_samples, dtype=np.int32) % 100) + offset
    write_mseed_file(
        entry.path,
        network=entry.network, station=entry.station,
        location=entry.location, channel=entry.channel,
        start_time_us=entry.start_time_us, sample_rate=entry.sample_rate,
        samples=samples,
    )
    mtime_ns = old.st_mtime_ns if keep_mtime \
        else os.stat(entry.path).st_mtime_ns + 10**9
    os.utime(entry.path, ns=(old.st_atime_ns, mtime_ns))


def test_query_time_staleness_without_sync(mutable_repo):
    """The paper's pure-lazy refresh: no sync call, the cache notices."""
    wh = SeismicWarehouse(mutable_repo.root, mode="lazy",
                          recycler_budget_bytes=0)
    entry = next(e for e in mutable_repo.entries
                 if e.station == "HGN" and e.channel == "BHZ")
    q = ("SELECT MAX(D.sample_value) FROM mseed.dataview "
         "WHERE F.station = 'HGN' AND F.channel = 'BHZ'")
    before = wh.query(q).scalar()
    _rewrite_file(entry, offset=50_000)
    after = wh.query(q).scalar()
    assert after >= 50_000
    assert after != before
    assert wh.cache.stats.stale_drops > 0


def test_sync_picks_up_new_file(mutable_repo):
    wh = SeismicWarehouse(mutable_repo.root, mode="lazy")
    files_before = wh.query("SELECT COUNT(*) FROM mseed.files").scalar()
    new_path = os.path.join(mutable_repo.root, "NL", "HGN",
                            "NL.HGN..BHZ.2010.013.2200.mseed")
    write_mseed_file(
        new_path, network="NL", station="HGN", location="", channel="BHZ",
        start_time_us=from_ymd(2010, 1, 13, 22, 0), sample_rate=40.0,
        samples=np.arange(4000, dtype=np.int32),
    )
    report = wh.sync()
    assert len(report.added) == 1
    assert wh.query("SELECT COUNT(*) FROM mseed.files").scalar() == \
        files_before + 1
    # The new file's data is immediately queryable (lazily).
    count = wh.query(
        "SELECT COUNT(*) FROM mseed.dataview "
        "WHERE R.start_time >= '2010-01-13T00:00:00'").scalar()
    assert count == 4000


def test_sync_updates_modified_file_metadata(mutable_repo):
    wh = SeismicWarehouse(mutable_repo.root, mode="lazy")
    entry = mutable_repo.entries[0]
    uri = os.path.relpath(entry.path, mutable_repo.root)
    _rewrite_file(entry)
    report = wh.sync()
    assert uri in report.updated
    # Record metadata reflects the rewritten file's (different) layout.
    records = wh.query(
        f"SELECT COUNT(*) FROM mseed.records "
        f"WHERE file_location = '{uri}'").scalar()
    assert records == len(scan_file_headers(entry.path))


def test_sync_removes_vanished_file(mutable_repo):
    wh = SeismicWarehouse(mutable_repo.root, mode="lazy")
    entry = mutable_repo.entries[0]
    uri = os.path.relpath(entry.path, mutable_repo.root)
    os.remove(entry.path)
    report = wh.sync()
    assert uri in report.removed
    left = wh.query(
        f"SELECT COUNT(*) FROM mseed.files "
        f"WHERE file_location = '{uri}'").scalar()
    assert left == 0


def test_sync_is_idempotent(mutable_repo):
    wh = SeismicWarehouse(mutable_repo.root, mode="lazy")
    first = wh.sync()
    assert first.changed == 0
    second = wh.sync()
    assert second.changed == 0


def test_eager_refresh_reloads_changed_data(mutable_repo):
    wh = SeismicWarehouse(mutable_repo.root, mode="eager")
    entry = next(e for e in mutable_repo.entries
                 if e.station == "DBN" and e.channel == "BHZ")
    q = ("SELECT MAX(D.sample_value) FROM mseed.dataview "
         "WHERE F.station = 'DBN' AND F.channel = 'BHZ'")
    before = wh.query(q).scalar()
    _rewrite_file(entry, offset=70_000)
    report = wh.sync()
    assert report.samples_reloaded == entry.n_samples
    after = wh.query(q).scalar()
    assert after >= 70_000 and after != before


# ---------------------------------------------------------------------------
# MetadataSync edge cases (scan/harvest races, no-op touches, idempotence)
# ---------------------------------------------------------------------------


class VanishingRepository(Repository):
    """Deletes a target file right after it is listed — the classic live
    archive race between the directory scan and the per-file harvest."""

    def __init__(self, root, vanish_uri):
        super().__init__(root)
        self.vanish_uri = vanish_uri
        self.armed = False

    def list_files(self):
        infos = super().list_files()
        if self.armed:
            os.remove(self.root / self.vanish_uri)
            self.armed = False
        return infos


def test_sync_survives_file_removed_between_scan_and_harvest(mutable_repo):
    """A *new* file that vanishes mid-sync is skipped, not crashed on."""
    repo = Repository(mutable_repo.root)
    wh = SeismicWarehouse(repo, mode="lazy")
    files_before = wh.query("SELECT COUNT(*) FROM mseed.files").scalar()

    new_uri = "NL/HGN/NL.HGN..BHZ.2010.014.2200.mseed"
    new_path = os.path.join(mutable_repo.root, new_uri)
    write_mseed_file(
        new_path, network="NL", station="HGN", location="", channel="BHZ",
        start_time_us=from_ymd(2010, 1, 14, 22, 0), sample_rate=40.0,
        samples=np.arange(2000, dtype=np.int32),
    )
    vanishing = VanishingRepository(mutable_repo.root, new_uri)
    wh.pipeline.repo = vanishing  # the sync lists through this repo
    vanishing.armed = True
    report = wh.sync()
    assert new_uri not in report.added
    assert wh.query("SELECT COUNT(*) FROM mseed.files").scalar() == \
        files_before
    # Once the race is over, a later sync converges (file is simply gone).
    assert wh.sync().changed == 0


def test_sync_survives_updated_file_removed_between_scan_and_harvest(
        mutable_repo):
    """An *updated* file that vanishes mid-sync degrades to a removal."""
    repo = Repository(mutable_repo.root)
    wh = SeismicWarehouse(repo, mode="lazy")
    entry = mutable_repo.entries[0]
    uri = os.path.relpath(entry.path, mutable_repo.root)
    _rewrite_file(entry)  # make the file look updated to the sync

    vanishing = VanishingRepository(mutable_repo.root, uri)
    wh.pipeline.repo = vanishing
    vanishing.armed = True
    report = wh.sync()
    assert uri in report.removed and uri not in report.updated
    assert wh.query(
        f"SELECT COUNT(*) FROM mseed.files WHERE file_location = '{uri}'"
    ).scalar() == 0
    # The record index forgot the file too: queries still run fine.
    assert wh.sync().changed == 0
    wh.query("SELECT COUNT(*) FROM mseed.dataview")


def test_sync_after_touch_with_identical_content(mutable_repo):
    """mtime bumped, bytes identical: metadata converges to the same rows
    and the data answers do not change."""
    wh = SeismicWarehouse(mutable_repo.root, mode="lazy")
    q = ("SELECT MAX(D.sample_value), COUNT(*) FROM mseed.dataview "
         "WHERE F.station = 'HGN' AND F.channel = 'BHZ'")
    before = wh.query(q).rows()
    records_before = wh.query("SELECT COUNT(*) FROM mseed.records").scalar()

    entry = next(e for e in mutable_repo.entries
                 if e.station == "HGN" and e.channel == "BHZ")
    uri = os.path.relpath(entry.path, mutable_repo.root)
    stat = os.stat(entry.path)
    os.utime(entry.path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))

    report = wh.sync()
    assert uri in report.updated  # mtime is the only change signal we have
    assert wh.query("SELECT COUNT(*) FROM mseed.records").scalar() == \
        records_before
    assert wh.query(q).rows() == before
    # No duplicate F rows for the touched file.
    assert wh.query(
        f"SELECT COUNT(*) FROM mseed.files WHERE file_location = '{uri}'"
    ).scalar() == 1


def test_repeated_sync_is_idempotent_after_changes(mutable_repo):
    wh = SeismicWarehouse(mutable_repo.root, mode="lazy")
    entry = mutable_repo.entries[1]
    _rewrite_file(entry)
    os.remove(mutable_repo.entries[2].path)
    first = wh.sync()
    assert first.changed == 2
    files_after = wh.query("SELECT COUNT(*) FROM mseed.files").scalar()
    records_after = wh.query("SELECT COUNT(*) FROM mseed.records").scalar()
    # Converged: further syncs see nothing and change nothing.
    for _ in range(2):
        again = wh.sync()
        assert again.changed == 0
        assert wh.query("SELECT COUNT(*) FROM mseed.files").scalar() == \
            files_after
        assert wh.query("SELECT COUNT(*) FROM mseed.records").scalar() == \
            records_after


def test_recycler_never_serves_stale_results_after_rewrite(mutable_repo):
    """Recycled intermediates pin their source files' mtimes: a warm
    (cache-hit) query admits a live signature, the file changes, and the
    next query must re-extract instead of replaying the cached result."""
    wh = SeismicWarehouse(mutable_repo.root, mode="lazy")  # recycler ON
    q = ("SELECT MAX(D.sample_value) FROM mseed.dataview "
         "WHERE F.station = 'HGN' AND F.channel = 'BHZ'")
    wh.query(q)                  # cold: extracts (epoch bumps mid-query)
    before = wh.query(q).scalar()  # warm: admits a reusable signature
    assert wh.query(q).scalar() == before  # recycler serves the warm repeat
    assert wh.recycler.stats.hits > 0

    entry = next(e for e in mutable_repo.entries
                 if e.station == "HGN" and e.channel == "BHZ")
    _rewrite_file(entry, offset=120_000)
    after = wh.query(q).scalar()
    assert after >= 120_000 and after != before
    assert wh.recycler.stats.stale_drops > 0


# ---------------------------------------------------------------------------
# The freshness ledger: staleness is judged against the version the file's
# *metadata* was harvested from, by whole FileInfo (size + mtime)
# ---------------------------------------------------------------------------

EVERYTHING = "SELECT MAX(D.sample_value), COUNT(*) FROM mseed.dataview"


@pytest.fixture()
def one_file_repo(tmp_path):
    """A repository of one 2-minute file, plus the manifest entry of the
    half-length file the tests below rewrite it to."""
    from repro.mseed.inventory import DEFAULT_INVENTORY
    from repro.mseed.synthesize import RepositorySpec, build_repository

    manifest = build_repository(tmp_path / "repo", RepositorySpec(
        stations=DEFAULT_INVENTORY[:1], channel_codes=("BHZ",),
        files_per_stream=1, file_span_minutes=2, n_events=1))
    (entry,) = manifest.entries
    return manifest, dataclasses.replace(entry,
                                         n_samples=entry.n_samples // 2)


def test_file_rewritten_before_its_first_query_is_noticed(one_file_repo):
    """No cache entry, no promoted unit: nothing derived holds a version
    yet, so only the metadata's own version can tell the file changed."""
    manifest, shorter = one_file_repo
    wh = SeismicWarehouse(manifest.root, mode="lazy", recycler_budget_bytes=0)
    records_before = wh.query("SELECT COUNT(*) FROM mseed.records").scalar()
    _rewrite_file(shorter, offset=50_000)

    assert wh.query(EVERYTHING).rows() == [(50_099, shorter.n_samples)]
    observed = [t for t in wh.last_trace
                if t["op"] == "refresh" and "reason" in t]
    assert len(observed) == 1
    records = wh.query("SELECT COUNT(*) FROM mseed.records").scalar()
    assert records == len(scan_file_headers(shorter.path)) < records_before


@pytest.mark.parametrize("observer", ["query", "recycler_hit", "sync"])
def test_same_mtime_rewrite_is_seen_through_the_size(one_file_repo, observer):
    """A rewrite that keeps the mtime but changes the size must not be
    served stale — by the query path, a recycler hit, or sync()."""
    manifest, shorter = one_file_repo
    wh = SeismicWarehouse(
        manifest.root, mode="lazy",
        recycler_budget_bytes=(1 << 20) if observer == "recycler_hit" else 0)
    if observer != "sync":
        wh.query(EVERYTHING)
        wh.query(EVERYTHING)  # warm repeat: admits a recyclable signature
    before = os.stat(shorter.path)
    _rewrite_file(shorter, offset=50_000, keep_mtime=True)
    after = os.stat(shorter.path)
    assert after.st_mtime_ns == before.st_mtime_ns
    assert after.st_size < before.st_size

    if observer == "sync":
        assert wh.sync().changed == 1
    assert wh.query(EVERYTHING).rows() == [(50_099, shorter.n_samples)]


# ---------------------------------------------------------------------------
# A query racing sync(): the changed file is harvested before its rows go
# ---------------------------------------------------------------------------


def test_query_racing_sync_sees_the_rewritten_file(tmp_path):
    """While sync() harvests a rewritten file, a query still sees that
    file: sync used to delete the file's F/R rows first and insert the new
    ones only at the end, so a query in between lost half the samples."""
    from repro.mseed.inventory import find_station
    from repro.mseed.synthesize import RepositorySpec, build_repository

    manifest = build_repository(tmp_path / "repo", RepositorySpec(
        stations=(find_station("HGN"),), channel_codes=("BHZ",),
        files_per_stream=2, file_span_minutes=10, n_events=1))
    wh = SeismicWarehouse(manifest.root, mode="lazy", recycler_budget_bytes=0)
    count = "SELECT COUNT(*) FROM mseed.dataview WHERE F.station = 'HGN'"
    assert wh.query(count).scalar() == 48_000
    _rewrite_file(manifest.entries[0])

    harvesting, release = threading.Event(), threading.Event()
    harvest_file = wh.adapter.harvest_file

    def held_harvest(repo, info):
        if threading.current_thread() is syncer:
            harvesting.set()
            release.wait(timeout=60)
        return harvest_file(repo, info)

    outcome = {}

    def run_sync():
        try:
            outcome["report"] = wh.sync()
        except Exception as exc:  # surfaced by the assertion below
            outcome["error"] = exc

    wh.adapter.harvest_file = held_harvest
    syncer = threading.Thread(target=run_sync)
    syncer.start()
    try:
        assert harvesting.wait(timeout=60)
        files_during = wh.query("SELECT COUNT(*) FROM mseed.files").scalar()
        count_during = wh.query(count).scalar()
    finally:
        release.set()
        syncer.join(timeout=60)
    assert not syncer.is_alive()
    assert "error" not in outcome
    assert (files_during, count_during) == (2, 48_000)
    # The query's observation reacted to the rewrite first; the sync then
    # found the ledger at that version already and left the file alone.
    assert outcome["report"].changed == 0

    assert wh.query(count).scalar() == 48_000
    assert wh.query("SELECT COUNT(*) FROM mseed.files").scalar() == 2
    for entry in manifest.entries:
        uri = os.path.relpath(entry.path, manifest.root)
        assert wh.query(
            f"SELECT COUNT(*) FROM mseed.records "
            f"WHERE file_location = '{uri}'"
        ).scalar() == len(scan_file_headers(entry.path))


# ---------------------------------------------------------------------------
# A refresh changes each table in one step: queries see the old file or the
# new one, never neither, and a scan never sees columns of two versions
# ---------------------------------------------------------------------------

# Figure-1 Q1 over the one file of ``one_file_repo``: a 2 s window that
# the file holds before and after its rewrite to half the length.
FIG1_ONE_FILE = fig1_query1(station="HGN", channel="BHZ",
                            window_start="2010-01-12T22:00:10.000",
                            window_end="2010-01-12T22:00:12.000")


def _tables(mode):
    """The tables a refresh of one file changes."""
    return ["mseed.files", "mseed.records"] + \
        (["mseed.data"] if mode == "eager" else [])


@pytest.mark.parametrize("mode", ["lazy", "eager"])
def test_every_mutation_of_a_refresh_leaves_the_file_queryable(
        one_file_repo, mode, monkeypatch):
    """After each table mutation ``sync()`` makes, the rewritten file has
    rows in F and R (and D, eager) and Figure-1 Q1 answers over it, with
    its old or its new bytes.  One mutation per table: two version bumps
    for a lazy refresh, three for an eager one."""
    manifest, shorter = one_file_repo
    wh = SeismicWarehouse(manifest.root, mode=mode, recycler_budget_bytes=0)
    (info,) = wh.repo.list_files()
    tables = _tables(mode)
    old = wh.query(FIG1_ONE_FILE).scalar()
    versions = {name: wh.db.table(name).version for name in tables}
    _rewrite_file(shorter, offset=50_000)

    seen = []
    invalidate = wh.db._invalidate_for

    def probe(table):
        invalidate(table)
        rows = tuple(wh.query(f"SELECT COUNT(*) FROM {name} "
                              "WHERE file_location = ?", [info.uri]).scalar()
                     for name in tables)
        seen.append((table.name, rows, wh.query(FIG1_ONE_FILE).scalar()))

    monkeypatch.setattr(wh.db, "_invalidate_for", probe)
    assert wh.sync().updated == [info.uri]
    monkeypatch.undo()

    new = wh.query(FIG1_ONE_FILE).scalar()
    assert new is not None and new != old
    for name, rows, answer in seen:
        assert all(rows), f"after the {name} mutation: rows {rows}"
        assert answer in (old, new), f"after the {name} mutation"
    assert sorted(name for name, _rows, _answer in seen) == sorted(tables)
    assert {name: wh.db.table(name).version - versions[name]
            for name in tables} == dict.fromkeys(tables, 1)


def test_a_query_time_refresh_changes_each_table_once(one_file_repo):
    """The refresh a query runs when it observes a rewrite is the same
    swap: one version bump for F and one for R."""
    manifest, shorter = one_file_repo
    wh = SeismicWarehouse(manifest.root, mode="lazy", recycler_budget_bytes=0)
    tables = _tables("lazy")
    versions = {name: wh.db.table(name).version for name in tables}
    _rewrite_file(shorter, offset=50_000)
    answer = wh.query(FIG1_ONE_FILE).scalar()
    assert [t["op"] for t in wh.last_trace].count("refresh") >= 1
    assert answer == SeismicWarehouse(manifest.root, mode="lazy").query(
        FIG1_ONE_FILE).scalar()
    assert {name: wh.db.table(name).version - versions[name]
            for name in tables} == dict.fromkeys(tables, 1)


@pytest.mark.parametrize("mode", ["lazy", "eager"])
def test_a_scan_during_a_refresh_sees_r_at_one_version(
        mutable_repo, mode, monkeypatch):
    """Every ``Column.filter``/``Column.concat`` call a refresh makes first
    scans all of R: the scan sees R before the refresh or after it,
    whole — never columns cut to different rows."""
    from repro.db.column import Column

    wh = SeismicWarehouse(mutable_repo.root, mode=mode,
                          recycler_budget_bytes=0)
    everything = "SELECT * FROM mseed.records"
    before = sorted(wh.query(everything).rows())
    _rewrite_file(mutable_repo.entries[0])

    scans = []
    scanning = threading.local()
    column_filter, column_concat = Column.filter, Column.concat

    def scan():
        if getattr(scanning, "on", False):
            return
        scanning.on = True
        try:
            result = wh.query(everything)
        finally:
            scanning.on = False
        assert len({len(column) for column in result.columns}) == 1
        scans.append(sorted(result.rows()))

    def scanning_filter(self, mask):
        scan()
        return column_filter(self, mask)

    def scanning_concat(parts):
        scan()
        return column_concat(parts)

    monkeypatch.setattr(Column, "filter", scanning_filter)
    monkeypatch.setattr(Column, "concat", staticmethod(scanning_concat))
    assert wh.sync().changed == 1
    monkeypatch.undo()

    after = sorted(wh.query(everything).rows())
    assert after != before
    assert scans
    for index, rows in enumerate(scans):
        assert rows in (before, after), f"scan {index} of {len(scans)}"


def test_a_reader_thread_never_sees_a_refresh_half_done(one_file_repo):
    """A reader scans R while the main thread rewrites the file back and
    forth and syncs, with the interpreter switching threads as often as
    it can: every scan counts the file's records at one of its two
    layouts."""
    manifest, shorter = one_file_repo
    (entry,) = manifest.entries
    wh = SeismicWarehouse(manifest.root, mode="lazy", recycler_budget_bytes=0)
    count = "SELECT COUNT(*), COUNT(DISTINCT seq_no) FROM mseed.records"
    layouts = set()
    for rewritten in (entry, shorter):
        _rewrite_file(rewritten)
        assert wh.sync().changed == 1
        layouts.add(wh.query(count).rows()[0])
    assert len(layouts) == 2

    stop, seen, errors = threading.Event(), [], []

    def read():
        try:
            while not stop.is_set():
                seen.append(wh.query(count).rows()[0])
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    reader = threading.Thread(target=read)
    reader.start()
    try:
        for round_ in range(12):
            _rewrite_file(entry if round_ % 2 == 0 else shorter)
            assert wh.sync().changed == 1
    finally:
        stop.set()
        reader.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not reader.is_alive()
    assert errors == []
    assert seen and set(seen) <= layouts
