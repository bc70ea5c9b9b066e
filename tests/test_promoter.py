"""Promotion from the extraction cache: one synchronous pass that writes
what queries touched (the cache's resident records, ranked by hits and
recency) into promoted segments, checked against unpromoted answers."""

import os

import numpy as np
import pytest

from repro.errors import ETLError
from repro.etl.lazy import LazyETL
from repro.etl.mseed_adapter import MSeedAdapter
from repro.mseed.files import write_mseed_file
from repro.seismology.warehouse import SeismicWarehouse

HOT_Q = ("SELECT MIN(D.sample_value), MAX(D.sample_value), COUNT(*) "
         "FROM mseed.dataview WHERE F.station = 'ISK' "
         "AND F.channel = 'BHZ'")
OTHER_Q = ("SELECT MIN(D.sample_value), COUNT(*) FROM mseed.dataview "
           "WHERE F.station = 'HGN' AND F.channel = 'BHE'")
TIME_Q = ("SELECT MIN(D.sample_time), COUNT(*) FROM mseed.dataview "
          "WHERE F.station = 'ISK' AND F.channel = 'BHZ'")
HGN_BHZ_Q = ("SELECT MAX(D.sample_value), COUNT(*) FROM mseed.dataview "
             "WHERE F.station = 'HGN' AND F.channel = 'BHZ'")


def _per_channel(aggregates):
    return (f"SELECT F.channel, {aggregates} FROM mseed.dataview "
            "WHERE F.station = 'ISK' GROUP BY F.channel ORDER BY F.channel")


def _unpromoted(root, sql):
    """The answer of a warehouse that never promoted anything."""
    return SeismicWarehouse(root, mode="lazy",
                            recycler_budget_bytes=0).query(sql).rows()


def _rewrite_file(entry, offset=1000, records_divisor=1):
    samples = (np.arange(entry.n_samples // records_divisor,
                         dtype=np.int32) % 100) + offset
    write_mseed_file(
        entry.path,
        network=entry.network, station=entry.station,
        location=entry.location, channel=entry.channel,
        start_time_us=entry.start_time_us, sample_rate=entry.sample_rate,
        samples=samples,
    )
    stat = os.stat(entry.path)
    os.utime(entry.path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))


def _resident(wh):
    return {(uri, seq): hits
            for uri, seq, _info, _columns, hits in wh.cache.resident()}


def _counting_harvests(monkeypatch):
    harvested = []
    harvest_single = LazyETL.harvest_single
    monkeypatch.setattr(
        LazyETL, "harvest_single",
        lambda self, info: (harvested.append(info.uri),
                            harvest_single(self, info))[1])
    return harvested


@pytest.fixture()
def stored_wh(demo_repo, tmp_path):
    """Lazy warehouse with storage attached and the recycler off (the
    recycler would serve exact repeats before promotion could show)."""
    return SeismicWarehouse(demo_repo.root, mode="lazy",
                            storage_path=tmp_path / "store",
                            recycler_budget_bytes=0)


# -- what the cache records -----------------------------------------------------


def test_queries_count_cache_hits(demo_repo):
    # Recycler off: a recycled repeat never reaches the lazy fetch, so it
    # is no access (see test_station_second_aggregate_reuses_the_recycled_
    # fetch); this test is about the accesses that do reach it.
    wh = SeismicWarehouse(demo_repo.root, mode="lazy",
                          recycler_budget_bytes=0)
    wh.query(HOT_Q)
    first = _resident(wh)
    assert first and set(first.values()) == {0}  # extracted, not hit
    wh.query(HOT_Q)  # now served from the extraction cache
    assert _resident(wh) == {key: 1 for key in first}
    assert all("sample_value" in columns
               for *_key, columns, _hits in wh.cache.resident())


# -- the promote() API ---------------------------------------------------------


def test_promote_requires_lazy_mode_and_storage(demo_repo, tmp_path):
    eager = SeismicWarehouse(demo_repo.root, mode="eager")
    with pytest.raises(ETLError, match="lazy mode"):
        eager.promote()
    lazy = SeismicWarehouse(demo_repo.root, mode="lazy")
    with pytest.raises(ETLError, match="storage"):
        lazy.promote()
    stored = SeismicWarehouse(demo_repo.root, mode="lazy",
                              storage_path=tmp_path / "store")
    with pytest.raises(ETLError, match="max_units"):
        stored.promote(max_units=0)


def test_promotion_serves_subsequent_queries_eagerly(stored_wh, demo_repo):
    before = stored_wh.query(HOT_Q).rows()
    report = stored_wh.promote(min_score=0.0)
    assert report.promoted_units > 0
    assert len(stored_wh.promoted) == report.promoted_units

    stored_wh.cache.clear()  # the cache serves first while it holds them
    after = stored_wh.query(HOT_Q).rows()
    assert after == before == _unpromoted(demo_repo.root, HOT_Q)
    qr = stored_wh.db.last_report
    assert qr.rows_served_eager > 0
    assert qr.promotions == report.promoted_units
    assert qr.rows_extracted_here == 0
    assert qr.pages_read > 0  # promoted reads are disk-page I/O


def test_resident_records_are_served_from_the_cache_not_promoted_pages(
        stored_wh, demo_repo):
    """Per file, the cache's one lookup comes first: promoted segments
    are read only for the records the cache lacks, so a scan of records
    still resident after promote() reads no page."""
    stored_wh.query(HOT_Q)
    assert stored_wh.promote(min_score=0.0).promoted_units > 0
    assert stored_wh.query(HOT_Q).rows() == _unpromoted(demo_repo.root,
                                                        HOT_Q)
    qr = stored_wh.db.last_report
    assert qr.pages_read == 0 and qr.rows_served_eager == 0
    assert qr.rows_extracted_here == 0
    assert not any(t["op"] == "promoted_fetch" for t in stored_wh.last_trace)


def test_promotion_reuses_extraction_cache_entries(stored_wh):
    stored_wh.query(HOT_Q)
    resident = {(uri, seq): columns
                for uri, seq, _info, columns, _hits
                in stored_wh.cache.resident()}
    report = stored_wh.promote(min_score=0.0)
    assert report.candidates == report.promoted_units == len(resident)
    assert stored_wh.promoted.unit_keys() == set(resident)
    for (uri, seq), columns in resident.items():
        info = stored_wh.pipeline.index.version(uri)
        served, _pages = stored_wh.promoted.fetch(uri, seq, list(columns),
                                                  info)
        assert all(np.array_equal(served[name], columns[name])
                   for name in columns)


def test_promotion_does_no_extraction(demo_repo, tmp_path, monkeypatch):
    """Only what the cache still holds is promoted: a record the cache
    evicted is left to the query path, which extracts it again."""
    wh = SeismicWarehouse(demo_repo.root, mode="lazy",
                          storage_path=tmp_path / "store",
                          # Holds one of the query's two files.
                          cache_budget_bytes=256 * 1024,
                          recycler_budget_bytes=0)
    wh.query(HOT_Q)
    touched = wh.db.last_report.rows_extracted
    resident = set(_resident(wh))

    def no_extraction(*_args, **_kwargs):
        raise AssertionError("promotion extracted")

    with monkeypatch.context() as patch:
        patch.setattr(MSeedAdapter, "extract", no_extraction)
        report = wh.promote(min_score=0.0)
    assert report.promoted_units == len(resident) > 0
    assert wh.promoted.unit_keys() == resident

    wh.cache.clear()
    assert wh.query(HOT_Q).rows() == _unpromoted(demo_repo.root, HOT_Q)
    qr = wh.db.last_report
    assert qr.rows_served_eager > 0
    assert 0 < qr.rows_extracted_here < touched


def test_repromotion_widens_column_set_when_demand_grows(stored_wh,
                                                         demo_repo):
    """A promoted unit whose workload later needs more columns must be
    re-promoted with the union set, not excluded forever."""
    stored_wh.query(HOT_Q)              # touches sample_value only
    stored_wh.promote(min_score=0.0)
    unit = next(iter(stored_wh.promoted.unit_keys()))
    assert set(stored_wh.promoted.unit(*unit).columns) == {"sample_value"}

    stored_wh.query(TIME_Q)             # widened demand: sample_time too
    report = stored_wh.promote(min_score=0.0)
    assert report.promoted_units > 0    # not excluded as already-promoted
    assert set(stored_wh.promoted.unit(*unit).columns) == \
        {"sample_value", "sample_time"}
    stored_wh.cache.clear()
    assert stored_wh.query(TIME_Q).rows() == \
        _unpromoted(demo_repo.root, TIME_Q)
    assert stored_wh.db.last_report.rows_served_eager > 0


def test_repromotion_never_narrows_a_unit(stored_wh, demo_repo):
    """The cache may hold fewer columns of a record than its promoted
    unit (here: none of them).  Re-promoting it reads the unit's other
    columns back from its segment, so both queries stay promoted."""
    stored_wh.query(HOT_Q)              # sample_value
    stored_wh.promote(min_score=0.0)
    stored_wh.cache.clear()
    stored_wh.query(TIME_Q)             # sample_time only in the cache
    report = stored_wh.promote(min_score=0.0)
    assert report.promoted_units == len(stored_wh.promoted) > 0
    for key in stored_wh.promoted.unit_keys():
        assert set(stored_wh.promoted.unit(*key).columns) == \
            {"sample_value", "sample_time"}
    stored_wh.cache.clear()
    for sql in (HOT_Q, TIME_Q):
        assert stored_wh.query(sql).rows() == _unpromoted(demo_repo.root,
                                                          sql)
        qr = stored_wh.db.last_report
        assert qr.rows_served_eager > 0 and qr.rows_extracted_here == 0


def test_second_cycle_promotes_nothing_new(stored_wh):
    stored_wh.query(HOT_Q)
    first = stored_wh.promote(min_score=0.0)
    assert first.promoted_units > 0
    second = stored_wh.promote(min_score=0.0)
    assert second.promoted_units == 0
    assert second.candidates == 0  # already-promoted units are excluded


def test_min_score_threshold_skips_cold_units(stored_wh, demo_repo):
    """``min_score`` is the number of cache hits a record needs."""
    stored_wh.query(HOT_Q)              # extracted: no hit yet
    assert stored_wh.promote().promoted_units == 0  # default: one hit
    stored_wh.query(HOT_Q)              # one hit per record
    assert stored_wh.promote(min_score=2).promoted_units == 0
    report = stored_wh.promote()
    assert report.promoted_units == len(_resident(stored_wh)) > 0
    assert stored_wh.query(HOT_Q).rows() == _unpromoted(demo_repo.root,
                                                        HOT_Q)


def test_max_units_keeps_the_most_hit_records(stored_wh, demo_repo):
    for _ in range(3):
        stored_wh.query(HOT_Q)          # ISK BHZ: two hits per record
    stored_wh.query(OTHER_Q)            # HGN BHE: none, but most recent
    hot = {key for key, hits in _resident(stored_wh).items() if hits == 2}
    assert hot and all("ISK" in uri for uri, _seq in hot)
    report = stored_wh.promote(min_score=0.0, max_units=len(hot))
    assert report.candidates == report.promoted_units == len(hot)
    assert stored_wh.promoted.unit_keys() == hot
    for sql in (HOT_Q, OTHER_Q):
        assert stored_wh.query(sql).rows() == _unpromoted(demo_repo.root,
                                                          sql)


def test_max_units_breaks_hit_ties_by_recency(stored_wh):
    stored_wh.query(HOT_Q)
    stored_wh.query(OTHER_Q)            # as few hits, used more recently
    recent = {key for key in _resident(stored_wh) if "HGN" in key[0]}
    stored_wh.promote(min_score=0.0, max_units=len(recent))
    assert stored_wh.promoted.unit_keys() == recent


def test_explain_shows_promotion_state(stored_wh):
    assert "promoted_units" not in stored_wh.explain(HOT_Q)
    stored_wh.query(HOT_Q)
    stored_wh.promote(min_score=0.0)
    plan = stored_wh.explain(HOT_Q)
    assert f"promoted_units={len(stored_wh.promoted)}" in plan


def test_report_fields_through_cursor(stored_wh):
    stored_wh.query(HOT_Q)
    stored_wh.promote(min_score=0.0)
    stored_wh.cache.clear()
    cur = stored_wh.connect().cursor()
    cur.execute(HOT_Q)
    cur.fetchall()
    assert cur.report.rows_served_eager > 0
    assert cur.report.promotions > 0


# -- staleness ------------------------------------------------------------------


def test_stale_file_invalidates_promoted_units(mutable_repo):
    root = mutable_repo.root
    wh = SeismicWarehouse(root, mode="lazy",
                          storage_path=os.path.join(root, "..", "store"),
                          recycler_budget_bytes=0)
    q = ("SELECT MAX(D.sample_value) FROM mseed.dataview "
         "WHERE F.station = 'HGN' AND F.channel = 'BHZ'")
    before = wh.query(q).scalar()
    wh.promote(min_score=0.0)
    wh.cache.clear()
    assert wh.query(q).scalar() == before
    assert wh.db.last_report.rows_served_eager > 0
    promoted_before = len(wh.promoted)

    for entry in mutable_repo.entries:
        if entry.station == "HGN" and entry.channel == "BHZ":
            _rewrite_file(entry, offset=70_000)
    after = wh.query(q).scalar()
    assert after >= 70_000
    report = wh.db.last_report
    assert report.rows_served_eager == 0  # stale units refused to serve
    assert len(wh.promoted) < promoted_before
    # The next pass garbage-collects the emptied segments.
    wh.promote(min_score=0.0)
    assert wh.query(q).scalar() == after


def test_sync_runs_the_whole_stale_reaction(mutable_repo, tmp_path,
                                            monkeypatch):
    """sync() seeing a rewrite (or a removal) first is the same one
    reaction: promoted units of the file go with its cache entries, and
    the next query has nothing left to rediscover."""
    wh = SeismicWarehouse(mutable_repo.root, mode="lazy",
                          storage_path=tmp_path / "store",
                          recycler_budget_bytes=0)
    q = ("SELECT MAX(D.sample_value) FROM mseed.dataview "
         "WHERE F.station = 'HGN' AND F.channel = 'BHZ'")
    wh.query(q)
    wh.promote(min_score=0.0, max_units=10**6)
    rewritten, removed = [e for e in mutable_repo.entries
                          if e.station == "HGN" and e.channel == "BHZ"]
    uris = {os.path.relpath(e.path, mutable_repo.root)
            for e in (rewritten, removed)}

    def derived():
        return ([key for key in wh.promoted.unit_keys() if key[0] in uris],
                [key for key in _resident(wh) if key[0] in uris])

    units, cached = derived()
    assert units and cached

    harvested = _counting_harvests(monkeypatch)
    _rewrite_file(rewritten, offset=70_000)
    os.remove(removed.path)
    report = wh.sync()
    assert set(report.updated) | set(report.removed) == uris
    assert derived() == ([], [])
    assert len(harvested) == 1

    assert wh.query(q).scalar() >= 70_000
    assert not any(t["op"] == "refresh" for t in wh.last_trace)
    assert len(harvested) == 1  # nothing left for the query to rediscover


def test_vanished_file_is_skipped_not_fatal_to_the_cycle(mutable_repo,
                                                         tmp_path):
    """A file deleted under resident records costs the pass that file
    only: it is skipped, and the rest still promote."""
    wh = SeismicWarehouse(mutable_repo.root, mode="lazy",
                          storage_path=tmp_path / "store",
                          recycler_budget_bytes=0)
    wh.query("SELECT MAX(D.sample_value) FROM mseed.dataview "
             "WHERE F.station IN ('HGN', 'DBN') AND F.channel = 'BHZ'")
    hot = [e for e in mutable_repo.entries
           if e.station in ("HGN", "DBN") and e.channel == "BHZ"]
    assert len(hot) == 4
    os.remove(hot[0].path)

    report = wh.promote(min_score=0.0, max_units=10**6)
    assert report.skipped_files == 1
    promoted_files = {uri for uri, _seq in wh.promoted.unit_keys()}
    assert promoted_files == {os.path.relpath(e.path, mutable_repo.root)
                              for e in hot[1:]}


def test_promoter_observing_staleness_still_triggers_refresh(
        mutable_repo, tmp_path, monkeypatch):
    """A file rewritten between a query and promote() is not promoted,
    and promotion, the first to observe the rewrite, runs the one stale
    reaction (metadata refresh included) exactly once: the next query
    works against the new layout and re-harvests nothing."""
    wh = SeismicWarehouse(mutable_repo.root, mode="lazy",
                          storage_path=tmp_path / "store",
                          recycler_budget_bytes=0)
    wh.query(HGN_BHZ_Q)
    rewritten = [e for e in mutable_repo.entries
                 if e.station == "HGN" and e.channel == "BHZ"]
    uris = {os.path.relpath(e.path, mutable_repo.root) for e in rewritten}
    # Rewrite with FEWER records: stale seq_nos no longer exist on disk.
    for entry in rewritten:
        _rewrite_file(entry, offset=80_000, records_divisor=4)

    harvested = _counting_harvests(monkeypatch)
    report = wh.promote(min_score=0.0)
    assert report.skipped_files == len(uris) == 2
    assert report.promoted_units == 0
    assert sorted(harvested) == sorted(uris)  # one reaction per file
    assert not any(key[0] in uris for key in _resident(wh))

    result = wh.query(HGN_BHZ_Q).rows()
    assert result[0][0] >= 80_000
    assert result == _unpromoted(mutable_repo.root, HGN_BHZ_Q)
    assert not any(t["op"] == "refresh" for t in wh.last_trace)
    assert wh.db.last_report.rows_served_eager == 0
    assert sorted(harvested) == sorted(uris)


# -- persistence (checkpoint → warm start) --------------------------------------


def test_checkpoint_restart_promotes_the_restored_cache(demo_repo,
                                                        tmp_path):
    """Scan a station, checkpoint, reopen: the restored cache answers
    with zero extraction, promotion writes exactly the restored records,
    and a MIN scan then reads them from promoted pages.  The reopened
    warehouse recycles nothing: with the recycler on, the MIN scan would
    be answered from the STDDEV query's recycled lazy fetch."""
    root, store = demo_repo.root, tmp_path / "store"
    stddev, minimum = (_per_channel("STDDEV_SAMP(D.sample_value)"),
                       _per_channel("MIN(D.sample_value)"))
    wh = SeismicWarehouse(root, mode="lazy")
    wh.query(_per_channel("COUNT(*), MIN(D.sample_value), "
                          "MAX(D.sample_value), AVG(D.sample_value)"))
    assert wh.checkpoint(store) > 0
    wh.close()

    reopened = SeismicWarehouse(root, storage_path=store,
                                recycler_budget_bytes=0)
    restored = set(_resident(reopened))
    cursor = reopened.connect().execute(stddev)
    assert cursor.fetchall() == _unpromoted(root, stddev)
    assert cursor.report.rows_extracted_here == 0

    report = reopened.promote(min_score=0.0, max_units=1_000_000)
    assert report.promoted_units == len(restored) > 0
    assert reopened.promoted.unit_keys() == restored

    reopened.cache.clear()  # promoted pages serve what the cache lacks
    cursor = reopened.connect().execute(minimum)
    assert cursor.fetchall() == _unpromoted(root, minimum)
    assert cursor.report.rows_extracted_here == 0
    assert cursor.report.rows_served_eager > 0
    assert cursor.report.pages_read > 0
    reopened.close()


def test_promotion_survives_warm_start_with_zero_reextraction(
        demo_repo, tmp_path):
    store = tmp_path / "store"
    wh = SeismicWarehouse(demo_repo.root, mode="lazy", storage_path=store,
                          recycler_budget_bytes=0)
    baseline = wh.query(HOT_Q).rows()
    wh.query(HOT_Q)
    promoted = wh.promote()
    assert promoted.promoted_units > 0
    # Every resident record is promoted, so the snapshot spills none.
    assert wh.checkpoint() == 0

    warm = SeismicWarehouse(demo_repo.root, mode="lazy", storage_path=store,
                            recycler_budget_bytes=0)
    assert len(warm.promoted) == promoted.promoted_units
    assert warm.query(HOT_Q).rows() == baseline
    report = warm.db.last_report
    assert report.rows_extracted_here == 0
    assert report.rows_served_eager > 0


def test_rewrite_across_restart_of_fully_promoted_file(mutable_repo,
                                                       tmp_path):
    """Fully-promoted files spill no cache entries, so after a warm
    start the promoted store must carry the staleness sentinel: a file
    rewritten with a different record layout while the process was down
    still triggers the metadata refresh (not an ExtractionError against
    the stale index)."""
    store = tmp_path / "store"
    wh = SeismicWarehouse(mutable_repo.root, mode="lazy",
                          storage_path=store, recycler_budget_bytes=0)
    wh.query(HGN_BHZ_Q)
    wh.promote(min_score=0.0)
    wh.checkpoint()

    # Process "down": rewrite the hot files with FEWER records.
    for entry in mutable_repo.entries:
        if entry.station == "HGN" and entry.channel == "BHZ":
            _rewrite_file(entry, offset=60_000, records_divisor=4)

    warm = SeismicWarehouse(mutable_repo.root, mode="lazy",
                            storage_path=store, recycler_budget_bytes=0)
    result = warm.query(HGN_BHZ_Q)  # must refresh metadata, not crash
    assert result.rows()[0][0] >= 60_000
    assert warm.db.last_report.rows_served_eager == 0


def test_stale_promoted_units_in_the_manifest_are_not_mounted(mutable_repo,
                                                             tmp_path):
    """Invalidation is in-memory until the next pass reclaims segments,
    so a checkpoint taken after an observed rewrite still lists the old
    units beside a files table that carries the new version: a reopened
    warehouse must not serve them."""
    import json

    store = tmp_path / "store"
    wh = SeismicWarehouse(mutable_repo.root, mode="lazy",
                          storage_path=store, recycler_budget_bytes=0)
    wh.query(HGN_BHZ_Q)
    promoted_units = wh.promote(min_score=0.0).promoted_units
    for entry in mutable_repo.entries:
        if entry.station == "HGN" and entry.channel == "BHZ":
            _rewrite_file(entry, offset=60_000)
    fresh = wh.query(HGN_BHZ_Q).rows()  # observes the rewrite
    assert fresh[0][0] >= 60_000 and len(wh.promoted) == 0
    wh.cache.clear()            # leave only the stale units to persist
    wh.checkpoint()

    with open(wh.store.manifest_path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    listed = [unit for units in manifest["promoted"].values()
              for unit in units]
    assert len(listed) == promoted_units  # still on disk ...
    # ... in the shape every earlier store has: the version is an mtime.
    for unit in listed:
        assert sorted(unit) == ["columns", "mtime_ns", "rows", "seq_no",
                                "uri"]

    warm = SeismicWarehouse(mutable_repo.root, mode="lazy",
                            storage_path=store, recycler_budget_bytes=0)
    assert len(warm.promoted) == 0
    assert warm.query(HGN_BHZ_Q).rows() == fresh
    ops = [t["op"] for t in warm.last_trace]
    assert "extract" in ops
    assert "promoted_fetch" not in ops and "refresh" not in ops
