"""Adaptive lazy→eager promotion: heat-fed materialization + demotion."""

import os
import time

import numpy as np
import pytest

from repro.errors import ETLError, ServiceError
from repro.mseed.files import write_mseed_file
from repro.seismology.warehouse import SeismicWarehouse
from repro.service.promoter import Promoter, PromoterConfig

HOT_Q = ("SELECT MIN(D.sample_value), MAX(D.sample_value), COUNT(*) "
         "FROM mseed.dataview WHERE F.station = 'ISK' "
         "AND F.channel = 'BHZ'")
OTHER_Q = ("SELECT MIN(D.sample_value), COUNT(*) FROM mseed.dataview "
           "WHERE F.station = 'HGN' AND F.channel = 'BHE'")


def _rewrite_file(entry, offset=1000):
    samples = (np.arange(entry.n_samples, dtype=np.int32) % 100) + offset
    write_mseed_file(
        entry.path,
        network=entry.network, station=entry.station,
        location=entry.location, channel=entry.channel,
        start_time_us=entry.start_time_us, sample_rate=entry.sample_rate,
        samples=samples,
    )
    stat = os.stat(entry.path)
    os.utime(entry.path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))


@pytest.fixture()
def stored_wh(demo_repo, tmp_path):
    """Lazy warehouse with storage attached and the recycler off (the
    recycler would serve exact repeats before promotion could show)."""
    return SeismicWarehouse(demo_repo.root, mode="lazy",
                            storage_path=tmp_path / "store",
                            recycler_budget_bytes=0)


# -- heat feeding from the query path -----------------------------------------


def test_queries_feed_the_heat_tracker(demo_repo):
    # Recycler off: a recycled repeat never reaches the lazy fetch, so it
    # is no access (see test_station_second_aggregate_reuses_the_recycled_
    # fetch); this test is about the accesses that do reach it.
    wh = SeismicWarehouse(demo_repo.root, mode="lazy",
                          recycler_budget_bytes=0)
    wh.query(HOT_Q)
    assert len(wh.heat) > 0
    units = {(u, s): unit for u, s, _sc, unit in wh.heat.snapshot()}
    assert all(unit.extractions == 1 for unit in units.values())
    wh.query(HOT_Q)  # now served from the extraction cache
    units = {(u, s): unit for u, s, _sc, unit in wh.heat.snapshot()}
    assert any(unit.cache_hits >= 1 for unit in units.values())
    assert all("sample_value" in unit.columns for unit in units.values())


def test_heat_scores_rank_hot_over_cold(demo_repo):
    # Recycler off: with it on, exact repeats are answered from recycled
    # intermediates before the lazy fetch (and its heat feed) ever runs.
    wh = SeismicWarehouse(demo_repo.root, mode="lazy",
                          recycler_budget_bytes=0)
    for _ in range(3):
        wh.query(HOT_Q)
    wh.query(OTHER_Q)
    hottest = wh.heat.hottest(4, min_score=2.0)
    assert hottest, "repeatedly queried units should exceed the threshold"
    assert all("ISK" in uri for uri, _s, _sc, _u in hottest)


# -- the promote() API ---------------------------------------------------------


def test_promote_requires_lazy_mode_and_storage(demo_repo, tmp_path):
    eager = SeismicWarehouse(demo_repo.root, mode="eager")
    with pytest.raises(ETLError, match="lazy mode"):
        eager.promote()
    lazy = SeismicWarehouse(demo_repo.root, mode="lazy")
    with pytest.raises(ETLError, match="storage"):
        lazy.promote()


def test_promotion_serves_subsequent_queries_eagerly(stored_wh):
    before = stored_wh.query(HOT_Q).rows()
    report = stored_wh.promote(budget_bytes=64 * 1024 * 1024, min_score=0.0)
    assert report.promoted_units > 0
    assert len(stored_wh.promoted) == report.promoted_units

    after = stored_wh.query(HOT_Q).rows()
    assert after == before
    qr = stored_wh.db.last_report
    assert qr.rows_served_eager > 0
    assert qr.promotions == report.promoted_units
    assert qr.rows_extracted_here == 0
    assert qr.pages_read > 0  # promoted reads are disk-page I/O


def test_promotion_reuses_extraction_cache_entries(stored_wh):
    stored_wh.query(HOT_Q)  # default budget: everything stays cached
    report = stored_wh.promote(min_score=0.0)
    assert report.from_cache_units == report.promoted_units
    assert report.extracted_units == 0


def test_promoter_extracts_in_background_when_cache_cold(demo_repo,
                                                         tmp_path):
    wh = SeismicWarehouse(demo_repo.root, mode="lazy",
                          storage_path=tmp_path / "store",
                          cache_budget_bytes=64 * 1024,  # thrashes
                          recycler_budget_bytes=0)
    wh.query(HOT_Q)
    report = wh.promote(min_score=0.0)
    assert report.extracted_units > 0
    wh.query(HOT_Q)
    assert wh.db.last_report.rows_served_eager > 0


def test_repromotion_widens_column_set_when_demand_grows(stored_wh):
    """A promoted unit whose workload later needs more columns must be
    re-promoted with the union set, not excluded forever."""
    stored_wh.query(HOT_Q)              # touches sample_value only
    stored_wh.promote(min_score=0.0)
    unit = next(iter(stored_wh.promoted.unit_keys()))
    assert set(stored_wh.promoted.unit(*unit).columns) == {"sample_value"}

    time_q = ("SELECT MIN(D.sample_time), COUNT(*) FROM mseed.dataview "
              "WHERE F.station = 'ISK' AND F.channel = 'BHZ'")
    stored_wh.query(time_q)             # widened demand: sample_time too
    report = stored_wh.promote(min_score=0.0)
    assert report.promoted_units > 0    # not excluded as already-promoted
    assert set(stored_wh.promoted.unit(*unit).columns) == \
        {"sample_value", "sample_time"}
    stored_wh.query(time_q)
    assert stored_wh.db.last_report.rows_served_eager > 0


def test_promote_budget_zero_rejected(stored_wh):
    stored_wh.query(HOT_Q)
    with pytest.raises(ETLError, match="budget_bytes"):
        stored_wh.promote(budget_bytes=0)


def test_second_cycle_promotes_nothing_new(stored_wh):
    stored_wh.query(HOT_Q)
    first = stored_wh.promote(min_score=0.0)
    assert first.promoted_units > 0
    second = stored_wh.promote(min_score=0.0)
    assert second.promoted_units == 0
    assert second.candidates == 0  # already-promoted units are excluded


def test_min_score_threshold_skips_cold_units(stored_wh):
    stored_wh.query(HOT_Q)  # touched once: score ~1
    report = stored_wh.promote(min_score=1.5)
    assert report.promoted_units == 0
    for _ in range(2):
        stored_wh.query(HOT_Q)
    report = stored_wh.promote(min_score=1.5)
    assert report.promoted_units > 0


def test_explain_shows_promotion_state(stored_wh):
    assert "promoted_units" not in stored_wh.explain(HOT_Q)
    stored_wh.query(HOT_Q)
    stored_wh.promote(min_score=0.0)
    plan = stored_wh.explain(HOT_Q)
    assert f"promoted_units={len(stored_wh.promoted)}" in plan


def test_report_fields_through_cursor(stored_wh):
    stored_wh.query(HOT_Q)
    stored_wh.promote(min_score=0.0)
    cur = stored_wh.connect().cursor()
    cur.execute(HOT_Q)
    cur.fetchall()
    assert cur.report.rows_served_eager > 0
    assert cur.report.promotions > 0


# -- demotion -------------------------------------------------------------------


def test_demotion_reclaims_cold_segments(stored_wh):
    stored_wh.query(HOT_Q)
    stored_wh.query(OTHER_Q)
    report = stored_wh.promote(budget_bytes=64 * 1024 * 1024, min_score=0.0)
    assert report.promoted_units > 0
    assert stored_wh.promoted.disk_bytes() > 0

    # A follow-up cycle with a 1-byte budget demotes everything.
    squeezed = stored_wh.promote(budget_bytes=1)
    assert squeezed.demoted_units > 0
    assert len(stored_wh.promoted) == 0
    assert stored_wh.promoted.disk_bytes() == 0

    # Queries still answer correctly, back on the lazy path.
    result = stored_wh.query(HOT_Q)
    assert result.row_count == 1
    assert stored_wh.db.last_report.rows_served_eager == 0


def test_demotion_prefers_the_coldest_segment(stored_wh):
    for _ in range(4):
        stored_wh.query(HOT_Q)      # hot
    stored_wh.query(OTHER_Q)        # cold
    stored_wh.promote(min_score=0.0)             # both in (separate per-file units)
    hot_keys = {key for key in stored_wh.promoted.unit_keys()
                if "ISK" in key[0]}
    assert hot_keys

    # Shrink to just below the total: the cold segment goes first.
    total = stored_wh.promoted.disk_bytes()
    stored_wh.promote(budget_bytes=total - 1)
    remaining = stored_wh.promoted.unit_keys()
    if remaining:  # demotion is segment-grained; hot units must survive
        assert hot_keys <= remaining


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
    # The next cycle garbage-collects the emptied segments.
    wh.promote(min_score=0.0)
    assert wh.query(q).scalar() == after


def test_sync_runs_the_whole_stale_reaction(mutable_repo, tmp_path,
                                            monkeypatch):
    """sync() seeing a rewrite (or a removal) first is the same one
    reaction: promoted units and heat of the file go with its cache
    entries, and the next query has nothing left to rediscover."""
    from repro.etl.lazy import LazyETL

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
                [row for row in wh.heat.snapshot() if row[0] in uris])

    units, heat = derived()
    assert units and heat

    harvested = []
    harvest_single = LazyETL.harvest_single
    monkeypatch.setattr(
        LazyETL, "harvest_single",
        lambda self, info: (harvested.append(info.uri),
                            harvest_single(self, info))[1])
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
    """A file deleted under hot units costs the promoter that file only:
    it is skipped with its heat forgotten, and the rest still promote."""
    wh = SeismicWarehouse(mutable_repo.root, mode="lazy",
                          storage_path=tmp_path / "store",
                          recycler_budget_bytes=0)
    wh.query("SELECT MAX(D.sample_value) FROM mseed.dataview "
             "WHERE F.station IN ('HGN', 'DBN') AND F.channel = 'BHZ'")
    hot = [e for e in mutable_repo.entries
           if e.station in ("HGN", "DBN") and e.channel == "BHZ"]
    assert len(hot) == 4
    gone = os.path.relpath(hot[0].path, mutable_repo.root)
    os.remove(hot[0].path)

    report = wh.promote(min_score=0.0, max_units=10**6)
    assert report.skipped_files == 1
    assert not [row for row in wh.heat.snapshot() if row[0] == gone]
    promoted_files = {uri for uri, _seq in wh.promoted.unit_keys()}
    assert promoted_files == {os.path.relpath(e.path, mutable_repo.root)
                              for e in hot[1:]}


def test_promoter_observing_staleness_still_triggers_refresh(mutable_repo,
                                                             tmp_path):
    """When the *promoter* is the first to observe a rewrite, it runs
    the full stale reaction (metadata refresh included) like any other
    observer — otherwise the next query extracts against the stale
    record index and fails on vanished records."""
    wh = SeismicWarehouse(mutable_repo.root, mode="lazy",
                          storage_path=tmp_path / "store",
                          recycler_budget_bytes=0)
    q = ("SELECT MAX(D.sample_value), COUNT(*) FROM mseed.dataview "
         "WHERE F.station = 'HGN' AND F.channel = 'BHZ'")
    wh.query(q)
    wh.promote(min_score=0.0)
    # Widened demand (sample_time) makes the units candidates again, so
    # the next cycle will actually gather — and observe — the files.
    wh.query("SELECT MIN(D.sample_time) FROM mseed.dataview "
             "WHERE F.station = 'HGN' AND F.channel = 'BHZ'")

    # Rewrite with FEWER records: stale seq_nos no longer exist on disk.
    for entry in mutable_repo.entries:
        if entry.station == "HGN" and entry.channel == "BHZ":
            samples = (np.arange(entry.n_samples // 4,
                                 dtype=np.int32) % 50) + 80_000
            write_mseed_file(
                entry.path,
                network=entry.network, station=entry.station,
                location=entry.location, channel=entry.channel,
                start_time_us=entry.start_time_us,
                sample_rate=entry.sample_rate, samples=samples,
            )
            stat = os.stat(entry.path)
            os.utime(entry.path,
                     ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))

    # The promoter sees the staleness first and consumes the signal ...
    report = wh.promote(min_score=0.0)
    assert report.skipped_files > 0
    # ... so it must also have refreshed the metadata: the next query
    # works against the new layout and sees the new data.
    result = wh.query(q)
    assert result.rows()[0][0] >= 80_000
    assert wh.db.last_report.rows_served_eager == 0  # old units are gone


# -- persistence (checkpoint → warm start) --------------------------------------


def test_promotion_survives_warm_start_with_zero_reextraction(
        demo_repo, tmp_path):
    store = tmp_path / "store"
    wh = SeismicWarehouse(demo_repo.root, mode="lazy", storage_path=store,
                          cache_budget_bytes=64 * 1024,
                          recycler_budget_bytes=0)
    baseline = wh.query(HOT_Q).rows()
    wh.query(HOT_Q)
    promoted = wh.promote(min_score=0.0)
    assert promoted.promoted_units > 0
    heat_units = len(wh.heat)
    wh.checkpoint()

    warm = SeismicWarehouse(demo_repo.root, mode="lazy", storage_path=store,
                            cache_budget_bytes=64 * 1024,
                            recycler_budget_bytes=0)
    assert len(warm.promoted) == promoted.promoted_units
    assert len(warm.heat) == heat_units  # tracker state restored
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
    q = ("SELECT MAX(D.sample_value), COUNT(*) FROM mseed.dataview "
         "WHERE F.station = 'HGN' AND F.channel = 'BHZ'")
    wh.query(q)
    wh.promote(min_score=0.0)
    wh.checkpoint()

    # Process "down": rewrite the hot files with FEWER records.
    for entry in mutable_repo.entries:
        if entry.station == "HGN" and entry.channel == "BHZ":
            samples = (np.arange(entry.n_samples // 4,
                                 dtype=np.int32) % 50) + 60_000
            write_mseed_file(
                entry.path,
                network=entry.network, station=entry.station,
                location=entry.location, channel=entry.channel,
                start_time_us=entry.start_time_us,
                sample_rate=entry.sample_rate, samples=samples,
            )
            stat = os.stat(entry.path)
            os.utime(entry.path,
                     ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))

    warm = SeismicWarehouse(mutable_repo.root, mode="lazy",
                            storage_path=store, recycler_budget_bytes=0)
    result = warm.query(q)  # must refresh metadata, not crash
    assert result.rows()[0][0] >= 60_000
    assert warm.db.last_report.rows_served_eager == 0


def test_stale_promoted_units_in_the_manifest_are_not_mounted(mutable_repo,
                                                             tmp_path):
    """Invalidation is in-memory until the promoter's GC, so a checkpoint
    taken after an observed rewrite still lists the old units beside a
    files table that carries the new version: a reopened warehouse must
    not serve them."""
    import json

    store = tmp_path / "store"
    wh = SeismicWarehouse(mutable_repo.root, mode="lazy",
                          storage_path=store, recycler_budget_bytes=0)
    q = ("SELECT MAX(D.sample_value), COUNT(*) FROM mseed.dataview "
         "WHERE F.station = 'HGN' AND F.channel = 'BHZ'")
    wh.query(q)
    promoted_units = wh.promote(min_score=0.0).promoted_units
    for entry in mutable_repo.entries:
        if entry.station == "HGN" and entry.channel == "BHZ":
            _rewrite_file(entry, offset=60_000)
    fresh = wh.query(q).rows()  # observes the rewrite
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
    assert warm.query(q).rows() == fresh
    ops = [t["op"] for t in warm.last_trace]
    assert "extract" in ops
    assert "promoted_fetch" not in ops and "refresh" not in ops


# -- the background promoter (service ownership) --------------------------------


def test_service_background_promoter(stored_wh):
    with stored_wh.serve(max_workers=2, promote=True,
                         promote_interval_s=0.05,
                         promote_min_score=1.5) as svc:
        session = svc.session("hot-client")
        for _ in range(4):
            session.query(HOT_Q)
        svc.promoter.kick()
        deadline = 100
        while len(stored_wh.promoted) == 0 and deadline:
            svc.promoter.kick()
            time.sleep(0.02)
            deadline -= 1
        assert len(stored_wh.promoted) > 0
        outcome = session.query(HOT_Q)
        assert outcome.report.rows_served_eager > 0
        assert svc.promoter.errors == 0
    # close() stopped the thread
    assert not svc.promoter._thread.is_alive()


def test_service_promote_requires_storage(lazy_wh):
    with pytest.raises(ServiceError, match="storage"):
        lazy_wh.serve(promote=True)


def test_service_promote_requires_lazy_mode(eager_wh):
    with pytest.raises(ServiceError, match="lazy"):
        eager_wh.serve(promote=True)


def test_promoter_config_validation(stored_wh):
    with pytest.raises(ETLError, match="budget_bytes"):
        PromoterConfig(budget_bytes=0)
    with pytest.raises(ETLError, match="max_units_per_cycle"):
        PromoterConfig(max_units_per_cycle=0)
    with pytest.raises(ETLError, match="storage"):
        Promoter(stored_wh.pipeline.binding, stored_wh.heat, None)
