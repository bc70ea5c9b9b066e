"""Tests for the file-grain extraction cache (§3.3): one entry per file,
holding one extracted run that grows as the union of its records."""

import numpy as np
import pytest

from repro.errors import CacheInvariantError, ETLError
from repro.etl.cache import ExtractionCache
from repro.etl.framework import ExtractedRecords
from repro.mseed.repository import FileInfo

NAMES = ("sample_time", "sample_value")


def _v(uri, mtime_ns):
    """The version a file was read at (size is irrelevant to the cache)."""
    return FileInfo(uri, 0, mtime_ns)


def _run(uri, seqs, n=10, names=NAMES):
    """A run of ``seqs``, ``n`` rows each; record ``s`` holds values
    ``s * 1000 + row`` so served rows show where they came from."""
    seqs = list(seqs)
    values = np.concatenate([np.empty(0, np.int64)] + [
        seq * 1000 + np.arange(n, dtype=np.int64) for seq in seqs])
    return ExtractedRecords.of_counts(uri, seqs, [n] * len(seqs),
                                      {name: values.copy() for name in names})


def _bytes(run):
    """What one entry holding ``run`` costs: its arrays plus the hits."""
    return (run.seq_nos.nbytes + run.offsets.nbytes + run.seq_nos.nbytes
            + sum(col.nbytes for col in run.columns.values()))


def _seqs(cache, uri):
    """The records the file's entry holds."""
    return cache.held(uri)[1].tolist()


def _wanted(*seqs):
    return np.array(seqs, dtype=np.int64)


def _entry_arrays(cache):
    entries = list(cache._entries.values())
    return [array for entry in entries
            for array in (entry.run.seq_nos, entry.run.offsets, entry.hits,
                          *entry.run.columns.values())]


def test_miss_then_hit():
    cache = ExtractionCache()
    served, missing = cache.get("f1", _wanted(1), ["sample_value"])
    assert served is None and missing.tolist() == [1]
    cache.put("f1", _v("f1", 100), _run("f1", [1]))
    served, missing = cache.get("f1", _wanted(1), ["sample_value"])
    assert list(served.columns) == ["sample_value"]
    assert served.seq_nos.tolist() == [1] and not len(missing)
    assert cache.stats.hits == 1 and cache.stats.misses == 1


def test_get_serves_a_slice_or_one_take():
    cache = ExtractionCache()
    cache.put("f", _v("f", 1), _run("f", [1, 2, 3, 4], n=3))
    entry = cache._entries["f"]
    served, missing = cache.get("f", _wanted(2, 3, 9), ["sample_value"])
    assert missing.tolist() == [9]
    assert served.seq_nos.tolist() == [2, 3]
    assert served.offsets.tolist() == [0, 3, 6]
    # Contiguous records: a view of the entry, no copy.
    assert served.columns["sample_value"].base is \
        entry.run.columns["sample_value"]
    served, _missing = cache.get("f", _wanted(1, 4), ["sample_value"])
    assert served.columns["sample_value"].tolist() == \
        [1000, 1001, 1002, 4000, 4001, 4002]
    assert served.columns["sample_value"].base is None
    assert entry.hits.tolist() == [1, 1, 1, 1]
    assert cache.stats.lookups == 5 and cache.stats.misses == 1


def test_partial_columns_is_miss_then_widen():
    cache = ExtractionCache()
    cache.put("f1", _v("f1", 100), _run("f1", [1], names=("sample_value",)))
    served, missing = cache.get("f1", _wanted(1), ["sample_time"])
    assert served is None and missing.tolist() == [1]
    cache.put("f1", _v("f1", 100), _run("f1", [1]))
    # The widened entry now serves both columns.
    served, _missing = cache.get("f1", _wanted(1), list(NAMES))
    assert sorted(served.columns) == sorted(NAMES)
    assert cache.stats.widenings == 1


def test_a_union_keeps_the_records_and_their_hits():
    cache = ExtractionCache()
    cache.put("f", _v("f", 1), _run("f", [2, 5]))
    cache.get("f", _wanted(5), ["sample_value"])
    assert cache.put("f", _v("f", 1), _run("f", [1, 3, 5]))
    assert _seqs(cache, "f") == [1, 2, 3, 5]
    assert cache._entries["f"].hits.tolist() == [0, 0, 0, 1]
    assert cache.stats.admissions == 5  # the records each put brought
    served, _missing = cache.get("f", _wanted(1, 2, 3, 5), ["sample_value"])
    assert served.columns["sample_value"][::10].tolist() == \
        [1000, 2000, 3000, 5000]
    cache.check_invariants()


def test_put_under_another_version_replaces_the_entry():
    cache = ExtractionCache()
    cache.put("f", _v("f", 1), _run("f", [1, 2]))
    assert cache.put("f", _v("f", 2), _run("f", [7]))
    assert _seqs(cache, "f") == [7]
    assert cache.stats.stale_drops == 2
    cache.check_invariants()


def test_a_narrower_put_is_rejected():
    cache = ExtractionCache()
    cache.put("f", _v("f", 1), _run("f", [1]))
    assert not cache.put("f", _v("f", 1),
                         _run("f", [2], names=("sample_value",)))
    assert _seqs(cache, "f") == [1]
    assert sorted(cache.held("f")[0]) == sorted(NAMES)


def test_staleness_validate_file():
    cache = ExtractionCache()
    cache.put("f1", _v("f1", 100), _run("f1", [1, 2]))
    assert cache.validate_file("f1", _v("f1", 100))  # unchanged
    assert len(cache) == 2
    # newer mtime: stale
    assert not cache.validate_file("f1", _v("f1", 200))
    assert len(cache) == 0
    assert cache.stats.stale_drops == 2
    # Unknown files are trivially valid.
    assert cache.validate_file("ghost", _v("ghost", 5))


def test_lru_eviction_order():
    cache = ExtractionCache(budget_bytes=_bytes(_run("f", [1])) * 2)
    cache.put("f", _v("f", 1), _run("f", [1]))
    cache.put("g", _v("g", 1), _run("g", [1]))
    cache.get("f", _wanted(1), ["sample_value"])  # touch f
    cache.put("h", _v("h", 1), _run("h", [1]))
    assert [uri for uri, *_rest in cache.contents()] == ["f", "h"]
    assert cache.stats.evictions == 1


def test_budget_never_exceeded():
    cache = ExtractionCache(budget_bytes=_bytes(_run("f", [1])) * 3 + 8)
    for seq in range(20):
        cache.put(f"f{seq % 5}", _v(f"f{seq % 5}", 1),
                  _run(f"f{seq % 5}", [seq]))
        assert cache.used_bytes <= cache.budget_bytes


def test_oversized_entry_not_admitted():
    cache = ExtractionCache(budget_bytes=16)
    assert not cache.put("f", _v("f", 1), _run("f", [1], n=1000))
    assert len(cache) == 0 and cache.used_bytes == 0


def test_contents_and_render():
    cache = ExtractionCache()
    cache.put("f1", _v("f1", 1), _run("f1", [1, 2]))
    cache.get("f1", _wanted(1, 2), ["sample_value"])
    cache.get("f1", _wanted(2), ["sample_value"])
    assert cache.contents() == [("f1", 2, cache.used_bytes, 3)]
    assert "f1 records=2" in cache.render()
    assert _seqs(cache, "f1") == [1, 2]
    assert cache.snapshot()["entries"] == 1 and len(cache) == 2


def test_clear():
    cache = ExtractionCache()
    cache.put("f1", _v("f1", 1), _run("f1", [1]))
    cache.clear()
    assert len(cache) == 0 and cache.used_bytes == 0


def test_over_budget_widening_keeps_existing_entry():
    """A widening that exceeds the whole budget is rejected before the
    cached entry is touched."""
    base = _run("f1", [1], names=("sample_value",))
    cache = ExtractionCache(budget_bytes=_bytes(base) + 8)
    assert cache.put("f1", _v("f1", 100), base)
    # rejected: would not fit
    assert not cache.put("f1", _v("f1", 100), _run("f1", [1], n=1000))
    # The original columns must still be served.
    served, _missing = cache.get("f1", _wanted(1), ["sample_value"])
    assert served is not None
    assert cache.used_bytes == _bytes(base)
    assert len(cache) == 1


def test_union_over_budget_is_rejected_and_keeps_the_entry():
    base = _run("f", [1, 2])
    cache = ExtractionCache(budget_bytes=_bytes(base) + 8)
    assert cache.put("f", _v("f", 1), base)
    assert not cache.put("f", _v("f", 1), _run("f", [3]))
    assert _seqs(cache, "f") == [1, 2]
    assert cache.used_bytes == _bytes(base)
    cache.check_invariants()


def test_rejected_widening_counts_no_widening():
    cache = ExtractionCache(budget_bytes=400)
    cache.put("f1", _v("f1", 100), _run("f1", [1], names=("sample_value",)))
    cache.put("f1", _v("f1", 100), _run("f1", [1], n=1000))
    assert cache.stats.widenings == 0


def test_per_uri_index_tracks_all_mutation_paths():
    cache = ExtractionCache(budget_bytes=_bytes(_run("a", [1, 2])) + 8)
    cache.put("a", _v("a", 1), _run("a", [1]))
    cache.put("b", _v("b", 1), _run("b", [2]))
    assert _seqs(cache, "a") == [1]
    assert _seqs(cache, "b") == [2]
    # A union that outgrows the budget evicts the least recent file.
    cache.put("b", _v("b", 1), _run("b", [3]))
    assert _seqs(cache, "a") == []
    assert _seqs(cache, "b") == [2, 3]
    # Invalidation drops exactly that file's entry.
    assert cache.invalidate_file("b") == 2
    assert _seqs(cache, "b") == []
    assert len(cache) == 0
    # Clear drops every entry as well.
    cache.put("c", _v("c", 1), _run("c", [5]))
    cache.clear()
    assert _seqs(cache, "c") == []


# ---------------------------------------------------------------------------
# Invariants and multi-threaded stress (the service shares one cache)
# ---------------------------------------------------------------------------


def test_check_invariants_passes_on_healthy_cache():
    cache = ExtractionCache(budget_bytes=1 << 20)
    for i in range(8):
        cache.put(f"f{i % 3}", _v(f"f{i % 3}", 100), _run(f"f{i % 3}", [i]))
    cache.invalidate_file("f1")
    cache.check_invariants()


def test_check_invariants_detects_corruption():
    cache = ExtractionCache()
    cache.put("f1", _v("f1", 100), _run("f1", [1, 2]))
    cache._bytes += 13  # simulate a bookkeeping bug
    with pytest.raises(CacheInvariantError):
        cache.check_invariants()
    cache._bytes -= 13
    entry = cache._entries["f1"]
    entry.run.seq_nos = entry.run.seq_nos[::-1].copy()  # no longer sorted
    with pytest.raises(CacheInvariantError, match="rectangular"):
        cache.check_invariants()


def test_protected_entries_survive_eviction_pressure():
    cache = ExtractionCache(budget_bytes=_bytes(_run("a", [1])) * 2)
    cache.put("a", _v("a", 1), _run("a", [1]))
    cache.protect("a")
    cache.put("b", _v("b", 1), _run("b", [1]))
    # over budget: must not evict "a"
    cache.put("c", _v("c", 1), _run("c", [1]))
    assert _seqs(cache, "a") == [1]
    cache.check_invariants()  # overcommit is legal while protected
    cache.unprotect("a")   # protection lifted: budget re-enforced
    assert cache.used_bytes <= cache.budget_bytes
    cache.check_invariants()


def test_unprotect_requires_protect():
    cache = ExtractionCache()
    with pytest.raises(ETLError):
        cache.unprotect("nope")


def test_randomized_multithreaded_stress_keeps_invariants():
    """Hammer one cache from many threads with a randomized mix of
    per-file puts (unions, widenings, new versions), lookups,
    protection and invalidation; assert invariants throughout."""
    import random
    import sys
    import threading

    cache = ExtractionCache(budget_bytes=_bytes(_run("f", range(8))) * 3)
    uris = [f"file-{i}.mseed" for i in range(6)]
    errors: list[BaseException] = []
    barrier = threading.Barrier(6)

    def worker(seed: int) -> None:
        rng = random.Random(seed)
        try:
            barrier.wait(timeout=10)
            for step in range(400):
                uri = rng.choice(uris)
                seqs = sorted(rng.sample(range(8), rng.randrange(1, 4)))
                names = rng.choice([NAMES, ("sample_value",)])
                op = rng.random()
                if op < 0.45:
                    cache.put(uri, _v(uri, rng.choice([100, 100, 200])),
                              _run(uri, seqs, n=rng.randrange(4, 40),
                                   names=names))
                elif op < 0.75:
                    served, missing = cache.get(uri, np.array(seqs),
                                                ["sample_value"])
                    got = [] if served is None else served.seq_nos.tolist()
                    assert sorted(got + missing.tolist()) == seqs
                elif op < 0.85:
                    cache.protect(uri)
                    cache.put(uri, _v(uri, 100), _run(uri, seqs))
                    cache.unprotect(uri)
                elif op < 0.93:
                    cache.invalidate_file(uri)
                else:
                    cache.validate_file(
                        uri, _v(uri, rng.choice([100, 200])))
                if step % 50 == 0:
                    cache.check_invariants()
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(seed,))
               for seed in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the threads finely
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors[0]
    cache.check_invariants()
    assert cache.used_bytes <= cache.budget_bytes
    stats = cache.stats
    assert stats.admissions > 0 and stats.lookups > 0
    assert stats.widenings > 0


def test_extracted_records_own_their_memory(tiny_repo):
    """A file is decoded in one batch and admitted as one run.  After an
    admission, a union and a widening alike, ``used_bytes`` is the bytes
    of the entries' arrays and every one of them owns its memory, or
    evicting the entry would free nothing while the counter says it
    did."""
    from repro.etl.mseed_adapter import MSeedAdapter
    from repro.mseed.repository import Repository

    repo = Repository(tiny_repo.root)
    info = repo.list_files()[0]
    adapter = MSeedAdapter()
    every = adapter.extract(repo, info.uri, None, ["sample_value"]).seq_nos
    assert len(every) > 3

    def check(cache):
        arrays = _entry_arrays(cache)
        assert cache.used_bytes == sum(arr.nbytes for arr in arrays)
        for arr in arrays:
            assert arr.base is None and arr.flags.c_contiguous
            assert arr.dtype == np.int64
        cache.check_invariants()

    cache = ExtractionCache()
    # A waiter's slice of a flight's run, admitted as is.
    first = adapter.extract(repo, info.uri, every[:3].tolist(),
                            ["sample_value"]).take(np.array([0, 1]))
    assert first.columns["sample_value"].base is not None
    assert cache.put(info.uri, info, first)           # admission
    check(cache)
    later = adapter.extract(repo, info.uri, every[2:4].tolist(),
                            ["sample_value"])
    assert cache.put(info.uri, info, later)           # union
    check(cache)
    assert _seqs(cache, info.uri) == every[:4].tolist()
    wide = adapter.extract(repo, info.uri, every[:4].tolist(), list(NAMES))
    assert cache.put(info.uri, info, wide)            # widening
    check(cache)
    assert sorted(cache.held(info.uri)[0]) == sorted(NAMES)


def test_second_window_extracts_only_what_the_entry_lacks(demo_repo):
    """Two overlapping time windows on one file: the second extracts
    just the records the file's entry lacks, and the entry becomes the
    union of both windows' records."""
    from repro.seismology.warehouse import SeismicWarehouse

    wh = SeismicWarehouse(demo_repo.root, mode="lazy",
                          recycler_budget_bytes=0)
    uri = wh.query("SELECT file_location FROM mseed.files "
                   "ORDER BY file_location LIMIT 1").rows()[0][0]
    spans = wh.query(
        "SELECT seq_no, start_time, end_time FROM mseed.records "
        f"WHERE file_location = '{uri}' ORDER BY seq_no").rows()
    assert len(spans) >= 6

    def window(first, last):
        return ("SELECT COUNT(*), SUM(D.sample_value) FROM mseed.dataview "
                f"WHERE F.file_location = '{uri}' "
                f"AND R.seq_no BETWEEN {spans[first][0]} AND {spans[last][0]}")

    def extracted():
        return [entry["records"] for entry in wh.last_trace
                if entry["op"] == "extract"]

    wh.query(window(0, 3))
    assert extracted() == [4]
    answer = wh.query(window(2, 5)).rows()
    assert extracted() == [2]   # records 2 and 3 came from the cache
    assert _seqs(wh.cache, uri) == [s[0] for s in spans[:6]]
    uncached = SeismicWarehouse(demo_repo.root, mode="lazy",
                                recycler_budget_bytes=0)
    assert answer == uncached.query(window(2, 5)).rows()
    wh.cache.check_invariants()


def test_widening_query_answers_like_an_uncached_warehouse(demo_repo):
    """A query needing a column the file's entry lacks extracts the
    wider column set in one pass, re-taking the entry's records, and
    answers exactly like a warehouse that never cached anything."""
    from repro.seismology.warehouse import SeismicWarehouse

    narrow = ("SELECT MAX(D.sample_value) FROM mseed.dataview "
              "WHERE F.station = 'ISK' AND F.channel = 'BHZ'")
    wide = ("SELECT MIN(D.sample_time), SUM(D.sample_value), COUNT(*) "
            "FROM mseed.dataview WHERE F.station = 'ISK'")
    wh = SeismicWarehouse(demo_repo.root, mode="lazy",
                          recycler_budget_bytes=0)
    wh.query(narrow)
    narrow_uris = {uri for uri, *_rest in wh.cache.contents()}
    answer = wh.query(wide).rows()
    uncached = SeismicWarehouse(demo_repo.root, mode="lazy",
                                recycler_budget_bytes=0)
    assert answer == uncached.query(wide).rows()
    assert wh.cache.stats.widenings == len(narrow_uris) > 0
    for uri in narrow_uris:
        assert sorted(wh.cache.held(uri)[0]) == sorted(NAMES)
    # Every record of the wide query is now served from the cache.
    assert wh.query(wide).rows() == answer
    assert not any(entry["op"] == "extract" for entry in wh.last_trace)
    wh.cache.check_invariants()
