"""Tests for the record-grain extraction cache (§3.3)."""

import numpy as np
import pytest

from repro.errors import ETLError
from repro.etl.cache import ExtractionCache
from repro.mseed.repository import FileInfo


def _v(uri, mtime_ns):
    """The version a file was read at (size is irrelevant to the cache)."""
    return FileInfo(uri, 0, mtime_ns)


def _cols(n=10, names=("sample_time", "sample_value")):
    return {name: np.arange(n, dtype=np.int64) for name in names}


def test_miss_then_hit():
    cache = ExtractionCache()
    assert cache.get("f1", 1, ["sample_value"]) is None
    cache.put("f1", 1, _v("f1", 100), _cols())
    got = cache.get("f1", 1, ["sample_value"])
    assert got is not None
    assert list(got) == ["sample_value"]
    assert cache.stats.hits == 1 and cache.stats.misses == 1


def test_partial_columns_is_miss_then_widen():
    cache = ExtractionCache()
    cache.put("f1", 1, _v("f1", 100), _cols(names=("sample_value",)))
    assert cache.get("f1", 1, ["sample_time"]) is None
    cache.put("f1", 1, _v("f1", 100), _cols(names=("sample_time",)))
    # Widened entry now serves both columns.
    assert cache.get("f1", 1, ["sample_time", "sample_value"]) is not None
    assert cache.stats.widenings == 1


def test_staleness_validate_file():
    cache = ExtractionCache()
    cache.put("f1", 1, info=_v("f1", 100), columns=_cols())
    cache.put("f1", 2, info=_v("f1", 100), columns=_cols())
    assert cache.validate_file("f1", _v("f1", 100))  # unchanged
    assert len(cache) == 2
    # newer mtime: stale
    assert not cache.validate_file("f1", _v("f1", 200))
    assert len(cache) == 0
    assert cache.stats.stale_drops == 2
    # Unknown files are trivially valid.
    assert cache.validate_file("ghost", _v("ghost", 5))


def test_lru_eviction_order():
    entry_bytes = sum(a.nbytes for a in _cols().values())
    cache = ExtractionCache(budget_bytes=entry_bytes * 2)
    cache.put("f", 1, _v("f", 1), _cols())
    cache.put("f", 2, _v("f", 1), _cols())
    cache.get("f", 1, ["sample_value"])  # touch 1
    cache.put("f", 3, _v("f", 1), _cols())
    assert ("f", 2) not in cache
    assert ("f", 1) in cache and ("f", 3) in cache


def test_budget_never_exceeded():
    entry_bytes = sum(a.nbytes for a in _cols().values())
    cache = ExtractionCache(budget_bytes=entry_bytes * 3 + 8)
    for seq in range(20):
        cache.put("f", seq, _v("f", 1), _cols())
        assert cache.used_bytes <= cache.budget_bytes


def test_oversized_entry_not_admitted():
    cache = ExtractionCache(budget_bytes=16)
    assert not cache.put("f", 1, _v("f", 1), _cols(n=1000))
    assert len(cache) == 0


def test_contents_and_render():
    cache = ExtractionCache()
    cache.put("f1", 1, _v("f1", 1), _cols())
    cache.get("f1", 1, ["sample_value"])
    contents = cache.contents()
    assert contents[0][0] == "f1" and contents[0][3] == 1
    assert "f1" in cache.render()
    assert cache.cached_seq_nos("f1") == [1]


def test_clear():
    cache = ExtractionCache()
    cache.put("f1", 1, _v("f1", 1), _cols())
    cache.clear()
    assert len(cache) == 0 and cache.used_bytes == 0


def test_over_budget_widening_keeps_existing_entry():
    """Regression: a widening that exceeds the whole budget used to drop
    the previously cached columns before noticing it was over budget."""
    base = _cols(n=10, names=("sample_value",))
    entry_bytes = sum(a.nbytes for a in base.values())
    cache = ExtractionCache(budget_bytes=entry_bytes + 8)
    assert cache.put("f1", 1, _v("f1", 100), base)
    huge = {"sample_time": np.arange(1000, dtype=np.int64)}
    # rejected: would not fit
    assert not cache.put("f1", 1, _v("f1", 100), huge)
    # The original columns must still be served.
    assert cache.get("f1", 1, ["sample_value"]) is not None
    assert cache.used_bytes == entry_bytes
    assert len(cache) == 1


def test_rejected_widening_counts_no_widening():
    cache = ExtractionCache(budget_bytes=160)
    cache.put("f1", 1, _v("f1", 100), _cols(n=10, names=("sample_value",)))
    cache.put("f1", 1, _v("f1", 100), _cols(n=1000, names=("sample_time",)))
    assert cache.stats.widenings == 0


def test_per_uri_index_tracks_all_mutation_paths():
    entry_bytes = sum(a.nbytes for a in _cols().values())
    cache = ExtractionCache(budget_bytes=entry_bytes * 2)
    cache.put("a", 1, _v("a", 1), _cols())
    cache.put("b", 2, _v("b", 1), _cols())
    assert cache.cached_seq_nos("a") == [1]
    assert cache.cached_seq_nos("b") == [2]
    # Eviction must drop the index entry too.
    cache.put("b", 3, _v("b", 1), _cols())  # evicts ("a", 1) under LRU
    assert cache.cached_seq_nos("a") == []
    assert cache.cached_seq_nos("b") == [2, 3]
    # Invalidation drops exactly that file's entries.
    assert cache.invalidate_file("b") == 2
    assert cache.cached_seq_nos("b") == []
    assert len(cache) == 0
    # Clear resets the index as well.
    cache.put("c", 5, _v("c", 1), _cols())
    cache.clear()
    assert cache.cached_seq_nos("c") == []


# ---------------------------------------------------------------------------
# Invariants and multi-threaded stress (the service shares one cache)
# ---------------------------------------------------------------------------


def test_check_invariants_passes_on_healthy_cache():
    cache = ExtractionCache(budget_bytes=1 << 20)
    for i in range(8):
        cache.put(f"f{i % 3}", i, _v(f"f{i % 3}", 100), _cols())
    cache.invalidate_file("f1")
    cache.check_invariants()


def test_check_invariants_detects_corruption():
    from repro.errors import CacheInvariantError

    cache = ExtractionCache()
    cache.put("f1", 1, _v("f1", 100), _cols())
    cache._bytes += 13  # simulate a bookkeeping bug
    with pytest.raises(CacheInvariantError):
        cache.check_invariants()


def test_protected_entries_survive_eviction_pressure():
    entry_bytes = sum(a.nbytes for a in _cols().values())
    cache = ExtractionCache(budget_bytes=entry_bytes * 2)
    cache.put("a", 1, _v("a", 1), _cols())
    cache.protect("a", 1)
    cache.put("b", 1, _v("b", 1), _cols())
    # over budget: must not evict ("a", 1)
    cache.put("c", 1, _v("c", 1), _cols())
    assert ("a", 1) in cache
    cache.check_invariants()  # overcommit is legal while protected
    cache.unprotect("a", 1)   # protection lifted: budget re-enforced
    assert cache.used_bytes <= cache.budget_bytes
    cache.check_invariants()


def test_unprotect_requires_protect():
    cache = ExtractionCache()
    with pytest.raises(ETLError):
        cache.unprotect("nope", 1)


def test_randomized_multithreaded_stress_keeps_invariants():
    """The satellite stress test: hammer one cache from many threads with
    a randomized mix of every mutation, assert invariants throughout."""
    import random
    import threading

    entry_bytes = sum(a.nbytes for a in _cols().values())
    cache = ExtractionCache(budget_bytes=entry_bytes * 8)
    uris = [f"file-{i}.mseed" for i in range(6)]
    errors: list[BaseException] = []
    barrier = threading.Barrier(6)

    def worker(seed: int) -> None:
        rng = random.Random(seed)
        try:
            barrier.wait(timeout=10)
            for step in range(400):
                uri = rng.choice(uris)
                seq = rng.randrange(8)
                op = rng.random()
                if op < 0.45:
                    cache.put(uri, seq, _v(uri, 100),
                              _cols(n=rng.randrange(4, 40)))
                elif op < 0.75:
                    cache.get(uri, seq, ["sample_value"])
                elif op < 0.85:
                    cache.protect(uri, seq)
                    cache.put(uri, seq, _v(uri, 100), _cols())
                    cache.unprotect(uri, seq)
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
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not errors, errors[0]
    cache.check_invariants()
    assert cache.used_bytes <= cache.budget_bytes
    stats = cache.stats
    assert stats.admissions > 0 and stats.lookups > 0


def test_extracted_records_own_their_memory(tiny_repo):
    """A file is decoded in one batch and cut per record: each cached
    array must own its bytes, or evicting a record would free nothing
    while ``used_bytes`` says it did."""
    from repro.etl.mseed_adapter import MSeedAdapter
    from repro.mseed.repository import Repository

    repo = Repository(tiny_repo.root)
    info = repo.list_files()[0]
    names = ["sample_time", "sample_value"]
    extracted = MSeedAdapter().extract(repo, info.uri, None, names)
    sizes = [sum(arr.nbytes for arr in columns.values())
             for columns in extracted.per_record]
    assert len(sizes) > 1
    # Room for the largest record only: each admission evicts the last.
    cache = ExtractionCache(budget_bytes=max(sizes))
    for seq, columns in zip(extracted.seq_nos, extracted.per_record):
        for arr in columns.values():
            assert arr.base is None and arr.flags.c_contiguous
            assert arr.dtype == np.int64
        cache.put(info.uri, seq, info, columns)
    assert cache.cached_seq_nos(info.uri) == [extracted.seq_nos[-1]]
    kept = cache.get(info.uri, extracted.seq_nos[-1], names)
    assert all(arr.base is None for arr in kept.values())
    assert cache.used_bytes == sum(arr.nbytes for arr in kept.values()) \
        == sizes[-1]
    cache.check_invariants()
