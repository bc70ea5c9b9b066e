#!/usr/bin/env python3
"""Adaptive lazy→eager promotion: the crossover, closed at runtime.

Builds a small synthetic mSEED repository, opens a lazy warehouse with
storage attached, and runs a skewed workload: one hot stream queried
over and over, the rest barely touched.  The access-heat tracker notices,
``promote()`` materializes the hot records into promoted segments, and
the same query then serves from disk pages instead of re-extracting —
first-query latency stays lazy-grade, steady-state approaches eager.
The promotion state survives a checkpoint: a fresh warehouse answers the
hot query with zero re-extraction.

Run:  python examples/adaptive_promotion.py
"""

import tempfile
import time

from repro import SeismicWarehouse, build_repository
from repro.mseed.synthesize import RepositorySpec


def timed(fn):
    started = time.perf_counter()
    result = fn()
    return (time.perf_counter() - started) * 1e3, result


def main() -> None:
    root = tempfile.mkdtemp(prefix="lazyetl-adaptive-")
    store = tempfile.mkdtemp(prefix="lazyetl-adaptive-store-")
    print(f"1. synthesising an mSEED repository under {root} ...")
    manifest = build_repository(root, RepositorySpec(files_per_stream=2))
    station, channel = sorted({(e.station, e.channel)
                               for e in manifest.entries})[0]

    # A deliberately tiny extraction cache: the regime where pure lazy
    # re-extracts every repeat (and eager loading would have won E7).
    # Recycler budget 0: no recycled intermediate answers the repeats.
    print("\n2. opening a lazy warehouse with storage attached ...")
    warehouse = SeismicWarehouse(root, mode="lazy", storage_path=store,
                                 cache_budget_bytes=64 * 1024,
                                 recycler_budget_bytes=0)
    hot_query = (f"SELECT MIN(D.sample_value), MAX(D.sample_value), "
                 f"COUNT(*) FROM mseed.dataview "
                 f"WHERE F.station = '{station}' AND F.channel = '{channel}'")

    cold_ms, _ = timed(lambda: warehouse.query(hot_query))
    print(f"   cold first query ({station}.{channel}): {cold_ms:.1f} ms "
          "— lazy-grade, nothing was loaded up front")

    print("\n3. the workload keeps hammering the same stream ...")
    for _ in range(3):
        repeat_ms, _ = timed(lambda: warehouse.query(hot_query))
    print(f"   pure-lazy repeat: {repeat_ms:.1f} ms (the tiny cache "
          "thrashes, every repeat re-extracts)")
    print(f"   heat tracker now knows {len(warehouse.heat)} hot units")

    print("\n4. promoting the hot units into eager segments ...")
    report = warehouse.promote(budget_bytes=64 * 1024 * 1024)
    print(f"   promoted {report.promoted_units} units "
          f"({report.disk_bytes:,} bytes on disk; "
          f"{report.from_cache_units} from cache, "
          f"{report.extracted_units} extracted in the background)")

    hot_ms, _ = timed(lambda: warehouse.query(hot_query))
    qr = warehouse.db.last_report
    print(f"   promoted repeat: {hot_ms:.1f} ms — "
          f"{qr.rows_served_eager:,} rows served from {qr.promotions} "
          f"promoted units, {qr.rows_extracted_here} rows re-extracted")
    print(f"   speedup vs pure-lazy repeat: {repeat_ms / hot_ms:.1f}x")

    print("\n5. EXPLAIN shows the promotion state at the rewrite point:")
    plan = warehouse.explain(hot_query)
    lazy_line = next(line for line in plan.splitlines()
                     if "LazyFetch" in line and "promoted_units" in line)
    print(f"   {lazy_line.strip()}")

    print("\n6. checkpoint, then a fresh warehouse (new process) ...")
    warehouse.checkpoint()
    warm = SeismicWarehouse(root, mode="lazy", storage_path=store,
                            cache_budget_bytes=64 * 1024,
                            recycler_budget_bytes=0)
    warm_ms, _ = timed(lambda: warm.query(hot_query))
    wr = warm.db.last_report
    print(f"   warm hot query: {warm_ms:.1f} ms, "
          f"{wr.rows_served_eager:,} rows eager, "
          f"{wr.rows_extracted_here} re-extracted "
          "(promotion survives restarts)")

    print("\n7. under a service, promotion runs continuously in the "
          "background:")
    print("   with warehouse.serve(promote=True, "
          "promote_budget_bytes=...) as svc: ...")


if __name__ == "__main__":
    main()
