#!/usr/bin/env python3
"""Promotion: what queries keep hitting moves from extraction to disk.

Builds a small synthetic mSEED repository, opens a lazy warehouse with
storage attached, and runs a skewed workload: one hot stream queried
over and over.  The extraction cache is the record of what queries
touched — its LRU order and a hit count per record, summed per file in
``sys.extraction_cache``.  ``promote()`` writes the records with cache
hits into promoted segments; while the cache still holds them it serves
them first, and once it no longer does the same query serves from disk
pages instead of the source files.  The promotion survives a
checkpoint: a fresh warehouse answers the hot query with zero
re-extraction.

Run:  python examples/adaptive_promotion.py
"""

import tempfile
import time

from repro import SeismicWarehouse, build_repository
from repro.mseed.synthesize import RepositorySpec


def run(conn, sql):
    """Execute on a fresh cursor; returns (ms, rows, report)."""
    started = time.perf_counter()
    cursor = conn.execute(sql)
    rows = cursor.fetchall()
    return (time.perf_counter() - started) * 1e3, rows, cursor.report


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="lazyetl-promotion-") as root, \
            tempfile.TemporaryDirectory(prefix="lazyetl-store-") as store:
        print(f"1. synthesising an mSEED repository under {root} ...")
        manifest = build_repository(root, RepositorySpec(files_per_stream=2))
        station, channel = sorted({(e.station, e.channel)
                                   for e in manifest.entries})[0]
        hot_query = (f"SELECT MIN(D.sample_value), MAX(D.sample_value), "
                     f"COUNT(*) FROM mseed.dataview "
                     f"WHERE F.station = '{station}' "
                     f"AND F.channel = '{channel}'")

        # The default cache budget holds the hot stream many times over.
        # Recycler budget 0: no recycled intermediate answers the
        # repeats, so each one reaches the extraction cache.
        print("\n2. opening a lazy warehouse with storage attached ...")
        warehouse = SeismicWarehouse(root, mode="lazy", storage_path=store,
                                     recycler_budget_bytes=0)
        conn = warehouse.connect()
        cold_ms, rows, report = run(conn, hot_query)
        print(f"   cold first query ({station}.{channel}): {cold_ms:.1f} ms, "
              f"{report.rows_extracted_here:,} rows extracted -> {rows[0]}")

        print("\n3. the workload keeps hammering the same stream ...")
        for _ in range(3):
            repeat_ms, _rows, report = run(conn, hot_query)
        print(f"   cached repeat: {repeat_ms:.1f} ms, "
              f"{report.rows_extracted_here} rows extracted")
        _ms, stats, _report = run(
            conn, "SELECT COUNT(*), SUM(records), SUM(hits) "
                  "FROM sys.extraction_cache")
        files, records, hits = stats[0]
        print(f"   sys.extraction_cache: {files} files, {records} records, "
              f"{hits} hits")

        print("\n4. promoting the records queries hit ...")
        promotion = warehouse.promote()
        print(f"   promoted {promotion.promoted_units} records "
              f"({promotion.disk_bytes:,} bytes on disk) in "
              f"{promotion.seconds * 1e3:.1f} ms, extracting nothing")

        cached_ms, _rows, report = run(conn, hot_query)
        print(f"   repeat while cached: {cached_ms:.1f} ms, "
              f"{report.pages_read} pages read (the cache answers first)")
        warehouse.cache.clear()
        promoted_ms, promoted_rows, report = run(conn, hot_query)
        assert promoted_rows == rows
        print(f"   promoted repeat, cache cleared: {promoted_ms:.1f} ms — "
              f"{report.rows_served_eager:,} rows served from "
              f"{report.promotions} promoted records, "
              f"{report.pages_read} pages read, "
              f"{report.rows_extracted_here} rows re-extracted")

        print("\n5. EXPLAIN shows the promotion state at the rewrite point:")
        plan = warehouse.explain(hot_query)
        lazy_line = next(line for line in plan.splitlines()
                         if "LazyFetch" in line and "promoted_units" in line)
        print(f"   {lazy_line.strip()}")

        print("\n6. checkpoint, then a fresh warehouse (new process) ...")
        spilled = warehouse.checkpoint()
        warehouse.close()
        print(f"   the cache snapshot holds {spilled} records: every "
              "resident one is promoted already")
        warm = SeismicWarehouse(root, mode="lazy", storage_path=store,
                                recycler_budget_bytes=0)
        warm_ms, warm_rows, report = run(warm.connect(), hot_query)
        assert warm_rows == rows
        print(f"   warm hot query: {warm_ms:.1f} ms, "
              f"{report.rows_served_eager:,} rows from promoted pages, "
              f"{report.rows_extracted_here} re-extracted")
        warm.close()


if __name__ == "__main__":
    main()
