#!/usr/bin/env python3
"""The demonstration scenario (§4) as a console tour.

Walks through the eight numbered capabilities of the paper's GUI
(Figure 2), printing what each panel would show:

 (1) initial loading of only metadata,
 (2) browsing metadata and navigating the data,
 (3) comparing performance against eager ETL,
 (4) observing query plans and their compile-time changes,
 (5) observing which files are lazily extracted,
 (6) observing the plans generated on the fly (run-time rewriting),
 (7) observing the cache contents and lazy updates,
 (8) looking through the log of what ran (``sys.queries``).

Run:  python examples/demo_tour.py
"""

import tempfile
import time

from repro import SeismicWarehouse, build_repository, fig1_query1
from repro.mseed.synthesize import RepositorySpec
from repro.seismology import browse


def banner(number: int, title: str) -> None:
    print(f"\n{'=' * 72}\n({number}) {title}\n{'=' * 72}")


def main() -> None:
    root = tempfile.mkdtemp(prefix="lazyetl-demo-")
    manifest = build_repository(root, RepositorySpec(files_per_stream=2))

    banner(1, "initial loading of only metadata from an mSEED repository")
    started = time.perf_counter()
    wh = SeismicWarehouse(root, mode="lazy")
    elapsed = time.perf_counter() - started
    report = wh.load_report
    print(f"repository: {len(manifest.entries)} files / "
          f"{manifest.total_samples:,} samples")
    print(f"loaded in {elapsed * 1e3:.0f} ms: {report.files_listed} file rows, "
          f"{report.records_loaded} record rows, 0 samples "
          f"({report.bytes_read:,} bytes of headers read)")
    print("the warehouse is instantly ready for analysis queries.")

    banner(2, "browsing the metadata and navigating through the data")
    print(browse.station_overview(wh))
    files = browse.file_listing(wh, station="ISK", channel="BHE")
    print(f"\ndrill-down into ISK.BHE: {len(files)} files; records of the "
          "first file:")
    for row in browse.record_listing(wh, files[0][0])[:5]:
        print(f"  seq={row[0]} start={row[1]} samples={row[4]}")

    banner(3, "comparing the performance to the eager ETL approach")
    started = time.perf_counter()
    eager = SeismicWarehouse(root, mode="eager")
    eager_load = time.perf_counter() - started
    print(f"eager initial load: {eager_load:.2f} s "
          f"(vs lazy {elapsed * 1e3:.0f} ms — "
          f"{eager_load / max(elapsed, 1e-9):.0f}x slower to first answer)")

    banner(4, "observing the query plans and the changes on them")
    sql = fig1_query1()
    print("query:\n" + sql + "\n")
    print(wh.explain(sql))

    banner(5, "observing the files containing required actual data")
    started = time.perf_counter()
    result = wh.query(sql)
    print(f"answer: {result.rows()} in "
          f"{(time.perf_counter() - started) * 1e3:.0f} ms")
    print("files lazily extracted for this query:")
    for uri in wh.files_extracted_by_last_query():
        print(f"  {uri}")

    banner(6, "observing the plans generated on the fly (lazy transformation)")
    print("operators injected by the run-time rewrite:")
    print(wh.render_last_trace())

    banner(7, "observing the contents of the cache and updates to it")
    print(wh.cache.render())
    print("\nre-running the same query (best case: no ETL at all):")
    wh.repo.reset_counters()
    started = time.perf_counter()
    wh.query(sql)
    print(f"  {(time.perf_counter() - started) * 1e3:.1f} ms, "
          f"{wh.repo.reads} file reads")
    print("\ntouching the file to trigger a lazy refresh:")
    uri = wh.files_extracted_by_last_query() or \
        [wh.repo.list_files()[0].uri]
    wh.repo.touch(uri[0]) if uri else None
    wh.db.recycler.invalidate_all()  # force re-evaluation through the cache
    wh.query(sql)
    refreshes = [e for e in wh.last_trace if e.get("op") == "refresh"]
    print(f"  staleness detected: {refreshes}")

    banner(8, "looking through the log: operations in order")
    print("every query this warehouse ran, oldest first (sys.queries; "
          "step (6) showed what one query did):")
    journal = wh.query("SELECT id, status, rows_out, rows_extracted, "
                       "execute_s, sql FROM sys.queries ORDER BY id")
    for qid, status, rows_out, extracted, execute_s, sql in journal.rows():
        print(f"  #{qid:<3} {status:<5} rows={rows_out:<4} "
              f"extracted={extracted:<5} {execute_s * 1e3:7.2f} ms  "
              f"{' '.join(sql.split())[:60]}")


if __name__ == "__main__":
    main()
