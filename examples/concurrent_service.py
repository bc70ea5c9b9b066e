#!/usr/bin/env python3
"""Concurrent serving: many client sessions, one lazy warehouse.

Builds a small synthetic mSEED repository, opens a lazy warehouse and
serves it through :class:`WarehouseService`: four "dashboard" sessions
fire distinct aggregates over the same streams at the same time.  The
single-flight coalescer makes them pay for each (file, record) range's
extraction exactly once — the per-session reports show who extracted and
who shared.

Run:  python examples/concurrent_service.py
"""

import tempfile

from repro import SeismicWarehouse, build_repository
from repro.mseed.synthesize import RepositorySpec


def main() -> None:
    root = tempfile.mkdtemp(prefix="lazyetl-service-")
    print(f"1. synthesising an mSEED repository under {root} ...")
    manifest = build_repository(root, RepositorySpec(files_per_stream=2))
    streams = sorted({(e.station, e.channel) for e in manifest.entries})[:4]

    print("\n2. opening a lazy warehouse and starting the query service ...")
    warehouse = SeismicWarehouse(root, mode="lazy")
    with warehouse.serve(max_workers=4) as service:
        print(f"   {service!r}")

        print("\n3. four sessions, distinct aggregates, same streams, "
              "all at once:")
        aggs = ["MIN", "MAX", "AVG", "SUM"]
        sessions = [service.session(f"dashboard-{agg.lower()}")
                    for agg in aggs]
        futures = []
        for station, channel in streams:
            for agg, session in zip(aggs, sessions):
                futures.append(session.submit(
                    f"SELECT {agg}(D.sample_value), COUNT(*) "
                    f"FROM mseed.dataview WHERE F.station = '{station}' "
                    f"AND F.channel = '{channel}'"
                ))
        outcomes = [future.result() for future in futures]

        print(f"   {len(outcomes)} queries answered")
        for session in sessions:
            mine = sum(o.rows_extracted_here for o in outcomes
                       if o.session_id == session.session_id)
            shared = sum(o.rows_coalesced for o in outcomes
                         if o.session_id == session.session_id)
            print(f"   {session.session_id:>16}: extracted {mine:>7,} rows "
                  f"itself, shared {shared:>7,} rows from other sessions")

        stats = service.stats()
        print("\n4. service counters:")
        print(f"   completed={stats.completed}  failed={stats.failed}")
        latency = warehouse.metrics_registry.histogram(
            "repro_query_seconds", labels=("session",))
        for session in sessions:
            name = session.session_id
            print(f"   {name:>16}: "
                  f"p50={latency.percentile(50, session=name) * 1e3:.0f} ms"
                  f"  p99={latency.percentile(99, session=name) * 1e3:.0f}"
                  " ms")
        if stats.coalescer is not None:
            print(f"   coalescer: {stats.coalescer.snapshot()}")

    print("\n5. service closed; the warehouse still answers directly:")
    count = warehouse.query("SELECT COUNT(*) FROM mseed.records").scalar()
    print(f"   {count} record-metadata rows remain queryable")


if __name__ == "__main__":
    main()
