"""E16 — the wire protocol at 100+ real concurrent TCP connections.

Each remote query pays the full serving stack — framing, token auth,
admission control, server-side cursors, page-encoded batches — over a
real socket from the asyncio client, against an in-process baseline of
the same session count.  A pytest bench like its E10–E15 siblings;
``run_experiments.py --check`` gates the table on :func:`criteria` —
sustained connections (>= 100), dropped queries (== 0), and graceful
drain under load (live streaming cursors finish through ``close()``) —
and writes that block into ``BENCH_E16.json``.
"""


def _acceptance(table):
    """Pull the acceptance row out of the E16 table.

    Returns ``(connections, dropped, drain_clean)``.
    """
    for row in table.rows:
        if row[0].startswith("acceptance:"):
            return (int(row[1]), int(row[2]), row[3] == "true")
    raise AssertionError("E16 table has no acceptance row")


def criteria(table):
    """The acceptance block of ``BENCH_E16.json`` → ``(block, passed)``."""
    connections, dropped, drain_clean = _acceptance(table)
    return {
        "concurrent_connections": connections,
        "concurrent_connections_min": 100,
        "dropped_queries": dropped,
        "dropped_queries_max": 0,
        "graceful_drain_under_load": drain_clean,
    }, connections >= 100 and dropped == 0 and drain_clean


def test_e16_network(benchmark, demo_repo_path):
    """Benchmarked unit: one query over an established TCP connection.

    Also regenerates the E16 table at reduced load and asserts the
    acceptance criteria: every connection sustained, zero dropped
    queries, graceful drain under load.
    """
    from repro.bench.harness import run_e16
    from repro.net import connect_tcp
    from repro.seismology.warehouse import SeismicWarehouse

    token = "bench-e16-pytest"
    wh = SeismicWarehouse(demo_repo_path, mode="lazy")
    sql = ("SELECT station, COUNT(*) AS n FROM mseed.files "
           "GROUP BY station ORDER BY station")
    wh.query(sql)  # warm
    service = wh.serve(max_workers=2, tcp_port=0, auth_tokens=[token])
    try:
        conn = connect_tcp("127.0.0.1", service.tcp_port, token=token)
        try:
            rows = benchmark.pedantic(
                lambda: conn.execute(sql).fetchall(), rounds=5, iterations=1)
            assert rows == wh.connect().execute(sql).fetchall()
        finally:
            conn.close()
    finally:
        service.close()
        wh.close()

    table = run_e16(smoke=True, connections=24)
    print("\n" + table.render())
    connections, dropped, drain_clean = _acceptance(table)
    assert connections == 24
    assert dropped == 0, f"{dropped} queries dropped under concurrency"
    assert drain_clean, "graceful drain aborted live cursors"
