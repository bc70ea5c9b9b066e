"""E13 — adaptive lazy→eager promotion under a skewed workload.

A pytest bench like its E10–E12 siblings; ``run_experiments.py --check``
gates the table on :func:`criteria` (steady-state speedup, cold-start
ratio, warm-start re-extraction) and writes that block into
``BENCH_E13.json``.
"""


def _acceptance(table):
    """Pull the acceptance row out of the E13 table.

    Returns ``(speedup, cold_ratio, warm_eager_rows, warm_reextracted)``.
    """
    for row in table.rows:
        if row[0].startswith("acceptance:"):
            return (float(row[1]), float(row[2]), int(row[3]), int(row[4]))
    raise AssertionError("E13 table has no acceptance row")


def criteria(table):
    """The acceptance block of ``BENCH_E13.json`` → ``(block, passed)``."""
    speedup, cold_ratio, warm_eager, warm_reextracted = _acceptance(table)
    return {
        "hot_set_steady_speedup_x": speedup,
        "hot_set_steady_speedup_min": 2.0,
        "cold_start_ratio_x": cold_ratio,
        "cold_start_ratio_max": 1.2,
        "warm_start_rows_served_eager": warm_eager,
        "warm_start_rows_reextracted": warm_reextracted,
    }, (speedup >= 2.0 and cold_ratio <= 1.2 and warm_eager > 0
        and warm_reextracted == 0)


def test_e13_adaptive_promotion(benchmark, demo_repo_path):
    """Benchmarked unit: one post-promotion hot query.

    Also regenerates the full E13 trajectory table and asserts the
    acceptance criteria: >=2x steady-state hot-set speedup over pure
    lazy, cold start within 1.2x, and zero re-extraction of promoted
    ranges after checkpoint() -> warm start.
    """
    import shutil
    import tempfile

    from repro.bench.harness import run_e13
    from repro.bench.workload import full_stream_query
    from repro.seismology.warehouse import SeismicWarehouse

    store = tempfile.mkdtemp(prefix="repro-e13-bench-")
    try:
        wh = SeismicWarehouse(demo_repo_path, mode="lazy",
                              cache_budget_bytes=64 * 1024,
                              enable_recycler=False, storage_path=store)
        sql = full_stream_query("ISK", "BHZ")
        for _ in range(3):
            wh.query(sql)
        wh.promote(budget_bytes=64 * 1024 * 1024)

        result = benchmark.pedantic(lambda: wh.query(sql),
                                    rounds=5, iterations=1)
        assert result.row_count == 1
        assert wh.db.last_report.rows_served_eager > 0
        assert wh.db.last_report.rows_extracted_here == 0
    finally:
        shutil.rmtree(store, ignore_errors=True)

    table = run_e13(smoke=True)
    print("\n" + table.render())
    speedup, cold_ratio, warm_eager, warm_reextracted = _acceptance(table)
    assert speedup >= 2.0, f"hot-set steady-state speedup {speedup:.2f}x < 2x"
    assert cold_ratio <= 1.2, f"cold-start ratio {cold_ratio:.2f}x > 1.2x"
    assert warm_eager > 0
    assert warm_reextracted == 0, (
        f"warm start re-extracted {warm_reextracted} promoted rows")
