"""E17 — sharded scatter-gather execution vs the single-process engine.

The workload is CPU-bound extraction: a full-corpus Steim decode feeding
a grouped MIN/MAX/SUM/COUNT aggregation, cold (all extraction caches
dropped, shard workers included) and warm, at 1, 2 and 4 shards.  A
pytest bench like its E10–E16 siblings; ``run_experiments.py --check``
gates the table on :func:`criteria` — bit-identical results at every
shard count (mandatory everywhere) and >= 2.5x cold-path speedup at 4
shards, the latter only where ``os.cpu_count() >= 4`` since worker
processes cannot beat the GIL without cores to run on — and writes that
block into ``BENCH_E17.json``.
"""


def _acceptance(table):
    """Pull the acceptance row: ``(speedup, cpu_count, identical)``."""
    for row in table.rows:
        if row[0].startswith("acceptance:"):
            return (float(row[1]), int(row[2]), row[3] == "true")
    raise AssertionError("E17 table has no acceptance row")


def criteria(table):
    """The acceptance block of ``BENCH_E17.json`` → ``(block, passed)``."""
    speedup, cpus, identical = _acceptance(table)
    gate_active = cpus >= 4
    return {
        "speedup_at_max_shards": speedup,
        "speedup_min": 2.5,
        "speedup_gate_active": gate_active,
        "cpu_count": cpus,
        "bit_identical": identical,
    }, identical and (speedup >= 2.5 or not gate_active)


def test_e17_sharding(benchmark, demo_repo_path):
    """Benchmarked unit: one warm decomposed aggregation at 2 shards.

    Also regenerates the E17 table at reduced size and asserts the
    universal acceptance criterion — bit-identical results across every
    shard count.  The speedup gate is asserted only on >= 4 cores.
    """
    from repro.bench.harness import run_e17
    from repro.seismology.warehouse import SeismicWarehouse

    sql = ("SELECT F.network, COUNT(*) AS n, MIN(D.sample_value) AS lo "
           "FROM mseed.dataview GROUP BY F.network ORDER BY F.network")
    wh = SeismicWarehouse(demo_repo_path, mode="lazy", shards=2)
    try:
        expected = wh.query(sql).rows()  # warm every worker cache
        rows = benchmark.pedantic(lambda: wh.query(sql).rows(),
                                  rounds=5, iterations=1)
        assert rows == expected
    finally:
        wh.close()

    table = run_e17(smoke=True, shard_counts=(1, 2))
    print("\n" + table.render())
    speedup, cpus, identical = _acceptance(table)
    assert identical, "sharded results diverged from single-process"
    if cpus >= 4:
        assert speedup >= 1.0
