"""E15 — vectorised batch executor vs the row-at-a-time baseline.

A pytest bench like its E10–E13 siblings; ``run_experiments.py --check``
gates the table on :func:`criteria` — the cold-load and fig1 Q1/Q2
speedups of the vectorised engine over ``query_rowpath`` + scalar Steim
decoding, each >= 5x (ISSUE 6 acceptance) — and writes that block into
``BENCH_E15.json``.
"""


def _acceptance(table):
    """Pull the acceptance row out of the E15 table.

    Returns ``(cold_load_speedup, q1_speedup, q2_speedup)``.
    """
    for row in table.rows:
        if row[0].startswith("acceptance:"):
            return (float(row[1]), float(row[2]), float(row[3]))
    raise AssertionError("E15 table has no acceptance row")


def criteria(table):
    """The acceptance block of ``BENCH_E15.json`` → ``(block, passed)``."""
    cold_x, q1_x, q2_x = _acceptance(table)
    return {
        "cold_load_speedup_x": cold_x,
        "fig1_q1_speedup_x": q1_x,
        "fig1_q2_speedup_x": q2_x,
        "speedup_min": 5.0,
    }, min(cold_x, q1_x, q2_x) >= 5.0


def test_e15_vectorized_executor(benchmark, demo_repo_path):
    """Benchmarked unit: one cold fig1 Q2 on the vectorised engine.

    Also regenerates the full E15 comparison table and asserts the
    acceptance criteria: >= 5x over the row-at-a-time baseline on the
    cold full-stream load and both Figure-1 queries.
    """
    from repro.bench.harness import run_e15
    from repro.seismology.queries import fig1_query2
    from repro.seismology.warehouse import SeismicWarehouse

    def cold_q2():
        wh = SeismicWarehouse(demo_repo_path, mode="lazy",
                              enable_recycler=False)
        return wh.query(fig1_query2())

    result = benchmark.pedantic(cold_q2, rounds=3, iterations=1)
    assert result.row_count > 0

    table = run_e15(smoke=True)
    print("\n" + table.render())
    for label, speedup in zip(("cold load", "fig1 Q1", "fig1 Q2"),
                              _acceptance(table)):
        assert speedup >= 5.0, (
            f"{label}: vectorised speedup {speedup:.2f}x < 5x")
