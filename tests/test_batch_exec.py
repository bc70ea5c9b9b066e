"""Regression tests for the batch executor (ISSUE-6).

Covers the latent bug class the vectorised rewrite audit surfaced:

* ``PLimit.execute_batches`` with ``LIMIT 0`` used to pull (and pay for)
  one child batch before noticing it had nothing to emit.
* ``_combined_codes`` collapsed every row with *any* NULL key column into
  one group, so multi-key GROUP BY / DISTINCT merged ``(NULL, 1)`` and
  ``(NULL, 2)``.
* Mid-stream empty chunks (a predicate wiping out a whole batch) must
  propagate cleanly through every streaming operator.

Plus streaming-vs-materialised parity for the operators that gained
native ``execute_batches`` implementations: sort, distinct, join (inner,
left, cross) and aggregate.
"""

import pytest

from repro.db.exec.engine import Database
from repro.db.table import ColumnSpec, TableSchema
from repro.db.types import DataType


def _db_with(rows_by_table):
    db = Database()
    for name, (specs, data) in rows_by_table.items():
        db.catalog.create_table((name,), TableSchema(columns=specs))
        db.catalog.table((name,)).append_pydict(data)
    return db


def _nullable_db(rows=40):
    """A table whose key columns contain NULLs in several combinations."""
    groups = [None, "a", "b"]
    return _db_with({
        "t": (
            [ColumnSpec("g", DataType.VARCHAR),
             ColumnSpec("k", DataType.BIGINT),
             ColumnSpec("v", DataType.BIGINT)],
            {
                "g": [groups[i % 3] for i in range(rows)],
                "k": [None if i % 5 == 0 else i % 4 for i in range(rows)],
                "v": list(range(rows)),
            },
        )
    })


def _stream_rows(db, sql, batch_rows):
    run = db.open_query(sql, batch_rows=batch_rows)
    return [row for batch in run.batches() for row in batch.rows()], run


def _assert_parity(db, sql, batch_sizes=(1, 3, 7, 64)):
    expected = db.query(sql).rows()
    for batch_rows in batch_sizes:
        got, run = _stream_rows(db, sql, batch_rows)
        assert got == expected, (sql, batch_rows)
        assert run.report.rows_out == len(expected)


# ---------------------------------------------------------------------------
# LIMIT 0 must not pull a single child batch
# ---------------------------------------------------------------------------


def _span_names(span):
    yield span["name"]
    for child in span.get("children", ()):
        yield from _span_names(child)


def test_limit_zero_pulls_no_child_batches():
    db = _nullable_db()
    db.trace_spans = True
    rows, run = _stream_rows(db, "SELECT v FROM t LIMIT 0", batch_rows=4)
    assert rows == []
    assert run.report.rows_out == 0
    # Nothing below the LIMIT (the plan root) ran: an operator counts as
    # run once its parent asks for its batches, and gets a span on its
    # first pull.
    assert run.entry.physical.children()
    assert run.report.operators_run == 1
    operators = [name for name in _span_names(run.report.spans)
                 if name.startswith("P")]
    assert operators == ["PLimit"]


def test_limit_zero_matches_materialised():
    db = _nullable_db()
    _assert_parity(db, "SELECT v FROM t LIMIT 0 OFFSET 3")


# ---------------------------------------------------------------------------
# NULL grouping keys: (NULL, x) groups must stay distinct per x
# ---------------------------------------------------------------------------


def test_multikey_group_by_with_nulls():
    db = _nullable_db()
    rows = db.query(
        "SELECT g, k, COUNT(*), SUM(v) FROM t GROUP BY g, k"
    ).rows()
    # Reference: plain Python grouping over the same data.
    table = db.catalog.table(("t",))
    expected: dict = {}
    for g, k, v in zip(table.column("g").to_pylist(),
                       table.column("k").to_pylist(),
                       table.column("v").to_pylist()):
        st = expected.setdefault((g, k), [0, 0])
        st[0] += 1
        st[1] += v
    assert len(rows) == len(expected)
    for g, k, count, total in rows:
        assert expected[(g, k)] == [count, total], (g, k)


def test_multikey_group_by_null_groups_not_collapsed():
    db = _db_with({
        "p": (
            [ColumnSpec("a", DataType.BIGINT),
             ColumnSpec("b", DataType.BIGINT)],
            {"a": [None, None, 1, None], "b": [1, 2, 1, 1]},
        )
    })
    rows = sorted(
        db.query("SELECT a, b, COUNT(*) FROM p GROUP BY a, b").rows(),
        key=repr,
    )
    # (NULL,1) x2, (NULL,2) x1, (1,1) x1 — three distinct groups.
    assert sorted(rows, key=repr) == sorted(
        [(None, 1, 2), (None, 2, 1), (1, 1, 1)], key=repr)


def test_multikey_distinct_with_nulls():
    db = _db_with({
        "p": (
            [ColumnSpec("a", DataType.BIGINT),
             ColumnSpec("b", DataType.BIGINT)],
            {"a": [None, None, 1, None, None], "b": [1, 2, 1, 1, 2]},
        )
    })
    rows = db.query("SELECT DISTINCT a, b FROM p").rows()
    assert rows == [(None, 1), (None, 2), (1, 1)]  # first-occurrence order


def test_null_first_group_order_single_key():
    db = _db_with({
        "p": (
            [ColumnSpec("a", DataType.BIGINT)],
            {"a": [3, None, 1, 3, None]},
        )
    })
    rows = db.query("SELECT a, COUNT(*) FROM p GROUP BY a").rows()
    assert rows == [(None, 2), (1, 1), (3, 2)]


# ---------------------------------------------------------------------------
# Mid-stream empty chunks propagate through every streaming operator
# ---------------------------------------------------------------------------


def _banded_db(rows=100):
    """Predicate `v < 10 OR v >= 90` empties every middle batch."""
    return _db_with({
        "t": (
            [ColumnSpec("v", DataType.BIGINT),
             ColumnSpec("s", DataType.VARCHAR)],
            {"v": list(range(rows)), "s": [f"x{i % 7}" for i in range(rows)]},
        )
    })


@pytest.mark.parametrize("sql", [
    "SELECT v FROM t WHERE v < 10 OR v >= 90",
    "SELECT v FROM t WHERE v < 10 OR v >= 90 ORDER BY v DESC",
    "SELECT DISTINCT s FROM t WHERE v < 10 OR v >= 90",
    "SELECT s, COUNT(*), SUM(v) FROM t WHERE v < 10 OR v >= 90 GROUP BY s",
    "SELECT v FROM t WHERE v < 10 OR v >= 90 LIMIT 7 OFFSET 8",
    "SELECT s, MIN(v), MAX(v) FROM t WHERE v >= 200 GROUP BY s",  # empties all
    "SELECT COUNT(*) FROM t WHERE v >= 200",  # global agg over empty stream
])
def test_empty_chunk_propagation(sql):
    _assert_parity(_banded_db(), sql, batch_sizes=(1, 4, 16, 256))


# ---------------------------------------------------------------------------
# Streaming parity for the batch-native pipeline breakers
# ---------------------------------------------------------------------------


def _join_db():
    return _db_with({
        "f": (
            [ColumnSpec("fk", DataType.BIGINT),
             ColumnSpec("fv", DataType.VARCHAR)],
            {"fk": [i % 6 if i % 11 else None for i in range(50)],
             "fv": [f"f{i}" for i in range(50)]},
        ),
        "d": (
            [ColumnSpec("dk", DataType.BIGINT),
             ColumnSpec("dv", DataType.BIGINT)],
            {"dk": [i % 4 if i % 7 else None for i in range(30)],
             "dv": list(range(30))},
        ),
    })


@pytest.mark.parametrize("sql", [
    "SELECT fv, dv FROM f, d WHERE fk = dk",
    "SELECT fv, dv FROM f JOIN d ON fk = dk",
    "SELECT fv, dv FROM f LEFT JOIN d ON fk = dk",
    "SELECT fv, dv FROM f LEFT JOIN d ON fk = dk AND dv > 10",
    "SELECT fv, dv FROM f JOIN d ON fk = dk AND dv % 2 = 0",
    "SELECT fk, COUNT(*), SUM(dv) FROM f, d WHERE fk = dk GROUP BY fk",
])
def test_streaming_join_parity(sql):
    _assert_parity(_join_db(), sql, batch_sizes=(1, 3, 8, 64))


def test_streaming_cross_join_parity():
    db = _db_with({
        "a": ([ColumnSpec("x", DataType.BIGINT)], {"x": list(range(9))}),
        "b": ([ColumnSpec("y", DataType.BIGINT)], {"y": [10, 20, 30]}),
    })
    _assert_parity(db, "SELECT x, y FROM a, b", batch_sizes=(1, 2, 4, 64))


def test_streaming_sort_distinct_parity():
    db = _banded_db()
    _assert_parity(db, "SELECT DISTINCT s FROM t ORDER BY s DESC",
                   batch_sizes=(1, 4, 16))
    _assert_parity(db, "SELECT v, s FROM t ORDER BY s, v DESC",
                   batch_sizes=(1, 4, 16))


def test_streaming_aggregate_recycler_parity():
    # The streamed aggregate must hit the recycler admitted by the
    # materialised run (and vice versa), not recompute silently.
    db = _banded_db()
    sql = "SELECT s, COUNT(*) FROM t GROUP BY s"
    expected = db.query(sql).rows()  # admits the aggregate
    got, run = _stream_rows(db, sql, batch_rows=8)
    assert got == expected
    assert any(e.get("op") == "recycler_hit" for e in run.trace)


def test_streaming_aggregate_admits_to_recycler():
    db = _banded_db()
    sql = "SELECT s, SUM(v) FROM t GROUP BY s"
    got, _run = _stream_rows(db, sql, batch_rows=8)  # streamed first
    expected = db.query(sql)  # must be served from the recycler
    assert expected.rows() == got
    assert any(e.get("op") == "recycler_hit" for e in db.last_trace)


# ---------------------------------------------------------------------------
# The vectorised executor must stay >= 5x the pre-vectorised engine
# ---------------------------------------------------------------------------


@pytest.mark.oracle
def test_vectorised_at_least_5x_rowpath(tmp_path, monkeypatch):
    """Baseline: ``query_rowpath`` (tuple-at-a-time interpreter, no
    recycler, no zone maps) with extraction routed through
    ``MSeedAdapter.reference_extract`` (the per-record reader and the
    scalar Steim decoder) — together the pre-vectorised engine.  Every
    measurement runs on a fresh warehouse with the recycler off, so both
    sides pay cold extraction and repeats measure execution, not result
    caching.  A speed-up on wrong answers is worthless: rows first.

    The corpus is the full default inventory (54 files), not the 12-file
    ``demo_repo``: Figure-1 Q1 extracts a 2 s window, so its cost is the
    metadata scan, and over 12 files fixed per-query overhead caps the
    ratio near 4x whichever engine runs it.
    """
    import time

    from repro.etl.mseed_adapter import MSeedAdapter
    from repro.mseed.synthesize import RepositorySpec, build_repository
    from repro.seismology.queries import fig1_query1, fig1_query2
    from repro.seismology.warehouse import SeismicWarehouse

    repo = build_repository(tmp_path, RepositorySpec(files_per_stream=2))
    entry = repo.entries[0]
    workloads = {
        "fig1_q1": fig1_query1(),
        "fig1_q2": fig1_query2(),
        "full_stream": (
            "SELECT MIN(D.sample_value), MAX(D.sample_value), COUNT(*) "
            f"FROM mseed.dataview WHERE F.station = '{entry.station}' "
            f"AND F.channel = '{entry.channel}'"),
    }

    def rowpath(wh, sql):
        with monkeypatch.context() as patch:
            patch.setattr(MSeedAdapter, "extract",
                          MSeedAdapter.reference_extract)
            return wh.db.query_rowpath(sql)[0].rows()

    def vectorised(wh, sql):
        return wh.connect().cursor().execute(sql).fetchall()

    def best_of_two(run, sql):
        best = float("inf")
        for _ in range(2):
            wh = SeismicWarehouse(repo.root, mode="lazy",
                                  recycler_budget_bytes=0)
            started = time.perf_counter()
            rows = run(wh, sql)
            best = min(best, time.perf_counter() - started)
        return best, rows

    ratios = {}
    for name, sql in workloads.items():
        rowpath_s, expected = best_of_two(rowpath, sql)
        vectorised_s, got = best_of_two(vectorised, sql)
        assert got == expected, name
        ratios[name] = rowpath_s / vectorised_s
    assert all(ratio >= 5 for ratio in ratios.values()), (
        "vectorised / rowpath speed-up below 5x: "
        + ", ".join(f"{name} {ratio:.1f}x" for name, ratio in ratios.items()))
