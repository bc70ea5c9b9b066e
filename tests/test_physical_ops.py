"""Direct tests of the physical-operator machinery."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.db.column import Column
from repro.db.plan.physical import join_indices, _combined_codes
from repro.db.types import DataType


def _bigint(values):
    return Column.from_values(DataType.BIGINT, values)


def _varchar(values):
    return Column.from_values(DataType.VARCHAR, values)


def test_join_indices_simple():
    left_idx, right_idx, counts = join_indices(
        [_bigint([1, 2, 3])], [_bigint([2, 2, 4])]
    )
    pairs = set(zip(left_idx.tolist(), right_idx.tolist()))
    assert pairs == {(1, 0), (1, 1)}
    assert counts.tolist() == [0, 2, 0]


def test_join_indices_nulls_never_match():
    left_idx, right_idx, _counts = join_indices(
        [_bigint([1, None, 3])], [_bigint([None, 1, None])]
    )
    pairs = set(zip(left_idx.tolist(), right_idx.tolist()))
    assert pairs == {(0, 1)}


def test_join_indices_multikey():
    left = [_varchar(["a", "a", "b"]), _bigint([1, 2, 1])]
    right = [_varchar(["a", "b", "a"]), _bigint([2, 1, 9])]
    left_idx, right_idx, _ = join_indices(left, right)
    pairs = set(zip(left_idx.tolist(), right_idx.tolist()))
    assert pairs == {(1, 0), (2, 1)}


def test_join_indices_empty_sides():
    left_idx, right_idx, counts = join_indices([_bigint([])], [_bigint([1])])
    assert len(left_idx) == 0 and len(right_idx) == 0
    left_idx, right_idx, counts = join_indices([_bigint([1])], [_bigint([])])
    assert len(left_idx) == 0
    assert counts.tolist() == [0]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.one_of(st.integers(0, 6), st.none()), max_size=25),
    st.lists(st.one_of(st.integers(0, 6), st.none()), max_size=25),
)
def test_join_indices_matches_nested_loop(left_vals, right_vals):
    """Property: the vectorised join equals the naive nested loop."""
    left_idx, right_idx, _ = join_indices(
        [_bigint(left_vals)], [_bigint(right_vals)]
    )
    got = sorted(zip(left_idx.tolist(), right_idx.tolist()))
    expected = sorted(
        (i, j)
        for i, lv in enumerate(left_vals)
        for j, rv in enumerate(right_vals)
        if lv is not None and rv is not None and lv == rv
    )
    assert got == expected


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.one_of(st.integers(0, 3), st.none()),
                  st.sampled_from(["x", "y"])),
        max_size=20,
    ),
    st.lists(
        st.tuples(st.one_of(st.integers(0, 3), st.none()),
                  st.sampled_from(["x", "y"])),
        max_size=20,
    ),
)
def test_multikey_join_matches_nested_loop(left_rows, right_rows):
    left = [_bigint([r[0] for r in left_rows]),
            _varchar([r[1] for r in left_rows])]
    right = [_bigint([r[0] for r in right_rows]),
             _varchar([r[1] for r in right_rows])]
    left_idx, right_idx, _ = join_indices(left, right)
    got = sorted(zip(left_idx.tolist(), right_idx.tolist()))
    expected = sorted(
        (i, j)
        for i, lrow in enumerate(left_rows)
        for j, rrow in enumerate(right_rows)
        if lrow[0] is not None and lrow == rrow
    )
    assert got == expected


def test_combined_codes_null_is_a_group_key():
    """GROUP BY semantics: NULL is one key value, not a match-nothing
    sink — (NULL,'a') and (1,NULL) must stay distinct groups while the
    two (NULL,'a') rows share one."""
    codes = _combined_codes([
        _bigint([1, None, 1, None]),
        _varchar(["a", "a", None, "a"]),
    ])
    assert codes[1] == codes[3]
    assert len({int(codes[0]), int(codes[1]), int(codes[2])}) == 3


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.one_of(st.integers(0, 4), st.none()),
                          st.one_of(st.integers(0, 4), st.none())),
                min_size=1, max_size=40))
def test_combined_codes_equality_property(rows):
    """Two rows share a combined code iff they are equal as tuples —
    including tuples containing NULLs."""
    codes = _combined_codes([
        _bigint([r[0] for r in rows]),
        _bigint([r[1] for r in rows]),
    ])
    for i in range(len(rows)):
        for j in range(len(rows)):
            assert (codes[i] == codes[j]) == (rows[i] == rows[j])


# ---------------------------------------------------------------------------
# Streaming LIMIT ... OFFSET parity with the materialised path (ISSUE-5)
# ---------------------------------------------------------------------------


def _limit_db(rows=100):
    from repro.db.exec.engine import Database
    from repro.db.table import ColumnSpec, TableSchema

    db = Database()
    db.catalog.create_table(("t",), TableSchema(columns=[
        ColumnSpec("v", DataType.BIGINT),
        ColumnSpec("s", DataType.VARCHAR),
    ]))
    db.catalog.table(("t",)).append_pydict({
        "v": list(range(rows)),
        "s": [f"x{i % 7}" for i in range(rows)],
    })
    return db


def _column_bytes(column):
    """One column's payload as bytes (VARCHAR via its Python values)."""
    if column.dtype == DataType.VARCHAR:
        return repr(column.to_pylist()).encode()
    return column.values.tobytes()


def _assert_stream_matches_materialised(db, sql, batch_sizes=(1, 3, 7, 64)):
    """Byte-identical parity: same rows, same per-column payload bytes."""
    materialised = db.query(sql)
    expected_rows = materialised.rows()
    expected_bytes = [_column_bytes(col) for col in materialised.columns]
    for batch_rows in batch_sizes:
        run = db.open_query(sql, batch_rows=batch_rows)
        rows = []
        per_column = [[] for _ in materialised.columns]
        for batch in run.batches():
            rows.extend(batch.rows())
            for i, col in enumerate(batch.columns):
                per_column[i].append(col)
        got_bytes = [
            _column_bytes(Column.concat(parts)) if parts
            else _column_bytes(materialised.columns[i].slice(0, 0))
            for i, parts in enumerate(per_column)
        ]
        assert rows == expected_rows, (sql, batch_rows)
        assert got_bytes == expected_bytes, (sql, batch_rows)
        assert run.rowcount == materialised.row_count


@pytest.mark.parametrize("limit,offset", [
    (5, 3),      # offset falls mid-batch for batch_rows > 3
    (40, 33),    # offset and limit both cross batch boundaries
    (5, 98),     # limit truncated by end of input
    (5, 100),    # offset == total rows
    (5, 120),    # offset beyond total rows
    (1, 99),     # exactly the last row
    (0, 10),     # LIMIT 0
    (100, 0),    # the whole table
])
def test_streaming_limit_offset_parity(limit, offset):
    db = _limit_db()
    _assert_stream_matches_materialised(
        db, f"SELECT v, s FROM t LIMIT {limit} OFFSET {offset}")


@pytest.mark.parametrize("limit,offset", [(5, 3), (5, 98), (3, 100)])
def test_streaming_limit_offset_parity_above_filter(limit, offset):
    # The filter yields irregular batch sizes, so the offset lands
    # mid-batch in ways plain scans never produce.
    db = _limit_db()
    _assert_stream_matches_materialised(
        db, f"SELECT v FROM t WHERE v % 2 = 0 LIMIT {limit} OFFSET {offset}")


def test_streaming_limit_offset_parity_above_breakers():
    # Sort and aggregate are pipeline breakers: LIMIT streams their
    # materialised output, which must slice identically.
    db = _limit_db()
    _assert_stream_matches_materialised(
        db, "SELECT v FROM t ORDER BY v DESC LIMIT 10 OFFSET 5")
    _assert_stream_matches_materialised(
        db, "SELECT s, count(*) FROM t GROUP BY s LIMIT 4 OFFSET 3")
    _assert_stream_matches_materialised(
        db, "SELECT s, count(*) FROM t GROUP BY s LIMIT 4 OFFSET 7")


def test_streaming_limit_stops_pulling_early():
    db = _limit_db(rows=10_000)
    run = db.open_query("SELECT v FROM t LIMIT 5 OFFSET 2", batch_rows=4)
    rows = [row for batch in run.batches() for row in batch.rows()]
    assert [r[0] for r in rows] == [2, 3, 4, 5, 6]
    # Early stop: nowhere near the full 10k rows were streamed.
    assert run.report.rows_out == 5


def test_cursor_limit_offset_fetch_parity():
    from repro.api import connect

    db = _limit_db()
    conn = connect(db)
    sql = "SELECT v FROM t LIMIT 7 OFFSET 96"  # truncated by end of input
    expected = db.query(sql).rows()
    cur = conn.cursor()
    cur.execute(sql, batch_rows=3)
    assert cur.fetchall() == expected
    assert cur.rowcount == len(expected) == 4
