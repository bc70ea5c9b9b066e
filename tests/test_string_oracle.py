"""Generated string oracle: typed SELECTs over VARCHAR keys, three executors.

Hypothesis draws a small table pair whose string columns hold the values
that trip string handling — ``''``, NULL, non-ASCII (``'é'``), trailing
NULs (``'AB\\x00'`` next to ``'AB'``) — with few or with many distinct
values, then draws one query over them: comparisons, ``LIKE``, ``IN``,
``GROUP BY`` on one and two string keys, inner and left joins on a string
key, ``ORDER BY`` both ways with NULLs, ``MIN``/``MAX``/``COUNT(DISTINCT)``,
``LIMIT``/``OFFSET`` and the string functions and casts.  Every query runs
through :func:`oracle.run_differential` at :data:`oracle.CORPUS_BATCH_ROWS`
(drained, streamed, row-at-a-time: bit for bit, row order included), and
every result column must survive a storage page round trip unchanged.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oracle import CORPUS_BATCH_ROWS, column_fingerprint, run_differential
from repro.db.exec.engine import Database
from repro.storage.format import decode_page, encode_page

pytestmark = pytest.mark.oracle

# The values that break string handling, NULL among them.
_SPECIAL = ["", "AB", "AB\x00", "B", "é", "a", "ab", " x ", "Zé", None]
_FEW = st.sampled_from(_SPECIAL)
_MANY = st.one_of(
    _FEW,
    st.text(alphabet="aAbB\x00é _", max_size=4),
)
# Literals a query compares against: the specials plus arbitrary text.
_LITERAL = st.one_of(
    st.sampled_from([v for v in _SPECIAL if v is not None]),
    st.text(alphabet="aAbB\x00é _", max_size=3),
)
_PATTERN = st.text(alphabet="aAbB\x00é%_", max_size=4)


def _sql_string(value: str) -> str:
    return "'" + value.replace("'", "''") + "'"


@st.composite
def _tables(draw):
    values = draw(st.sampled_from([_FEW, _MANY]))
    n_a = draw(st.integers(0, 24))
    n_b = draw(st.integers(0, 10))
    a = {
        "id": list(range(n_a)),
        "k": draw(st.lists(values, min_size=n_a, max_size=n_a)),
        "k2": draw(st.lists(values, min_size=n_a, max_size=n_a)),
        "v": draw(st.lists(st.integers(0, 5), min_size=n_a, max_size=n_a)),
    }
    b = {
        "k": draw(st.lists(values, min_size=n_b, max_size=n_b)),
        "w": list(range(n_b)),
        "label": draw(st.lists(values, min_size=n_b, max_size=n_b)),
    }
    return a, b


@st.composite
def _queries(draw):
    lit = _sql_string(draw(_LITERAL))
    shape = draw(st.sampled_from([
        "compare", "like", "in", "group1", "group2", "join", "left_join",
        "order", "minmax", "functions", "case", "group_minmax",
    ]))
    if shape == "compare":
        op = draw(st.sampled_from(["=", "<", ">=", "<>", "<=", ">"]))
        return f"SELECT id, k FROM a WHERE k {op} {lit} ORDER BY id"
    if shape == "like":
        neg = draw(st.sampled_from(["", "NOT "]))
        pattern = _sql_string(draw(_PATTERN))
        return f"SELECT id, k FROM a WHERE k {neg}LIKE {pattern} ORDER BY id"
    if shape == "in":
        neg = draw(st.sampled_from(["", "NOT "]))
        items = draw(st.lists(_LITERAL, min_size=1, max_size=3))
        listed = ", ".join(_sql_string(i) for i in items)
        return f"SELECT id FROM a WHERE k {neg}IN ({listed}) ORDER BY id"
    if shape == "group1":
        direction = draw(st.sampled_from(["ASC", "DESC"]))
        return ("SELECT k, COUNT(*), SUM(v) FROM a GROUP BY k "
                f"ORDER BY k {direction}")
    if shape == "group2":
        d1, d2 = draw(st.sampled_from(["ASC", "DESC"])), \
            draw(st.sampled_from(["ASC", "DESC"]))
        return ("SELECT k, k2, COUNT(*) FROM a GROUP BY k, k2 "
                f"ORDER BY k {d1}, k2 {d2}")
    if shape == "join":
        return ("SELECT a.id, a.k, b.w, b.label FROM a JOIN b ON a.k = b.k "
                "ORDER BY a.id, b.w")
    if shape == "left_join":
        return ("SELECT a.id, b.w, b.label FROM a LEFT JOIN b ON a.k = b.k "
                "ORDER BY a.id, b.w")
    if shape == "order":
        direction = draw(st.sampled_from(["ASC", "DESC"]))
        limit = draw(st.integers(0, 30))
        offset = draw(st.integers(0, 10))
        return (f"SELECT id, k, k2 FROM a ORDER BY k {direction}, id "
                f"LIMIT {limit} OFFSET {offset}")
    if shape == "minmax":
        floor = draw(st.integers(0, 6))
        return ("SELECT MIN(k), MAX(k), COUNT(DISTINCT k), COUNT(k) FROM a "
                f"WHERE v >= {floor}")
    if shape == "group_minmax":
        return ("SELECT k, MIN(k2), MAX(k2), COUNT(DISTINCT k2) FROM a "
                "GROUP BY k ORDER BY k")
    if shape == "functions":
        start = draw(st.integers(0, 4))
        count = draw(st.integers(0, 3))
        return ("SELECT id, lower(k), upper(k), trim(k), length(k), "
                f"substr(k, {start}, {count}), substr(k2, {start}), "
                "concat(k, k2), concat(k, '-', v), CAST(v AS VARCHAR), "
                "CAST(k AS VARCHAR) FROM a ORDER BY id")
    return (f"SELECT id, CASE WHEN v > 2 THEN k WHEN v = 0 THEN {lit} "
            "ELSE k2 END, COALESCE(k, k2), COALESCE(k, "
            f"{lit}) FROM a ORDER BY id")


def _database(a, b) -> Database:
    db = Database()
    db.execute("CREATE TABLE a (id BIGINT, k VARCHAR, k2 VARCHAR, v BIGINT)")
    db.execute("CREATE TABLE b (k VARCHAR, w BIGINT, label VARCHAR)")
    db.catalog.table(("main", "a")).append_pydict(a)
    db.catalog.table(("main", "b")).append_pydict(b)
    return db


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(tables=_tables(), sql=_queries())
def test_generated_string_queries_agree(tables, sql):
    db = _database(*tables)
    result = run_differential(db, sql, stream_batch_rows=CORPUS_BATCH_ROWS)
    for column in result.columns:
        back = decode_page(encode_page(column))
        assert back.dtype == column.dtype
        assert column_fingerprint(back) == column_fingerprint(column)
        np.testing.assert_array_equal(back.validity(), column.validity())


def test_trailing_nul_strings_match_rowpath():
    """``'AB'`` and ``'AB\\x00'`` are different strings to every executor:
    equality does not conflate them, and MIN/MAX over ``{'AB\\x00', 'B'}``
    return values the column holds."""
    db = _database({"id": [0, 1, 2], "k": ["B", "AB", "AB\x00"],
                    "k2": ["", "", ""], "v": [2, 1, 3]},
                   {"k": [], "w": [], "label": []})
    hits = run_differential(db, "SELECT id FROM a WHERE k = 'AB' ORDER BY id",
                            stream_batch_rows=CORPUS_BATCH_ROWS)
    assert hits.to_pydict()["id"] == [1]
    extremes = run_differential(
        db, "SELECT MIN(k), MAX(k) FROM a WHERE v >= 2",
        stream_batch_rows=CORPUS_BATCH_ROWS)
    assert extremes.rows() == [("AB\x00", "B")]
