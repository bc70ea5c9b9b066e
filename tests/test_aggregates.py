"""Aggregate execution tests, including nulls, DISTINCT and empty inputs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.db import Database


@pytest.fixture()
def db():
    database = Database()
    database.execute(
        "CREATE TABLE m (grp VARCHAR, val BIGINT, weight DOUBLE)")
    database.execute("""INSERT INTO m VALUES
        ('a', 1, 1.0), ('a', 2, 2.0), ('a', NULL, 3.0),
        ('b', 5, 1.5), ('b', 5, 2.5), (NULL, 7, 0.5)""")
    return database


def test_global_aggregates(db):
    row = db.query(
        "SELECT COUNT(*), COUNT(val), SUM(val), AVG(val), MIN(val), MAX(val) "
        "FROM m").first()
    assert row == (6, 5, 20, 4.0, 1, 7)


def test_group_by_with_nulls_as_group(db):
    rows = db.query(
        "SELECT grp, COUNT(*) FROM m GROUP BY grp ORDER BY grp").rows()
    # NULL group sorts last (NULLS LAST ordering).
    assert rows == [("a", 3), ("b", 2), (None, 1)]


def test_aggregates_skip_nulls(db):
    rows = db.query(
        "SELECT grp, COUNT(val), AVG(val) FROM m GROUP BY grp "
        "ORDER BY grp").rows()
    assert rows[0] == ("a", 2, 1.5)


def test_min_max_varchar(db):
    row = db.query("SELECT MIN(grp), MAX(grp) FROM m").first()
    assert row == ("a", "b")


def test_count_distinct_and_sum_distinct(db):
    row = db.query(
        "SELECT COUNT(DISTINCT val), SUM(DISTINCT val) FROM m").first()
    assert row == (4, 15)  # 1, 2, 5, 7


def test_stddev_and_median(db):
    row = db.query(
        "SELECT MEDIAN(val), STDDEV_SAMP(val) FROM m WHERE grp = 'b'"
    ).first()
    assert row[0] == 5.0
    assert row[1] == 0.0
    spread = db.query("SELECT STDDEV_SAMP(val) FROM m").scalar()
    assert spread == pytest.approx(np.std([1, 2, 5, 5, 7], ddof=1))


def test_stddev_single_row_is_null(db):
    value = db.query(
        "SELECT STDDEV_SAMP(val) FROM m WHERE val = 7").scalar()
    assert value is None


def test_empty_input_global(db):
    row = db.query(
        "SELECT COUNT(*), SUM(val), MIN(val), AVG(val) FROM m "
        "WHERE grp = 'zzz'").first()
    assert row == (0, None, None, None)


def test_empty_input_grouped(db):
    rows = db.query(
        "SELECT grp, COUNT(*) FROM m WHERE grp = 'zzz' GROUP BY grp").rows()
    assert rows == []


def test_having(db):
    rows = db.query(
        "SELECT grp, COUNT(*) AS n FROM m GROUP BY grp "
        "HAVING COUNT(*) > 1 ORDER BY grp").rows()
    assert rows == [("a", 3), ("b", 2)]


def test_group_by_expression(db):
    rows = db.query(
        "SELECT val % 2, COUNT(*) FROM m WHERE val IS NOT NULL "
        "GROUP BY val % 2 ORDER BY 1").rows()
    assert rows == [(0, 1), (1, 4)]


def test_aggregate_of_expression(db):
    value = db.query("SELECT SUM(val * 2) FROM m").scalar()
    assert value == 40


def test_expression_over_aggregates(db):
    value = db.query("SELECT MAX(val) - MIN(val) FROM m").scalar()
    assert value == 6


def test_order_by_aggregate(db):
    rows = db.query(
        "SELECT grp, SUM(weight) FROM m GROUP BY grp "
        "ORDER BY SUM(weight) DESC").rows()
    assert rows[0][0] == "a"


def test_non_grouped_column_rejected(db):
    from repro.errors import BindError

    with pytest.raises(BindError):
        db.query("SELECT grp, val FROM m GROUP BY grp")
    with pytest.raises(BindError):
        db.query("SELECT val, COUNT(*) FROM m")


def test_having_without_group_rejected(db):
    from repro.errors import BindError

    with pytest.raises(BindError):
        db.query("SELECT val FROM m HAVING val > 1")


@settings(max_examples=40, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from(["x", "y", "z"]),
              st.integers(-1000, 1000)),
    min_size=1, max_size=60,
))
def test_grouped_sum_matches_python(rows):
    """Property: grouped SUM/COUNT/MIN/MAX agree with a Python reference."""
    db = Database(recycler_budget_bytes=0)
    db.execute("CREATE TABLE t (g VARCHAR, v BIGINT)")
    values = ", ".join(f"('{g}', {v})" for g, v in rows)
    db.execute(f"INSERT INTO t VALUES {values}")
    got = db.query(
        "SELECT g, SUM(v), COUNT(*), MIN(v), MAX(v) FROM t "
        "GROUP BY g ORDER BY g").rows()
    expected = {}
    for g, v in rows:
        expected.setdefault(g, []).append(v)
    assert got == [
        (g, sum(vs), len(vs), min(vs), max(vs))
        for g, vs in sorted(expected.items())
    ]


# ---------------------------------------------------------------------------
# Grouping on codes: every shape matches the row-at-a-time reference bit
# for bit, groups in key order with the NULL group first
# ---------------------------------------------------------------------------


AGGS = ("COUNT(*), COUNT(val), SUM(val), MIN(val), MAX(val), AVG(val), "
        "STDDEV_SAMP(val), MIN(weight), MAX(weight), AVG(weight)")


def _coded_db(order: str) -> Database:
    """400 rows over groups 'g0'..'g5' plus NULL, with NULL values; rows
    come grouped by key (``order='grouped'``) or shuffled."""
    rng = np.random.default_rng(7)
    keys = rng.integers(0, 7, 400)
    if order == "grouped":
        keys = np.sort(keys)
    db = Database(recycler_budget_bytes=0)
    db.execute("CREATE TABLE c (grp VARCHAR, sub BIGINT, wide BIGINT, "
               "val BIGINT, weight DOUBLE)")
    rows = []
    for i, key in enumerate(keys.tolist()):
        grp = "NULL" if key == 6 else f"'g{key}'"
        val = "NULL" if i % 11 == 0 else str(int(rng.integers(-50, 50)))
        rows.append(f"({grp}, {i % 3}, {key * 1_000_003}, {val}, "
                    f"{float(rng.normal()):.17g})")
    db.execute(f"INSERT INTO c VALUES {', '.join(rows)}")
    return db


@pytest.mark.parametrize("order", ["grouped", "shuffled"])
@pytest.mark.parametrize("sql", [
    f"SELECT grp, {AGGS} FROM c GROUP BY grp",
    # A filter keeps the column's uniques: a superset of the groups left.
    f"SELECT grp, {AGGS} FROM c WHERE grp <> 'g2' AND val > -20 "
    f"GROUP BY grp",
    # Two keys: the combined code of (grp, sub).
    f"SELECT grp, sub, {AGGS} FROM c GROUP BY grp, sub",
    # Codes sparse next to the row count: densified before counting.
    f"SELECT wide, {AGGS} FROM c GROUP BY wide",
    "SELECT grp, COUNT(DISTINCT val), SUM(DISTINCT val), "
    "AVG(DISTINCT weight), MIN(val) FROM c GROUP BY grp",
    # A group whose DISTINCT argument is all NULL.
    "SELECT sub, COUNT(DISTINCT val), SUM(DISTINCT val) FROM c "
    "WHERE val IS NULL OR sub = 1 GROUP BY sub",
    f"SELECT grp, {AGGS} FROM c WHERE val > 1000 GROUP BY grp",
    f"SELECT {AGGS} FROM c WHERE val > 1000",
    f"SELECT {AGGS} FROM c",
], ids=["one-key", "filtered", "two-keys", "sparse", "distinct",
        "distinct-all-null", "empty-grouped", "empty-global", "global"])
def test_code_grouping_matches_rowpath(order, sql):
    from oracle import run_differential

    run_differential(_coded_db(order), sql, stream_batch_rows=(1, 64))


def test_code_grouping_after_a_take():
    """A join's take hands the aggregate a VARCHAR key whose uniques are
    a superset of the keys present."""
    from oracle import run_differential

    db = _coded_db("shuffled")
    db.execute("CREATE TABLE pick (sub BIGINT)")
    db.execute("INSERT INTO pick VALUES (2), (0), (2)")
    result = run_differential(
        db, f"SELECT c.grp, {AGGS} FROM c JOIN pick ON pick.sub = c.sub "
            f"WHERE c.grp IN ('g1', 'g4') GROUP BY c.grp")
    assert [row[0] for row in result.rows()] == ["g1", "g4"]


@pytest.mark.parametrize("order", ["grouped", "shuffled"])
def test_code_grouping_order_is_null_first_then_keys(order):
    rows = _coded_db(order).query(
        "SELECT grp, COUNT(*) FROM c GROUP BY grp").rows()
    assert [row[0] for row in rows] == [None] + [f"g{i}" for i in range(6)]
    assert sum(row[1] for row in rows) == 400


def test_groups_skip_the_gather_only_when_rows_are_grouped():
    from repro.db.plan.physical import _Groups

    grouped = _Groups.of(np.array([1, 1, 3, 3, 3, 8], dtype=np.int64))
    assert grouped.order is None
    assert grouped.inverse.tolist() == [0, 0, 1, 1, 1, 2]
    assert grouped.sizes.tolist() == [2, 3, 1]
    assert grouped.first_rows().tolist() == [0, 2, 5]
    shuffled = _Groups.of(np.array([3, 1, 8, 3, 1, 3], dtype=np.int64))
    assert shuffled.inverse.tolist() == [1, 0, 2, 1, 0, 1]
    assert shuffled.order.tolist() == [1, 4, 0, 3, 5, 2]
    assert shuffled.starts.tolist() == [0, 2, 5]
    assert shuffled.first_rows().tolist() == [1, 0, 2]
    sparse = _Groups.of(np.array([10**12, 5, 10**12], dtype=np.int64))
    assert sparse.inverse.tolist() == [1, 0, 1]
    assert len(_Groups.of(np.zeros(0, dtype=np.int64)).sizes) == 0
