"""The numpy oracle against the engine on a 3-file corpus, and the
failure accounting when an expected value is wrong."""

import dataclasses

import pytest

import corpus
import ops
from oracle import Oracle, rows_match
from workloads import Recorder, matches, on


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    from repro import SeismicWarehouse
    from repro.mseed.inventory import find_station
    from repro.mseed.synthesize import RepositorySpec

    root = tmp_path_factory.mktemp("c3")
    spec = RepositorySpec(stations=(find_station("HGN"),),
                          files_per_stream=1)
    entries, truth = corpus._build_tree(root, spec, seed=99)
    assert len(entries) == 3
    wh = SeismicWarehouse(str(root), mode="lazy")
    yield Oracle(entries, truth), wh.connect()
    wh.close()


def test_oracle_agrees_with_the_engine(small):
    oracle, conn = small
    rng = ops.rng_for(1, "oracle-test")
    entry = oracle.entries[0]
    checks = [ops.adhoc_window_op(oracle, rng, 30.0) for _ in range(5)]
    checks += [ops.fig1_q1_op(oracle, rng) for _ in range(3)]
    checks += [ops.prepared_q1_op(oracle, rng)]
    checks += [ops.adhoc_window_op(oracle, rng, 60.0, inside=entry)]
    checks += [ops.scan_op(oracle),
               ops.station_scan_op(oracle, "HGN"),
               ops.station_count_max_op(oracle, "HGN"),
               ops.station_min_op(oracle, "HGN"),
               ops.station_stddev_op(oracle, "HGN"),
               ops.file_retrieval_op(oracle, entry)]
    for op in checks:
        rows = conn.execute(op.sql, op.params).fetchall()
        assert matches(rows, op), (op.sql, rows[:3], op.want[:3])
    assert len(ops.file_retrieval_op(oracle, entry).want) == 24000


def test_a_wrong_expected_value_is_a_failed_op(small):
    oracle, conn = small
    good = ops.adhoc_window_op(oracle, ops.rng_for(2, "x"), 30.0)
    (avg, count), = good.want
    rec = Recorder()
    rec.statement("op", on(conn), good)
    assert (rec.attempted, rec.failed) == (1, 0)
    rec.statement("op", on(conn),
                  dataclasses.replace(good, want=((avg, count + 1),)))
    rec.statement("op", on(conn),
                  dataclasses.replace(good, want=((avg * 1.001, count),)))
    rec.statement("op", on(conn),
                  dataclasses.replace(good, sql="SELECT nonsense FROM"))
    assert (rec.attempted, rec.failed) == (4, 3)
    assert len(rec.samples["op"]) == 4        # failed ops keep a latency


def test_rows_match_tolerances_and_ordering():
    assert rows_match([(1, 2.0)], [(1, 2.0 + 1e-12)])
    assert not rows_match([(1, 2.0)], [(1, 2.0 + 1e-6)])
    assert rows_match([(1, 2.0)], [(1, 2.0 + 1e-7)], rel=1e-6)
    assert not rows_match([(1, 2.0)], [(2, 2.0)])
    assert not rows_match([("b", 1), ("a", 2)], [("a", 2), ("b", 1)])
    assert rows_match([("b", 1), ("a", 2)], [("a", 2), ("b", 1)],
                      ordered=False)
    assert not rows_match(None, [(1,)])
    assert not rows_match([], [(1,)])
    assert not rows_match([(None,)], [(1.0,)])
