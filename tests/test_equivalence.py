"""The central correctness property: lazy == eager == external.

Whatever the ingestion strategy, every query must return identical
results — Lazy ETL is an optimisation of *when* work happens, never of
*what* the warehouse answers.
"""

import pytest
from oracle import CORPUS_BATCH_ROWS

from repro.seismology.queries import (
    analytical_suite,
    fig1_query1,
    fig1_query2,
)
from repro.seismology.warehouse import SeismicWarehouse


@pytest.fixture(scope="module")
def warehouses(demo_repo):
    return {
        "lazy": SeismicWarehouse(demo_repo.root, mode="lazy"),
        "eager": SeismicWarehouse(demo_repo.root, mode="eager"),
        "external": SeismicWarehouse(demo_repo.root, mode="external"),
    }


def _sorted_rows(result):
    return sorted(result.rows(), key=lambda row: tuple(str(c) for c in row))


def test_fig1_q1_equivalence(warehouses):
    expected = warehouses["eager"].query(fig1_query1()).rows()
    assert warehouses["lazy"].query(fig1_query1()).rows() == expected
    assert warehouses["external"].query(fig1_query1()).rows() == expected
    # And the answer is a real number over a nonempty window.
    assert expected[0][0] is not None


def test_fig1_q2_equivalence(warehouses):
    expected = _sorted_rows(warehouses["eager"].query(fig1_query2()))
    assert len(expected) == 2  # HGN and DBN carry BHZ in the fixture
    assert _sorted_rows(warehouses["lazy"].query(fig1_query2())) == expected
    assert _sorted_rows(warehouses["external"].query(fig1_query2())) == expected


@pytest.mark.parametrize("qid", ["Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7"])
def test_suite_equivalence(warehouses, qid):
    spec = next(s for s in analytical_suite() if s.qid == qid)
    expected = _sorted_rows(warehouses["eager"].query(spec.sql))
    got_lazy = _sorted_rows(warehouses["lazy"].query(spec.sql))
    assert got_lazy == expected, f"{qid} lazy mismatch"
    got_external = _sorted_rows(warehouses["external"].query(spec.sql))
    assert got_external == expected, f"{qid} external mismatch"


def test_q8_metadata_query_lazy_vs_eager(warehouses):
    spec = next(s for s in analytical_suite() if s.qid == "Q8")
    expected = warehouses["eager"].query(spec.sql).rows()
    assert warehouses["lazy"].query(spec.sql).rows() == expected


def test_lazy_warm_equals_cold(demo_repo):
    wh = SeismicWarehouse(demo_repo.root, mode="lazy")
    cold = wh.query(fig1_query2()).rows()
    warm = wh.query(fig1_query2()).rows()
    assert warm == cold


def test_eager_data_table_complete(warehouses, demo_repo):
    count = warehouses["eager"].query(
        "SELECT COUNT(*) FROM mseed.data").scalar()
    assert count == demo_repo.total_samples


def test_sample_sums_match_across_modes(warehouses):
    sql = ("SELECT SUM(D.sample_value), COUNT(*) FROM mseed.dataview "
           "WHERE F.channel = 'BHE'")
    expected = warehouses["eager"].query(sql).first()
    assert warehouses["lazy"].query(sql).first() == expected
    assert warehouses["external"].query(sql).first() == expected


# ---------------------------------------------------------------------------
# Differential oracle: every corpus query, three executors, byte identity
# ---------------------------------------------------------------------------


ORACLE_CORPUS = [("fig1_q1", fig1_query1()), ("fig1_q2", fig1_query2())] + [
    (spec.qid, spec.sql) for spec in analytical_suite()
]


@pytest.mark.oracle
@pytest.mark.parametrize("qid,sql", ORACLE_CORPUS,
                         ids=[qid for qid, _sql in ORACLE_CORPUS])
@pytest.mark.parametrize("mode", ["lazy", "eager", "external"])
def test_differential_oracle_corpus(warehouses, differential_oracle,
                                    mode, qid, sql):
    """Drained, streamed (at every swept batch size) and row-at-a-time
    execution agree bit-for-bit on the full SQL corpus, whatever the
    ingestion mode."""
    if mode == "external" and qid == "Q8":
        pytest.skip("external mode has no mseed.files metadata table")
    differential_oracle(warehouses[mode].db, sql,
                        stream_batch_rows=CORPUS_BATCH_ROWS)
