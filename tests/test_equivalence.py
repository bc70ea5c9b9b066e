"""The central correctness property: lazy == eager.

Whatever the ingestion strategy, every query must return identical
results — Lazy ETL is an optimisation of *when* work happens, never of
*what* the warehouse answers.
"""

import numpy as np
import pytest
from oracle import CORPUS_BATCH_ROWS, run_differential

from repro.mseed.encodings import ENC_STEIM2
from repro.mseed.records import encode_record
from repro.seismology.queries import (
    analytical_suite,
    fig1_query1,
    fig1_query2,
)
from repro.seismology.warehouse import SeismicWarehouse
from repro.util.timefmt import from_ymd


@pytest.fixture(scope="module")
def warehouses(demo_repo):
    return {
        "lazy": SeismicWarehouse(demo_repo.root, mode="lazy"),
        "eager": SeismicWarehouse(demo_repo.root, mode="eager"),
    }


def _sorted_rows(result):
    return sorted(result.rows(), key=lambda row: tuple(str(c) for c in row))


def test_fig1_q1_equivalence(warehouses):
    expected = warehouses["eager"].query(fig1_query1()).rows()
    assert warehouses["lazy"].query(fig1_query1()).rows() == expected
    # And the answer is a real number over a nonempty window.
    assert expected[0][0] is not None


def test_fig1_q2_equivalence(warehouses):
    expected = _sorted_rows(warehouses["eager"].query(fig1_query2()))
    assert len(expected) == 2  # HGN and DBN carry BHZ in the fixture
    assert _sorted_rows(warehouses["lazy"].query(fig1_query2())) == expected


@pytest.mark.parametrize("qid", ["Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7"])
def test_suite_equivalence(warehouses, qid):
    spec = next(s for s in analytical_suite() if s.qid == qid)
    expected = _sorted_rows(warehouses["eager"].query(spec.sql))
    got_lazy = _sorted_rows(warehouses["lazy"].query(spec.sql))
    assert got_lazy == expected, f"{qid} lazy mismatch"


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


# ---------------------------------------------------------------------------
# Differential oracle: every corpus query, three executors, byte identity
# ---------------------------------------------------------------------------


ORACLE_CORPUS = [("fig1_q1", fig1_query1()), ("fig1_q2", fig1_query2())] + [
    (spec.qid, spec.sql) for spec in analytical_suite()
]


@pytest.mark.oracle
@pytest.mark.parametrize("qid,sql", ORACLE_CORPUS,
                         ids=[qid for qid, _sql in ORACLE_CORPUS])
@pytest.mark.parametrize("mode", ["lazy", "eager"])
def test_differential_oracle_corpus(warehouses, differential_oracle,
                                    mode, qid, sql):
    """Drained, streamed (at every swept batch size) and row-at-a-time
    execution agree bit-for-bit on the full SQL corpus, whatever the
    ingestion mode."""
    differential_oracle(warehouses[mode].db, sql,
                        stream_batch_rows=CORPUS_BATCH_ROWS)


# ---------------------------------------------------------------------------
# Record number 0 is a record like any other
# ---------------------------------------------------------------------------


def _write_from_record_zero(path, samples, rate=40):
    """``samples`` as records numbered 0, 1, ... (writers here start at
    1, but 0 is a legal sequence number); returns the record count."""
    start = from_ymd(2010, 1, 12, 22, 0)
    seq = position = 0
    previous = None
    with open(path, "wb") as handle:
        while position < len(samples):
            record, encoded = encode_record(
                sequence_number=seq, quality="D", station="ZERO",
                location="", channel="BHZ", network="XX",
                start_time_us=start + round(position * 1_000_000 / rate),
                samples=samples[position:], sample_rate_factor=rate,
                sample_rate_multiplier=1, encoding=ENC_STEIM2,
                previous_sample=previous)
            handle.write(record)
            previous = int(samples[position + encoded - 1])
            position += encoded
            seq += 1
    return seq


@pytest.fixture(scope="module")
def record_zero_warehouses(tmp_path_factory):
    root = tmp_path_factory.mktemp("record-zero")
    samples = np.random.default_rng(0).integers(
        -512, 512, 1200).astype(np.int32)
    assert _write_from_record_zero(root / "zero.mseed", samples) == 5
    return samples, {mode: SeismicWarehouse(root, mode=mode)
                     for mode in ("lazy", "eager")}


RECORD_ZERO_SQL = [
    "SELECT seq_no, COUNT(*), SUM(sample_value) FROM mseed.dataview "
    "GROUP BY seq_no ORDER BY seq_no",
    "SELECT COUNT(*), MIN(sample_time), SUM(sample_value) "
    "FROM mseed.dataview WHERE seq_no = 0",
]


@pytest.mark.oracle
@pytest.mark.parametrize("sql", RECORD_ZERO_SQL)
def test_record_zero_is_one_record(record_zero_warehouses, sql):
    """A file numbered from 0: lazy extraction used to read seq_no 0 as
    "the whole file" and answer every sample as record 0."""
    samples, warehouses = record_zero_warehouses
    lazy = run_differential(warehouses["lazy"].db, sql,
                            stream_batch_rows=CORPUS_BATCH_ROWS)
    eager = run_differential(warehouses["eager"].db, sql,
                             stream_batch_rows=CORPUS_BATCH_ROWS)
    assert lazy.rows() == eager.rows()
    if "GROUP BY" in sql:
        rows = lazy.rows()
        assert [row[0] for row in rows] == [0, 1, 2, 3, 4]
        assert sum(row[1] for row in rows) == len(samples)
        assert sum(row[2] for row in rows) == int(samples.sum())
    else:
        count = lazy.first()[0]
        assert 0 < count < len(samples)
