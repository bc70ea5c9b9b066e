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
# Pairing metadata rows with extracted rows: the shapes it must get right
# ---------------------------------------------------------------------------


_FRD = ("FROM mseed.files F "
        "JOIN mseed.records R ON R.file_location = F.file_location "
        "JOIN mseed.data D ON R.file_location = D.file_location "
        "AND R.seq_no = D.seq_no ")
_NULL_KEYS = ("FROM mseed.files F LEFT JOIN mseed.records R "
              "ON F.file_location = R.file_location AND {on} "
              "JOIN mseed.data D ON R.file_location = D.file_location "
              "AND R.seq_no = D.seq_no WHERE F.station = 'ISK'")

PAIRING_CORPUS = [
    # Every metadata row repeats its (file, record) key once per file of
    # the station, so each extracted row fans out that many times.
    ("repeated_key",
     "SELECT F.channel, COUNT(*), SUM(D.sample_value) FROM mseed.files F "
     "JOIN mseed.files F2 ON F2.station = F.station "
     "JOIN mseed.records R ON R.file_location = F.file_location "
     "JOIN mseed.data D ON R.file_location = D.file_location "
     "AND R.seq_no = D.seq_no "
     "WHERE F.station = 'ISK' GROUP BY F.channel"),
    # The LEFT JOIN leaves every key NULL: nothing to extract.
    ("null_keys_all",
     "SELECT COUNT(*) " + _NULL_KEYS.format(on="R.seq_no > 100000")),
    # BHE rows carry NULL keys, BHZ rows real ones.
    ("null_keys_mixed",
     "SELECT F.channel, R.seq_no, COUNT(*), SUM(D.sample_value) "
     + _NULL_KEYS.format(on="F.channel = 'BHZ' AND R.seq_no <= 3")
     + " GROUP BY F.channel, R.seq_no"),
    # No time bound comes out of the OR, so whole records inside each
    # file are extracted and then emptied by the residual.
    ("residual_empties_records",
     "SELECT R.seq_no, COUNT(*), MIN(D.sample_time), MAX(D.sample_value) "
     + _FRD + "WHERE F.station = 'ISK' AND F.channel = 'BHZ' "
     "AND (D.sample_time < '2010-01-12T22:01:00.000' "
     "OR D.sample_time >= '2010-01-12T22:15:00.000') GROUP BY R.seq_no"),
    # D's key columns are produced when a parent reads them.
    ("data_keys_read",
     "SELECT D.file_location, D.seq_no, D.sample_value " + _FRD
     + "WHERE F.station = 'ISK' AND F.channel = 'BHZ' AND R.seq_no <= 2 "
     "ORDER BY D.file_location, D.seq_no, D.sample_time"),
]


@pytest.mark.oracle
@pytest.mark.parametrize("qid,sql", PAIRING_CORPUS,
                         ids=[qid for qid, _sql in PAIRING_CORPUS])
@pytest.mark.parametrize("mode", ["lazy", "eager"])
def test_differential_oracle_pairing(warehouses, differential_oracle,
                                     mode, qid, sql):
    differential_oracle(warehouses[mode].db, sql,
                        stream_batch_rows=CORPUS_BATCH_ROWS)


@pytest.mark.parametrize("qid,sql", PAIRING_CORPUS,
                         ids=[qid for qid, _sql in PAIRING_CORPUS])
def test_pairing_lazy_equals_eager(warehouses, qid, sql):
    expected = _sorted_rows(warehouses["eager"].query(sql))
    assert _sorted_rows(warehouses["lazy"].query(sql)) == expected
    assert expected  # every shape answers something


def test_repeated_key_fans_out_per_file(warehouses):
    lazy = warehouses["lazy"]
    files = lazy.query(
        "SELECT COUNT(*) FROM mseed.files WHERE station = 'ISK'").scalar()
    once = dict(lazy.query(
        "SELECT F.channel, COUNT(*) " + _FRD
        + "WHERE F.station = 'ISK' GROUP BY F.channel").rows())
    fanned = {channel: count for channel, count, _sum in lazy.query(
        dict(PAIRING_CORPUS)["repeated_key"]).rows()}
    assert files > 1
    assert fanned == {channel: files * n for channel, n in once.items()}


def test_null_metadata_keys_extract_nothing(demo_repo):
    """A NULL key names no record: lazy answers like eager instead of
    looking for a file named by the code under the NULL."""
    lazy = SeismicWarehouse(demo_repo.root, mode="lazy",
                            recycler_budget_bytes=0)
    assert lazy.query(dict(PAIRING_CORPUS)["null_keys_all"]).rows() == [(0,)]
    lazy.query(dict(PAIRING_CORPUS)["null_keys_mixed"])
    served = {entry["file"] for entry in lazy.last_trace
              if entry["op"] in ("extract", "cache_fetch", "prune")}
    assert served and all("BHZ" in uri for uri in served)


@pytest.mark.parametrize("divisor,record", [(20, 2), (16, None)])
def test_fractional_seq_key_names_no_record(warehouses, divisor, record):
    """A DOUBLE key pairs by value: 40.0 / 20 names record 2, while
    40.0 / 16 = 2.5 names none (not record 2, its truncation).  Eager's
    hash join brings the DOUBLE and BIGINT keys to one type, so it
    answers as lazy and rowpath do."""
    lazy = warehouses["lazy"]
    sql = ("SELECT COUNT(*), SUM(D.sample_value) FROM (SELECT file_location, "
           f"frequency / {divisor} AS seq FROM mseed.records "
           "WHERE seq_no = 1) R "
           "JOIN mseed.data D ON R.file_location = D.file_location "
           "AND R.seq = D.seq_no WHERE R.file_location LIKE '%ISK..BHZ%'")
    got = run_differential(lazy.db, sql).rows()
    assert warehouses["eager"].query(sql).rows() == got
    expected = (0, None) if record is None else lazy.query(
        "SELECT COUNT(*), SUM(D.sample_value) " + _FRD
        + f"WHERE F.station = 'ISK' AND F.channel = 'BHZ' "
        f"AND R.seq_no = {record}").first()
    assert got == [expected]
    assert record is None or expected[0] > 0


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


REFRESH_CORPUS = [
    fig1_query1(),  # ISK BHE: rewritten below
    fig1_query2(),  # NL BHZ: rewritten below
    "SELECT file_location, COUNT(*), MIN(start_time), MAX(end_time) "
    "FROM mseed.records GROUP BY file_location",
]


@pytest.mark.oracle
@pytest.mark.parametrize("mode", ["lazy", "eager"])
def test_differential_oracle_after_a_refresh(mutable_repo, differential_oracle,
                                             mode):
    """After a rewrite and sync(), the three executions still agree, and
    answer like a warehouse built fresh over the new bytes."""
    from test_refresh import _rewrite_file

    wh = SeismicWarehouse(mutable_repo.root, mode=mode)
    for sql in REFRESH_CORPUS:
        wh.query(sql)  # derived state of the old bytes, to be dropped
    for entry in mutable_repo.entries:
        if entry.station == "ISK" or entry.channel == "BHZ":
            _rewrite_file(entry, offset=70_000)
    assert wh.sync().updated
    fresh = SeismicWarehouse(mutable_repo.root, mode=mode)
    for sql in REFRESH_CORPUS:
        got = differential_oracle(wh.db, sql,
                                  stream_batch_rows=CORPUS_BATCH_ROWS)
        assert _sorted_rows(got) == _sorted_rows(fresh.query(sql))
