"""Tests for multi-record file I/O and the header-only scan path."""

import numpy as np
import pytest

from repro.errors import CorruptRecordError
from repro.mseed import encodings
from repro.mseed.files import (
    file_time_span,
    read_file,
    read_records,
    scan_file_headers,
    write_mseed_file,
)
from repro.util.timefmt import from_ymd

T0 = from_ymd(2010, 1, 12, 22, 0)


def _write(tmp_path, samples, **kwargs):
    path = tmp_path / "NL.HGN..BHZ.2010.012.2200.mseed"
    defaults = dict(
        network="NL", station="HGN", location="", channel="BHZ",
        start_time_us=T0, sample_rate=40.0, samples=samples,
    )
    defaults.update(kwargs)
    count = write_mseed_file(path, **defaults)
    return path, count


def test_write_then_read_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    samples = np.cumsum(rng.integers(-60, 60, 5000)).astype(np.int32)
    path, n_records = _write(tmp_path, samples)
    assert n_records > 1
    records = read_file(path)
    assert len(records) == n_records
    rebuilt = np.concatenate([r.samples for r in records])
    assert np.array_equal(rebuilt, samples)


def test_record_sequence_numbers_and_times_chain(tmp_path):
    samples = np.arange(3000, dtype=np.int32)
    path, n_records = _write(tmp_path, samples)
    headers = scan_file_headers(path)
    assert [h.sequence_number for h in headers] == list(range(1, n_records + 1))
    # Every record starts exactly where the previous ended (+1 interval).
    for prev, cur in zip(headers, headers[1:]):
        assert cur.start_time_us == prev.end_time_us + 25_000


def test_scan_reads_only_headers(tmp_path):
    samples = np.arange(5000, dtype=np.int32)
    path, n_records = _write(tmp_path, samples)
    headers = scan_file_headers(path)
    assert len(headers) == n_records
    assert sum(h.sample_count for h in headers) == 5000


def test_selective_read(tmp_path):
    samples = np.arange(5000, dtype=np.int32)
    path, n_records = _write(tmp_path, samples)
    subset = read_records(path, [2, 4])
    assert [r.header.sequence_number for r in subset] == [2, 4]
    full = read_file(path)
    assert np.array_equal(subset[0].samples, full[1].samples)


def test_file_time_span(tmp_path):
    samples = np.arange(3000, dtype=np.int32)
    path, _ = _write(tmp_path, samples)
    headers = scan_file_headers(path)
    start, end = file_time_span(headers)
    assert start == T0
    assert end == headers[-1].end_time_us
    with pytest.raises(CorruptRecordError):
        file_time_span([])


def test_trailing_garbage_detected(tmp_path):
    samples = np.arange(1000, dtype=np.int32)
    path, _ = _write(tmp_path, samples)
    with open(path, "ab") as handle:
        handle.write(b"\x01" * 10)
    with pytest.raises(CorruptRecordError):
        scan_file_headers(path)


def test_zero_samples_rejected(tmp_path):
    with pytest.raises(CorruptRecordError):
        _write(tmp_path, np.array([], dtype=np.int32))


def test_non_integer_rate_rejected(tmp_path):
    with pytest.raises(CorruptRecordError):
        _write(tmp_path, np.arange(10, dtype=np.int32), sample_rate=39.7)


def test_sub_hz_file(tmp_path):
    samples = np.arange(100, dtype=np.int32)
    path, _ = _write(tmp_path, samples, sample_rate=0.5)
    headers = scan_file_headers(path)
    assert headers[0].sample_rate == pytest.approx(0.5)


def test_int32_encoding_file(tmp_path):
    samples = np.arange(2000, dtype=np.int32)
    path, n_records = _write(tmp_path, samples,
                             encoding=encodings.ENC_INT32)
    records = read_file(path)
    rebuilt = np.concatenate([r.samples for r in records])
    assert np.array_equal(rebuilt, samples)
    # INT32 packs exactly (512-64)/4 = 112 samples per record.
    assert records[0].header.sample_count == 112
