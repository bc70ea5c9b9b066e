"""Differential oracle: the one-pass file decode vs. the per-record loop.

Extraction reads a file once and decodes it in one pass
(``decode_file`` behind ``MSeedAdapter.extract``: one header decode, one
``np.isin`` pick, one decode per run of records alike in length, data
offset and encoding, and one batch transform).  Every file goes that
way; ``MSeedAdapter.reference_extract`` is the per-record reference
(``read_records_from``, ``decode_record``, the scalar Steim decoder and
``_transform_records``).  These tests extract the same bytes both ways
and require the sequence numbers, ``sample_value`` and ``sample_time``
to agree bit for bit, and a corrupt file to raise the same typed error
with the same message.  A hypothesis test draws random Steim and INT32
series.
"""

from __future__ import annotations

import base64
import io
import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.db.types import DataType
from repro.errors import (
    CorruptRecordError,
    MSeedError,
    ReproError,
    SteimError,
    UnsupportedEncodingError,
)
from repro.etl import mseed_adapter
from repro.etl.mseed_adapter import MSeedAdapter
from repro.mseed import encodings, steim
from repro.mseed import files as mseed_files
from repro.mseed.files import decode_file, write_mseed_file
from repro.mseed.records import encode_record
from repro.mseed.repository import Repository
from repro.util.timefmt import from_ymd

pytestmark = pytest.mark.oracle

T0 = from_ymd(2010, 1, 12, 22, 0)
COLUMNS = ("sample_time", "sample_value")
STEIM = {1: encodings.ENC_STEIM1, 2: encodings.ENC_STEIM2}


class _InMemory:
    """A one-file stand-in for a Repository: extraction only opens."""

    def __init__(self, data: bytes) -> None:
        self.data = data

    def open(self, uri: str):
        return io.BytesIO(self.data)


def _outcome(repo, uri, seqs, *, batched: bool,
             value_type=DataType.BIGINT):
    """What extraction gives: the seq order, the record offsets and
    every column's dtype and bytes, or the type and message of the error
    it raised."""
    adapter = MSeedAdapter(value_type)
    extract = adapter.extract if batched else adapter.reference_extract
    try:
        # A log record (rate 0) must not be divided by.
        with np.errstate(divide="raise", invalid="raise"):
            extracted = extract(repo, uri, seqs, COLUMNS)
    except ReproError as exc:
        return type(exc), str(exc)
    return extracted.seq_nos.tolist(), extracted.offsets.tolist(), {
        name: (arr.dtype.str, arr.flags.c_contiguous, arr.base is None,
               arr.tobytes()) for name, arr in extracted.columns.items()}


def _values(outcome, name="sample_value"):
    """Each record's ``name`` values, cut from an outcome at its
    offsets."""
    _seqs, offsets, columns = outcome
    dtype, _contiguous, _owned, data = columns[name]
    values = np.frombuffer(data, dtype)
    return [values[lo:hi] for lo, hi in zip(offsets, offsets[1:])]


def assert_paths_agree(repo, uri="f.mseed", seqs=None, **kwargs):
    batched = _outcome(repo, uri, seqs, batched=True, **kwargs)
    assert batched == _outcome(repo, uri, seqs, batched=False, **kwargs)
    return batched


def _vouched(data: bytes) -> bool:
    """Did the one pass decode the file or raise a typed error itself?"""
    try:
        return decode_file(data) is not None
    except MSeedError:
        return True


def _file_bytes(samples, *, level=2, record_length=512, sample_rate=40.0,
                encoding=None) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.mseed"
        write_mseed_file(path, network="XX", station="ORCL", location="",
                         channel="BHZ", start_time_us=T0,
                         sample_rate=sample_rate,
                         samples=np.asarray(samples),
                         encoding=encoding or STEIM[level],
                         record_length=record_length)
        return path.read_bytes()


def _noise(n=3000, seed=0) -> np.ndarray:
    """Bursts of every amplitude, so every Steim class occurs."""
    rng = np.random.default_rng(seed)
    scale = rng.choice([1, 7, 100, 20000, 2**27], size=n)
    walk = np.cumsum(rng.integers(-scale, scale + 1))
    return np.clip(walk, -2**31 + 1, 2**31 - 1).astype(np.int32)


# -- healthy files -----------------------------------------------------------------

@pytest.mark.parametrize("value_type", [DataType.BIGINT, DataType.DOUBLE])
def test_tiny_repo_agrees(tiny_repo, value_type):
    repo = Repository(tiny_repo.root)
    for info in repo.list_files():
        seqs, offsets, columns = assert_paths_agree(repo, info.uri,
                                                    value_type=value_type)
        assert len(seqs) > 1 and sorted(columns) == sorted(COLUMNS)
        assert all(np.diff(offsets) > 0)
        with repo.open(info.uri) as handle:
            assert _vouched(handle.read())


@pytest.mark.parametrize("level", [1, 2])
@pytest.mark.parametrize("rate", [40.0, 128.0, 3.0, 0.5])
def test_steim_files_agree(level, rate):
    # 1e6 / 128 = 7812.5: every other sample_time is a rounding tie.
    data = _file_bytes(_noise(seed=level), level=level, sample_rate=rate)
    assert _vouched(data)
    seqs, _offsets, _columns = assert_paths_agree(_InMemory(data))
    assert seqs == list(range(1, len(seqs) + 1))


SUBSETS = {
    "unsorted": [9, 2, 5, 1],
    "repeated": [3, 3, 4],
    "missing": [2, 999, 4],
    "none": [],
    "last": [-1],
}


@pytest.mark.parametrize("case", sorted(SUBSETS))
def test_selected_subset_agrees(case):
    data = _file_bytes(_noise(seed=3))
    n_records = len(data) // 512
    seqs = [n_records if seq == -1 else seq for seq in SUBSETS[case]]
    got = assert_paths_agree(_InMemory(data), seqs=seqs)
    if case == "missing":
        assert got[0].__name__ == "ExtractionError"
    else:
        assert got[0] == sorted(set(seqs))  # file order, each once


_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "steim_golden.json").read_text()
)["cases"]


def _wrap(payload: bytes, nsamples: int, level: int, seq: int,
          record_length: int) -> bytes:
    """One record around a bare Steim payload, zero frames after it."""
    record, _ = encode_record(
        sequence_number=seq, quality="D", station="GOLD", location="",
        channel="BHZ", network="XX", start_time_us=T0 + seq * 10**9,
        samples=np.zeros(1, dtype=np.int32), sample_rate_factor=100,
        sample_rate_multiplier=1, encoding=STEIM[level],
        record_length=record_length)
    record = bytearray(record)
    struct.pack_into(">H", record, 30, nsamples)
    record[64:] = payload.ljust(record_length - 64, b"\0")
    return bytes(record)


@pytest.mark.parametrize("level", [1, 2])
def test_golden_payloads_agree(level):
    cases = [case for case in _GOLDEN if case["level"] == level]
    data = b"".join(
        _wrap(base64.b64decode(case["payload_b64"]), case["nsamples"],
              level, seq, 1024)
        for seq, case in enumerate(cases, 1))
    assert _vouched(data)
    records = _values(assert_paths_agree(_InMemory(data)))
    for case, values in zip(cases, records):
        assert values.tobytes() == \
            np.array(case["samples"], dtype=np.int64).tobytes()


@pytest.mark.parametrize("case", _GOLDEN, ids=lambda c: c["name"])
def test_each_golden_payload_in_its_own_record_agrees(case):
    payload = base64.b64decode(case["payload_b64"])
    length = 1 << (63 + len(payload)).bit_length()
    data = _wrap(payload, case["nsamples"], case["level"], 1, length)
    assert _vouched(data)
    assert_paths_agree(_InMemory(data))


# -- files that are not one run of standard Steim records ----------------------

def _then(first: bytes, second: bytes, length: int, number: int = 100) -> bytes:
    """``second``'s ``length``-byte records after ``first``'s, numbered
    on from ``number``."""
    renumbered = bytearray(second)
    for index in range(len(second) // length):
        renumbered[index * length:index * length + 6] = b"%06d" % (
            number + index)
    return first + bytes(renumbered)


def _edit(data: bytes, offset: int, fmt: str, *values, records=None,
          length: int = 512, base: int = 0) -> bytes:
    """``data`` with ``values`` packed at ``offset`` of each of
    ``records`` (indices of the ``length``-byte records from byte
    ``base`` on; all of them when ``None``)."""
    out = bytearray(data)
    for index in (range((len(out) - base) // length) if records is None
                  else records):
        struct.pack_into(fmt, out, base + index * length + offset, *values)
    return bytes(out)


def _mixed_encodings() -> bytes:
    return _then(_file_bytes(_noise(600), level=1),
                 _file_bytes(_noise(600, seed=1), level=2), 512)


def _log_record() -> bytes:
    """A Steim-2 file whose third record is a log record: no samples at
    sample-rate factor 0."""
    return _edit(_file_bytes(_noise(1200)), 30, ">Hh", 0, 0, records=[2])


# Files the header pass does not vouch for as one run of standard Steim
# records (a raw encoding, runs that differ, a torn file, a rate of 0);
# decode_file decodes or rejects each of them itself.
FALLBACK = {
    "int32": lambda: _file_bytes(_noise(800), encoding=encodings.ENC_INT32),
    "float64": lambda: _file_bytes(_noise(800).astype(np.float64),
                                   encoding=encodings.ENC_FLOAT64),
    "mixed-encodings": _mixed_encodings,
    "mixed-lengths": lambda: _file_bytes(_noise(600)) + _file_bytes(
        _noise(3000), record_length=4096),
    "truncated": lambda: _file_bytes(_noise())[:-100],
    "log-record": _log_record,
}


@pytest.mark.parametrize("case", sorted(FALLBACK))
def test_unvouched_files_agree(case):
    data = FALLBACK[case]()
    assert _vouched(data)
    assert_paths_agree(_InMemory(data))


# -- corrupt payloads ----------------------------------------------------------------

def _frame_word(data: bytearray, record: int, word: int) -> int:
    """Byte offset of ``word`` of the first frame of ``record``."""
    return record * 512 + 64 + 4 * word


def _bad_dnib(data: bytearray, record: int) -> None:
    # Word 3 claims nibble 10 with dnib 00, which Steim-2 does not have.
    header = _frame_word(data, record, 0)
    nibbles = struct.unpack_from(">I", data, header)[0]
    struct.pack_into(">I", data, header,
                     nibbles & ~(3 << 24) | (2 << 24))
    word = _frame_word(data, record, 3)
    struct.pack_into(">I", data, word,
                     struct.unpack_from(">I", data, word)[0] & 0x3FFFFFFF)


def _too_few(data: bytearray, record: int) -> None:
    struct.pack_into(">H", data, record * 512 + 30, 0xFFFF)


def _xn_mismatch(data: bytearray, record: int) -> None:
    word = _frame_word(data, record, 2)
    struct.pack_into(">i", data, word,
                     struct.unpack_from(">i", data, word)[0] ^ 0x55)


CORRUPT = {
    "bad-dnib": [(_bad_dnib, 3)],
    "too-few-differences": [(_too_few, 3)],
    "xn-mismatch": [(_xn_mismatch, 3)],
    # The first bad record decides which error either path raises.
    "xn-before-bad-dnib": [(_xn_mismatch, 2), (_bad_dnib, 4)],
    "bad-dnib-before-xn": [(_bad_dnib, 2), (_xn_mismatch, 4)],
    "too-few-before-bad-dnib": [(_too_few, 1), (_bad_dnib, 2)],
}


def _corrupt(case: str, level: int = 2) -> bytes:
    data = bytearray(_file_bytes(_noise(seed=5), level=level))
    for edit, record in CORRUPT[case]:
        edit(data, record)
    return bytes(data)


@pytest.mark.parametrize("case", sorted(CORRUPT))
def test_corrupt_payloads_raise_the_same_error(case):
    data = _corrupt(case)
    with pytest.raises(SteimError):
        decode_file(data)  # the one pass saw it, not the fallback
    error, message = assert_paths_agree(_InMemory(data))
    assert error is SteimError
    first = CORRUPT[case][0][0]
    assert {_bad_dnib: "dnib", _too_few: "ended early",
            _xn_mismatch: "reverse integration"}[first] in message


@pytest.mark.parametrize("case", ["too-few-differences", "xn-mismatch"])
def test_corrupt_steim1_payloads_raise_the_same_error(case):
    data = _corrupt(case, level=1)
    with pytest.raises(SteimError):
        decode_file(data)
    assert assert_paths_agree(_InMemory(data))[0] is SteimError


def test_differences_past_the_sample_count_agree():
    """Records whose frames hold more differences than they count
    samples: only the first ``sample_count`` are samples."""
    data = bytearray(_file_bytes(_noise(seed=7)))
    records = _values(_outcome(_InMemory(bytes(data)), "f.mseed", None,
                               batched=False))
    for record in (1, 4):
        values = records[record]
        struct.pack_into(">H", data, record * 512 + 30, len(values) - 5)
        struct.pack_into(">i", data, _frame_word(data, record, 2),
                         int(values[-6]))
    assert _vouched(bytes(data))
    got = _values(assert_paths_agree(_InMemory(bytes(data))))
    assert len(got[1]) == len(records[1]) - 5


def test_unpicked_corrupt_record_is_not_decoded():
    data = _corrupt("bad-dnib")
    seqs, offsets, _columns = assert_paths_agree(_InMemory(data),
                                                 seqs=[1, 2, 6])
    assert seqs == [1, 2, 6] and all(np.diff(offsets) > 0)


@pytest.mark.parametrize("block_bytes", [1, 1024])
@pytest.mark.parametrize("case", ["healthy", *sorted(CORRUPT)])
def test_blocked_decode_agrees(monkeypatch, block_bytes, case):
    """A file decoded a block of one or two records at a time, as a file
    far larger than the block is, agrees with the reference too; a bad
    record in a later block does not hide one in an earlier block."""
    passes = []
    decode_live = steim._decode_live

    def counting(words, *args, **kwargs):
        passes.append(len(words))
        return decode_live(words, *args, **kwargs)

    monkeypatch.setattr(steim, "_BLOCK_BYTES", block_bytes)
    monkeypatch.setattr(steim, "_decode_live", counting)
    data = (_file_bytes(_noise(seed=5)) if case == "healthy"
            else _corrupt(case))
    assert_paths_agree(_InMemory(data))
    assert_paths_agree(_InMemory(data), seqs=[7, 2, 5])
    if case == "healthy":
        assert max(passes) == (1 if block_bytes == 1 else 2)


# -- crafted layouts, mixed runs and typed errors -----------------------------------

def _int32(n=800, seed=0) -> bytes:
    return _file_bytes(_noise(n, seed), encoding=encodings.ENC_INT32)


def _mixed_lengths(*edit) -> bytes:
    """512-byte Steim-2 records, then 4096-byte ones numbered on from
    100; ``edit`` (offset, format, values...) packed into the second
    record of the second run."""
    small = _file_bytes(_noise(600))
    data = _then(small, _file_bytes(_noise(3000, seed=1), record_length=4096),
                 4096)
    return _edit(data, *edit, records=[1], length=4096,
                 base=len(small)) if edit else data


def _bad_payload_then(edit, record: int) -> bytes:
    """A bad dnib in record 2, then ``edit`` applied to ``record``."""
    data = bytearray(_file_bytes(_noise(seed=5)))
    _bad_dnib(data, 2)
    return _edit(bytes(data), *edit, records=[record])


BADSEQ = (0, "6s", b"00a003")
HOUR25 = (24, ">B", 25)

# name: (file bytes, the error both paths raise or None)
CRAFTED = {
    # Decodable blockette layouts the header pass does not vouch for.
    "nblk1": (lambda: _edit(_edit(_file_bytes(_noise()), 39, ">B", 1),
                            50, ">H", 0), None),
    "b1001first": (lambda: _edit(
        _file_bytes(_noise()), 48, ">HHBbBB HHBBBB", 1001, 56, 90, 0, 0, 0,
        1000, 0, encodings.ENC_STEIM2, 1, 9, 0), None),
    "steim2-then-int32": (lambda: _then(_file_bytes(_noise(900)),
                                        _int32(500, seed=1), 512), None),
    "int32-log-record": (lambda: _edit(_int32(), 30, ">Hhh", 0, 0, 7,
                                       records=[2]), None),
    # 512-byte records, 4096-byte ones, then 512-byte INT32 ones.
    "three-runs": (lambda: _then(_mixed_lengths(), _int32(300, seed=2), 512,
                                 number=200), None),
    # Payloads that are not whole Steim frames, or none at all.
    "steim-offset-off-frame": (lambda: _edit(_file_bytes(_noise()), 44,
                                             ">H", 100, records=[3]),
                               SteimError),
    "steim-offset-past-record": (lambda: _edit(_file_bytes(_noise()), 44,
                                               ">H", 600), SteimError),
    "mixed-lengths-badseq": (lambda: _mixed_lengths(*BADSEQ),
                             CorruptRecordError),
    "mixed-lengths-hour25": (lambda: _mixed_lengths(*HOUR25),
                             CorruptRecordError),
    "int32-badseq": (lambda: _edit(_int32(), *BADSEQ, records=[2]),
                     CorruptRecordError),
    "int32-hour25": (lambda: _edit(_int32(), *HOUR25, records=[3]),
                     CorruptRecordError),
    "int32-too-short": (lambda: _edit(_int32(), 30, ">H", 200, records=[2]),
                        UnsupportedEncodingError),
    "encoding-0-in-one-record": (lambda: _edit(
        _file_bytes(_noise()), 52, ">B", 0, records=[2]),
        UnsupportedEncodingError),
    "encoding-99": (lambda: _edit(_file_bytes(_noise()), 52, ">B", 99),
                    UnsupportedEncodingError),
    # The first bad record in file order decides the error.
    "bad-payload-before-bad-header": (lambda: _bad_payload_then(HOUR25, 5),
                                      SteimError),
    "bad-header-before-bad-payload": (lambda: _bad_payload_then(BADSEQ, 1),
                                      CorruptRecordError),
    "int32-too-short-before-badseq": (lambda: _edit(
        _edit(_int32(), 30, ">H", 200, records=[1]), *BADSEQ, records=[3]),
        UnsupportedEncodingError),
    "bad-payload-then-torn": (lambda: _corrupt("bad-dnib")[:-100],
                              SteimError),
    # The INT32 run is decoded first; the Steim run's error comes first.
    "bad-steim-run-before-short-int32-run": (lambda: _then(
        _corrupt("bad-dnib"), _edit(_int32(), 30, ">H", 200, records=[1]),
        512), SteimError),
}


@pytest.mark.parametrize("value_type", [DataType.BIGINT, DataType.DOUBLE])
@pytest.mark.parametrize("case", sorted(CRAFTED))
def test_crafted_files_agree(case, value_type):
    build, error = CRAFTED[case]
    data = build()
    assert _vouched(data)
    got = assert_paths_agree(_InMemory(data), value_type=value_type)
    if error is None:
        assert len(got[0]) > 1
        picked = got[0][1::3]
        assert assert_paths_agree(_InMemory(data), seqs=picked,
                                  value_type=value_type)[0] == picked
    else:
        assert got[0] is error


def test_production_extraction_never_reaches_the_reference(tmp_path,
                                                           monkeypatch):
    """A lazy query over crafted files (a foreign blockette layout,
    mixed lengths, a raw encoding after a Steim run, a log record)
    decodes every one in the one pass; ``reference_extract`` decodes
    each Steim record with the scalar reference once."""
    from repro.seismology.warehouse import SeismicWarehouse

    crafted = {"nblk1": CRAFTED["nblk1"][0],
               "steim2-then-int32": CRAFTED["steim2-then-int32"][0],
               "int32-log-record": CRAFTED["int32-log-record"][0],
               "mixed-lengths": _mixed_lengths}
    for name, build in crafted.items():
        (tmp_path / f"{name}.mseed").write_bytes(build())
    readers, decodes = [], []

    def counting(module, name, calls):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counting(mseed_files, "read_records_from", readers)
    counting(mseed_adapter, "read_records_from", readers)
    counting(steim, "_decode_reference", decodes)

    wh = SeismicWarehouse(tmp_path, mode="lazy", recycler_budget_bytes=0)
    [(files,)] = wh.query("SELECT COUNT(*) FROM mseed.files").rows()
    assert files == len(crafted)
    [(count, total)] = wh.query("SELECT COUNT(*), SUM(D.sample_value) "
                                "FROM mseed.dataview").rows()
    assert count > 0 and (readers, decodes) == ([], [])

    repo = Repository(tmp_path)
    infos = repo.list_files()
    runs = [MSeedAdapter().reference_extract(repo, info.uri, None, COLUMNS)
            for info in infos]
    steim_records = sum(
        header.encoding in STEIM.values()
        for info in infos
        for header in mseed_files.scan_file_headers(repo.path_of(info.uri)))
    assert len(readers) == len(infos) and len(decodes) == steim_records
    assert (count, total) == (
        sum(len(run.columns["sample_value"]) for run in runs),
        sum(int(run.columns["sample_value"].sum()) for run in runs))


# -- random series -------------------------------------------------------------------

# The widest draw in bits: Steim-2 differences must fit 30 bits, and
# every sample, offset included, must fit int32.
SERIES = {encodings.ENC_STEIM1: 29, encodings.ENC_STEIM2: 28,
          encodings.ENC_INT32: 29}


@settings(max_examples=40, deadline=None)
@given(data=st.data(), encoding=st.sampled_from(sorted(SERIES)),
       n=st.integers(1, 2500), record_length=st.sampled_from([128, 512]))
def test_random_int32_series_agree(data, encoding, n, record_length):
    bits = data.draw(st.integers(0, SERIES[encoding]))
    offset = data.draw(st.integers(-2**31 + 2**29, 2**31 - 1 - 2**29))
    seed = data.draw(st.integers(0, 2**32 - 1))
    samples = offset + np.random.default_rng(seed).integers(
        -2**bits, 2**bits, n, endpoint=True)
    blob = _file_bytes(samples.astype(np.int32), encoding=encoding,
                       record_length=record_length)
    n_records = len(blob) // record_length
    picked = data.draw(st.none() | st.lists(st.integers(1, n_records)))
    assert _vouched(blob)
    _seqs, _offsets, columns = assert_paths_agree(_InMemory(blob),
                                                  seqs=picked)
    if picked is None:
        values = columns["sample_value"][3]
        assert values == samples.astype(np.int64).tobytes()
