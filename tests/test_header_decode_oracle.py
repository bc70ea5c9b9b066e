"""Differential oracle: the batched header decode vs. the per-record loop.

Record-level harvesting decodes every record header of a batch of files
in one numpy pass (``decode_headers`` behind ``scan_headers``) and sends
any file it does not vouch for through ``scan_file_headers``, the
per-record reference.  These tests harvest the same repositories both
ways — the second time with the batch vouching for nothing — and require
F, R, the record index, the I/O accounting and the skipped files (uri
and message) to agree bit for bit.  A hypothesis test fuzzes the header
fields straight into both decoders.
"""

from __future__ import annotations

import dataclasses
import shutil
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.etl.mseed_adapter as mseed_adapter
from repro.errors import CorruptRecordError, MSeedError
from repro.etl.metadata import (
    HarvestResult,
    RecordIndex,
    harvest_repository,
)
from repro.etl.mseed_adapter import MSeedAdapter
from repro.mseed import encodings
from repro.mseed.files import write_mseed_file
from repro.mseed.records import (
    HEADER_SCAN_BYTES,
    decode_header,
    decode_headers,
    encode_record,
)
from repro.mseed.repository import Repository
from repro.util.timefmt import from_ymd

pytestmark = pytest.mark.oracle

T0 = from_ymd(2010, 1, 12, 22, 0)


def _harvest(root, *, batched: bool) -> tuple[HarvestResult, int]:
    """One harvest and the repository bytes it accounted for."""
    repo = Repository(root)
    with pytest.MonkeyPatch.context() as patch:
        if not batched:
            patch.setattr(mseed_adapter, "scan_headers",
                          lambda paths: [None] * len(paths))
        result = harvest_repository(repo, MSeedAdapter())
    return result, repo.bytes_read


def _index(result: HarvestResult) -> dict:
    index = RecordIndex()
    index.load(result)
    return {uri: (index.version(uri), _arrays(index.records(uri)))
            for uri in index.files()}


def _arrays(records) -> dict:
    return {f.name: (value.dtype.str, value.tobytes())
            if isinstance(value, np.ndarray) else value
            for f in dataclasses.fields(records)
            for value in [getattr(records, f.name)]}


def assert_decoders_agree(root) -> HarvestResult:
    batched, batched_bytes = _harvest(root, batched=True)
    reference, reference_bytes = _harvest(root, batched=False)
    # repr: bit-exact floats in the F rows.
    assert [repr(dataclasses.astuple(m)) for m in batched.files] == \
        [repr(dataclasses.astuple(m)) for m in reference.files]
    assert _arrays(batched.records) == _arrays(reference.records)
    assert _index(batched) == _index(reference)
    assert batched.skipped == reference.skipped
    assert batched_bytes == reference_bytes
    return batched


def test_tiny_repo_agrees(tiny_repo):
    result = assert_decoders_agree(tiny_repo.root)
    assert len(result.files) == len(tiny_repo.entries)
    assert not result.skipped


# -- crafted files ---------------------------------------------------------------

def _write(root, name, *, n_samples=1500, **kwargs) -> str:
    """A file of several records (noise compresses poorly)."""
    path = root / f"{name}.mseed"
    noise = np.random.default_rng(len(name)).integers(-2**20, 2**20,
                                                      n_samples)
    params = dict(network="XX", station=name[:5].upper(), location="",
                  channel="BHZ", start_time_us=T0, sample_rate=40.0,
                  samples=noise.astype(np.int32))
    params.update(kwargs)
    write_mseed_file(path, **params)
    return str(path)


def _patch(path: str, edit, record_length: int = 512) -> None:
    """``edit(index, record)`` may change each record's bytearray."""
    with open(path, "rb") as handle:
        data = bytearray(handle.read())
    for index in range(len(data) // record_length):
        record = data[index * record_length:(index + 1) * record_length]
        edit(index, record)
        data[index * record_length:(index + 1) * record_length] = record
    with open(path, "wb") as handle:
        handle.write(data)


def _at(record_no: int, offset: int, fmt: str, *values):
    def edit(index, record):
        if record_no in (index, -1):
            struct.pack_into(fmt, record, offset, *values)
    return edit


def _both(*edits):
    def edit(index, record):
        for one in edits:
            one(index, record)
    return edit


VALID_EDITS = {
    "leapsec": _at(1, 26, ">B", 60),
    "tcorr-applied": _both(_at(-1, 40, ">i", 12345), _at(-1, 36, ">B", 0x02)),
    "tcorr-pending": _at(-1, 40, ">i", -777),
    "negmicros": _at(-1, 61, ">b", -37),
    "negmult": _at(-1, 32, ">hh", 40, -2),
    "bothneg": _at(-1, 32, ">hh", -2, -5),
    # Log records: no samples, so no sample rate either.
    "logrecords": _at(-1, 30, ">Hhh", 0, 0, 7),
    "farfuture": _at(-1, 20, ">H", 2300),
    "year9999": _at(-1, 20, ">HH", 9999, 365),
    "seqspace": _at(2, 0, "6s", b" 00003"),
    # 1001 first, then 1000: decodable, not the layout the batch vouches.
    "b1001first": _at(-1, 48, ">HHBbBB HHBBBB", 1001, 56, 90, 0, 0, 0,
                      1000, 0, encodings.ENC_STEIM2, 1, 9, 0),
    "nblk1": _both(_at(-1, 39, ">B", 1), _at(-1, 50, ">H", 0)),
}

CORRUPT_EDITS = {
    "badseq": _at(2, 0, "6s", b"00a003"),
    "badquality": _at(1, 6, "c", b"X"),
    "hour25": _at(3, 24, ">B", 25),
    "no1000": _at(1, 48, ">H", 999),
    "nonascii": _at(2, 8, "3s", b"H\xc9N"),
    "year0": _at(2, 20, ">H", 0),
    "mult0": _at(2, 34, ">h", 0),
    # Samples at sample-rate factor 0: times no rate can give.
    "factor0": _at(-1, 32, ">hh", 0, 7),
    # 65 535 samples at 1 / (32768 * 32768) Hz: no int64 end time.
    "span-beyond-int64": _at(2, 30, ">Hhh", 0xFFFF, -0x8000, -0x8000),
}


@pytest.fixture(scope="module")
def crafted_repo(tmp_path_factory):
    root = tmp_path_factory.mktemp("crafted")
    for name, edit in {**VALID_EDITS, **CORRUPT_EDITS}.items():
        _patch(_write(root, name), edit)
    _write(root, "subhz", n_samples=300, sample_rate=0.5)
    _write(root, "leapday", start_time_us=from_ymd(2012, 12, 31, 23, 59))
    # Mixed record lengths: 512-byte records, then 4096-byte ones
    # numbered on from 101 (a repeated number would skip the file).
    small = _write(root, "mixed")
    large = _write(root, "mixed4k", n_samples=9000, record_length=4096)
    _patch(large, lambda index, record: struct.pack_into(
        "6s", record, 0, b"%06d" % (101 + index)), record_length=4096)
    with open(small, "ab") as handle, open(large, "rb") as extra:
        handle.write(extra.read())
    (root / "mixed4k.mseed").unlink()
    (root / "empty.mseed").touch()
    truncated = _write(root, "truncated")
    with open(truncated, "r+b") as handle:
        handle.truncate(handle.seek(0, 2) - 100)
    for name, garbage in (("garbage10", 10), ("garbage70", 70)):
        with open(_write(root, name), "ab") as handle:
            handle.write(b"\x01" * garbage)
    return root


def test_crafted_files_agree(crafted_repo):
    result = assert_decoders_agree(crafted_repo)
    skipped = {uri.removesuffix(".mseed") for uri, _msg in result.skipped}
    assert skipped == set(CORRUPT_EDITS) | {"truncated", "garbage10",
                                            "garbage70", "empty"}
    kept = {meta.uri.removesuffix(".mseed") for meta in result.files}
    assert kept == set(VALID_EDITS) | {"subhz", "leapday", "mixed"}


def test_batch_vouches_only_for_the_standard_layout(crafted_repo):
    """Which crafted files the numpy pass decodes itself: the rest must
    have reached the reference, or the agreement above proves little."""
    vouched = set()
    original = mseed_adapter.scan_headers

    def recording(paths):
        out = original(paths)
        vouched.update(str(p).rsplit("/", 1)[-1].removesuffix(".mseed")
                       for p, got in zip(paths, out) if got is not None)
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mseed_adapter, "scan_headers", recording)
        harvest_repository(Repository(crafted_repo), MSeedAdapter())
    assert vouched == {"leapsec", "tcorr-applied", "tcorr-pending",
                       "negmicros", "negmult", "bothneg", "logrecords",
                       "farfuture", "subhz", "leapday"}


def test_demo_repo_with_a_rewritten_copy_agrees(demo_repo, tmp_path):
    """A realistic batch with one corrupt member in the middle."""
    root = tmp_path / "repo"
    shutil.copytree(demo_repo.root, root)
    victim = sorted(root.rglob("*.mseed"))[5]
    _patch(str(victim), _at(4, 6, "c", b"?"))
    result = assert_decoders_agree(root)
    assert len(result.skipped) == 1


# -- fuzzed header fields ------------------------------------------------------------

_BASE, _ = encode_record(
    sequence_number=1, quality="D", station="HGN", location="", channel="BHZ",
    network="NL", start_time_us=T0, samples=np.arange(50, dtype=np.int32),
    sample_rate_factor=40, sample_rate_multiplier=1,
    encoding=encodings.ENC_STEIM2,
)

# Every field in the range decode_header accepts ...
_VALID = st.fixed_dictionaries({
    "seq": st.integers(0, 999999).map(lambda n: b"%06d" % n),
    "quality": st.sampled_from(b"DRQM"),
    "ids": st.text(st.characters(min_codepoint=32, max_codepoint=126),
                   min_size=12, max_size=12).map(str.encode),
    "year": st.one_of(st.integers(1950, 2050), st.integers(1, 9998)),
    "yday": st.integers(1, 366),
    "hour": st.integers(0, 23),
    "minute": st.integers(0, 59),
    "second": st.integers(0, 60),
    "tenk": st.integers(0, 9999),
    "nsamples": st.integers(0, 0xFFFF),
    "factor": st.integers(-0x8000, 0x7FFF),
    "mult": st.one_of(st.just(1), st.integers(1, 0x7FFF),
                      st.integers(-0x8000, -1)),
    "act": st.integers(0, 255),
    "nblk": st.just(2),
    "tcorr": st.one_of(st.just(0), st.integers(-2**31, 2**31 - 1)),
    "power": st.integers(6, 16),
    "timing": st.integers(0, 255),
    "micros": st.integers(-128, 127),
})
# ... and, for up to two of them, any value at all.
_WILD = {
    "seq": st.binary(min_size=6, max_size=6),
    "quality": st.integers(0, 255),
    "ids": st.binary(min_size=12, max_size=12),
    "year": st.integers(0, 0xFFFF),
    "yday": st.integers(0, 0xFFFF),
    "hour": st.integers(0, 255),
    "minute": st.integers(0, 255),
    "second": st.integers(0, 255),
    "tenk": st.integers(0, 0xFFFF),
    "mult": st.just(0),
    "nblk": st.integers(0, 255),
    "power": st.integers(0, 255),
}


@st.composite
def _header_fields(draw) -> dict:
    fields = draw(_VALID)
    for name in draw(st.lists(st.sampled_from(sorted(_WILD)), max_size=2)):
        fields[name] = draw(_WILD[name])
    return fields


def _head(fields: dict) -> bytes:
    head = bytearray(_BASE[:HEADER_SCAN_BYTES])
    head[0:6] = fields["seq"]
    head[6] = fields["quality"]
    head[8:20] = fields["ids"]
    struct.pack_into(">HHBBB", head, 20, fields["year"], fields["yday"],
                     fields["hour"], fields["minute"], fields["second"])
    struct.pack_into(">HHhhB", head, 28, fields["tenk"], fields["nsamples"],
                     fields["factor"], fields["mult"], fields["act"])
    struct.pack_into(">B", head, 39, fields["nblk"])
    struct.pack_into(">i", head, 40, fields["tcorr"])
    struct.pack_into(">B", head, 54, fields["power"])
    struct.pack_into(">Bb", head, 60, fields["timing"], fields["micros"])
    return bytes(head)


def _assert_rows_agree(drawn: list[dict]) -> None:
    """Every row decode_headers vouches for decodes to what decode_header
    (and RecordHeader's properties) give, bit for bit."""
    heads = [_head(fields) for fields in drawn]
    columns = decode_headers(
        np.frombuffer(b"".join(heads), np.uint8).reshape(len(heads), -1))
    for row, head in enumerate(heads):
        try:
            header = decode_header(head)
            expected = (header.sequence_number, header.record_length,
                        header.start_time_us, header.end_time_us,
                        header.sample_rate.hex(), header.sample_count,
                        header.timing_quality, header.data_offset,
                        header.encoding)
        except MSeedError:
            expected = None
        if not columns.ok[row]:
            continue  # the reference decides; nothing to compare
        assert expected is not None, \
            f"vouched for a header decode_header rejects: {head!r}"
        assert expected == (
            int(columns.sequence_number[row]), int(columns.record_length[row]),
            int(columns.start_time_us[row]), int(columns.end_time_us[row]),
            float(columns.sample_rate[row]).hex(),
            int(columns.sample_count[row]), int(columns.timing_quality[row]),
            int(columns.data_offset[row]), int(columns.encoding[row]))


_TYPICAL = dict(seq=b"000001", quality=ord("D"), ids=b"HGN  00BHZNL",
                year=2010, yday=12, hour=22, minute=0, second=0, tenk=0,
                nsamples=100, factor=40, mult=1, act=0, nblk=2, tcorr=0,
                power=9, timing=100, micros=0)

EDGE_CASES = {
    # round() is half-to-even: 1e6 / 128 = 7812.5 -> 7812.
    "half-us-span": dict(nsamples=2, factor=128),
    "three-halves": dict(nsamples=4, factor=128),
    # ~7e19 us: no int64 holds the end time; both decoders refuse it.
    "span-beyond-int64": dict(nsamples=0xFFFF, factor=-0x8000,
                              mult=-0x8000),
    "leap-second": dict(second=60, tenk=9999, micros=99),
    "year-1": dict(year=1, yday=1),
    "year-9998-day-366": dict(year=9998, yday=366, hour=23, minute=59),
    "tcorr-min-pending": dict(tcorr=-2**31),
    "tcorr-max-applied": dict(tcorr=2**31 - 1, act=0x02),
    "micros-min": dict(micros=-128),
}


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_edge_headers_decode_identically(case):
    fields = {**_TYPICAL, **EDGE_CASES[case]}
    _assert_rows_agree([fields])
    vouched = decode_headers(np.frombuffer(_head(fields), np.uint8)
                             .reshape(1, -1)).ok[0]
    if case == "span-beyond-int64":
        assert not vouched
        with pytest.raises(CorruptRecordError):
            decode_header(_head(fields))
    else:
        assert vouched


@settings(max_examples=150, deadline=None)
@given(st.lists(_header_fields(), min_size=1, max_size=8))
def test_fuzzed_headers_decode_identically(drawn):
    _assert_rows_agree(drawn)


@given(_header_fields())
def test_fuzzed_standard_headers_are_vouched(fields):
    """The batch is not allowed to dodge the comparison: a header in the
    standard layout that decode_header accepts is vouched for (except
    the ranges it hands to the reference by design)."""
    head = _head(fields)
    try:
        decode_header(head)
    except MSeedError:
        return
    handed_over = (not fields["seq"].isdigit() or fields["nblk"] != 2
                   or fields["year"] > 9998)
    columns = decode_headers(np.frombuffer(head, np.uint8).reshape(1, -1))
    assert bool(columns.ok[0]) or handed_over
