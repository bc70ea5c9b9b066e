"""Wire frame format: packing, params, page-encoded batches — and hostile
column bytes on both carriers (wire BATCH payloads, shard shm blobs)."""

import math
import socket
import struct
import threading

import numpy as np
import pytest

from repro.db.column import Column
from repro.db.exec.result import Result
from repro.db.types import DataType
from repro.errors import ShardError, StorageError, WireProtocolError
from repro.etl.framework import ExtractedRecords
from repro.net import frames
from repro.shard import transport
from repro.storage.format import PAGE_HEADER_BYTES, PAGE_MAGIC


# -- frame header ------------------------------------------------------------


def test_pack_split_roundtrip():
    frame = frames.pack_frame(frames.MSG_PING, b"abc")
    msg_type, length = frames.split_header(
        frame[:frames.HEADER_SIZE], max_frame_bytes=1024)
    assert msg_type == frames.MSG_PING
    assert length == 3
    assert frame[frames.HEADER_SIZE:] == b"abc"


def test_split_header_rejects_torn():
    with pytest.raises(WireProtocolError, match="torn"):
        frames.split_header(b"\x01\x02", max_frame_bytes=1024)


def test_split_header_rejects_oversized():
    header = struct.pack("<IB", 10_000 + 1, frames.MSG_OPEN)
    with pytest.raises(WireProtocolError, match="exceeds"):
        frames.split_header(header, max_frame_bytes=9_999)


def test_split_header_rejects_unknown_type():
    header = struct.pack("<IB", 1, 0x7E)
    with pytest.raises(WireProtocolError, match="unknown frame type"):
        frames.split_header(header, max_frame_bytes=1024)


def test_split_header_rejects_zero_length():
    header = struct.pack("<IB", 0, frames.MSG_PING)
    with pytest.raises(WireProtocolError, match="invalid frame length"):
        frames.split_header(header, max_frame_bytes=1024)


def test_json_payload_rejects_garbage():
    with pytest.raises(WireProtocolError, match="not JSON"):
        frames.decode_json_payload(b"\xff\xfe")
    with pytest.raises(WireProtocolError, match="JSON object"):
        frames.decode_json_payload(b"[1,2]")


def test_recv_frame_sock_roundtrip_and_torn():
    a, b = socket.socketpair()
    try:
        a.sendall(frames.pack_json_frame(frames.MSG_PING, {"x": 1}))
        msg_type, payload = frames.recv_frame_sock(b)
        assert msg_type == frames.MSG_PING
        assert frames.decode_json_payload(payload) == {"x": 1}

        # A frame whose advertised payload never arrives is torn.
        def tear():
            a.sendall(struct.pack("<IB", 100, frames.MSG_OPEN) + b"short")
            a.close()

        t = threading.Thread(target=tear)
        t.start()
        with pytest.raises(WireProtocolError, match="torn frame"):
            frames.recv_frame_sock(b)
        t.join()
    finally:
        a.close()
        b.close()


def test_recv_frame_sock_clean_eof_is_connection_error():
    a, b = socket.socketpair()
    a.close()
    try:
        with pytest.raises(ConnectionError):
            frames.recv_frame_sock(b)
    finally:
        b.close()


# -- parameter payloads ------------------------------------------------------


def test_params_positional_roundtrip_bit_exact():
    values = (1, -2**40, True, False, None, "naïve", 0.1, -0.0,
              math.inf, -math.inf, 5e-324)
    packed = frames.pack_params(values)
    out = frames.unpack_params(packed)
    assert isinstance(out, tuple)
    for sent, got in zip(values, out):
        if isinstance(sent, float):
            assert struct.pack("<d", sent) == struct.pack("<d", got)
        else:
            assert sent == got and type(sent) is type(got)


def test_params_nan_survives():
    (value,) = frames.unpack_params(frames.pack_params((math.nan,)))
    assert math.isnan(value)


def test_params_named_roundtrip():
    out = frames.unpack_params(frames.pack_params({"a": 1, "b": "x"}))
    assert out == {"a": 1, "b": "x"}


def test_params_none_passthrough():
    assert frames.pack_params(None) is None
    assert frames.unpack_params(None) is None


def test_params_reject_unsupported_type():
    with pytest.raises(WireProtocolError, match="cannot travel"):
        frames.pack_params((b"bytes",))


def test_params_reject_malformed_payloads():
    with pytest.raises(WireProtocolError):
        frames.unpack_params({"positional": [["?", 1]]})
    with pytest.raises(WireProtocolError):
        frames.unpack_params({"weird": []})
    with pytest.raises(WireProtocolError):
        frames.unpack_params("nope")


# -- result batches ----------------------------------------------------------


def _batch_roundtrip(result: Result) -> Result:
    payload = frames.encode_result_batch(7, result)
    cursor_id, decoded = frames.decode_result_batch(
        payload, list(result.names))
    assert cursor_id == 7
    return decoded


def test_batch_roundtrip_all_dtypes_with_nulls():
    n = 100
    valid = np.array([i % 7 != 0 for i in range(n)])
    result = Result(
        ["b", "i", "d", "s", "t"],
        [
            Column(DataType.BOOLEAN, np.arange(n) % 2 == 0, valid.copy()),
            Column(DataType.BIGINT, np.arange(n, dtype=np.int64) * 3 - n,
                   valid.copy()),
            Column(DataType.DOUBLE, np.linspace(-1.5, 2.5, n), valid.copy()),
            Column.from_numpy(DataType.VARCHAR,
                              np.array([f"row-{i % 5}" for i in range(n)]),
                              valid.copy()),
            Column(DataType.TIMESTAMP,
                   np.arange(n, dtype=np.int64) * 1_000_000, None),
        ],
    )
    decoded = _batch_roundtrip(result)
    for sent, got in zip(result.columns, decoded.columns):
        assert sent.dtype == got.dtype
        assert sent.to_pylist() == got.to_pylist()


def test_batch_roundtrip_float_bits_exact():
    values = np.array([0.1, -0.0, math.inf, 5e-324, 1e308])
    result = Result(["x"], [Column(DataType.DOUBLE, values, None)])
    decoded = _batch_roundtrip(result)
    assert decoded.columns[0].values.tobytes() == values.tobytes()


def test_batch_roundtrip_empty():
    result = Result(["x"], [Column(DataType.BIGINT,
                                   np.array([], dtype=np.int64), None)])
    decoded = _batch_roundtrip(result)
    assert decoded.row_count == 0


def test_batch_decode_rejects_column_mismatch():
    result = Result(["x"], [Column(DataType.BIGINT,
                                   np.arange(4, dtype=np.int64), None)])
    payload = frames.encode_result_batch(1, result)
    with pytest.raises(WireProtocolError, match="columns"):
        frames.decode_result_batch(payload, ["x", "y"])


# -- hostile column bytes, on the wire and in shared memory -------------------
#
# A column on either carrier is one storage page, so both must refuse
# the same damage with their own typed error — never a bare
# struct.error, never silently wrong values.

_X = np.arange(64, dtype=np.int64) * 7
_Y = np.linspace(-1.0, 1.0, 64)


def _wire_carrier():
    blob = frames.encode_result_batch(1, Result(
        ["x", "y"], [Column(DataType.BIGINT, _X), Column(DataType.DOUBLE, _Y)]))
    return (blob, lambda data: frames.decode_result_batch(data, ["x", "y"]),
            WireProtocolError, (8, "<I"))


def _run(seqs, counts, columns):
    return ExtractedRecords.of_counts("f.mseed", seqs, counts, columns)


def _shm_carrier():
    blob = transport.encode_pieces(_run([3, 4], [40, 24], {"x": _X, "y": _Y}))
    return (blob, lambda data: transport.decode_pieces("f.mseed", data),
            ShardError, (0, "<H"))


@pytest.fixture(params=[_wire_carrier, _shm_carrier], ids=["wire", "shm"])
def carrier(request):
    """``(blob, decode, typed error, (offset, format) of its column
    count)`` for a two-column payload on one carrier."""
    return request.param()


def test_intact_columns_decode_on_both_carriers(carrier):
    blob, decode, _error, _count = carrier
    decode(blob)


def test_decode_rejects_every_truncation(carrier):
    blob, decode, error, _count = carrier
    for cut in range(len(blob)):
        with pytest.raises(error, match="malformed"):
            decode(blob[:cut])


def test_decode_rejects_more_columns_than_carried(carrier):
    blob, decode, error, (offset, fmt) = carrier
    (count,) = struct.unpack_from(fmt, blob, offset)
    assert count == 2
    tampered = bytearray(blob)
    struct.pack_into(fmt, tampered, offset, count + 1)
    with pytest.raises(error):
        decode(bytes(tampered))


def test_decode_rejects_a_flipped_payload_bit(carrier):
    blob, decode, error, _count = carrier
    tampered = bytearray(blob)
    tampered[blob.index(PAGE_MAGIC) + PAGE_HEADER_BYTES + 3] ^= 0x10
    with pytest.raises(error, match="checksum"):
        decode(bytes(tampered))


def test_decode_rejects_an_unknown_dtype_code(carrier):
    blob, decode, error, _count = carrier
    tampered = bytearray(blob)
    tampered[blob.index(PAGE_MAGIC) + 5] = 0x63  # magic, codec, *dtype*
    with pytest.raises(error, match="unknown dtype code 99"):
        decode(bytes(tampered))


def test_batch_decode_rejects_a_column_of_another_length():
    short = frames.encode_result_batch(1, Result(
        ["x"], [Column(DataType.BIGINT, np.arange(3, dtype=np.int64))]))
    long = frames.encode_result_batch(1, Result(
        ["x"], [Column(DataType.BIGINT, np.arange(4, dtype=np.int64))]))
    spliced = long[:12] + short[12:]  # header says 4 rows, page holds 3
    with pytest.raises(WireProtocolError, match="3 rows in a batch of 4"):
        frames.decode_result_batch(spliced, ["x"])


# -- extraction pieces (the shm carrier's own framing) -----------------------


@pytest.mark.parametrize("array", [
    np.array([1, -2, 2**31 - 1], dtype=np.int32),
    np.array([0, -2**63, 2**63 - 1], dtype=np.int64),
    np.array([0.1, -0.0, np.inf], dtype=np.float32),
    np.array([0.1, -0.0, math.inf, 5e-324, 1e308], dtype=np.float64),
    np.array([True, False, True]),
    np.array([], dtype=np.int32),
], ids=lambda a: f"{a.dtype.str}x{len(a)}")
def test_pieces_roundtrip_preserves_dtype_and_bytes(array):
    values = np.concatenate([array, array[:1]])
    sent = _run([5, 9], [len(array), len(array[:1])],
                {"v": values, "t": np.arange(len(values), dtype=np.int64)})
    got = transport.decode_pieces("f.mseed",
                                  transport.encode_pieces(sent))
    assert got.uri == "f.mseed"
    assert got.seq_nos.tolist() == [5, 9]
    assert got.offsets.tolist() == sent.offsets.tolist()
    assert sorted(got.columns) == ["t", "v"]
    for name, column in sent.columns.items():
        assert got.columns[name].dtype == column.dtype
        assert got.columns[name].tobytes() == column.tobytes()


def test_pieces_refuse_columns_that_disagree_with_the_counts():
    blob = transport.encode_pieces(_run([1], [3], {"v": np.arange(4)}))
    with pytest.raises(ShardError, match="malformed"):
        transport.decode_pieces("f.mseed", blob)


def test_pieces_refuse_an_array_no_page_can_carry():
    with pytest.raises(StorageError, match="no page type carries"):
        transport.encode_pieces(_run([0], [2], {"z": np.array([1j, 2j])}))


@pytest.mark.parametrize("array", [
    np.array(["HGN", "naïve", ""]),
    np.array(["HGN", "naïve", ""], dtype=object),
], ids=lambda a: a.dtype.str)
def test_pieces_refuse_string_arrays(array):
    """Pieces carry numeric extraction arrays; strings travel only as
    VARCHAR columns (codes + uniques), never as a raw string array."""
    with pytest.raises(StorageError, match="no page type carries"):
        transport.encode_pieces(_run([0], [3], {"z": array}))


def test_dtype_names_roundtrip():
    dtypes = [DataType.BIGINT, DataType.VARCHAR, DataType.DOUBLE]
    assert frames.dtypes_from_names(frames.dtype_names(dtypes)) == dtypes
    with pytest.raises(WireProtocolError, match="unknown column type"):
        frames.dtypes_from_names(["no-such-type"])
