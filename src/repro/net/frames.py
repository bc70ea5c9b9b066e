"""The wire frame format: length-prefixed, typed, codec-compressed.

Every message on a wire connection is one frame::

    u32 length (little-endian) | u8 type | payload[length - 1]

The length prefix covers the type byte plus the payload, so a reader
always knows exactly how many bytes to consume; a frame longer than the
negotiated :data:`MAX_FRAME_BYTES` is refused *before* the payload is
read (the peer gets a typed error frame, then the connection closes).

Control payloads (HELLO, OPEN, FETCH, ...) are UTF-8 JSON.  Bound
parameter values travel as *tagged* JSON (:func:`pack_params` /
:func:`unpack_params`) — ints, bools, strings and NULL natively, floats
as ``float.hex()`` so every bit pattern survives the trip — and the SQL
text itself travels verbatim and is compiled server-side with the
values bound through the engine's prepared-statement machinery: values
are never interpolated into SQL.

Result batches are binary, and a column on the wire *is* a storage
page: :func:`encode_result_batch` frames every column with
:func:`repro.storage.format.encode_page` — best-of RLE / dict /
frame-of-reference / plain payload, packed null mask, CRC-32 over header
and body — so the bytes a client reads are checked by the same code,
and the same tests, as the bytes a segment file holds.
"""

from __future__ import annotations

import json
import math
import socket
import struct
from typing import Optional

from repro.db.exec.result import Result
from repro.db.types import DataType
from repro.errors import WireProtocolError
from repro.storage.format import decode_page, encode_page

PROTOCOL_VERSION = 2
"""Bumped whenever a frame's layout changes (2: BATCH columns are pages);
HELLO and WELCOME both carry it and either side refuses a mismatch."""

DEFAULT_MAX_FRAME_BYTES = 16 * 1024 * 1024
"""Refuse frames larger than this (either direction) by default."""

_U32 = struct.Struct("<I")
_HEADER = struct.Struct("<IB")  # length + type
_BATCH_HEAD = struct.Struct("<III")  # cursor id, row count, column count

# -- message types -----------------------------------------------------------

# client -> server
MSG_HELLO = 0x01          # {token, protocol} — must be first
MSG_OPEN = 0x02           # {sql, params?, batch_rows?} -> OPENED | ERROR
MSG_FETCH = 0x03          # {cursor, max_batches?} -> BATCH* [DONE|ERROR]
MSG_CLOSE_CURSOR = 0x04   # {cursor} -> CLOSED
MSG_PING = 0x05           # {} -> PONG
MSG_GOODBYE = 0x06        # {} -> connection closes cleanly

# server -> client
MSG_WELCOME = 0x81        # {session, server, protocol}
MSG_OPENED = 0x82         # {cursor, names, dtypes}
MSG_BATCH = 0x83          # binary result batch (see encode_result_batch)
MSG_DONE = 0x84           # {cursor, report, trace} — stream exhausted
MSG_CLOSED = 0x85         # {cursor}
MSG_PONG = 0x86           # {}
MSG_ERROR = 0xFF          # {code, error, type?} — typed failure

MESSAGE_NAMES = {
    MSG_HELLO: "HELLO", MSG_OPEN: "OPEN", MSG_FETCH: "FETCH",
    MSG_CLOSE_CURSOR: "CLOSE_CURSOR", MSG_PING: "PING",
    MSG_GOODBYE: "GOODBYE",
    MSG_WELCOME: "WELCOME", MSG_OPENED: "OPENED", MSG_BATCH: "BATCH",
    MSG_DONE: "DONE", MSG_CLOSED: "CLOSED", MSG_PONG: "PONG",
    MSG_ERROR: "ERROR",
}

# Error codes carried by MSG_ERROR frames.
ERR_AUTH = "auth"              # handshake failed (bad/missing token)
ERR_PROTOCOL = "protocol"      # malformed/oversized/unexpected frame
ERR_UNSUPPORTED = "unsupported"  # statement kind the wire refuses
ERR_QUERY = "query"            # the query itself failed (compile/run)
ERR_CURSOR = "cursor"          # unknown/closed cursor id
ERR_SHUTDOWN = "shutdown"      # server drained past its deadline
ERR_OVERLOAD = "overload"      # admission queue full


# ---------------------------------------------------------------------------
# Frame packing
# ---------------------------------------------------------------------------


def pack_frame(msg_type: int, payload: bytes = b"") -> bytes:
    """One wire frame: u32 length + u8 type + payload."""
    return _HEADER.pack(len(payload) + 1, msg_type) + payload


def _json_fallback(value):
    # numpy scalars (trace counters) serialise as their python value
    item = getattr(value, "item", None)
    return item() if callable(item) else str(value)


def pack_json_frame(msg_type: int, obj: dict) -> bytes:
    return pack_frame(msg_type,
                      json.dumps(obj, separators=(",", ":"),
                                 default=_json_fallback).encode("utf-8"))


def decode_json_payload(payload: bytes) -> dict:
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireProtocolError(f"control payload is not JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise WireProtocolError("control payload must be a JSON object")
    return obj


def split_header(header: bytes, *, max_frame_bytes: int) -> tuple[int, int]:
    """Parse the 5-byte frame header → ``(type, payload length)``.

    Validates the length prefix against ``max_frame_bytes`` before any
    payload is read.
    """
    if len(header) != _HEADER.size:
        raise WireProtocolError(
            f"torn frame header: got {len(header)} of {_HEADER.size} bytes")
    length, msg_type = _HEADER.unpack(header)
    if length < 1:
        raise WireProtocolError(f"invalid frame length {length}")
    if length - 1 > max_frame_bytes:
        raise WireProtocolError(
            f"frame of {length - 1} bytes exceeds the "
            f"{max_frame_bytes}-byte limit")
    if msg_type not in MESSAGE_NAMES:
        raise WireProtocolError(f"unknown frame type 0x{msg_type:02x}")
    return msg_type, length - 1


HEADER_SIZE = _HEADER.size


def recv_frame_sock(sock: socket.socket, *,
                    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
                    ) -> tuple[int, bytes]:
    """Blocking frame read off a socket → ``(type, payload)``.

    Raises :class:`WireProtocolError` on torn/oversized/garbage frames
    and :class:`ConnectionError` on a cleanly closed peer.
    """
    header = _recv_exact(sock, HEADER_SIZE, allow_eof=True)
    if header is None:
        raise ConnectionError("connection closed by peer")
    msg_type, length = split_header(header, max_frame_bytes=max_frame_bytes)
    payload = _recv_exact(sock, length, allow_eof=False)
    return msg_type, payload


async def recv_frame_stream(reader, *,
                            max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
                            ) -> tuple[int, bytes]:
    """Frame read off an ``asyncio.StreamReader`` → ``(type, payload)``.

    Raises :class:`WireProtocolError` on oversized/garbage headers and
    :class:`ConnectionError` when the peer closes before the frame ends.
    """
    try:
        header = await reader.readexactly(HEADER_SIZE)
        msg_type, length = split_header(header,
                                        max_frame_bytes=max_frame_bytes)
        return msg_type, await reader.readexactly(length)
    except EOFError as exc:  # asyncio.IncompleteReadError
        raise ConnectionError("connection closed by peer") from exc


def _recv_exact(sock: socket.socket, n: int,
                *, allow_eof: bool) -> Optional[bytes]:
    parts: list[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if allow_eof and remaining == n:
                return None
            raise WireProtocolError(
                f"torn frame: connection closed with {remaining} of "
                f"{n} bytes unread")
        parts.append(chunk)
        remaining -= len(chunk)
    return b"".join(parts)


# ---------------------------------------------------------------------------
# Parameter packing (typed payloads, never interpolated SQL)
# ---------------------------------------------------------------------------


def _tag_value(value) -> list:
    if value is None:
        return ["z"]
    if isinstance(value, bool):
        return ["b", value]
    if isinstance(value, int):
        return ["i", value]
    if isinstance(value, float):
        # float.hex round-trips every finite bit pattern; inf/nan are
        # spelled out (JSON has no literal for them).
        if math.isnan(value):
            return ["f", "nan"]
        if math.isinf(value):
            return ["f", "inf" if value > 0 else "-inf"]
        return ["f", value.hex()]
    if isinstance(value, str):
        return ["s", value]
    raise WireProtocolError(
        f"parameter type {type(value).__name__} cannot travel on the wire")


def _untag_value(tagged):
    if not isinstance(tagged, list) or not tagged:
        raise WireProtocolError(f"malformed tagged parameter: {tagged!r}")
    tag = tagged[0]
    if tag == "z":
        return None
    if tag in ("b", "i", "s"):
        return tagged[1]
    if tag == "f":
        raw = tagged[1]
        if raw == "nan":
            return math.nan
        if raw == "inf":
            return math.inf
        if raw == "-inf":
            return -math.inf
        return float.fromhex(raw)
    raise WireProtocolError(f"unknown parameter tag {tag!r}")


def pack_params(params) -> Optional[dict]:
    """Tag bound parameter values for the OPEN payload (None for none)."""
    if params is None:
        return None
    if isinstance(params, dict):
        return {"named": {str(k): _tag_value(v) for k, v in params.items()}}
    if isinstance(params, (list, tuple)):
        return {"positional": [_tag_value(v) for v in params]}
    raise WireProtocolError(
        f"parameters must be a sequence or mapping, got "
        f"{type(params).__name__}")


def unpack_params(packed) -> "dict | tuple | None":
    if packed is None:
        return None
    if not isinstance(packed, dict):
        raise WireProtocolError("malformed parameter payload")
    if "named" in packed:
        named = packed["named"]
        if not isinstance(named, dict):
            raise WireProtocolError("malformed named-parameter payload")
        return {k: _untag_value(v) for k, v in named.items()}
    if "positional" in packed:
        positional = packed["positional"]
        if not isinstance(positional, list):
            raise WireProtocolError("malformed positional-parameter payload")
        return tuple(_untag_value(v) for v in positional)
    raise WireProtocolError("parameter payload has neither style")


# ---------------------------------------------------------------------------
# Result batch encoding (storage page codecs over the wire)
# ---------------------------------------------------------------------------


def dtype_names(dtypes: list[DataType]) -> list[str]:
    return [d.value for d in dtypes]


def dtypes_from_names(names) -> list[DataType]:
    try:
        return [DataType(n) for n in names]
    except ValueError as exc:
        raise WireProtocolError(f"unknown column type: {exc}") from exc


def encode_result_batch(cursor_id: int, result: Result) -> bytes:
    """One BATCH payload: cursor id, row count, column count, then per
    column a u32 length and that many bytes of storage page."""
    parts = [_BATCH_HEAD.pack(cursor_id, result.row_count,
                              result.column_count)]
    for col in result.columns:
        page = encode_page(col)
        parts.append(_U32.pack(len(page)))
        parts.append(page)
    return b"".join(parts)


def decode_result_batch(payload: bytes,
                        names: list[str]) -> tuple[int, Result]:
    """Decode (and checksum) one BATCH payload → ``(cursor_id, Result)``."""
    try:
        cursor_id, row_count, n_cols = _BATCH_HEAD.unpack_from(payload, 0)
        if n_cols != len(names):
            raise WireProtocolError(
                f"batch has {n_cols} columns, cursor described {len(names)}")
        offset = _BATCH_HEAD.size
        columns = []
        for _ in range(n_cols):
            (nbytes,) = _U32.unpack_from(payload, offset)
            offset += _U32.size
            column = decode_page(payload[offset:offset + nbytes])
            offset += nbytes
            if len(column) != row_count:
                raise WireProtocolError(
                    f"column of {len(column)} rows in a batch of "
                    f"{row_count}")
            columns.append(column)
        return cursor_id, Result(list(names), columns)
    except WireProtocolError:
        raise
    except Exception as exc:  # struct errors, CorruptSegmentError, ...
        raise WireProtocolError(f"malformed batch payload: {exc}") from exc
