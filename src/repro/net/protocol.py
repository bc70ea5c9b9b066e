"""The client half of the wire protocol, without any I/O.

Every exchange a client can start — HELLO→WELCOME, OPEN→OPENED,
FETCH→BATCH*[DONE|ERROR], CLOSE_CURSOR→CLOSED, PING→PONG — is written
here once, as a generator that knows nothing about sockets or loops::

    frame = yield request_bytes      # send this, then read one frame
    frame = yield None               # read one more frame
    return outcome                   # the exchange is over

The drivers (``_exchange`` in :mod:`repro.net.client` over a blocking
socket and in :mod:`repro.net.aio` over asyncio streams) send what is
yielded and feed back each ``(type, payload)`` they read, relying on one
invariant: **an exchange that returns has consumed its terminating
frame.**  A server ERROR frame that ends an exchange is therefore
*returned* (as the exception :func:`wire_error` builds; the driver
raises it, connection still in sync), while an exchange left by an
exception — an unexpected frame, a BATCH for another cursor, a corrupt
page, any I/O failure or cancellation in the driver — leaves the byte
stream at an unknown position and the driver closes the connection.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.errors import (
    AdmissionError,
    RemoteQueryError,
    ServiceError,
    WireAuthError,
    WireError,
    WireProtocolError,
    WireShutdownError,
)
from repro.net import frames
from repro.net.frames import PROTOCOL_VERSION

# yields bytes to send (or None), is sent (type, payload), returns outcome
Exchange = Generator[Optional[bytes], tuple[int, bytes], object]

_ERROR_TYPES = {
    frames.ERR_AUTH: WireAuthError,
    frames.ERR_PROTOCOL: WireProtocolError,
    frames.ERR_SHUTDOWN: WireShutdownError,
    frames.ERR_OVERLOAD: AdmissionError,
    frames.ERR_UNSUPPORTED: ServiceError,
}


def wire_error(obj: dict) -> Exception:
    """The client-side exception for one server ERROR payload."""
    code = obj.get("code", "")
    message = obj.get("error", "remote error")
    if code == frames.ERR_QUERY:
        return RemoteQueryError(message, remote_type=obj.get("type", ""))
    error_type = _ERROR_TYPES.get(code)
    if error_type is None:
        return WireError(f"[{code}] {message}")
    return error_type(message)


def raise_wire_error(obj: dict) -> None:
    """Raise the client-side exception for one server ERROR payload."""
    raise wire_error(obj)


class RemoteReport:
    """A :class:`QueryReport`-shaped view of the DONE frame's report.

    Attribute access reads the dict the server serialised, so
    ``cursor.report.rows_out`` (and every other counter) works the same
    against a remote cursor; :meth:`to_dict` returns the plain data.
    """

    def __init__(self, data: dict, timings: Optional[dict] = None) -> None:
        self._data = dict(data)
        self.timings = dict(timings or {})

    def __getattr__(self, name: str):
        try:
            return self._data[name]
        except KeyError:
            if name == "spans":
                return None  # spans never travel in DONE frames
            raise AttributeError(name) from None

    def to_dict(self, *, include_spans: bool = False) -> dict:
        return dict(self._data)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"RemoteReport(rows_out={self._data.get('rows_out')}, "
                f"total_s={self._data.get('total_s')})")


def _request(request: bytes, expected: int) -> Exchange:
    """One request answered by one frame: the ``expected`` reply's
    object, or the exception an ERROR reply stands for."""
    msg_type, payload = yield request
    if msg_type == frames.MSG_ERROR:
        return wire_error(frames.decode_json_payload(payload))
    if msg_type != expected:
        raise WireProtocolError(
            f"expected {frames.MESSAGE_NAMES[expected]}, got "
            f"{frames.MESSAGE_NAMES[msg_type]}")
    return frames.decode_json_payload(payload) if payload else {}


def hello(token: str) -> Exchange:
    """HELLO → WELCOME: the welcome object, once the versions agree."""
    welcome = yield from _request(
        frames.pack_json_frame(frames.MSG_HELLO, {
            "token": token, "protocol": PROTOCOL_VERSION}),
        frames.MSG_WELCOME)
    if isinstance(welcome, Exception):
        return welcome
    if welcome.get("protocol") != PROTOCOL_VERSION:
        raise WireProtocolError(
            f"server speaks wire protocol {welcome.get('protocol')!r}, "
            f"this client speaks {PROTOCOL_VERSION}")
    return welcome


def ping() -> Exchange:
    """PING → PONG: ``True``."""
    pong = yield from _request(frames.pack_frame(frames.MSG_PING),
                               frames.MSG_PONG)
    return pong if isinstance(pong, Exception) else True


def open_cursor(sql: str, params, batch_rows: int) -> Exchange:
    """OPEN → OPENED: the :class:`CursorStream` of the new cursor."""
    opened = yield from _request(
        frames.pack_json_frame(frames.MSG_OPEN, {
            "sql": sql, "params": frames.pack_params(params),
            "batch_rows": batch_rows}),
        frames.MSG_OPENED)
    if isinstance(opened, Exception):
        return opened
    try:
        return CursorStream(opened["cursor"], opened["names"],
                            frames.dtypes_from_names(opened["dtypes"]))
    except KeyError as exc:
        raise WireProtocolError(f"OPENED frame lacks {exc}") from exc


class CursorStream:
    """Client-side state of one server-side cursor.

    ``finished`` — no further batch will arrive (DONE or ERROR was read,
    or the stream was abandoned); ``closed`` — the server no longer
    holds the cursor, so no CLOSE_CURSOR is owed.  ``report`` / ``trace``
    / ``rowcount`` fill in when DONE arrives.
    """

    def __init__(self, cursor_id: int, names: list[str],
                 dtypes: list) -> None:
        self.cursor_id = cursor_id
        self.names = names
        self.dtypes = dtypes
        self.report: Optional[RemoteReport] = None
        self.trace: list[dict] = []
        self.rowcount = -1
        # No server cursor (before any OPEN): nothing to fetch or close.
        self.finished = self.closed = cursor_id is None

    def fetch(self, max_batches: int) -> Exchange:
        """FETCH → BATCH* [DONE | ERROR]: the batches received, at most
        ``max_batches`` of them; fewer only once the stream finished."""
        results = []
        frame = yield frames.pack_json_frame(frames.MSG_FETCH, {
            "cursor": self.cursor_id, "max_batches": max_batches})
        while True:
            msg_type, payload = frame
            if msg_type == frames.MSG_BATCH:
                cursor_id, result = frames.decode_result_batch(
                    payload, self.names)
                if cursor_id != self.cursor_id:
                    raise WireProtocolError(
                        f"batch for cursor {cursor_id}, "
                        f"expected {self.cursor_id}")
                results.append(result)
                if len(results) == max_batches:
                    return results
            elif msg_type == frames.MSG_DONE:
                obj = frames.decode_json_payload(payload)
                report = obj.get("report", {})
                self.report = RemoteReport(report, obj.get("timings"))
                self.trace = obj.get("trace", [])
                self.rowcount = int(report.get("rows_out", -1))
                self.finished = self.closed = True  # server dropped it
                return results
            elif msg_type == frames.MSG_ERROR:
                self.finished = self.closed = True
                return wire_error(frames.decode_json_payload(payload))
            else:
                raise WireProtocolError(
                    f"unexpected {frames.MESSAGE_NAMES[msg_type]} "
                    "during FETCH")
            frame = yield None

    def close(self) -> Optional[Exchange]:
        """Abandon the stream: the CLOSE_CURSOR → CLOSED exchange to
        run, or ``None`` when the server already dropped the cursor."""
        if self.closed:
            return None
        self.finished = self.closed = True
        return _request(
            frames.pack_json_frame(frames.MSG_CLOSE_CURSOR,
                                   {"cursor": self.cursor_id}),
            frames.MSG_CLOSED)
