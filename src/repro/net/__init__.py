"""The wire protocol subsystem: remote access to a served warehouse.

Server side, :class:`~repro.net.server.WireServer` is owned by a
:class:`~repro.service.service.WarehouseService`
(``warehouse.serve(tcp_port=..., auth_tokens=[...])``) and speaks a
length-prefixed binary protocol (:mod:`repro.net.frames`; result columns
travel as checksummed storage pages) with server-side cursors and
bounded backpressure windows.  Client side, the request/response
sequencing exists once, without I/O, in :mod:`repro.net.protocol`;
:func:`connect_tcp` (blocking socket, DB-API-shaped connection reusing
the in-process :class:`repro.api.cursor.Cursor`) and
:func:`connect_tcp_async` (asyncio streams) are two thin drivers of it.
``repro-serve`` (:mod:`repro.net.cli`) serves a warehouse until SIGTERM.
"""

from repro.net.aio import AsyncConnection, AsyncCursor, connect_tcp_async
from repro.net.client import (
    RemoteConnection,
    RemotePreparedStatement,
    connect_tcp,
)
from repro.net.frames import (
    DEFAULT_MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
)
from repro.net.protocol import RemoteReport, raise_wire_error
from repro.net.server import WireServer

__all__ = [
    "AsyncConnection",
    "AsyncCursor",
    "DEFAULT_MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "RemoteConnection",
    "RemotePreparedStatement",
    "RemoteReport",
    "WireServer",
    "connect_tcp",
    "connect_tcp_async",
    "raise_wire_error",
]
