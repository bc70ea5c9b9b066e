"""Admission control for the concurrent query service.

A bounded queue protects the warehouse from unbounded fan-in ("heavy
traffic from millions of users" cannot mean unbounded memory): when the
queue is full, new queries are rejected immediately with
:class:`~repro.errors.AdmissionError` so clients can back off, rather
than queueing into timeout purgatory.

Dispatch is **per-session fair**: each session has its own FIFO and the
dispatcher serves sessions round-robin, so one chatty session streaming
thousands of queries cannot starve an interactive one.  Each worker
serves one item at a time, so the worker count is the cap on queries
executing at once.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Generic, Optional, TypeVar

from repro.errors import AdmissionError, ServiceClosedError

T = TypeVar("T")


@dataclass
class AdmissionStats:
    submitted: int = 0
    rejected: int = 0
    dispatched: int = 0
    max_queued: int = 0


class AdmissionController(Generic[T]):
    """Bounded, per-session-fair queue feeding the service workers."""

    def __init__(self, *, queue_depth: int = 128) -> None:
        if queue_depth <= 0:
            raise ValueError("queue_depth must be positive")
        self.queue_depth = queue_depth
        # session id -> FIFO of queued items; OrderedDict gives us a
        # stable round-robin ring (rotation via move_to_end).
        self._queues: "OrderedDict[str, deque[T]]" = OrderedDict()
        self._queued = 0
        self._closed = False
        self._cond = threading.Condition()
        self.stats = AdmissionStats()

    # -- producer side -----------------------------------------------------------

    def submit(self, session_id: str, item: T) -> int:
        """Enqueue one query; returns the queue depth after admission.

        Raises :class:`AdmissionError` when the bounded queue is full and
        :class:`ServiceClosedError` after :meth:`close`.
        """
        with self._cond:
            if self._closed:
                raise ServiceClosedError("service is shut down")
            if self._queued >= self.queue_depth:
                self.stats.rejected += 1
                raise AdmissionError(
                    f"admission queue full ({self._queued}/{self.queue_depth})"
                )
            self._queues.setdefault(session_id, deque()).append(item)
            self._queued += 1
            self.stats.submitted += 1
            self.stats.max_queued = max(self.stats.max_queued, self._queued)
            self._cond.notify()
            return self._queued

    # -- consumer side -----------------------------------------------------------

    def next_item(self, timeout: Optional[float] = None) -> Optional[T]:
        """Dequeue the next query, round-robin across sessions.

        Blocks up to ``timeout`` seconds; returns ``None`` on timeout or
        when the controller is closed and drained.
        """
        with self._cond:
            while self._queued == 0:
                if self._closed:
                    return None
                if not self._cond.wait(timeout):
                    return None
            # Serve the least-recently-served session with work.
            for session_id in list(self._queues):
                queue = self._queues[session_id]
                if queue:
                    item = queue.popleft()
                    if queue:
                        self._queues.move_to_end(session_id)
                    else:
                        # Reap drained sessions: a long-lived service
                        # sees unboundedly many session ids.
                        del self._queues[session_id]
                    break
                del self._queues[session_id]
            else:  # pragma: no cover - _queued > 0 guarantees a hit
                return None
            self._queued -= 1
            self.stats.dispatched += 1
            return item

    def queued(self) -> int:
        with self._cond:
            return self._queued

    def close(self) -> None:
        """Refuse new work and wake every blocked consumer."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def drain(self) -> list[T]:
        """Remove and return everything still queued (post-close cleanup)."""
        with self._cond:
            leftovers: list[T] = []
            for queue in self._queues.values():
                leftovers.extend(queue)
                queue.clear()
            self._queued = 0
            return leftovers
