"""Parallel per-file extraction executor.

A single query's lazy fetch often touches many repository files; this
executor fans the per-file extraction work of ONE query across a shared
worker pool so file reads overlap (file I/O releases the GIL, as do the
vectorised Steim decodes).  Results come back in submission order, so
query output stays deterministic regardless of completion order.

A sharded warehouse installs one pool, sized to its shard count, so
per-file extracts routed to different worker processes run at once.
Every query thread shares it.  Extraction tasks never
submit further tasks, so a saturated pool queues work but cannot
deadlock; coalesced waits are likewise safe because a flight only exists
once its leader is already running (see :mod:`repro.service.coalescer`).
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


@dataclass
class ExtractorStats:
    batches: int = 0          # fan-out calls that used the pool
    tasks: int = 0            # per-file tasks executed on the pool
    serial_batches: int = 0   # calls too small to be worth fanning out


class ParallelExtractor:
    """A bounded thread pool that maps a function over per-file work."""

    def __init__(self, max_workers: int = 4,
                 *, min_fanout: int = 2) -> None:
        if max_workers <= 0:
            raise ValueError("max_workers must be positive")
        self.max_workers = max_workers
        self.min_fanout = min_fanout
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers,
            thread_name_prefix="repro-extract",
        )
        self._closed = False
        self.stats = ExtractorStats()
        self._stats_lock = threading.Lock()

    def map_ordered(self, fn: Callable[[T], R],
                    items: Sequence[T]) -> list[R]:
        """Apply ``fn`` to every item, in parallel, preserving item order.

        Falls back to a plain serial loop when the batch is too small to
        amortise scheduling, or after :meth:`close`.  Exceptions propagate
        (the first failing item's, in item order) after all tasks finish.
        """
        if self._closed or len(items) < self.min_fanout:
            with self._stats_lock:
                self.stats.serial_batches += 1
            return [fn(item) for item in items]
        with self._stats_lock:
            self.stats.batches += 1
            self.stats.tasks += len(items)
        futures = [self._pool.submit(fn, item) for item in items]
        return [future.result() for future in futures]

    def close(self) -> None:
        self._closed = True
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "ParallelExtractor":
        return self

    def __exit__(self, *exc: object) -> Optional[bool]:
        self.close()
        return None
