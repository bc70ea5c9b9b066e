"""Partitioning the mseed repository into per-shard extraction domains.

A :class:`ShardMap` assigns every file URI to exactly one shard by a
stable CRC32 of the URI modulo the shard count.  That is insensitive to
file ordering, so adding files never reshuffles existing ones.

:class:`ShardRepositoryView` is how a worker process sees only its
shard: a :class:`~repro.mseed.repository.Repository` whose
``list_files()`` is filtered to the shard's URIs.  Metadata harvest runs
over ``list_files()``, so a worker's warehouse loads (and caches, and
watches for staleness) exactly its own shard.
"""

from __future__ import annotations

import os
import zlib

from repro.errors import ShardConfigError
from repro.mseed.repository import FileInfo, Repository


def _hash_of(uri: str, n_shards: int) -> int:
    return zlib.crc32(uri.encode("utf-8")) % n_shards


class ShardMap:
    """An immutable URI → shard assignment for ``n_shards`` workers."""

    def __init__(self, n_shards: int, assignments: dict[str, int]) -> None:
        if n_shards < 1:
            raise ShardConfigError("n_shards must be >= 1")
        self.n_shards = n_shards
        self._assignments = dict(assignments)

    @classmethod
    def build(cls, uris: "list[str]", n_shards: int) -> "ShardMap":
        return cls(n_shards, {uri: _hash_of(uri, n_shards) for uri in uris})

    def shard_of(self, uri: str) -> int:
        """The owning shard, for URIs the map has not seen too."""
        return _hash_of(uri, self.n_shards)

    def uris_of(self, shard_id: int) -> list[str]:
        return sorted(uri for uri, shard in self._assignments.items()
                      if shard == shard_id)

    def counts(self) -> list[int]:
        out = [0] * self.n_shards
        for shard in self._assignments.values():
            out[shard] += 1
        return out

    def __len__(self) -> int:
        return len(self._assignments)


class ShardRepositoryView(Repository):
    """A repository restricted to one shard's files.

    Everything but enumeration is inherited: ``stat``/``open``/``read``
    still resolve any URI under the root (staleness checks must see the
    real file), but ``list_files()`` — and therefore metadata harvest —
    covers only this shard's URIs.
    """

    def __init__(self, root: "str | os.PathLike", uris: "list[str]",
                 *, extension: str = ".mseed") -> None:
        super().__init__(root, extension=extension)
        self._shard_uris = set(uris)

    def list_files(self) -> list[FileInfo]:
        return [info for info in super().list_files()
                if info.uri in self._shard_uris]
