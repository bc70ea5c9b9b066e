"""File-repository abstraction.

The source datastore in the paper is "a repository containing files in
mSEED format" — millions of them behind FTP in the real deployments.  The
ETL layer never touches the filesystem directly; it goes through
:class:`Repository`, which provides listing, stat (the returned
:class:`FileInfo` — size + mtime — drives the lazy refresh rule) and read
access, and counts I/O so tests can assert that a
cache hit performs **zero** file reads.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.errors import FileMissingError, RepositoryError


@dataclass(frozen=True)
class FileInfo:
    """Identity and stat data for one repository file.

    ``uri`` is the stable identifier stored in the warehouse (the paper:
    "Each mSEED file is identified by its URI"); it is the path relative to
    the repository root, always with ``/`` separators.
    """

    uri: str
    size: int
    mtime_ns: int

    @property
    def name(self) -> str:
        return self.uri.rsplit("/", 1)[-1]


class Repository:
    """A local directory of mSEED files."""

    def __init__(self, root: str | os.PathLike, *, extension: str = ".mseed") -> None:
        self.root = Path(root)
        if not self.root.is_dir():
            raise RepositoryError(f"repository root {self.root} is not a directory")
        self.extension = extension
        self.reads = 0
        self.bytes_read = 0
        self.stats = 0

    # -- listing / stat ----------------------------------------------------

    def list_files(self) -> list[FileInfo]:
        """All repository files, sorted by URI path parts (``sorted``'s
        order of their paths) for determinism."""
        infos = []
        pending = [("", str(self.root))]
        while pending:
            prefix, directory = pending.pop()
            with os.scandir(directory) as entries:
                for entry in entries:
                    if entry.is_dir(follow_symlinks=False):
                        pending.append((f"{prefix}{entry.name}/", entry.path))
                    elif entry.name.endswith(self.extension) and entry.is_file():
                        stat = entry.stat()
                        infos.append(FileInfo(uri=prefix + entry.name,
                                              size=stat.st_size,
                                              mtime_ns=stat.st_mtime_ns))
        infos.sort(key=lambda info: info.uri.split("/"))
        self.stats += len(infos)
        return infos

    def stat(self, uri: str) -> FileInfo:
        """Fresh stat for one file (used by the staleness check)."""
        path = self._resolve(uri)
        try:
            stat = path.stat()
        except FileNotFoundError as exc:
            raise FileMissingError(f"file {uri!r} vanished from repository") from exc
        self.stats += 1
        return FileInfo(uri=uri, size=stat.st_size, mtime_ns=stat.st_mtime_ns)

    def exists(self, uri: str) -> bool:
        return self._resolve(uri).is_file()

    # -- reading -----------------------------------------------------------

    def path_of(self, uri: str) -> Path:
        """Filesystem path for a URI (read-only use; counts as a read)."""
        path = self._resolve(uri)
        if not path.is_file():
            raise FileMissingError(f"file {uri!r} vanished from repository")
        return path

    def open(self, uri: str):
        """Open a file for binary reading, counting the access."""
        path = self.path_of(uri)
        self.reads += 1
        self.bytes_read += path.stat().st_size
        return open(path, "rb")

    def record_read(self, uri: str, nbytes: int) -> None:
        """Account for a partial read performed through :meth:`path_of`."""
        self.reads += 1
        self.bytes_read += nbytes

    def _resolve(self, uri: str) -> Path:
        if uri.startswith("/") or ".." in uri.split("/"):
            raise RepositoryError(f"unsafe repository URI {uri!r}")
        return self.root / uri

    # -- mutation helpers (drive the refresh experiments) -------------------

    def touch(self, uri: str) -> None:
        """Bump a file's mtime without changing content (staleness trigger)."""
        path = self.path_of(uri)
        stat = path.stat()
        bumped = stat.st_mtime_ns + 1_000_000_000
        os.utime(path, ns=(stat.st_atime_ns, bumped))

    def overwrite(self, uri: str, data: bytes) -> None:
        """Replace a file's content (a repository update)."""
        path = self._resolve(uri)
        path.parent.mkdir(parents=True, exist_ok=True)
        existed = path.exists()
        old_mtime = path.stat().st_mtime_ns if existed else 0
        path.write_bytes(data)
        # Guarantee a visible mtime advance even on coarse filesystems.
        stat = path.stat()
        if stat.st_mtime_ns <= old_mtime:
            os.utime(path, ns=(stat.st_atime_ns, old_mtime + 1_000_000_000))

    def remove(self, uri: str) -> None:
        self.path_of(uri).unlink()

    def reset_counters(self) -> None:
        self.reads = 0
        self.bytes_read = 0
        self.stats = 0

    def __iter__(self) -> Iterator[FileInfo]:
        return iter(self.list_files())

    def __repr__(self) -> str:
        return f"Repository({str(self.root)!r})"
