"""Tests for the repository abstraction."""

import pytest

from repro.errors import FileMissingError, RepositoryError
from repro.mseed.repository import Repository


def test_listing_is_sorted_and_relative(tiny_repo):
    repo = Repository(tiny_repo.root)
    infos = repo.list_files()
    assert len(infos) == len(tiny_repo.entries)
    uris = [info.uri for info in infos]
    assert uris == sorted(uris)
    assert all(not uri.startswith("/") for uri in uris)
    assert all(info.size > 0 for info in infos)


def test_listing_walks_nested_directories_in_path_order(tmp_path):
    """URIs sort by path parts, as their paths do: ``a/`` before
    ``a-b/``, although ``'a-b/' < 'a/'`` as strings."""
    names = ["a-b/x.mseed", "a/x.mseed", "a/b/y.mseed", "a.mseed",
             "z/a-b/c.mseed", "z/a/c.mseed", "a/notes.txt", "b/x.mseed.bak"]
    for name in names:
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_bytes(b"x" * len(name))
    (tmp_path / "empty").mkdir()
    repo = Repository(tmp_path)
    infos = repo.list_files()
    assert [info.uri for info in infos] == [
        "a/b/y.mseed", "a/x.mseed", "a-b/x.mseed", "a.mseed",
        "z/a/c.mseed", "z/a-b/c.mseed"]
    assert [info.uri for info in infos] == [
        path.relative_to(tmp_path).as_posix()
        for path in sorted(tmp_path.rglob("*.mseed"))]
    assert infos == [repo.stat(info.uri) for info in infos]
    assert all(info.size == len(info.uri) for info in infos)
    assert repo.stats == 2 * len(infos)


def test_stat_and_exists(tiny_repo):
    repo = Repository(tiny_repo.root)
    uri = repo.list_files()[0].uri
    info = repo.stat(uri)
    assert info.uri == uri
    assert repo.exists(uri)
    assert not repo.exists("nope/missing.mseed")


def test_open_counts_reads(tiny_repo):
    repo = Repository(tiny_repo.root)
    uri = repo.list_files()[0].uri
    assert repo.reads == 0
    with repo.open(uri) as handle:
        handle.read(10)
    assert repo.reads == 1
    assert repo.bytes_read > 0
    repo.reset_counters()
    assert repo.reads == 0 and repo.bytes_read == 0


def test_unsafe_uri_rejected(tiny_repo):
    repo = Repository(tiny_repo.root)
    with pytest.raises(RepositoryError):
        repo.stat("../outside.mseed")
    with pytest.raises(RepositoryError):
        repo.stat("/absolute.mseed")


def test_missing_file_error(tiny_repo):
    repo = Repository(tiny_repo.root)
    with pytest.raises(FileMissingError):
        repo.stat("ghost.mseed")


def test_bad_root_rejected(tmp_path):
    with pytest.raises(RepositoryError):
        Repository(tmp_path / "does-not-exist")


def test_touch_bumps_mtime(mutable_repo):
    repo = Repository(mutable_repo.root)
    uri = repo.list_files()[0].uri
    before = repo.stat(uri).mtime_ns
    repo.touch(uri)
    assert repo.stat(uri).mtime_ns > before


def test_overwrite_advances_mtime(mutable_repo):
    repo = Repository(mutable_repo.root)
    uri = repo.list_files()[0].uri
    before = repo.stat(uri).mtime_ns
    data = open(repo.path_of(uri), "rb").read()
    repo.overwrite(uri, data)
    assert repo.stat(uri).mtime_ns > before


def test_remove(mutable_repo):
    repo = Repository(mutable_repo.root)
    uri = repo.list_files()[0].uri
    count = len(repo.list_files())
    repo.remove(uri)
    assert len(repo.list_files()) == count - 1
