"""Shared fixtures: synthetic repositories and warehouse factories.

Repository synthesis is the expensive part of the suite, so repositories
are session-scoped and shared; tests that mutate files copy them first.
"""

from __future__ import annotations

import shutil

import pytest

from repro.mseed.inventory import DEFAULT_INVENTORY, find_station
from repro.mseed.synthesize import RepositorySpec, build_repository


@pytest.fixture(scope="session")
def tiny_repo(tmp_path_factory):
    """Two NL stations, one channel, one 2-minute file each."""
    root = tmp_path_factory.mktemp("tiny-repo")
    spec = RepositorySpec(
        stations=DEFAULT_INVENTORY[:2],
        channel_codes=("BHZ",),
        files_per_stream=1,
        file_span_minutes=2,
        n_events=1,
    )
    manifest = build_repository(root, spec)
    return manifest


@pytest.fixture(scope="session")
def demo_repo(tmp_path_factory):
    """The paper-day repository: HGN/DBN (NL) + ISK (KO), BHE+BHZ,
    two 10-minute files per stream from 2010-01-12T22:00 — covers the
    Figure-1 query windows."""
    root = tmp_path_factory.mktemp("demo-repo")
    spec = RepositorySpec(
        stations=(
            find_station("HGN"),
            find_station("DBN"),
            find_station("ISK"),
        ),
        channel_codes=("BHE", "BHZ"),
        files_per_stream=2,
        file_span_minutes=10,
        n_events=2,
    )
    manifest = build_repository(root, spec)
    return manifest


@pytest.fixture()
def mutable_repo(demo_repo, tmp_path):
    """A private copy of the demo repository for mutation tests."""
    root = tmp_path / "repo"
    shutil.copytree(demo_repo.root, root)
    from repro.mseed.synthesize import RepositoryManifest, ManifestEntry

    entries = [
        ManifestEntry(**{**e.__dict__,
                         "path": e.path.replace(str(demo_repo.root), str(root))})
        for e in demo_repo.entries
    ]
    return RepositoryManifest(root=str(root), spec=demo_repo.spec,
                              entries=entries, events=demo_repo.events)


@pytest.fixture()
def lazy_wh(demo_repo):
    from repro.seismology.warehouse import SeismicWarehouse

    return SeismicWarehouse(demo_repo.root, mode="lazy")


@pytest.fixture(scope="session")
def eager_wh(demo_repo):
    """Session-scoped: eager loading is the expensive baseline; the
    returned warehouse must be treated read-only by tests."""
    from repro.seismology.warehouse import SeismicWarehouse

    return SeismicWarehouse(demo_repo.root, mode="eager")


@pytest.fixture()
def differential_oracle():
    """The three-way executor identity check (see ``tests/oracle.py``)."""
    from oracle import run_differential

    return run_differential
