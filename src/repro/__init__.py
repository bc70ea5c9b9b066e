"""Lazy ETL for scientific data warehouses.

A from-scratch reproduction of Kargın et al., *Lazy ETL in Action: ETL
Technology Dates Scientific Data* (PVLDB 6(12), 2013) and its companion
system paper (BIRTE 2012): a scientific data warehouse whose initial
loading covers only metadata, with actual data extracted, transformed and
loaded transparently at query time.

Quickstart::

    from repro import SeismicWarehouse, build_repository, fig1_query1

    manifest = build_repository("/tmp/mseed-repo")
    wh = SeismicWarehouse("/tmp/mseed-repo", mode="lazy")
    print(wh.query(fig1_query1()).format())

Packages:

* :mod:`repro.mseed` — the mSEED file-format substrate (Steim codecs,
  records, synthetic repositories);
* :mod:`repro.api` — the unified client API: Connection / Cursor /
  PreparedStatement with streaming fetch and plan caching;
* :mod:`repro.db` — the columnar SQL engine (MonetDB stand-in) with
  run-time plan rewriting and intermediate-result recycling;
* :mod:`repro.etl` — the Lazy ETL core plus the eager baseline;
* :mod:`repro.service` — concurrent query serving: admission control,
  session fairness, single-flight extraction coalescing;
* :mod:`repro.net` — the wire protocol: TCP server with server-side
  cursors, sync and asyncio remote clients, the ``repro-serve`` CLI;
* :mod:`repro.seismology` — the demo application: schema, Figure-1
  queries, STA/LTA event hunting, metadata browsing.
"""

import logging as _logging

from repro.api import Connection, Cursor, PreparedStatement, connect
from repro.db import Database, Result
from repro.etl import (
    EagerETL,
    ExtractionCache,
    LazyETL,
    MSeedAdapter,
    MetadataSync,
)
from repro.mseed import (
    Repository,
    RepositorySpec,
    build_repository,
)
from repro.net import connect_tcp, connect_tcp_async
from repro.seismology import (
    SeismicWarehouse,
    analytical_suite,
    fig1_query1,
    fig1_query2,
    hunt_events,
)
from repro.service import ServiceConfig, WarehouseService

# Library convention: the package root gets a NullHandler so subsystem
# loggers ("repro.service", "repro.etl.lazy", ...) stay silent until the
# application configures logging — and background threads never print
# "no handler could be found" warnings.
_logging.getLogger("repro").addHandler(_logging.NullHandler())

__version__ = "1.0.0"

__all__ = [
    "Connection",
    "Cursor",
    "PreparedStatement",
    "connect",
    "connect_tcp",
    "connect_tcp_async",
    "Database",
    "Result",
    "LazyETL",
    "EagerETL",
    "ExtractionCache",
    "MSeedAdapter",
    "MetadataSync",
    "Repository",
    "RepositorySpec",
    "build_repository",
    "SeismicWarehouse",
    "ServiceConfig",
    "WarehouseService",
    "analytical_suite",
    "fig1_query1",
    "fig1_query2",
    "hunt_events",
    "__version__",
]
