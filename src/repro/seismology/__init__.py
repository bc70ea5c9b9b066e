"""Seismic data analysis on the Lazy ETL warehouse — the paper's demo app.

:class:`~repro.seismology.warehouse.SeismicWarehouse` wires a repository,
an ingestion strategy (lazy / eager) and the mSEED schema
together; :mod:`~repro.seismology.queries` carries the paper's Figure-1
queries and the analytical suite; :mod:`~repro.seismology.stalta`
implements the STA/LTA event hunting the demo scenario describes;
:mod:`~repro.seismology.browse` is the metadata browsing panel.
"""

from repro.seismology.warehouse import SeismicWarehouse
from repro.seismology.queries import (
    fig1_query1,
    fig1_query1_template,
    fig1_query2,
    fig1_query2_template,
    analytical_suite,
    QuerySpec,
)
from repro.seismology.stalta import (
    sta_lta_ratio,
    detect_triggers,
    DetectedEvent,
    hunt_events,
)
from repro.seismology import browse

__all__ = [
    "SeismicWarehouse",
    "fig1_query1",
    "fig1_query1_template",
    "fig1_query2",
    "fig1_query2_template",
    "analytical_suite",
    "QuerySpec",
    "sta_lta_ratio",
    "detect_triggers",
    "DetectedEvent",
    "hunt_events",
    "browse",
]
