"""The warehouse schema: three tables and the denormalised ``dataview``.

"We define a (non-materialized) view dataview that joins all three tables
into a (de-normalized) 'universal table'" (§4).  Queries address it with
the inner aliases ``F``/``R``/``D`` exactly as in Figure 1; the view's
alias provenance map makes that resolvable.
"""

from __future__ import annotations

from repro.db.exec.engine import Database
from repro.etl.framework import SCHEMA, SourceAdapter

DATAVIEW_COLUMNS = (
    # from F
    "file_location", "dataquality", "network", "station", "location",
    "channel", "encoding", "sample_rate",
    # from R
    "seq_no", "start_time", "end_time", "frequency", "sample_count",
    # from D
    "sample_time", "sample_value",
)


def dataview_sql() -> str:
    """The canonical dataview DDL over the normalised 3-table schema."""
    return f"""
CREATE VIEW {SCHEMA}.dataview AS
SELECT F.file_location AS file_location, F.dataquality, F.network,
       F.station, F.location, F.channel, F.encoding, F.sample_rate,
       R.seq_no, R.start_time, R.end_time, R.frequency, R.sample_count,
       D.sample_time, D.sample_value
FROM {SCHEMA}.files AS F, {SCHEMA}.records AS R, {SCHEMA}.data AS D
WHERE F.file_location = R.file_location
  AND R.file_location = D.file_location
  AND R.seq_no = D.seq_no
"""


def create_dataview(db: Database) -> None:
    db.execute(dataview_sql())


def external_dataview_sql() -> str:
    """dataview for the external-table mode: a direct view over the wide
    universal table (which is what external tables actually expose)."""
    columns = ", ".join(DATAVIEW_COLUMNS)
    return f"CREATE VIEW {SCHEMA}.dataview AS SELECT {columns} FROM {SCHEMA}.raw"


def external_alias_map(adapter: SourceAdapter) -> dict[tuple[str, str], str]:
    """Alias provenance for the external dataview.

    Mirrors what the catalog derives automatically for the 3-table view,
    so ``F.station`` / ``R.start_time`` / ``D.sample_value`` resolve
    identically in every mode.  Collisions (both F and R declare
    ``start_time``) resolve to the record's attribute, matching the
    canonical view's exposure.
    """
    mapping: dict[tuple[str, str], str] = {}
    record_names = {spec.name for spec in adapter.record_columns()}
    data_names = {spec.name for spec in adapter.data_columns()}
    for spec in adapter.file_columns():
        if spec.name in DATAVIEW_COLUMNS and spec.name not in record_names:
            mapping[("f", spec.name)] = spec.name
    mapping[("f", "file_location")] = "file_location"
    for spec in adapter.record_columns():
        if spec.name in DATAVIEW_COLUMNS:
            mapping[("r", spec.name)] = spec.name
    for spec in adapter.data_columns():
        if spec.name in DATAVIEW_COLUMNS and spec.name not in (
            "file_location",
        ):
            mapping.setdefault(("d", spec.name), spec.name)
    return mapping


def create_external_dataview(db: Database, adapter: SourceAdapter) -> None:
    db.execute(external_dataview_sql())
    view = db.catalog.lookup((SCHEMA, "dataview"))
    from repro.db.catalog import View

    assert isinstance(view, View)
    view.alias_map.update(external_alias_map(adapter))
