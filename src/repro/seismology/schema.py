"""The warehouse schema: three tables and the denormalised ``dataview``.

"We define a (non-materialized) view dataview that joins all three tables
into a (de-normalized) 'universal table'" (§4).  Queries address it with
the inner aliases ``F``/``R``/``D`` exactly as in Figure 1; the view's
alias provenance map makes that resolvable.
"""

from __future__ import annotations

from repro.db.exec.engine import Database
from repro.etl.framework import SCHEMA


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
