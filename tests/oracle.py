"""Differential-testing oracle: one query, three executions, zero drift.

:func:`run_differential` executes a SELECT through

* the vectorised operators drained in one unbounded batch
  (``Database.query`` — a drained stream, not a separate executor),
* the same operators streamed at each of ``stream_batch_rows``
  (``Database.open_query``), and
* the row-at-a-time reference interpreter (``Database.query_rowpath``),

and asserts the results are *byte-identical*: same values, same row
order, same null masks, same float bits, and agreeing ``QueryReport``
row counts.  The first two legs run one code path at different batch
sizes, so between them the oracle checks that batch boundaries never
change an answer; the corpus suites sweep :data:`CORPUS_BATCH_ROWS`.  The
rowpath interpreter is deliberately independent code (scalar expression
evaluation, dict-based joins and grouping, no recycler, no zone maps),
so any divergence from it pinpoints a bug in the vectorised executor —
or a genuine semantic disagreement worth a test.

Row order is compared strictly: every leg is deterministic for a fixed
plan (hash-free joins and grouping, stable sorts), so "order where
deterministic" is simply "always" here.

Plain module, not a plugin: pytest puts ``tests/`` on ``sys.path``, so
suites import it directly (``from oracle import run_differential``) or
via the ``differential_oracle`` fixture in ``conftest.py``.
"""

import math
import struct

from repro.db.column import Column

CORPUS_BATCH_ROWS = (1, 7, 4096)
"""Streamed batch sizes the corpus suites sweep (next to the unbounded
drain): row-at-a-time, a size that straddles every page and batch
boundary, and the engine default (``DEFAULT_BATCH_ROWS``)."""


def _canon_value(value):
    """Canonical comparable token; floats compare by their exact bits."""
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"  # any NaN payload counts as the one NaN
        return struct.pack("<d", value)
    return value


def column_fingerprint(column):
    """``(null mask, canonical payload)`` for one result column."""
    values = column.to_pylist()
    return (
        tuple(v is None for v in values),
        tuple(None if v is None else _canon_value(v) for v in values),
    )


def _fingerprint(columns):
    return [column_fingerprint(col) for col in columns]


def _diff_message(label, sql, got, expected):
    lines = [f"{label} diverges from the vectorised result on {sql!r}"]
    for i, (g, e) in enumerate(zip(got, expected)):
        if g != e:
            lines.append(f"  column {i}: nulls/payload differ")
            lines.append(f"    {label}:  nulls={g[0][:8]}... values={g[1][:4]}...")
            lines.append(f"    vector: nulls={e[0][:8]}... values={e[1][:4]}...")
    return "\n".join(lines)


def run_differential(db, sql, params=None, stream_batch_rows=(64,)):
    """Run ``sql`` drained, streamed and row-at-a-time; demand identity.

    Returns the vectorised :class:`Result` so callers can chain further
    assertions without re-executing.
    """
    vec = db.query(sql, params)
    vec_report = db.last_report
    vec_fp = _fingerprint(vec.columns)
    assert vec_report.rows_out == vec.row_count

    row_result, row_report, _trace = db.query_rowpath(sql, params)
    assert row_report.rows_out == vec.row_count, (
        f"rowpath row count {row_report.rows_out} != vectorised "
        f"{vec.row_count} on {sql!r}"
    )
    row_fp = _fingerprint(row_result.columns)
    assert row_fp == vec_fp, _diff_message("rowpath", sql, row_fp, vec_fp)

    for batch_rows in stream_batch_rows:
        run = db.open_query(sql, params, batch_rows=batch_rows)
        parts = [[] for _ in vec.columns]
        for batch in run.batches():
            for i, col in enumerate(batch.columns):
                parts[i].append(col)
        streamed_fp = [
            column_fingerprint(Column.concat(p)) if p else ((), ())
            for p in parts
        ]
        assert streamed_fp == vec_fp, _diff_message(
            f"stream[{batch_rows}]", sql, streamed_fp, vec_fp)
        assert run.report.rows_out == vec.row_count
    return vec
