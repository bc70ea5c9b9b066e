#!/usr/bin/env python3
"""Demo capability (3): comparing lazy against eager ETL.

Measures, for one repository: initial-load time, time-to-first-answer,
warm-query latency and warehouse storage for the two ingestion
strategies, then prints a paper-style table.

Run:  python examples/eager_vs_lazy.py
"""

import tempfile
import time

from repro import SeismicWarehouse, build_repository, fig1_query1, fig1_query2
from repro.mseed.synthesize import RepositorySpec
from repro.util.human import format_bytes, format_duration, format_table


def measure(mode: str, root: str) -> list[str]:
    started = time.perf_counter()
    warehouse = SeismicWarehouse(root, mode=mode)
    load_s = time.perf_counter() - started

    started = time.perf_counter()
    warehouse.query(fig1_query1())
    first_s = time.perf_counter() - started

    started = time.perf_counter()
    warehouse.query(fig1_query2())
    second_s = time.perf_counter() - started

    started = time.perf_counter()
    warehouse.query(fig1_query2())
    warm_s = time.perf_counter() - started

    return [
        mode,
        format_duration(load_s),
        format_duration(first_s),
        format_duration(load_s + first_s),
        format_duration(warm_s),
        format_bytes(warehouse.warehouse_bytes()),
    ]


def main() -> None:
    root = tempfile.mkdtemp(prefix="lazyetl-compare-")
    manifest = build_repository(root, RepositorySpec(files_per_stream=2))
    print(f"repository: {len(manifest.entries)} files, "
          f"{manifest.total_samples:,} samples, "
          f"{format_bytes(manifest.total_bytes)}\n")

    rows = [measure(mode, root) for mode in ("lazy", "eager")]
    print(format_table(
        ["mode", "initial load", "Q1 (cold)", "time-to-answer",
         "Q2 warm", "warehouse size"],
        rows,
    ))
    print(
        "\nreading the table:\n"
        "- lazy: metadata-only load -> near-instant first answer; warm\n"
        "  queries are served from the extraction cache and recycler.\n"
        "- eager: the paper's 'high initial investment of time', plus the\n"
        "  several-fold storage blow-up of materialised samples+timestamps."
    )


if __name__ == "__main__":
    main()
