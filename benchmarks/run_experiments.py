#!/usr/bin/env python3
"""Regenerate every experiment table and (optionally) EXPERIMENTS.md.

Usage:
    python benchmarks/run_experiments.py            # print all tables
    python benchmarks/run_experiments.py E1 E4      # a subset
    python benchmarks/run_experiments.py --markdown EXPERIMENTS_MEASURED.md
    python benchmarks/run_experiments.py --smoke --check --json-dir bench-results

Every experiment also writes a machine-readable ``BENCH_<id>.json``
(name, params, table rows, wall time) into ``--json-dir`` so the perf
trajectory is tracked across PRs; pass ``--no-json`` to skip.  ``--smoke``
runs reduced-parameter variants suitable for CI.  ``--check`` gates every
experiment that declares acceptance criteria (``criteria(table)`` in its
``bench_e*.py``): the ``criteria`` block lands in the same JSON and the
exit code is non-zero if any gate fails.
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
import time

import bench_e13_adaptive
import bench_e15_vectorized
import bench_e16_network
import bench_e17_sharding

from repro.bench.harness import ALL_EXPERIMENTS, SMOKE_EXPERIMENTS

# experiment id -> criteria(table) -> (criteria block, passed)
CRITERIA = {
    "E13": bench_e13_adaptive.criteria,
    "E15": bench_e15_vectorized.criteria,
    "E16": bench_e16_network.criteria,
    "E17": bench_e17_sharding.criteria,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("experiments", nargs="*",
                        help="experiment ids (default: all)")
    parser.add_argument("--markdown", metavar="PATH",
                        help="also write the tables as markdown")
    parser.add_argument("--smoke", action="store_true",
                        help="reduced parameters (CI-sized runs)")
    parser.add_argument("--json-dir", metavar="DIR",
                        default="benchmarks/results",
                        help="directory for BENCH_<id>.json artifacts "
                             "(default: %(default)s)")
    parser.add_argument("--no-json", action="store_true",
                        help="skip writing the JSON artifacts")
    parser.add_argument("--check", action="store_true",
                        help="gate experiments on their acceptance "
                             "criteria; exit 1 if any fails")
    args = parser.parse_args()

    registry = SMOKE_EXPERIMENTS if args.smoke else ALL_EXPERIMENTS
    wanted = args.experiments or list(registry)
    unknown = [e for e in wanted if e not in registry]
    if unknown:
        parser.error(f"unknown experiments: {unknown}")

    if not args.no_json:
        os.makedirs(args.json_dir, exist_ok=True)

    tables = []
    failed = []
    for eid in wanted:
        started = time.perf_counter()
        table = registry[eid]()
        elapsed = time.perf_counter() - started
        print(table.render())
        print(f"  (experiment ran in {elapsed:.1f} s)\n")
        tables.append(table)
        extra = {}
        if args.check and eid in CRITERIA:
            extra["criteria"], passed = CRITERIA[eid](table)
            print(f"  acceptance: {extra['criteria']} -> "
                  f"{'PASS' if passed else 'FAIL'}\n")
            if not passed:
                failed.append(eid)
        if not args.no_json:
            path = os.path.join(args.json_dir, f"BENCH_{eid}.json")
            table.to_json(
                path,
                params={"smoke": args.smoke},
                elapsed_s=round(elapsed, 3),
                python=platform.python_version(),
                machine=platform.machine(),
                **extra,
            )
            reports = (f" (+{len(table.reports)} query reports)"
                       if table.reports else "")
            print(f"  json written to {path}{reports}\n")

    if args.markdown:
        with open(args.markdown, "w") as handle:
            handle.write("# Measured experiment tables\n\n")
            handle.write(
                f"Environment: Python {platform.python_version()} on "
                f"{platform.machine()}; single process, warm filesystem "
                "cache.\n\n"
            )
            for table in tables:
                handle.write(table.markdown())
                handle.write("\n")
        print(f"markdown written to {args.markdown}")
    if failed:
        print(f"acceptance criteria FAILED: {', '.join(failed)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
