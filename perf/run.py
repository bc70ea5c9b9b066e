#!/usr/bin/env python3
"""The lazy-ETL warehouse benchmark: one command, seven workloads (five of
them gated by the driver through BENCHMARK.json).

    python3 perf/run.py                         every workload, human report
    python3 perf/run.py --trace                 ... plus the traced runs
    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1
                                                one run; last stdout line
                                                is the result JSON object
    python3 perf/run.py --check                 manifest self-check
    python3 perf/run.py compare A.json B.json   two sets of runs, verdicts
    python3 perf/run.py --write-manifest        regenerate BENCHMARK.json

Inputs are generated from ``--seed``; every answer is checked against a
numpy oracle; see README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD_DIR = ROOT / ".bench_build" / "perf"
DEFAULT_SEED = 20130826


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perf/run.py", description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed region (default: the "
                             "manifest's run_seconds); op counts scale "
                             "with it")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: traced run, per-layer metrics")
    parser.add_argument("--check", action="store_true",
                        help="verify BENCHMARK.json against this code and "
                             "against what a run emits")
    parser.add_argument("--write-manifest", action="store_true")
    parser.add_argument("--json-out", type=Path,
                        help="append each run's result object to this "
                             "JSON-lines file (input of `compare`)")
    return parser.parse_args(argv)


def reexec_pinned() -> None:
    """Re-exec with PYTHONHASHSEED=0 and the program on PYTHONPATH.

    Corpus synthesis hashes tuples of strings (see corpus.py), so the
    interpreter's hash seed must be pinned before it starts; the server
    subprocess and spawned shard workers inherit both variables.
    """
    paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    if os.environ.get("PYTHONHASHSEED") == "0" and str(SRC) in paths:
        return
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in paths if p and p != str(SRC)])
    os.execve(sys.executable, [sys.executable, *sys.argv], env)


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        import compare
        return compare.main(Path(argv[1]), Path(argv[2]))
    args = parse_args(argv)
    if args.write_manifest:
        import manifest
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(manifest.build(), indent=2) + "\n")
        return 0
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perf: the program is missing: no {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    if args.check:
        import check
        return check.main(ROOT)

    import report
    if args.workload is None:
        return report.run_all(args, Path(__file__).resolve())
    return report.main(args, BUILD_DIR)


if __name__ == "__main__":
    # Guarded: shard workers are *spawned* and re-import this module.
    reexec_pinned()
    sys.exit(main(sys.argv[1:]))
