"""Tests of the benchmark itself.  Not collected by tier-1 (whose
``testpaths`` is ``tests``); run with ``python -m pytest perf/tests -q``."""

import sys
from pathlib import Path

PERF = Path(__file__).resolve().parent.parent
for path in (PERF.parent / "src", PERF):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
