"""Startup hook for traced subprocesses.

The traced run prepends this directory to ``PYTHONPATH`` and sets
``PERF_TRACE_DIR``; the TCP server process and every spawned shard worker
then install the benchmark's span wrappers before the program imports
anything.  Inert without the environment variable.
"""

import os
import sys

if os.environ.get("PERF_TRACE_DIR") and not any(
        "resource_tracker" in arg for arg in getattr(sys, "orig_argv", ())):
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    import tracer

    tracer.install_from_env()
