"""``repro-serve`` — serve a warehouse over TCP (+ HTTP) until SIGTERM.

The console-script entry point (pyproject ``[project.scripts]``; also
runnable as ``python -m repro.net.cli``) builds a warehouse from CLI and
environment configuration and serves the query wire protocol plus the
HTTP observability endpoint until it receives SIGTERM or SIGINT, then
drains gracefully.

Auth tokens come from repeated ``--auth-token`` flags or the
``REPRO_AUTH_TOKENS`` environment variable (comma-separated); each is a
plain secret or ``principal=secret``.  With no ``--repo``, a small
synthetic mSEED repository is built under a temp directory — handy for
demos and smoke tests::

    repro-serve --tcp-port 9750 --auth-token demo=s3cret
    repro-serve --repo /data/mseed --tcp-port 0 --http-port 0

On startup one machine-parseable ready line goes to stdout::

    repro-serve: ready tcp=127.0.0.1:9750 http=127.0.0.1:8321
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import tempfile
import threading
from typing import Optional, Sequence

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve a lazy-ETL warehouse over the TCP wire "
                    "protocol (and the HTTP observability endpoint).")
    parser.add_argument("--repo", metavar="PATH", default=None,
                        help="mSEED repository root (default: synthesise "
                             "a small demo repository in a temp dir)")
    parser.add_argument("--mode", choices=("lazy", "eager"),
                        default="lazy", help="warehouse ETL mode")
    parser.add_argument("--storage", metavar="PATH", default=None,
                        help="persistent segment store directory")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address for TCP and HTTP")
    parser.add_argument("--tcp-port", type=int, default=0,
                        help="wire-protocol port (0 = ephemeral)")
    parser.add_argument("--http-port", type=int, default=None,
                        help="observability endpoint port (0 = ephemeral; "
                             "omit to disable)")
    parser.add_argument("--auth-token", action="append", default=[],
                        metavar="[PRINCIPAL=]SECRET", dest="auth_tokens",
                        help="pre-shared client token (repeatable; or "
                             "REPRO_AUTH_TOKENS, comma-separated)")
    parser.add_argument("--workers", type=int, default=4,
                        help="query-executing worker threads")
    parser.add_argument("--shards", type=int, default=1,
                        help="shard worker processes for scatter-gather "
                             "execution (1 = single-process; >1 requires "
                             "--mode lazy)")
    parser.add_argument("--queue-depth", type=int, default=128,
                        help="bounded admission queue depth")
    parser.add_argument("--cursor-window", type=int, default=4,
                        help="per-cursor server-side batch window")
    parser.add_argument("--drain-s", type=float, default=5.0,
                        help="graceful-drain deadline on shutdown")
    parser.add_argument("--slow-query-s", type=float, default=None,
                        help="slow-query log threshold (seconds)")
    return parser


def _resolve_tokens(cli_tokens: Sequence[str]) -> list[str]:
    tokens = [t for t in cli_tokens if t]
    env = os.environ.get("REPRO_AUTH_TOKENS", "")
    tokens.extend(t.strip() for t in env.split(",") if t.strip())
    return tokens


def _build_warehouse(args):
    from repro.seismology.warehouse import SeismicWarehouse

    root = args.repo
    if root is None:
        from repro.mseed.synthesize import RepositorySpec, build_repository

        root = tempfile.mkdtemp(prefix="repro-serve-demo-")
        print(f"repro-serve: no --repo given, synthesising a demo "
              f"repository under {root}", file=sys.stderr)
        build_repository(root, RepositorySpec(files_per_stream=2))
    return SeismicWarehouse(root, mode=args.mode,
                            storage_path=args.storage)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    tokens = _resolve_tokens(args.auth_tokens)
    if not tokens:
        print("repro-serve: error: no auth tokens — pass --auth-token "
              "or set REPRO_AUTH_TOKENS", file=sys.stderr)
        return 2
    if args.shards < 1:
        print(f"repro-serve: error: --shards must be >= 1, got "
              f"{args.shards}", file=sys.stderr)
        return 2
    if args.shards > 1 and args.mode != "lazy":
        print(f"repro-serve: error: --shards {args.shards} requires "
              f"--mode lazy (got --mode {args.mode})", file=sys.stderr)
        return 2

    warehouse = _build_warehouse(args)
    service = warehouse.serve(
        max_workers=args.workers,
        shards=args.shards,
        queue_depth=args.queue_depth,
        tcp_port=args.tcp_port,
        tcp_host=args.host,
        auth_tokens=tokens,
        cursor_window_batches=args.cursor_window,
        tcp_drain_s=args.drain_s,
        http_port=args.http_port,
        http_host=args.host,
        slow_query_s=args.slow_query_s,
    )

    stop = threading.Event()

    def _on_signal(signum, _frame) -> None:
        print(f"repro-serve: caught {signal.Signals(signum).name}, "
              "draining ...", file=sys.stderr)
        stop.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)

    http = (f" http={args.host}:{service.http_port}"
            if service.http_port is not None else "")
    print(f"repro-serve: ready tcp={args.host}:{service.tcp_port}{http}",
          flush=True)
    try:
        stop.wait()
    finally:
        service.close()
        warehouse.close()
    print("repro-serve: stopped", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
