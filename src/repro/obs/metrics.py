"""Thread-safe metrics: counters, gauges, bounded-reservoir histograms.

One :class:`MetricsRegistry` serves a whole warehouse.  Two feeding
styles coexist:

* **instruments** — :class:`Counter` / :class:`Gauge` / :class:`Histogram`
  objects obtained get-or-create from the registry and bumped on the hot
  path (query latency, admission wait, extraction seconds).  Each update
  is one short critical section on the instrument's own lock;
* **collectors** — callables registered with
  :meth:`MetricsRegistry.register_collector` that are invoked only at
  snapshot/scrape time and read counters the subsystems already keep
  (cache stats, buffer-pool stats, plan-cache hits, promotion totals).
  Collectors add **zero** hot-path overhead, which is what keeps the
  acceptance-gated vectorised-executor speedups intact with metrics on.

Label cardinality is bounded per metric: once ``max_label_sets`` distinct
label combinations exist, further combinations fold into a single
``__other__`` series instead of growing without bound (a scrape target
must never OOM its own exporter because session ids are unbounded).

Histograms keep exact ``count``/``sum`` plus a bounded reservoir
(Vitter's algorithm R, deterministic seed) from which p50/p95/p99 are
answered — memory stays O(reservoir) regardless of observation count.

Collector outputs use the Prometheus naming convention to pick a type:
names ending in ``_total`` snapshot as counters, everything else as
gauges.
"""

from __future__ import annotations

import logging
import math
import random
import threading
import time
from collections import deque
from typing import Callable, Iterable, Optional

from repro.errors import MetricsError

logger = logging.getLogger("repro.obs.metrics")

OVERFLOW_LABEL = "__other__"
"""Label value that absorbs series beyond the per-metric cardinality cap."""

DEFAULT_MAX_LABEL_SETS = 64
DEFAULT_RESERVOIR_SIZE = 1024
QUANTILES = (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99"))


def _validate_name(name: str) -> str:
    if not name or not all(c.isalnum() or c in "_:" for c in name) \
            or name[0].isdigit():
        raise MetricsError(f"invalid metric name {name!r}")
    return name


class _Metric:
    """Common labelled-series machinery (one lock per metric)."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str,
                 label_names: tuple[str, ...],
                 max_label_sets: int) -> None:
        self.name = _validate_name(name)
        self.help = help_text
        self.label_names = tuple(label_names)
        self._max_label_sets = max_label_sets
        self._lock = threading.Lock()
        self._series: dict[tuple, object] = {}

    def _key(self, labels: dict) -> tuple:
        """Resolve **labels to a series key, folding overflow series.

        Callers hold ``self._lock``.
        """
        if set(labels) != set(self.label_names):
            raise MetricsError(
                f"metric {self.name} takes labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[n]) for n in self.label_names)
        if key not in self._series and key and \
                len(self._series) >= self._max_label_sets:
            key = tuple(OVERFLOW_LABEL for _ in self.label_names)
        return key

    def _labels_of(self, key: tuple) -> dict:
        return dict(zip(self.label_names, key))


class Counter(_Metric):
    """A monotonically increasing count."""

    kind = "counter"

    def inc(self, amount: float = 1, **labels: object) -> None:
        if amount < 0:
            raise MetricsError(
                f"counter {self.name} cannot decrease (inc {amount})")
        with self._lock:
            key = self._key(labels)
            self._series[key] = self._series.get(key, 0) + amount

    def value(self, **labels: object) -> float:
        with self._lock:
            return self._series.get(self._key(labels), 0)

    def samples(self) -> list[dict]:
        with self._lock:
            return [{"labels": self._labels_of(key), "value": value}
                    for key, value in self._series.items()]


class Gauge(_Metric):
    """A value that can go up and down; optionally callback-backed."""

    kind = "gauge"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._fn: Optional[Callable[[], float]] = None

    def set(self, value: float, **labels: object) -> None:
        with self._lock:
            self._series[self._key(labels)] = value

    def inc(self, amount: float = 1, **labels: object) -> None:
        with self._lock:
            key = self._key(labels)
            self._series[key] = self._series.get(key, 0) + amount

    def dec(self, amount: float = 1, **labels: object) -> None:
        self.inc(-amount, **labels)

    def set_function(self, fn: Callable[[], float]) -> None:
        """Sample ``fn()`` at snapshot time (unlabelled gauges only)."""
        if self.label_names:
            raise MetricsError(
                f"set_function on labelled gauge {self.name}")
        self._fn = fn

    def value(self, **labels: object) -> float:
        if self._fn is not None:
            return float(self._fn())
        with self._lock:
            return self._series.get(self._key(labels), 0)

    def samples(self) -> list[dict]:
        if self._fn is not None:
            try:
                return [{"labels": {}, "value": float(self._fn())}]
            except Exception:
                logger.exception("gauge callback %s failed", self.name)
                return []
        with self._lock:
            return [{"labels": self._labels_of(key), "value": value}
                    for key, value in self._series.items()]


class _Reservoir:
    """Per-series histogram state: exact count/sum + sampled values."""

    __slots__ = ("count", "sum", "values", "rng")

    def __init__(self) -> None:
        self.count = 0
        self.sum = 0.0
        self.values: list[float] = []
        # Deterministic per-series stream: snapshots are reproducible in
        # tests and the sampler never touches the global random state.
        self.rng = random.Random(0x5EED)


class Histogram(_Metric):
    """Bounded-reservoir histogram answering p50/p95/p99."""

    kind = "histogram"

    def __init__(self, name: str, help_text: str,
                 label_names: tuple[str, ...], max_label_sets: int,
                 reservoir_size: int = DEFAULT_RESERVOIR_SIZE) -> None:
        super().__init__(name, help_text, label_names, max_label_sets)
        self._reservoir_size = reservoir_size

    def observe(self, value: float, **labels: object) -> None:
        with self._lock:
            key = self._key(labels)
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _Reservoir()
            series.count += 1
            series.sum += value
            if len(series.values) < self._reservoir_size:
                series.values.append(value)
            else:
                # Vitter's algorithm R: each of the n observations ends
                # up in the reservoir with probability size/n.
                slot = series.rng.randrange(series.count)
                if slot < self._reservoir_size:
                    series.values[slot] = value

    def count(self, **labels: object) -> int:
        with self._lock:
            series = self._series.get(self._key(labels))
            return 0 if series is None else series.count

    def percentile(self, q: float, **labels: object) -> float:
        """Nearest-rank percentile over the reservoir (q in [0, 100])."""
        with self._lock:
            series = self._series.get(self._key(labels))
            if series is None:
                return 0.0
            return nearest_rank(sorted(series.values), q)

    def samples(self) -> list[dict]:
        with self._lock:
            out = []
            for key, series in self._series.items():
                ordered = sorted(series.values)
                sample = {
                    "labels": self._labels_of(key),
                    "count": series.count,
                    "sum": series.sum,
                }
                for _q, name in QUANTILES:
                    sample[name] = nearest_rank(ordered, float(_q) * 100)
                out.append(sample)
            return out


def nearest_rank(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sample (q in [0, 100]):
    the smallest value with at least ``q`` percent of the sample at or
    below it; 0.0 for an empty sample."""
    if not ordered:
        return 0.0
    # The epsilon keeps a product like 0.95 * 200 (= 190.00000000000003
    # in binary floating point) from rounding up to rank 191.
    rank = math.ceil(q / 100 * len(ordered) - 1e-9)
    return ordered[min(len(ordered), max(1, rank)) - 1]


class MetricsRegistry:
    """Get-or-create home for every metric of one warehouse."""

    def __init__(self, *, max_label_sets: int = DEFAULT_MAX_LABEL_SETS
                 ) -> None:
        self.max_label_sets = max_label_sets
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}
        self._collectors: list[Callable[[], "dict | Iterable"]] = []

    # -- instruments ---------------------------------------------------------

    def _get_or_create(self, cls, name: str, help_text: str,
                       labels: Iterable[str]) -> _Metric:
        label_names = tuple(labels)
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help_text, label_names,
                             self.max_label_sets)
                self._metrics[name] = metric
                return metric
        if not isinstance(metric, cls):
            raise MetricsError(
                f"metric {name} already registered as {metric.kind}")
        if metric.label_names != label_names:
            raise MetricsError(
                f"metric {name} labels {metric.label_names} != "
                f"{label_names}")
        return metric

    def counter(self, name: str, help_text: str = "",
                labels: Iterable[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help_text, labels)

    def gauge(self, name: str, help_text: str = "",
              labels: Iterable[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help_text, labels)

    def histogram(self, name: str, help_text: str = "",
                  labels: Iterable[str] = ()) -> Histogram:
        return self._get_or_create(Histogram, name, help_text, labels)

    # -- collectors ----------------------------------------------------------

    def register_collector(self, fn: Callable[[], "dict | Iterable"]
                           ) -> Callable:
        """Register a scrape-time sampler.

        ``fn`` returns either ``{name: value}`` (``_total`` suffix →
        counter, else gauge) or an iterable of
        ``(name, kind, help, labels_dict, value)`` tuples.  Returns the
        handle to pass to :meth:`unregister_collector`.
        """
        with self._lock:
            self._collectors.append(fn)
        return fn

    def unregister_collector(self, fn: Callable) -> None:
        with self._lock:
            if fn in self._collectors:
                self._collectors.remove(fn)

    def collector_count(self) -> int:
        """Registered collectors (lifecycle-leak regression checks)."""
        with self._lock:
            return len(self._collectors)

    # -- snapshots -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Every metric as plain data: ``{name: {type, help, samples}}``.

        Instrument reads take each metric's own lock (point-in-time
        consistent per metric); collector failures are logged and
        skipped, never propagated into the serving path.
        """
        with self._lock:
            metrics = list(self._metrics.values())
            collectors = list(self._collectors)
        out: dict[str, dict] = {}
        for metric in metrics:
            out[metric.name] = {
                "type": metric.kind,
                "help": metric.help,
                "samples": metric.samples(),
            }
        for fn in collectors:
            try:
                produced = fn()
            except Exception:
                logger.exception("metrics collector %r failed", fn)
                continue
            self._merge_collected(out, produced)
        return out

    @staticmethod
    def _merge_collected(out: dict, produced) -> None:
        if isinstance(produced, dict):
            produced = (
                (name, "counter" if name.endswith("_total") else "gauge",
                 "", {}, value)
                for name, value in produced.items()
            )
        for name, kind, help_text, labels, value in produced:
            entry = out.setdefault(
                name, {"type": kind, "help": help_text, "samples": []})
            entry["samples"].append(
                {"labels": dict(labels), "value": value})


class MetricsSnapshotter:
    """Daemon thread snapshotting a registry at a fixed interval.

    Owned by :class:`~repro.service.service.WarehouseService` when
    ``metrics_interval_s`` is set; keeps a bounded history so a scraper
    (or a test) can read recent snapshots without ever touching the
    serving threads.
    """

    def __init__(self, registry: MetricsRegistry, interval_s: float,
                 *, history: int = 120) -> None:
        if interval_s <= 0:
            raise MetricsError("snapshot interval must be positive")
        self.registry = registry
        self.interval_s = interval_s
        self._snapshots: "deque[dict]" = deque(maxlen=history)
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name="repro-metrics-snapshot", daemon=True)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join()

    def snapshots(self) -> list[dict]:
        """Recent snapshots, oldest first: ``{"at": ts, "metrics": …}``."""
        with self._lock:
            return list(self._snapshots)

    def _take(self) -> None:
        snap = {"at": time.time(), "metrics": self.registry.snapshot()}
        with self._lock:
            self._snapshots.append(snap)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self._take()
            except Exception:
                # A broken collector must not kill the snapshot thread.
                logger.exception("metrics snapshot failed (continuing)")
        # Final snapshot on shutdown so short-lived services record one.
        try:
            self._take()
        except Exception:
            logger.exception("final metrics snapshot failed")


class ExtractionInstruments:
    """Hot-path instruments the lazy binding bumps per extraction.

    Bundled so :class:`~repro.etl.lazy.LazyDataBinding` pays attribute
    reads, never registry lookups, on the extraction path.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.extract_seconds = registry.histogram(
            "repro_extract_seconds",
            "Wall time of one file-extraction call")
        self.extract_records_total = registry.counter(
            "repro_extract_records_total",
            "Records extracted from source files")
        self.extract_rows_total = registry.counter(
            "repro_extract_rows_total",
            "Rows extracted from source files")
        self.coalesce_wait_seconds = registry.histogram(
            "repro_coalesce_wait_seconds",
            "Time spent waiting on another session's in-flight extraction")
        self.stale_files_total = registry.counter(
            "repro_stale_files_total",
            "Files whose cache/promoted state was dropped after a rewrite")
