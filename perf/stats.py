"""Order statistics the benchmark reports: median, tail, quartile spread.

A timing is reported as its median plus a tail: the highest percentile
that still leaves at least ten samples beyond it (capped at p90, floored
at the median), so a tail is never a single sample dressed up as a
percentile.  A long sample list is cut, in time order, into blocks of
about a hundred; the tail is taken per block and the median over blocks
is reported.  Interference on a shared host only ever slows things, in
bursts: it moves the tail of a whole run as soon as it touches a tenth
of the ops, but this one only once it spoils half of the blocks.
Measured on the reference box with four processes each busy half the
time beside ``warm_window_mix``: median unchanged, whole-run p90 2.5x in
three runs of three, median block p90 within 1.3x in two of the three.
(The cap is p90, not p95: over one set of ten runs of the same code the
whole-run p95 of the three millisecond-scale workloads spread 10-33 %,
the whole-run p90 6-30 %, the median block p90 6-20 %.)
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

TAIL_CAP = 0.90
SAMPLES_BEYOND = 10
TAIL_BLOCK = 100


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least a
    fraction ``q`` of the samples at or below it."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    ordered = sorted(samples)
    # The epsilon keeps a product like 0.95 * 200 (= 190.00000000000003
    # in binary floating point) from rounding up to rank 191.
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples)


def tail_quantile(n: int) -> float:
    """The quantile reported as the tail of ``n`` samples.

    p90 once ten samples lie beyond it (n >= 100); below that, the
    highest quantile that still leaves ten samples beyond; never lower
    than the median, which is all a sample of twenty or fewer supports.
    """
    if n <= 0:
        raise ValueError("no samples")
    return max(0.5, min(TAIL_CAP, (n - SAMPLES_BEYOND) / n))


def tail_blocks(n: int) -> int:
    """Into how many blocks :func:`tail` cuts ``n`` samples."""
    return max(1, n // TAIL_BLOCK)


def tail(samples: Sequence[float]) -> float:
    """The tail latency of ``samples`` (in time order): the median, over
    blocks of about ``TAIL_BLOCK`` consecutive samples, of each block's
    :func:`tail_quantile`."""
    blocks = tail_blocks(len(samples))
    edges = [round(i * len(samples) / blocks) for i in range(blocks + 1)]
    return median([_block_tail(samples[lo:hi])
                   for lo, hi in zip(edges, edges[1:])])


def _block_tail(samples: Sequence[float]) -> float:
    q = tail_quantile(len(samples))
    if q == 0.5:
        return median(samples)
    return percentile(samples, q)


def quartiles(samples: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(samples) < 2:
        only = float(samples[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return q1, q2, q3


def spread(samples: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(samples)
    return (q3 - q1) / q2 if q2 else float("inf")
