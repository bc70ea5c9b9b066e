import json
from collections import Counter
from dataclasses import asdict

import numpy as np
import pytest

import ops
from corpus import Entry
from oracle import Oracle


@pytest.fixture(scope="module")
def oracle():
    entries, rows = [], []
    rng = np.random.default_rng(5)
    for s, station in enumerate(("AAA", "BBB")):
        for c, channel in enumerate(("BHE", "BHZ")):
            for k in range(2):
                index = len(entries)
                entries.append(Entry(
                    index=index, rel=f"XX/{station}/{channel}.{k}.mseed",
                    network="XX", station=station, channel=channel,
                    start_us=1_000_000_000 + k * 600_000_000,
                    n_samples=24000, n_records=58))
                rows.append(rng.integers(-500, 500, 24000, dtype=np.int32))
    return Oracle(entries, np.stack(rows))


def op_list(oracle, seed):
    rng = ops.rng_for(seed, "test")
    made = [ops.adhoc_window_op(oracle, rng, 30.0) for _ in range(50)]
    made += [ops.prepared_q1_op(oracle, rng) for _ in range(50)]
    made += [ops.fig1_q1_op(oracle, rng)]
    return json.dumps([asdict(op) for op in made]).encode()


def test_same_seed_same_ops_different_seed_different_ops(oracle):
    assert op_list(oracle, 11) == op_list(oracle, 11)
    assert op_list(oracle, 11) != op_list(oracle, 12)


def test_window_answers_come_from_the_truth_arrays(oracle):
    op = ops.adhoc_window_op(oracle, ops.rng_for(3, "w"), 30.0)
    (avg, count), = op.want
    assert count == 30 * 40 - 1          # open interval on a 25 ms grid
    assert -500 <= avg <= 500


def test_window_index_arithmetic_matches_a_mask(oracle):
    station, channel = "AAA", "BHE"
    files = oracle.by_stream[(station, channel)]
    times = np.concatenate([
        e.start_us + 25_000 * np.arange(e.n_samples) for e in files])
    values = np.concatenate([oracle.rows[e.index] for e in files])
    rng = ops.rng_for(9, "mask")
    first, last = oracle.span(station, channel)
    for _ in range(300):
        lo = rng.randrange(first - 10**6, last + 10**6, 5_000)
        hi = lo + rng.randrange(0, 90 * 10**6, 5_000)
        for closed in (False, True):
            keep = (times >= lo if closed else times > lo) & (times < hi)
            got_t, got_v = oracle.window(station, channel, lo, hi,
                                         closed_lo=closed)
            assert np.array_equal(got_t, times[keep])
            assert np.array_equal(got_v, values[keep])


def test_distinct_ops_never_repeats(oracle):
    calls = iter([ops.Op("a", ()), ops.Op("a", ()), ops.Op("b", ()),
                  ops.Op("a", ()), ops.Op("c", ())])
    out = ops.distinct_ops(lambda: next(calls), 3)
    assert [op.sql for op in out] == ["a", "b", "c"]


def test_zipf_draw_shape():
    ranks = ops.zipf_ranks(ops.rng_for(1, "zipf"), 162, 200_000)
    seen = Counter(ranks)
    assert min(ranks) == 0 and max(ranks) <= 161
    # P(r) ~ (r+1)^-1.1: rank 0 over rank 1 is 2^1.1, over rank 9 10^1.1.
    assert seen[0] / seen[1] == pytest.approx(2 ** 1.1, rel=0.05)
    assert seen[0] / seen[9] == pytest.approx(10 ** 1.1, rel=0.08)
    head = sum(seen[r] for r in range(27))
    assert 0.70 < head / len(ranks) < 0.80     # top sixth draws ~3/4
