import pytest

import stats


def test_nearest_rank_percentile():
    data = list(range(1, 101))
    assert stats.percentile(data, 0.95) == 95
    assert stats.percentile(data, 0.5) == 50
    assert stats.percentile(data, 1.0) == 100
    assert stats.percentile([7.0], 0.95) == 7.0
    assert stats.percentile([3, 1, 2], 0.34) == 2     # ceil(1.02) = 2nd
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)


def test_tail_needs_ten_samples_beyond():
    # 100 samples: p90 is the 90th, exactly ten lie beyond it.
    data = list(range(100))
    assert stats.tail_quantile(100) == pytest.approx(0.90)
    assert stats.tail(data) == 89
    assert sum(1 for v in data if v > stats.tail(data)) == 10
    # More samples: capped at p90.
    assert stats.tail_quantile(2000) == 0.90
    # Fewer than 100: the tail drops to the highest quantile that still
    # leaves ten beyond ...
    assert stats.tail_quantile(30) == pytest.approx(2 / 3)
    assert sum(1 for v in range(30) if v > stats.tail(range(30))) == 10
    # ... and never below the median, all that <= 20 samples support.
    for n in (1, 3, 16, 20):
        assert stats.tail_quantile(n) == 0.5
    assert stats.tail([5.0, 1.0, 3.0]) == 3.0


def test_tail_is_the_median_over_blocks_of_a_hundred():
    quiet = [1.0] * 89 + [2.0] * 11           # p90 of a block: 2.0
    noisy = [1.0] * 60 + [9.0] * 40           # a neighbour woke up: 9.0
    assert stats.tail_blocks(199) == 1 and stats.tail_blocks(1000) == 10
    assert stats.tail(quiet * 10) == 2.0
    # Three spoiled blocks in ten move the whole-run p90, not this tail.
    run = quiet * 4 + noisy * 3 + quiet * 3
    assert stats.percentile(run, 0.90) == 9.0
    assert stats.tail(run) == 2.0
    # Blocks are cut in time order and cover every sample once.
    assert stats.tail(list(range(250))) == (112 + 237) / 2


def test_spread_is_interquartile_distance_over_median():
    data = [10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0]
    assert stats.spread(data) == 0.0
    q1, q2, q3 = stats.quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    assert (q1, q2, q3) == (2.75, 5.5, 8.25)
    assert stats.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == 1.0
