"""Seeded inputs repeat exactly for one seed and differ across seeds."""

import numpy as np
import pytest

import workload as W


@pytest.mark.parametrize(
    "make",
    [
        lambda seed: W.point_seeds(seed, "sweep_cold", 50),
        lambda seed: W.zipf_keys(seed, 500),
        lambda seed: W.uniform_keys(seed, "hits", 500),
        lambda seed: W.arrivals(seed, "hits", W.MIXED_HIT_RATE, 200),
        lambda seed: W.poll_delays(seed, "polls", 100),
    ],
    ids=["points", "zipf", "uniform", "schedule", "polls"],
)
def test_same_seed_same_inputs_other_seed_other_inputs(make):
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_point_seeds_are_distinct_and_extend_as_a_prefix():
    short, long = W.point_seeds(3, "cold", 20), W.point_seeds(3, "cold", 200)
    assert long[:20] == short
    assert len(set(long)) == 200


def test_zipf_keys_favour_a_few_keys():
    keys = W.zipf_keys(5, 20_000)
    counts = sorted((keys.count(k) for k in set(keys)), reverse=True)
    assert set(keys) <= set(range(W.HOT_KEYS))
    assert counts[0] > 5 * counts[len(counts) // 2]


def test_schedule_holds_one_arrival_per_slot():
    dues = W.arrivals(9, "colds", 4.0, 40)
    assert all(i / 4.0 <= due < (i + 1) / 4.0 for i, due in enumerate(dues))


@pytest.mark.parametrize("q", sorted({wl.tail_q for wl in W.WORKLOADS.values()} | {W.COLD_TAIL_Q}))
def test_tail_percentile_keeps_ten_samples_beyond_it(q):
    def beyond(n):
        values = [float(i) for i in range(n)]
        return sum(1 for v in values if v > np.percentile(values, q))

    n = W.min_samples(q)
    assert beyond(n) >= W.BEYOND == 10
    assert beyond(n - 1) < W.BEYOND

