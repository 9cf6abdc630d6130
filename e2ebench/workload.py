"""Workload definitions and the inputs each one draws from its seed.

Everything here is plain data and numpy: no repro import, so the load
generator, the sweep worker and the tests share one definition of what
a workload sends.

Why these inputs (the reasoning behind the four workloads):

* ``sweep_cold`` — the default serial engine on sigmoid feedback at
  k = 16.  Sigmoid deficits never repeat, so the join-kernel cache
  misses and the kernel, feedback and regret bookkeeping sit on the
  blocking path.  Points differ only by a seed drawn from the workload
  seed, at a fixed gamma, so the cost mix does not depend on the seed.
* ``sweep_batched`` — the batched engine (8 lanes, 8 trials) on exact
  feedback at k = 256, which repeats deficits: the pi-cache-heavy
  counterpart of ``sweep_cold``, and the only path through
  ``BinomialBlockSampler``.
* ``serve_hot`` — cache hits only, Zipf-distributed over a seeded set of
  points, two keep-alive connections in a closed loop.
* ``serve_mixed`` — an open loop of hits plus a fixed share of new
  points, so the worker computes and commits while the event loop
  serves hits under the same interpreter lock.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Any

import numpy as np

__all__ = [
    "GAMMA",
    "WORKLOADS",
    "Workload",
    "arrivals",
    "cold_spec",
    "hot_gammas",
    "hot_spec",
    "min_samples",
    "point_seeds",
    "poll_delays",
    "sweep_spec",
    "uniform_keys",
    "zipf_keys",
]

SETUPS = 3  # set-ups per untraced run; setup_s is their median
BEYOND = 10  # samples a tail percentile keeps beyond it
COLD_TAIL_Q = 90  # serve.cold_tail_ms

GAMMA = 0.025
SIGMOID = {"name": "sigmoid", "params": {"lam": 8.0}}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "sweep" or "serve"
    tail_q: float  # the tail percentile reported as tail_ms; see WORKLOADS
    # Traced operations, fixed so counts repeat; serve_mixed traces by schedule.
    trace_ops: int = 0


# Tail percentiles: the steadiest between runs at reference speed, not
# the highest with ten samples beyond it.  serve_hot's p95 swung 0.08 to
# 0.45 (IQR/median over five to ten seeds), its p90 about 0.05.
# serve_mixed's hits are fast unless they wait for the worker, and how
# many wait follows the host's speed, so a percentile near that edge
# (p90 swung 0.29) moves most; its p98 sits among the waiting hits.
WORKLOADS = {
    "sweep_cold": Workload("sweep_cold", "sweep", tail_q=90, trace_ops=80),
    "sweep_batched": Workload("sweep_batched", "sweep", tail_q=90, trace_ops=60),
    "serve_hot": Workload("serve_hot", "serve", tail_q=90, trace_ops=4000),
    "serve_mixed": Workload("serve_mixed", "serve", tail_q=98),
}

# Sweep specs: one point per operation.
SWEEP_SHAPES: dict[str, dict[str, Any]] = {
    "sweep_cold": {
        "demand": {"name": "powerlaw", "params": {"n": 4000, "k": 16, "alpha": 1.0}},
        "feedback": SIGMOID,
        "engine": {"name": "counting"},
        "rounds": 200,
        "trials": 2,
    },
    "sweep_batched": {
        "demand": {"name": "powerlaw", "params": {"n": 20000, "k": 256, "alpha": 1.0}},
        "feedback": {"name": "exact"},
        "engine": {"name": "counting_batched", "params": {"batch": 8}},
        "rounds": 100,
        "trials": 8,
    },
}

# Served points: the hot set is cheap to seed; a cold point costs ~50 ms.
SERVE_DEMAND = {"name": "powerlaw", "params": {"n": 4000, "k": 16, "alpha": 1.0}}
HOT_KEYS = 48
HOT_ROUNDS = 20
COLD_ROUNDS = 100
SERVE_TRIALS = 2
ZIPF_S = 1.1

# serve_mixed open loop: about a tenth of serve_hot's capacity here, one
# new point per ten hits.
MIXED_HIT_RATE = 36.0
MIXED_COLD_RATE = 4.0
POLL_DELAY_S = (0.010, 0.020)  # jittered delay before each poll
DRAIN_S = 15.0  # how long unfinished cold points may take after a block's schedule
MIXED_BLOCK_S = 1.0  # serve_mixed's schedule runs in blocks this long

# Serve runs time the reference loop (calib.py) between blocks of load.
HOT_BLOCK = 25  # serve_hot requests per connection in one block


def _spec_dict(seed: int, demand: dict, feedback: dict, engine: dict, rounds: int) -> dict:
    return {
        "algorithm": {"name": "ant", "params": {"gamma": GAMMA}},
        "demand": demand,
        "feedback": feedback,
        "engine": engine,
        "rounds": rounds,
        "seed": int(seed),
        "label": "e2ebench",
    }


def sweep_spec(workload: str, seed: int) -> dict[str, Any]:
    """The ScenarioSpec dict of one sweep point (its seed is the only variable)."""
    shape = SWEEP_SHAPES[workload]
    return _spec_dict(seed, shape["demand"], shape["feedback"], shape["engine"], shape["rounds"])


def hot_spec(seed: int) -> dict[str, Any]:
    return _spec_dict(seed, SERVE_DEMAND, SIGMOID, {"name": "counting"}, HOT_ROUNDS)


def cold_spec(seed: int) -> dict[str, Any]:
    return _spec_dict(seed, SERVE_DEMAND, SIGMOID, {"name": "counting"}, COLD_ROUNDS)


def hot_gammas() -> list[float]:
    return [round(0.02 + 0.0005 * i, 4) for i in range(HOT_KEYS)]


def _rng(seed: int, stream: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), zlib.crc32(stream.encode("utf-8"))])


def point_seeds(seed: int, stream: str, count: int) -> list[int]:
    """``count`` distinct spec seeds; a longer list extends a shorter one."""
    rng = _rng(seed, stream)
    seen: set[int] = set()
    out: list[int] = []
    while len(out) < count:
        value = int(rng.integers(0, 2**31))
        if value not in seen:
            seen.add(value)
            out.append(value)
    return out


def zipf_keys(seed: int, count: int) -> list[int]:
    """Key indices whose popularity follows Zipf(ZIPF_S) over a seeded ranking."""
    rng = _rng(seed, "zipf")
    ranking = rng.permutation(HOT_KEYS)
    weights = 1.0 / np.arange(1, HOT_KEYS + 1) ** ZIPF_S
    ranks = rng.choice(HOT_KEYS, size=count, p=weights / weights.sum())
    return [int(ranking[r]) for r in ranks]


def uniform_keys(seed: int, stream: str, count: int) -> list[int]:
    return [int(k) for k in _rng(seed, stream).integers(0, HOT_KEYS, size=count)]


def arrivals(seed: int, stream: str, rate: float, count: int) -> list[float]:
    """Due offsets (s) at a fixed ``rate``: one per 1/rate slot, at a
    seeded point inside its slot."""
    jitter = _rng(seed, stream).random(count)
    return [(i + float(u)) / rate for i, u in enumerate(jitter)]


def poll_delays(seed: int, stream: str, count: int) -> list[float]:
    lo, hi = POLL_DELAY_S
    return [float(x) for x in _rng(seed, stream).uniform(lo, hi, size=count)]


def min_samples(q: float) -> int:
    """Fewest samples of which ``BEYOND`` lie above their q-th percentile.

    Of n distinct samples, those above the interpolated percentile at
    position (n - 1) q / 100 number n - 1 - floor((n - 1) q / 100).
    """
    n = BEYOND + 1
    while n - 1 - math.floor((n - 1) * q / 100.0) < BEYOND:
        n += 1
    return n
