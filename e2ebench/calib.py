"""Host-speed calibration: a fixed reference loop timed beside the work.

The benchmark's host (a small VM) moves between a fast state and ones
1.5-3x slower, over seconds to minutes, and its threads' CPU time slows
with the wall clock, so neither clock averages the states out within a
run.  The slowdown is shared by all CPU-bound code on the core, so the
benchmark times :func:`reference` — a few milliseconds of interpreter
and small-array numpy work of the kind the program does — in the process
that does the work, just before and just after each operation or block
of operations, and reports each time **at reference speed**: multiplied
by ``REF_S`` over the mean of the two reference times around it.
``REF_S`` is a unit, not a measurement: about what the loop takes on a
quiet core of the 2-vCPU Xeon VM the benchmark was tuned on, so figures
read like milliseconds there.  A change to ``repro`` moves these
figures; the host's state largely cancels.  Raw figures are printed too,
in the run's info line.

The loop is the benchmark's own code and must not change between the
runs that are compared; its digest goes into the run stamp.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = ["REF_S", "code_digest", "factors", "normalized", "reference"]

REF_S = 0.003  # seconds one reference pass stands for

_A = np.linspace(0.1, 1.0, 16)
_B = np.cos(np.arange(256, dtype=float))
_DOC = {"spec": {"name": "ant", "params": {"gamma": 0.025}}, "values": list(range(12))}


def reference() -> float:
    """Seconds one pass of the fixed reference loop takes here, now."""
    t0 = time.perf_counter()
    acc = 0.0
    x = _A.copy()
    for i in range(300):
        x = np.exp(-x) * 0.5 + _A
        acc += float(x.sum()) + float(np.sort(_B)[i % 256])
        table = {j: j * i for j in range(24)}
        acc += sum(table.values()) % 7
        if i % 10 == 0:
            text = json.dumps(_DOC, sort_keys=True)
            acc += len(hashlib.sha256(text.encode()).hexdigest())
    if acc < 0:  # keeps the work observable
        raise AssertionError(acc)
    return time.perf_counter() - t0


def factors(refs: list[float]) -> np.ndarray:
    """What takes a time measured between ``refs[i]`` and ``refs[i + 1]``
    to reference speed: ``REF_S`` over the mean of the two."""
    values = np.asarray(refs, dtype=float)
    return REF_S / ((values[:-1] + values[1:]) / 2.0)


def normalized(latencies: list[float], refs: list[float]) -> list[float]:
    """Each latency at reference speed; ``latencies[i]`` was measured
    between the reference passes ``refs[i]`` and ``refs[i + 1]``."""
    if len(refs) != len(latencies) + 1:
        raise ValueError(f"{len(latencies)} latencies need {len(latencies) + 1} reference "
                         f"times, not {len(refs)}")
    return [float(x) for x in np.asarray(latencies, dtype=float) * factors(refs)]


def code_digest() -> str:
    """Digest of this module, so runs with different loops are never compared."""
    return hashlib.sha256(Path(__file__).read_bytes()).hexdigest()[:12]
