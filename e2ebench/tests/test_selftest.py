"""The output checks catch wrong results: a failed check lands in
``ok_frac``'s failures and the run exits non-zero.

These run the real benchmark (tens of seconds each).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from layers import PER_LAYER

ROOT = Path(__file__).resolve().parents[2]


def bench(workload, *extra, trace=0, seed=1):
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize(
    "workload, fault",
    [
        ("serve_hot", "bad-body"),  # a body that does not match the store
        ("serve_mixed", "fail-request"),  # a request the worker must fail
        ("sweep_cold", "bad-recompute"),  # a recomputation that is not bit-identical
    ],
)
def test_injected_fault_fails_the_run(workload, fault):
    code, info, result = bench(workload, "--inject", fault)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["metrics"]["ok_frac"]["value"] < 1.0
    assert info["errors"]


def test_clean_run_passes_its_checks():
    code, info, result = bench("serve_hot")
    assert (code, result["correct"], result["failed"]) == (0, True, 0)
    assert info["tail"]["beyond"] >= 10
    assert set(info["stamp"]) == {"cpu", "nproc", "python", "numpy", "revision", "calib", "seed"}


@pytest.mark.parametrize("workload", ["sweep_cold", "sweep_batched"])
def test_traced_counts_repeat_for_one_seed(workload):
    counted = [name for name, unit, _, _ in PER_LAYER
               if unit in ("count", "bytes") or name == "sim.pi_cache_hit_frac"]
    first = bench(workload, trace=1, seed=4)[2]["metrics"]
    second = bench(workload, trace=1, seed=4)[2]["metrics"]
    assert {n: first[n]["value"] for n in counted} == {n: second[n]["value"] for n in counted}
