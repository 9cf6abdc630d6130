"""One sweep workload in a fresh interpreter: closed loop, one caller.

Started by ``run.py``.  Prints ``ready`` once the stack is imported and
an empty store exists (the parent times that as set-up), then, unless
``--probe``, sweeps one new point per operation into the store through
:func:`repro.scenario.sweep_scenario` and prints one JSON line with the
latencies, the failures and the ledger.  An untraced run times the
reference loop of ``calib.py`` before the first point and after each.

Every point is checked against the record it committed, and one sampled
point per run is recomputed serially (``batch=0``) without a store; its
arrays must be bit-identical to the committed ones.  For
``sweep_batched`` that recomputation also tests the batched engine's
bit-identity contract.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from repro.scenario import (  # noqa: E402
    ScenarioSpec,
    sweep_point_digest,
    sweep_point_seed,
    sweep_scenario,
)
from repro.store import ResultStore  # noqa: E402

import calib  # noqa: E402
import layers  # noqa: E402
from ledger import Tracer  # noqa: E402
from workload import (  # noqa: E402
    GAMMA,
    SWEEP_SHAPES,
    WORKLOADS,
    min_samples,
    point_seeds,
    sweep_spec,
)

PARAMETER = "algorithm.gamma"
ARRAYS = ("average_regrets", "max_abs_deficits", "switches_per_round", "closenesses")
HARD_STOP_S = 140.0  # a closed loop never outlives the run's exit deadline


def _sweep(workload: str, spec: ScenarioSpec, store: ResultStore | None, **kwargs):
    shape = SWEEP_SHAPES[workload]
    return sweep_scenario(
        spec, PARAMETER, [GAMMA], rounds=shape["rounds"], trials=shape["trials"],
        store=store, **kwargs,
    )


def _arrays(summary) -> dict[str, np.ndarray]:
    return {
        name: getattr(summary, name)
        for name in ARRAYS
        if getattr(summary, name, None) is not None
    }


def _committed(workload: str, spec: ScenarioSpec, store: ResultStore):
    shape = SWEEP_SHAPES[workload]
    derived = spec.with_param(PARAMETER, GAMMA)
    digest = sweep_point_digest(
        derived, PARAMETER, GAMMA, rounds=shape["rounds"], trials=shape["trials"],
        run_params={}, point_seed=sweep_point_seed(derived, PARAMETER, GAMMA, spec.seed),
    )
    return store.read_record(digest)


def _same_bits(a: dict[str, np.ndarray], b: dict[str, np.ndarray]) -> bool:
    return a.keys() == b.keys() and all(
        a[k].dtype == b[k].dtype and a[k].shape == b[k].shape and a[k].tobytes() == b[k].tobytes()
        for k in a
    )


def _check_op(workload: str, spec: ScenarioSpec, store: ResultStore, result) -> str | None:
    """Why the point's output is wrong, or ``None`` when it is right."""
    if result.resumed != [False]:
        return f"point was not computed fresh (resumed={result.resumed})"
    record = _committed(workload, spec, store)
    if record is None:
        return "no record committed under the point's digest"
    if record.meta.get("kind") != "sweep_point" or record.meta.get("value") != GAMMA:
        return f"record manifest is wrong: {record.meta}"
    summary = result.summaries[0]
    if summary.trials != SWEEP_SHAPES[workload]["trials"]:
        return f"summary has {summary.trials} trials"
    if not _same_bits(_arrays(summary), dict(record.arrays)):
        return "returned arrays differ from the committed record"
    if not np.all(np.isfinite(summary.average_regrets)):
        return "non-finite regret"
    return None


def _recompute(workload: str, spec: ScenarioSpec, store: ResultStore, inject: str) -> str | None:
    record = _committed(workload, spec, store)
    if record is None:
        return "sampled point has no record"
    expected = {k: np.array(v) for k, v in record.arrays.items()}
    if inject == "bad-recompute":
        flipped = expected["average_regrets"].view(np.uint64)
        flipped[0] ^= np.uint64(1)
    again = _sweep(workload, spec, None, batch=0)
    if not _same_bits(_arrays(again.summaries[0]), expected):
        return "serial recomputation of the sampled point is not bit-identical"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(SWEEP_SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--probe", action="store_true", help="exit once set up")
    parser.add_argument("--inject", default="", help="fault for the self-test")
    args = parser.parse_args(argv)

    work = Path(args.dir)
    store = ResultStore(work / "store")
    store.root.mkdir(parents=True)
    print("ready", flush=True)
    if args.probe:
        return 0

    wl = WORKLOADS[args.workload]
    need = wl.trace_ops if args.trace else min_samples(wl.tail_q)
    seeds = point_seeds(args.seed, args.workload, need)
    errors: dict[int, str] = {}
    latencies: list[float] = []
    refs: list[float] = []  # reference-loop times between untraced points
    untraced: list[float] = []
    ledger = layers.new_ledger()
    tracer = Tracer(ledger, layers.targets())
    # Untraced reference points go to their own store, so both halves of
    # a traced run compute the same new points.
    reference = ResultStore(work / "reference")

    def run_op(i: int, into: ResultStore, traced: bool) -> float:
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            spec = ScenarioSpec.from_dict(sweep_spec(args.workload, seeds[i]))
            result = _sweep(args.workload, spec, into)
        except Exception as exc:  # noqa: BLE001 — a failed point is a result
            result = None
            errors.setdefault(i, f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - t0
        tracer.uninstall()
        if result is not None:
            problem = _check_op(args.workload, spec, into, result)
            if problem is not None:
                errors.setdefault(i, problem)
        return elapsed

    if args.trace:
        for i in range(need):
            untraced.append(run_op(i, reference, traced=False))
            latencies.append(run_op(i, store, traced=True))
    else:
        refs.append(calib.reference())
        started = time.perf_counter()
        while True:
            spent = time.perf_counter() - started
            if (spent >= args.seconds and len(latencies) >= need) or spent >= HARD_STOP_S:
                break
            if len(latencies) >= len(seeds):
                seeds = point_seeds(args.seed, args.workload, 2 * len(seeds))
            latencies.append(run_op(len(latencies), store, traced=False))
            refs.append(calib.reference())
    done = len(latencies)

    sampled = int(np.random.default_rng([args.seed, done]).integers(0, done))
    spec = ScenarioSpec.from_dict(sweep_spec(args.workload, seeds[sampled]))
    try:
        problem = _recompute(args.workload, spec, store, args.inject)
    except Exception as exc:  # noqa: BLE001 — a failed check is a result
        problem = f"recomputation raised {type(exc).__name__}: {exc}"
    if problem is not None:
        errors.setdefault(sampled, problem)

    out = {
        "attempted": done,
        "failed": len(errors),
        "errors": sorted(set(errors.values()))[:5],
        "latencies_s": latencies,
        "refs_s": refs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        out["layers"] = layers.layer_metrics(
            ledger.totals(),
            done,
            {
                "op_latency_s": sum(latencies),
                "trace_overhead_frac": 1.0 - sum(untraced) / sum(latencies),
            },
        )
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
