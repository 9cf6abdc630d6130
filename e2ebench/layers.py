"""The layers the benchmark traces, and the per-layer metrics it derives.

``PER_LAYER`` is the one table of per-layer metrics: name, unit, which
direction is better, and the end-to-end metric and workload each one
should move.  ``BENCHMARK.json`` lists the same names and units (a test
keeps the two in step); the ``moves`` column lives here because
``BENCHMARK.json`` has no field for it.

Timings are **self time** (a span minus its wrapped children) per
operation unless the row says otherwise, so the layer rows of one
operation add up to the covered part of its latency.  An operation is a
sweep point (sweeps), a request (``serve_hot``) or a scheduled request,
hit or cold (``serve_mixed``).
"""

from __future__ import annotations

import os
from time import perf_counter
from typing import Any

import numpy as np

from ledger import Ledger, Target, unattributed_frac
from workload import COLD_TAIL_Q

__all__ = ["PER_LAYER", "layer_metrics", "new_ledger", "targets"]

# name, unit, better, what it should move (end-to-end metric @ workload)
PER_LAYER: list[tuple[str, str, str, str]] = [
    ("scenario.derive_ms", "ms", "lower", "p50_ms @ serve_hot; slightly p50_ms @ sweeps"),
    ("scenario.digest_ms", "ms", "lower", "p50_ms @ serve_hot (one digest per POST)"),
    ("scenario.digest_calls", "count", "lower", "p50_ms @ serve_hot"),
    ("sim.run_trials_ms", "ms", "lower", "rate_per_s @ sweep_cold, sweep_batched"),
    ("sim.counting_run_ms", "ms", "lower", "rate_per_s @ sweep_cold; cold_p50_ms @ serve_mixed"),
    ("sim.batched_run_ms", "ms", "lower", "rate_per_s @ sweep_batched"),
    ("sim.regret_busy_s", "s", "lower", "rate_per_s @ sweep_cold (serial regret ~24%)"),
    ("sim.regret_calls", "count", "lower", "rate_per_s @ sweep_cold"),
    ("sim.pi_cache_hit_frac", "frac", "higher", "rate_per_s @ sweep_batched (cache hits)"),
    ("sim.pi_cache_lookups", "count", "lower", "rate_per_s @ sweep_batched"),
    ("env.feedback_busy_s", "s", "lower", "rate_per_s @ sweep_cold"),
    ("env.feedback_calls", "count", "lower", "rate_per_s @ sweep_cold"),
    ("util.join_kernel_busy_s", "s", "lower", "rate_per_s @ sweep_cold (a miss every join round)"),
    ("util.join_kernel_calls", "count", "lower", "rate_per_s @ sweep_cold; ~0 @ sweep_batched"),
    ("util.binomial_busy_s", "s", "lower", "rate_per_s @ sweep_batched (~40%)"),
    ("util.binomial_calls", "count", "lower", "rate_per_s @ sweep_batched"),
    ("store.write_ms", "ms", "lower", "cold_p50_ms @ serve_mixed; p50_ms @ sweeps"),
    ("store.write_bytes", "bytes", "lower", "cold_p50_ms @ serve_mixed; p50_ms @ sweeps"),
    ("store.read_ms", "ms", "lower", "p50_ms @ serve_hot (npz decode)"),
    ("store.has_record_ms", "ms", "lower", "p50_ms @ serve_hot"),
    ("store.has_record_calls", "count", "lower", "p50_ms @ serve_hot"),
    ("store.digest_hex_ms", "ms", "lower", "p50_ms @ serve_hot"),
    ("serve.parse_ms", "ms", "lower", "p50_ms, rate_per_s @ serve_hot"),
    ("serve.submit_ms", "ms", "lower", "p50_ms, rate_per_s @ serve_hot"),
    ("serve.render_ms", "ms", "lower", "p50_ms, rate_per_s @ serve_hot"),
    ("serve.unattributed_ms", "ms", "lower", "p50_ms, rate_per_s @ serve_hot (HTTP hop)"),
    ("serve.dedup_frac", "frac", "higher", "p50_ms @ serve_hot, serve_mixed"),
    ("serve.queue_wait_ms", "ms", "lower", "cold_p50_ms @ serve_mixed"),
    ("serve.compute_ms", "ms", "lower", "cold_p50_ms @ serve_mixed"),
    ("serve.worker_busy_frac", "frac", "lower", "tail_ms @ serve_mixed (hits wait on the GIL)"),
    ("serve.polls_per_cold", "count", "lower", "cold_p50_ms @ serve_mixed"),
    ("serve.cold_p50_ms", "ms", "lower", "cold point latency @ serve_mixed (untraced blocks)"),
    ("serve.cold_tail_ms", "ms", "lower", "cold point latency @ serve_mixed (untraced blocks)"),
    ("sched.lease_ms", "ms", "lower", "cold_p50_ms @ serve_mixed"),
    ("bench.late_p99_ms", "ms", "lower", "validity: how late the open-loop generator ran"),
    ("bench.trace_overhead_frac", "frac", "lower", "validity: 1 - traced/untraced rate"),
    ("bench.unattributed_frac", "frac", "lower", "validity: latency no layer covers"),
]


def _role(thread_name: str) -> str:
    return "worker" if thread_name.startswith("serve-worker") else "op"


def new_ledger() -> Ledger:
    return Ledger(_role)


def _pi_cache(ledger: Ledger, args: tuple[Any, ...], result: Any) -> None:
    sim = args[0]
    ledger.add_count("pi_hits", sim.pi_cache_hits)
    ledger.add_count("pi_lookups", sim.pi_cache_hits + sim.pi_cache_misses)


def _write_bytes(ledger: Ledger, args: tuple[Any, ...], manifest: Any) -> None:
    digest = args[1]
    size = sum(
        entry.stat().st_size
        for entry in os.scandir(manifest.parent)
        if entry.name.startswith(digest)
    )
    ledger.add_count("write_bytes", size)


def _submitted(ledger: Ledger, args: tuple[Any, ...], result: Any) -> None:
    _digest, disposition = result
    if disposition == "hit":
        ledger.tag_request("hit")
    elif disposition == "queued":
        ledger.fifo.append(perf_counter())


def _trials_started(ledger: Ledger, args: tuple[Any, ...]) -> None:
    # One service worker drains a FIFO queue, so the i-th run_trials on a
    # worker thread computes the i-th queued submission.
    if ledger.state().role == "worker" and ledger.fifo:
        ledger.add_sample("queue_wait", perf_counter() - ledger.fifo.popleft())


def targets() -> list[Target]:
    """Every public callable the traced run wraps (modules must be imported)."""
    import repro.env.feedback as feedback
    import repro.sched.leases  # noqa: F401
    import repro.serve  # noqa: F401
    import repro.sim.batched  # noqa: F401

    found = [
        Target("repro.scenario.spec", "ScenarioSpec.with_param", "scenario.derive"),
        Target("repro.scenario.spec", "ScenarioSpec.from_dict", "scenario.derive"),
        Target("repro.scenario.runner", "sweep_point_digest", "scenario.digest"),
        Target("repro.sim.runner", "run_trials", "sim.run_trials", before=_trials_started),
        Target("repro.sim.counting", "CountingSimulator.run", "sim.counting_run", after=_pi_cache),
        Target(
            "repro.sim.batched", "BatchedCountingSimulator.run", "sim.batched_run", after=_pi_cache
        ),
        Target("repro.sim.metrics", "RegretTracker.observe", "sim.regret"),
        Target("repro.sim.batched", "BatchedRegretTracker.observe", "sim.regret"),
        Target("repro.util.mathx", "exact_join_probabilities", "util.join_kernel"),
        Target("repro.util.rng_block", "BinomialBlockSampler.draw", "util.binomial"),
        Target("repro.store.store", "ResultStore.write_record", "store.write", after=_write_bytes),
        Target("repro.store.store", "ResultStore.read_record", "store.read"),
        Target("repro.store.store", "ResultStore.has_record", "store.has_record"),
        Target("repro.store.digest", "digest_hex", "store.digest_hex"),
        Target("repro.serve.request", "ScenarioRequest.from_dict", "serve.parse", request="post"),
        Target("repro.serve.service", "ScenarioService.submit", "serve.submit", after=_submitted),
        Target("repro.serve.service", "ScenarioService.state_of", "serve.state", request="get"),
        Target("repro.serve.http", "record_body", "serve.render"),
        Target("repro.sched.leases", "LeaseManager.try_claim", "sched.lease"),
        Target("repro.sched.leases", "Lease.release", "sched.lease"),
    ]
    # The concrete feedback models, each of which defines its own
    # lack_probabilities.
    for name in sorted(vars(feedback)):
        cls = getattr(feedback, name)
        if (
            isinstance(cls, type)
            and issubclass(cls, feedback.FeedbackModel)
            and cls is not feedback.FeedbackModel
            and "lack_probabilities" in cls.__dict__
            and cls.__module__ == feedback.__name__
        ):
            found.append(Target(feedback.__name__, f"{name}.lack_probabilities", "env.feedback"))
    return found


def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(totals: dict[str, Any], ops: int, load: dict[str, Any]) -> dict[str, float]:
    """Per-layer metric values from a ledger's ``totals()`` and the load
    generator's own figures.

    ``load`` holds ``hits``, ``hit_latency_s`` (summed client latency of
    hits), ``op_latency_s`` (summed latency of sweep points), ``colds``,
    ``polls``, ``cold_latencies_s``, ``late_s``,
    ``traced_s`` (wall time the tracer was installed), ``dedup_frac`` and
    ``trace_overhead_frac``.
    """
    metrics = totals["metrics"]
    covered = totals["covered"]
    counters = totals["counters"]
    samples = totals["samples"]
    ops = max(ops, 1)
    colds = int(load.get("colds", 0))

    def self_s(name: str) -> float:
        return metrics.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return metrics.get(name, {}).get("calls", 0)

    def per_op_ms(name: str) -> float:
        return 1e3 * self_s(name) / ops

    def per_cold(value: float) -> float:
        return value / colds if colds else 0.0

    lookups = counters.get("pi_lookups", 0.0)
    hits = int(load.get("hits", 0))
    hit_latency = float(load.get("hit_latency_s", 0.0))
    if "op_latency_s" in load:  # sweeps: every root span belongs to a point
        frac = unattributed_frac(float(load["op_latency_s"]), covered.get("op", 0.0))
    else:
        frac = unattributed_frac(hit_latency, covered.get("hit", 0.0))
    cold_latencies = [1e3 * x for x in load.get("cold_latencies_s", [])]
    traced_s = float(load.get("traced_s", 0.0))
    return {
        "scenario.derive_ms": per_op_ms("scenario.derive"),
        "scenario.digest_ms": per_op_ms("scenario.digest"),
        "scenario.digest_calls": calls("scenario.digest") / ops,
        "sim.run_trials_ms": per_op_ms("sim.run_trials"),
        "sim.counting_run_ms": per_op_ms("sim.counting_run"),
        "sim.batched_run_ms": per_op_ms("sim.batched_run"),
        "sim.regret_busy_s": self_s("sim.regret") / ops,
        "sim.regret_calls": calls("sim.regret") / ops,
        "sim.pi_cache_hit_frac": counters.get("pi_hits", 0.0) / lookups if lookups else 0.0,
        "sim.pi_cache_lookups": lookups / ops,
        "env.feedback_busy_s": self_s("env.feedback") / ops,
        "env.feedback_calls": calls("env.feedback") / ops,
        "util.join_kernel_busy_s": self_s("util.join_kernel") / ops,
        "util.join_kernel_calls": calls("util.join_kernel") / ops,
        "util.binomial_busy_s": self_s("util.binomial") / ops,
        "util.binomial_calls": calls("util.binomial") / ops,
        "store.write_ms": per_op_ms("store.write"),
        "store.write_bytes": counters.get("write_bytes", 0.0) / ops,
        "store.read_ms": per_op_ms("store.read"),
        "store.has_record_ms": per_op_ms("store.has_record"),
        "store.has_record_calls": calls("store.has_record") / ops,
        "store.digest_hex_ms": per_op_ms("store.digest_hex"),
        "serve.parse_ms": per_op_ms("serve.parse"),
        "serve.submit_ms": per_op_ms("serve.submit"),
        "serve.render_ms": per_op_ms("serve.render"),
        "serve.unattributed_ms": (
            1e3 * max(0.0, hit_latency - covered.get("hit", 0.0)) / hits if hits else 0.0
        ),
        "serve.dedup_frac": float(load.get("dedup_frac", 0.0)),
        "serve.queue_wait_ms": per_cold(1e3 * sum(samples.get("queue_wait", []))),
        "serve.compute_ms": per_cold(1e3 * covered.get("worker", 0.0)),
        "serve.worker_busy_frac": covered.get("worker", 0.0) / traced_s if traced_s else 0.0,
        "serve.polls_per_cold": per_cold(float(load.get("polls", 0))),
        "serve.cold_p50_ms": _pct(cold_latencies, 50),
        "serve.cold_tail_ms": _pct(cold_latencies, COLD_TAIL_Q),
        "sched.lease_ms": per_cold(1e3 * self_s("sched.lease")),
        "bench.late_p99_ms": _pct([1e3 * x for x in load.get("late_s", [])], 99),
        "bench.trace_overhead_frac": float(load.get("trace_overhead_frac", 0.0)),
        "bench.unattributed_frac": frac,
    }
