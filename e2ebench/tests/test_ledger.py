"""Self time, coverage and unattributed shares of the layer ledger."""

import sys
import threading

import pytest

import layers
from ledger import Ledger, Target, Tracer, unattributed_frac


def replay(ledger, spans):
    """``spans``: ("enter", name, t) / ("exit", t) events in time order."""
    for event in spans:
        if event[0] == "enter":
            ledger.enter(event[1], event[2])
        else:
            ledger.exit(event[1])


NESTED = [
    ("enter", "a", 0.0),
    ("enter", "b", 1.0),
    ("enter", "c", 2.0),
    ("exit", 3.0),  # c: 1
    ("exit", 4.0),  # b: 3, self 2
    ("enter", "d", 5.0),
    ("exit", 7.0),  # d: 2
    ("exit", 10.0),  # a: 10, self 10 - 3 - 2 = 5
    ("enter", "b", 12.0),
    ("exit", 13.0),  # a second root b: 1
]


def test_self_time_on_nested_spans():
    ledger = Ledger()
    replay(ledger, NESTED)
    metrics = ledger.totals()["metrics"]
    self_s = {m: row["self_s"] for m, row in metrics.items()}
    assert self_s == {"a": 5.0, "b": 3.0, "c": 1.0, "d": 2.0}
    assert metrics["b"]["calls"] == 2
    assert metrics["a"]["total_s"] == pytest.approx(10.0)
    # Self times partition the time the root spans cover.
    assert ledger.totals()["covered"] == {"op": 11.0}
    assert sum(row["self_s"] for row in metrics.values()) == pytest.approx(11.0)


def test_threads_keep_separate_stacks_and_request_classes():
    ledger = Ledger(role_of=lambda name: "worker" if name == "w" else "op")

    def worker():
        replay(ledger, [("enter", "sim", 0.0), ("exit", 4.0)])

    thread = threading.Thread(target=worker, name="w")
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    ledger.begin_request("post")
    replay(ledger, [("enter", "parse", 0.0), ("exit", 1.0)])
    ledger.tag_request("hit")
    replay(ledger, [("enter", "read", 1.0), ("exit", 3.0)])
    ledger.begin_request("get")
    replay(ledger, [("enter", "read", 5.0), ("exit", 5.5)])
    assert ledger.totals()["covered"] == {"worker": 4.0, "hit": 3.0, "get": 0.5, "op": 0.0}


def test_unattributed_frac():
    assert unattributed_frac(20.0, 15.0) == pytest.approx(0.25)
    assert unattributed_frac(10.0, 10.0) == 0.0
    assert unattributed_frac(0.0, 0.0) == 0.0


def test_layer_metrics_unattributed_from_a_synthetic_ledger():
    ledger = layers.new_ledger()
    replay(ledger, NESTED)  # 11 s covered by spans
    sweep = layers.layer_metrics(ledger.totals(), 2, {"op_latency_s": 20.0})
    assert sweep["bench.unattributed_frac"] == pytest.approx(0.45)

    served = layers.new_ledger()
    served.begin_request("post")
    replay(served, [("enter", "serve.parse", 0.0), ("exit", 0.001)])
    served.tag_request("hit")
    replay(served, [("enter", "store.read", 0.001), ("exit", 0.003)])
    served.begin_request("post")  # a cold submission: not a hit
    replay(served, [("enter", "serve.parse", 0.01), ("exit", 0.02)])
    metrics = served.totals()
    out = layers.layer_metrics(metrics, 2, {"hits": 1, "hit_latency_s": 0.005})
    assert out["serve.unattributed_ms"] == pytest.approx(2.0)
    assert out["bench.unattributed_frac"] == pytest.approx(0.4)
    assert out["serve.parse_ms"] == pytest.approx(5.5)  # (1 + 10) ms over 2 operations


def test_tracer_wraps_imports_by_name_and_restores_them():
    import repro.sim.counting as counting
    import repro.util.mathx as mathx

    original = mathx.exact_join_probabilities
    ledger = Ledger()
    tracer = Tracer(ledger, [Target("repro.util.mathx", "exact_join_probabilities", "kernel")])
    tracer.install()
    try:
        assert counting.exact_join_probabilities is not original
        assert counting.exact_join_probabilities.__wrapped__ is original
        pi = counting.exact_join_probabilities([0.5, 0.25])
    finally:
        tracer.uninstall()
    assert counting.exact_join_probabilities is original
    assert mathx.exact_join_probabilities is original
    assert list(pi) == list(original([0.5, 0.25]))
    assert ledger.totals()["metrics"]["kernel"]["calls"] == 1


def _raw(target):
    owner = sys.modules[target.module]
    *cls, name = target.qualname.split(".")
    return vars(getattr(owner, cls[0]))[name] if cls else getattr(owner, name)


def test_every_target_resolves_and_is_restored():
    targets = layers.targets()
    before = [_raw(t) for t in targets]
    tracer = Tracer(layers.new_ledger(), targets)
    tracer.install()
    try:
        assert all(_raw(t) is not b for t, b in zip(targets, before))
    finally:
        tracer.uninstall()
    assert all(_raw(t) is b for t, b in zip(targets, before))
    assert {t.metric for t in targets} >= {"env.feedback", "sched.lease", "util.binomial"}
