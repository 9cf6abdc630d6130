"""End-to-end benchmark of the sweep and serve paths.

Usage (from the root of a checkout)::

    python3 e2ebench/run.py --workload sweep_cold --seed 1 --seconds 20 --trace 0

Workloads: ``sweep_cold``, ``sweep_batched``, ``serve_hot``,
``serve_mixed`` (see ``workload.py`` for what each sends and why).
``--trace 0`` measures untraced and prints the end-to-end metrics;
``--trace 1`` runs untraced and traced operations of the workload side
by side (the layer wrappers installed for the traced ones only) and
prints the per-layer metrics.

Stdout ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``; the line before it records the run stamp (host, versions,
code revision, reference loop, seed), the tail percentile with its
sample count and the raw figures.  A failed output check makes
``correct`` false and the exit code 1.

Set-up times, latencies and closed-loop rates are reported at reference
speed: each is scaled by a reference loop timed around it (see
``calib.py``), because the host's speed drifts by more than the bounds
within minutes.  ``serve_mixed``'s rate is its schedule and stays raw.

The benchmark builds nothing: it runs ``repro`` from the checkout's
``src/`` and exits with code 2 before printing a result when that is
missing.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import math
import os
import platform
import queue
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

import numpy as np

import calib
import load
import workload as W
from layers import PER_LAYER, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PYTHON = sys.executable or "python3"
EXIT_DEADLINE_S = 170.0
START = time.perf_counter()


class Child:
    """A benchmark subprocess whose stdout is read line by line with timeouts."""

    def __init__(self, args: list[str], log: Path) -> None:
        self.started = time.perf_counter()
        self._log = open(log, "ab")
        self.proc = subprocess.Popen(
            [PYTHON, *args],
            cwd=ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
        )
        self._lines: queue.Queue[str | None] = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self._lines.put(line.rstrip("\n"))
        self._lines.put(None)

    def line(self, timeout: float) -> str:
        try:
            line = self._lines.get(timeout=max(timeout, 0.1))
        except queue.Empty:
            raise RuntimeError(f"child {self.proc.args[1]} gave no output in {timeout:.0f} s")
        if line is None:
            raise RuntimeError(f"child {self.proc.args[1]} exited with {self.proc.wait()}")
        return line

    def write(self, command: str) -> None:
        assert self.proc.stdin is not None
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()

    def send(self, command: str, timeout: float = 30.0) -> str:
        self.write(command)
        return self.line(timeout)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._reader.join(timeout=5.0)
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None:
                stream.close()
        self._log.close()


def remaining() -> float:
    return EXIT_DEADLINE_S - (time.perf_counter() - START)


def stamp(seed: int) -> dict[str, Any]:
    """Where and on what code the numbers were measured."""
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    revision = None
    if (ROOT / ".git").exists():
        try:
            revision = "git:" + subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            revision = None
    if revision is None:
        digest = hashlib.sha256()
        for path in sorted(SRC.rglob("*.py")):
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
        revision = "src-sha256:" + digest.hexdigest()[:16]
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "revision": revision,
        "calib": calib.code_digest(),
        "seed": seed,
    }


# ----------------------------------------------------------------------
# Sweeps


def _host_ref() -> float:
    """This process's reference time now: the median of three passes."""
    return statistics.median([calib.reference() for _ in range(3)])


def _at_reference_speed(seconds: float, before: float) -> float:
    """A set-up time, scaled by the reference times around it."""
    return seconds * float(calib.factors([before, _host_ref()])[0])


def run_sweep(args: argparse.Namespace, wl: Any, work: Path) -> dict[str, Any]:
    setup: list[float] = []
    raw_setup: list[float] = []
    setups = 1 if args.trace else W.SETUPS
    for index in range(setups):
        probe = index < setups - 1
        cmd = [
            str(HERE / "sweep_worker.py"), "--workload", wl.name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--dir", str(work / f"sweep{index}"), "--inject", args.inject,
        ]
        before = _host_ref()
        child = Child(cmd + (["--probe"] if probe else []), work / "worker.log")
        try:
            if child.line(remaining()) != "ready":
                raise RuntimeError("sweep worker did not report ready")
            raw_setup.append(time.perf_counter() - child.started)
            setup.append(_at_reference_speed(raw_setup[-1], before))
            if probe:
                child.proc.wait(timeout=30)
                continue
            out = json.loads(child.line(remaining()))
            child.proc.wait(timeout=30)
        finally:
            child.close()
    latencies = out["latencies_s"]
    # A traced run times no reference loop; its figures stay raw.
    scaled = calib.normalized(latencies, out["refs_s"]) if out["refs_s"] else latencies
    return {
        "setup_s": statistics.median(setup),
        "raw_setup_s": statistics.median(raw_setup),
        "attempted": out["attempted"],
        "failed": out["failed"],
        "errors": out["errors"],
        "latencies_s": latencies,
        "scaled_s": scaled,
        "rate_per_s": len(scaled) / sum(scaled),
        "raw_rate_per_s": len(latencies) / sum(latencies),
        "refs_s": out["refs_s"],
        "peak_rss_mb": out["peak_rss_mb"],
        "layers": out.get("layers"),
        "run_errors": [],
    }


# ----------------------------------------------------------------------
# Serve


def _boot(work: Path, index: int, config: Path) -> tuple[Child, int, float]:
    store = work / f"store{index}"
    child = Child(
        [str(HERE / "server.py"), "--store", str(store), "--config", str(config)],
        work / "server.log",
    )
    try:
        words = child.line(remaining()).split()
        if len(words) != 2 or words[0] != "ready":
            raise RuntimeError(f"server said {words!r}")
        port = int(words[1])
        with socket.create_connection(("127.0.0.1", port), timeout=10):
            pass
        return child, port, time.perf_counter() - child.started
    except BaseException:
        child.close()
        raise


def _stop(child: Child) -> float:
    peak = json.loads(child.send("stop", timeout=60))["peak_rss_mb"]
    child.proc.wait(timeout=30)
    return float(peak)


class _Served:
    """The generator's view of one serve run, filled by the loops below."""

    def __init__(self) -> None:
        self.latencies_s: list[float] = []  # the reported class: every hit
        self.scaled_s: list[float] = []  # the same at reference speed
        self.refs_s: list[float] = []  # reference times around untraced blocks
        self.failures: list[str] = []
        self.hit_posts = 0
        self.cold_posts = 0
        self.expect_failed = 0  # requests sent that the worker must fail
        self.rate_per_s = 0.0  # at reference speed (serve_mixed: its schedule, raw)
        self.raw_rate_per_s = 0.0
        self.ops_traced = 0
        self.load: dict[str, Any] = {}  # inputs to layers.layer_metrics


def _calibrate(child: Child) -> float:
    """Reference-loop time of the server and of this process, timed side
    by side: their mean, since a request's time is spent in both."""
    child.write("calibrate")
    mine = calib.reference()
    return (mine + float(child.line(30.0))) / 2.0


def _serve_hot(args: argparse.Namespace, wl: Any, child: Child, port: int, hot: Any) -> _Served:
    out = _Served()
    keys = W.zipf_keys(args.seed, 120_000)
    per_conn = [keys[0::2], keys[1::2]]
    if not args.trace:
        res = load.closed_loop(port, per_conn, hot.bodies, hot.expected, per_block=W.HOT_BLOCK,
                               seconds=args.seconds, min_total=W.min_samples(wl.tail_q),
                               between=lambda: _calibrate(child))
        out.latencies_s, out.failures, out.hit_posts = res.latencies_s, res.failures, res.posts
        out.refs_s = res.refs
        f = calib.factors(res.refs)
        out.scaled_s = [x * fb for block, fb in zip(res.blocks, f) for x in block]
        out.rate_per_s = res.posts / sum(w * fb for w, fb in zip(res.block_wall_s, f))
        out.raw_rate_per_s = res.posts / sum(res.block_wall_s)
        return out
    # Alternate untraced and traced blocks of the same size, so drift of
    # the host hits both alike; only traced blocks feed the ledger.
    n = wl.trace_ops // 8
    plain: list[float] = []
    traced: list[float] = []
    for block in range(8):
        on = block % 2 == 1
        if on:
            child.send("trace on")
        part = [k[block * n:(block + 1) * n] for k in per_conn]
        res = load.closed_loop(port, part, hot.bodies, hot.expected, per_block=n)
        if on:
            child.send("trace off")
        (traced if on else plain).extend(res.latencies_s)
        out.failures += res.failures
        out.hit_posts += res.posts
    out.latencies_s = plain + traced
    out.ops_traced = len(traced)
    out.load = {"hits": len(traced), "hit_latency_s": sum(traced),
                "trace_overhead_frac": 1.0 - sum(plain) / sum(traced)}
    return out


def _serve_mixed(
    args: argparse.Namespace, wl: Any, child: Child, port: int, hot: Any, store: Any
) -> _Served:
    from repro.serve import record_body

    out = _Served()
    # The schedule runs in short blocks, each drained before the next, so
    # the reference loop is timed between them with nothing in flight.  A
    # traced run alternates untraced and traced blocks, so drift of the
    # host hits both alike; untraced blocks give the end-to-end figures,
    # the cold latencies and the generator's lateness, traced blocks feed
    # the ledger.
    duration = max(args.seconds, W.min_samples(wl.tail_q) / W.MIXED_HIT_RATE,
                   W.min_samples(W.COLD_TAIL_Q) / W.MIXED_COLD_RATE)
    blocks = math.ceil(duration / W.MIXED_BLOCK_S)
    plan = [b % 2 == 1 for b in range(2 * blocks)] if args.trace else [False] * blocks
    n_hits = round(W.MIXED_BLOCK_S * W.MIXED_HIT_RATE)
    n_colds = round(W.MIXED_BLOCK_S * W.MIXED_COLD_RATE)
    cold_seeds = W.point_seeds(args.seed, "cold", n_colds * len(plan))
    plain, traced = [], []
    out.refs_s.append(_calibrate(child))
    for b, on in enumerate(plan):
        hits = list(zip(W.arrivals(args.seed, f"hits-{b}", W.MIXED_HIT_RATE, n_hits),
                        W.uniform_keys(args.seed, f"keys-{b}", n_hits)))
        colds = []
        for j, due in enumerate(W.arrivals(args.seed, f"colds-{b}", W.MIXED_COLD_RATE, n_colds)):
            extra = {}
            if args.inject == "fail-request" and b == 0 and j == 0:
                # burn_in >= rounds passes request validation but fails in the worker
                extra = {"run_params": {"burn_in": 10 * W.COLD_ROUNDS}}
                out.expect_failed += 1
            body = hot.post_body(W.cold_spec(cold_seeds[b * n_colds + j]), W.GAMMA,
                                 W.COLD_ROUNDS, **extra)
            colds.append((due, body, hot.digest(body)))
        if on:
            child.send("trace on")
        res = load.open_loop(port, hits, colds, hot.bodies, hot.expected,
                             W.poll_delays(args.seed, f"polls-{b}", 50 * n_colds), W.DRAIN_S)
        if on:
            child.send("trace off")
        else:
            out.refs_s.append(_calibrate(child))
        (traced if on else plain).append(res)
        out.failures += res.failures
        out.hit_posts += res.hit_posts
        out.cold_posts += res.cold_posts
        for digest, data in res.cold_bodies:
            record = store.read_record(digest)
            if record is None or data != record_body(record):
                out.failures.append(f"cold body for {digest[:12]} differs from the store")
            elif json.loads(data).get("digest") != digest:
                out.failures.append(f"cold body does not carry its digest {digest[:12]}")
    hit_latencies = [x for res in plain for x in res.hit_latencies_s]
    cold_latencies = [x for res in plain for x in res.cold_latencies_s]
    out.latencies_s = hit_latencies
    f = calib.factors(out.refs_s)
    out.scaled_s = [x * fb for res, fb in zip(plain, f) for x in res.hit_latencies_s]
    # Responses per second, drains included: the offered rate while the
    # service keeps up, lower once new points back up.  The schedule sets
    # it in wall-clock time, so it is not scaled.
    out.rate_per_s = out.raw_rate_per_s = (
        (len(hit_latencies) + len(cold_latencies)) / sum(r.wall_s for r in plain))
    out.load = {"late_s": [x for res in plain for x in res.late_s],
                "cold_latencies_s": cold_latencies}
    if args.trace:
        traced_hits = [x for res in traced for x in res.hit_latencies_s]
        out.ops_traced = sum(r.hit_posts + r.cold_posts for r in traced)
        out.load.update(
            hits=len(traced_hits), hit_latency_s=sum(r.hit_service_s for r in traced),
            colds=sum(r.cold_posts for r in traced), polls=sum(r.polls for r in traced),
            trace_overhead_frac=1.0 - statistics.fmean(hit_latencies)
            / statistics.fmean(traced_hits),
        )
    return out


class _HotSet:
    """The seeded hot points: request bodies and the bodies the store holds."""

    def __init__(self, seed: int, config: Path) -> None:
        self.spec = W.hot_spec(W.point_seeds(seed, "hot", 1)[0])
        self.gammas = W.hot_gammas()
        self.trials = W.SERVE_TRIALS
        config.write_text(json.dumps({"hot": {
            "spec": self.spec, "gammas": self.gammas, "rounds": W.HOT_ROUNDS,
            "trials": self.trials}}), encoding="utf-8")
        self.bodies = [self.post_body(self.spec, g, W.HOT_ROUNDS) for g in self.gammas]
        self.expected: list[bytes] = []

    def post_body(self, spec: dict[str, Any], gamma: float, rounds: int, **extra: Any) -> bytes:
        body = {"spec": spec, "params": {"algorithm.gamma": gamma}, "rounds": rounds,
                "trials": self.trials, **extra}
        return json.dumps(body).encode("utf-8")

    @staticmethod
    def digest(body: bytes) -> str:
        from repro.serve import ScenarioRequest

        return ScenarioRequest.from_dict(json.loads(body)).digest()

    def read_expected(self, store: Any) -> None:
        """Render every hot body from the store, independently of the server."""
        from repro.serve import record_body

        for body in self.bodies:
            record = store.read_record(self.digest(body))
            self.expected.append(record_body(record) if record is not None else b"missing")


def run_serve(args: argparse.Namespace, wl: Any, work: Path) -> dict[str, Any]:
    sys.path.insert(0, str(SRC))
    from repro.store import ResultStore

    config = work / "server.json"
    hot = _HotSet(args.seed, config)
    setup: list[float] = []
    raw_setup: list[float] = []
    child = None
    try:
        for index in range(1 if args.trace else W.SETUPS):
            if child is not None:
                _stop(child)
                child.close()
                shutil.rmtree(work / f"store{index - 1}", ignore_errors=True)
            before = _host_ref()
            child, port, seconds = _boot(work, index, config)
            raw_setup.append(seconds)
            setup.append(_at_reference_speed(seconds, before))
        assert child is not None
        store = ResultStore(work / f"store{len(setup) - 1}")
        hot.read_expected(store)
        if args.inject == "bad-body":
            hot.expected[0] = hot.expected[0].replace(b'"meta"', b'"meta "', 1)

        if wl.name == "serve_hot":
            served = _serve_hot(args, wl, child, port, hot)
        else:
            served = _serve_mixed(args, wl, child, port, hot, store)

        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=load.TIMEOUT_S)
        try:
            status_code, raw = load.request(conn, "GET", "/status")
        finally:
            conn.close()
        status = json.loads(raw) if status_code == 200 else {}
        report = json.loads(child.send("report")) if args.trace else None
        peak = _stop(child)
    finally:
        if child is not None:
            child.close()

    want = {"hits": served.hit_posts, "computed": served.cold_posts - served.expect_failed,
            "failed": served.expect_failed}
    got = {k: status.get(k) for k in want}
    run_errors = [] if got == want else [f"/status {got} does not match the traffic sent {want}"]
    attempted = served.hit_posts + served.cold_posts
    out: dict[str, Any] = {
        "setup_s": statistics.median(setup),
        "raw_setup_s": statistics.median(raw_setup),
        "attempted": attempted,
        "failed": min(len(served.failures), attempted),
        "errors": sorted(set(served.failures))[:5],
        "latencies_s": served.latencies_s,
        "scaled_s": served.scaled_s,
        "rate_per_s": served.rate_per_s,
        "raw_rate_per_s": served.raw_rate_per_s,
        "refs_s": served.refs_s,
        "peak_rss_mb": peak,
        "run_errors": run_errors,
        "layers": None,
    }
    if report is not None:
        submits = sum(status.get(k, 0) for k in ("hits", "misses", "coalesced"))
        served.load.update(traced_s=report["traced_s"],
                           dedup_frac=status.get("hits", 0) / submits if submits else 0.0)
        out["layers"] = layer_metrics(report["totals"], served.ops_traced, served.load)
    return out


# ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", default="", choices=("", "bad-body", "fail-request",
                                                         "bad-recompute"),
                        help="deliberate fault, for the self-test only")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    wl = W.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"unknown workload {args.workload!r}; one of {sorted(W.WORKLOADS)}", file=sys.stderr)
        return 2

    work = ROOT / ".e2ebench_work" / f"{wl.name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        measured = (run_sweep if wl.kind == "sweep" else run_serve)(args, wl, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    attempted = int(measured["attempted"])
    failed = int(measured["failed"])
    correct = failed == 0 and not measured["run_errors"]
    info: dict[str, Any] = {
        "workload": wl.name,
        "stamp": stamp(args.seed),
        "errors": measured["errors"] + measured["run_errors"],
    }
    if args.trace:
        layers = measured["layers"] or {}
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit, _better, _moves in PER_LAYER}
    else:
        # Set-up, latencies and closed-loop rates at reference speed (calib.py).
        scaled = measured["scaled_s"]
        tail = float(np.percentile(scaled, wl.tail_q))
        values = {
            "setup_s": measured["setup_s"],
            "ok_frac": (attempted - failed) / attempted if attempted else 0.0,
            "rate_per_s": measured["rate_per_s"],
            "p50_ms": 1e3 * float(np.percentile(scaled, 50)),
            "tail_ms": 1e3 * tail,
            "peak_rss_mb": measured["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        raw = measured["latencies_s"]
        info["tail"] = {"percentile": wl.tail_q, "samples": len(scaled),
                        "beyond": sum(1 for x in scaled if x > tail),
                        "needed": W.min_samples(wl.tail_q)}
        info["raw"] = {"setup_s": measured["raw_setup_s"],
                       "p50_ms": 1e3 * float(np.percentile(raw, 50)),
                       "tail_ms": 1e3 * float(np.percentile(raw, wl.tail_q)),
                       "rate_per_s": measured["raw_rate_per_s"],
                       "ref_ms": (1e3 * float(np.median(measured["refs_s"]))
                                  if measured["refs_s"] else None)}
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


END_TO_END = [
    ("setup_s", "s"),
    ("ok_frac", "frac"),
    ("rate_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
]


if __name__ == "__main__":
    raise SystemExit(main())
