"""HTTP load for the serve workloads: one process, at most two connections.

``closed_loop`` keeps two keep-alive connections busy, each sending its
next request when the last one answered, in blocks with a pause
between.  ``open_loop`` sends hits on one connection and new points on
the other, each at its scheduled due time whether or not the server
kept up; every latency counts from the due time, so a stall also
charges the requests queued behind it.

Bodies are only compared here; the generator's expected bodies are
rendered from the store by the caller, independently of the server.
"""

from __future__ import annotations

import heapq
import http.client
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

__all__ = ["ClosedResult", "OpenResult", "closed_loop", "open_loop", "request"]

TIMEOUT_S = 30.0
HEADERS = {"Content-Type": "application/json"}


def request(
    conn: http.client.HTTPConnection, method: str, path: str, body: bytes | None = None
) -> tuple[int, bytes]:
    conn.request(method, path, body=body, headers=HEADERS)
    response = conn.getresponse()
    return response.status, response.read()


@dataclass
class ClosedResult:
    blocks: list[list[float]] = field(default_factory=list)  # latencies, block by block
    block_wall_s: list[float] = field(default_factory=list)
    refs: list[float] = field(default_factory=list)  # ``between()`` before and after each block
    failures: list[str] = field(default_factory=list)
    posts: int = 0

    @property
    def latencies_s(self) -> list[float]:
        return [x for block in self.blocks for x in block]


def closed_loop(
    port: int,
    keys: list[list[int]],
    bodies: list[bytes],
    expected: list[bytes],
    *,
    per_block: int,
    seconds: float = 0.0,
    min_total: int = 0,
    between: Callable[[], float] | None = None,
) -> ClosedResult:
    """Hit requests on ``len(keys)`` keep-alive connections, each walking
    its own key list, in blocks of ``per_block`` requests per connection.

    Before the first block and after each one, every connection pauses
    while ``between()`` runs (its values are kept in ``refs``); blocks
    continue until ``seconds`` have passed and ``min_total`` requests
    have answered.
    """
    result = ClosedResult(blocks=[[]])
    lock = threading.Lock()
    gate = threading.Barrier(len(keys) + 1, timeout=2 * TIMEOUT_S)
    stop = threading.Event()

    def client(my_keys: list[int]) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)
        bad: list[str] = []
        n = 0
        try:
            gate.wait()
            while True:
                for _ in range(per_block):
                    key = my_keys[n % len(my_keys)]
                    t0 = time.perf_counter()
                    try:
                        status, data = request(conn, "POST", "/scenarios", bodies[key])
                    except (OSError, http.client.HTTPException) as exc:
                        status, data = -1, repr(exc).encode()
                        conn.close()
                        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)
                    elapsed = time.perf_counter() - t0
                    n += 1
                    if status != 200:
                        bad.append(f"hit answered {status}: {data[:120]!r}")
                    elif data != expected[key]:
                        bad.append(f"hit body for key {key} differs from the stored record")
                    with lock:
                        result.blocks[-1].append(elapsed)
                gate.wait()  # block done
                gate.wait()  # the main thread has decided
                if stop.is_set():
                    break
        finally:
            conn.close()
            with lock:
                result.failures.extend(bad)
                result.posts += n

    threads = [threading.Thread(target=client, args=(k,)) for k in keys]
    for thread in threads:
        thread.start()
    try:
        if between is not None:
            result.refs.append(between())
        gate.wait()
        start = block_start = time.perf_counter()
        while True:
            gate.wait()
            result.block_wall_s.append(time.perf_counter() - block_start)
            if between is not None:
                result.refs.append(between())
            if time.perf_counter() - start >= seconds and len(result.latencies_s) >= min_total:
                stop.set()
            else:
                result.blocks.append([])
            block_start = time.perf_counter()
            gate.wait()
            if stop.is_set():
                break
    except BaseException:
        gate.abort()  # release the clients at once
        raise
    finally:
        for thread in threads:
            thread.join()
    return result


@dataclass
class OpenResult:
    hit_latencies_s: list[float] = field(default_factory=list)
    cold_latencies_s: list[float] = field(default_factory=list)
    late_s: list[float] = field(default_factory=list)
    hit_service_s: float = 0.0  # summed send-to-answer time of hits
    failures: list[str] = field(default_factory=list)
    hit_posts: int = 0
    cold_posts: int = 0
    polls: int = 0
    cold_bodies: list[tuple[str, bytes]] = field(default_factory=list)
    wall_s: float = 0.0


def open_loop(
    port: int,
    hits: list[tuple[float, int]],
    colds: list[tuple[float, bytes, str]],
    bodies: list[bytes],
    expected: list[bytes],
    poll_delays: list[float],
    drain_s: float,
) -> OpenResult:
    """``hits`` are ``(due, key)``; ``colds`` are ``(due, body, digest)``.

    Cold points are POSTed at their due time, then polled after a
    jittered delay until ``GET /results/<digest>`` answers 200; their
    bodies are returned for the caller to check against the store.
    """
    result = OpenResult()
    lock = threading.Lock()
    start = time.perf_counter() + 0.05
    deadline = start + max([d for d, _ in hits] + [d for d, _, _ in colds] + [0.0]) + drain_s
    ends: list[float] = []

    def fail(message: str) -> None:
        with lock:
            result.failures.append(message)

    def hit_client() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)
        try:
            for due, key in hits:
                due_at = start + due
                _sleep_until(due_at)
                sent = time.perf_counter()
                try:
                    status, data = request(conn, "POST", "/scenarios", bodies[key])
                except (OSError, http.client.HTTPException) as exc:
                    status, data = -1, repr(exc).encode()
                    conn.close()
                    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)
                now = time.perf_counter()
                with lock:
                    result.hit_posts += 1
                    result.late_s.append(sent - due_at)
                    result.hit_latencies_s.append(now - due_at)
                    result.hit_service_s += now - sent
                if status != 200:
                    fail(f"hit answered {status}: {data[:120]!r}")
                elif data != expected[key]:
                    fail(f"hit body for key {key} differs from the stored record")
            ends.append(time.perf_counter())
        finally:
            conn.close()

    def cold_client() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)
        delays = iter(poll_delays)
        # (time, seq, cold index, is_poll), earliest first.
        events = [(start + due, i, i, False) for i, (due, _, _) in enumerate(colds)]
        heapq.heapify(events)
        seq = len(events)
        try:
            while events:
                at, _, index, is_poll = heapq.heappop(events)
                if at > deadline:
                    fail(f"cold point {index} unfinished at the drain deadline")
                    continue
                _sleep_until(at)
                due, body, digest = colds[index]
                due_at = start + due
                if is_poll:
                    with lock:
                        result.polls += 1
                    path, payload, method = f"/results/{digest}", None, "GET"
                else:
                    with lock:
                        result.late_s.append(time.perf_counter() - due_at)
                        result.cold_posts += 1
                    path, payload, method = "/scenarios", body, "POST"
                try:
                    status, data = request(conn, method, path, payload)
                except (OSError, http.client.HTTPException) as exc:
                    status, data = -1, repr(exc).encode()
                    conn.close()
                    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)
                now = time.perf_counter()
                if status == 202 and (is_poll or json.loads(data).get("digest") == digest):
                    seq += 1
                    heapq.heappush(events, (now + next(delays, 0.015), seq, index, True))
                elif status == 200 and is_poll:
                    with lock:
                        result.cold_latencies_s.append(now - due_at)
                        result.cold_bodies.append((digest, data))
                else:
                    fail(f"cold {method} {path[:24]} answered {status}: {data[:120]!r}")
            ends.append(time.perf_counter())
        finally:
            conn.close()

    threads = [threading.Thread(target=hit_client), threading.Thread(target=cold_client)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    result.wall_s = max(ends + [start]) - start
    return result


def _sleep_until(when: float) -> None:
    delay = when - time.perf_counter()
    if delay > 0:
        time.sleep(delay)
