"""In-memory layer ledger, traced from outside the program.

The benchmark never edits ``src/``.  To see into the layers it replaces
public functions and methods of :mod:`repro` with timing wrappers while
a traced phase runs, and restores the originals afterwards.  A function
that other modules imported by name (``from repro.util.mathx import
exact_join_probabilities``) is replaced in each of those modules too,
because the importer calls its own reference.

Each thread keeps a stack of open spans.  When a span closes, its
duration is added to its parent's child time, so its **self time** is
its duration minus the part of that interval its wrapped children
cover.  The self times of one thread partition the time its root spans
cover; the remainder of an operation's latency is covered by no layer
and is reported as unattributed.

Root spans are also grouped into request classes (``"hit"``, ``"post"``,
``"get"``, ``"worker"``, ``"op"``), so the served hit path can be told
apart from cold submissions, polls and worker compute that share the
same process.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = ["Ledger", "Target", "Tracer", "unattributed_frac"]


class _ThreadState:
    """One thread's span stack, accumulators and current request class."""

    def __init__(self, role: str) -> None:
        self.role = role
        self.stack: list[list[Any]] = []  # [metric, start, child_seconds]
        self.acc: dict[str, list[float]] = {}  # metric -> [self_s, total_s, calls]
        self.group = [role, 0.0]  # [request class, covered seconds]
        self.covered: dict[str, float] = {}  # flushed request classes


class Ledger:
    """Per-thread span stacks and per-metric self time, calls and totals.

    ``enter``/``exit`` take explicit times so a synthetic span set can be
    replayed in tests; the wrappers pass ``time.perf_counter()``.
    """

    def __init__(self, role_of: Callable[[str], str] = lambda name: "op") -> None:
        self._role_of = role_of
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self.samples: dict[str, list[float]] = {}
        self.counters: dict[str, float] = {}
        # Hook state: submit times of queued cold points, oldest first.
        self.fifo: deque[float] = deque()

    def state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState(self._role_of(threading.current_thread().name))
            self._local.state = st
            with self._lock:
                self._states.append(st)
        return st

    def enter(self, metric: str, now: float) -> None:
        self.state().stack.append([metric, now, 0.0])

    def exit(self, now: float) -> None:
        """Close the innermost span."""
        st = self.state()
        metric, start, child = st.stack.pop()
        duration = now - start
        acc = st.acc.get(metric)
        if acc is None:
            acc = st.acc[metric] = [0.0, 0.0, 0]
        acc[0] += duration - child
        acc[1] += duration
        acc[2] += 1
        if st.stack:
            st.stack[-1][2] += duration
        else:
            st.group[1] += duration

    def depth(self) -> int:
        return len(self.state().stack)

    def begin_request(self, kind: str) -> None:
        """Start a new request class on this thread (flushing the last)."""
        st = self.state()
        self._flush(st)
        st.group = [kind, 0.0]

    def tag_request(self, kind: str) -> None:
        """Re-class the request this thread is serving (e.g. a hit)."""
        self.state().group[0] = kind

    @staticmethod
    def _flush(st: _ThreadState) -> None:
        kind, covered = st.group
        st.covered[kind] = st.covered.get(kind, 0.0) + covered
        st.group = [st.role, 0.0]

    def add_sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples.setdefault(name, []).append(value)

    def add_count(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + value

    def totals(self) -> dict[str, Any]:
        """Merged view over every thread: ``self_s``/``total_s``/``calls``
        per metric, and root-covered seconds per request class."""
        metrics: dict[str, list[float]] = {}
        covered: dict[str, float] = {}
        with self._lock:
            states = list(self._states)
        for st in states:
            for metric, (self_s, total_s, calls) in st.acc.items():
                row = metrics.setdefault(metric, [0.0, 0.0, 0])
                row[0] += self_s
                row[1] += total_s
                row[2] += calls
            for kind, seconds in st.covered.items():
                covered[kind] = covered.get(kind, 0.0) + seconds
            kind, seconds = st.group
            covered[kind] = covered.get(kind, 0.0) + seconds
        return {
            "metrics": {
                m: {"self_s": r[0], "total_s": r[1], "calls": int(r[2])} for m, r in metrics.items()
            },
            "covered": covered,
            "samples": {k: list(v) for k, v in self.samples.items()},
            "counters": dict(self.counters),
        }


def unattributed_frac(latency_sum: float, covered: float) -> float:
    """Share of summed operation latency that no layer's span covers."""
    if latency_sum <= 0.0:
        return 0.0
    return max(0.0, 1.0 - covered / latency_sum)


# Hooks: ``before(ledger, args)`` and ``after(ledger, args, result)``.
Hook = Callable[..., None]


@dataclass(frozen=True)
class Target:
    """One public callable to wrap, and the metric its spans feed."""

    module: str
    qualname: str  # "func" or "Class.method"
    metric: str
    before: Hook | None = None
    after: Hook | None = None
    request: str | None = None  # a root span of this target starts a request


@dataclass
class Tracer:
    """Installs and removes the wrappers of a list of :class:`Target`."""

    ledger: Ledger
    targets: list[Target]
    _undo: list[tuple[Any, str, Any]] = field(default_factory=list)
    traced_s: float = 0.0
    _since: float | None = None

    def install(self) -> None:
        if self._undo:
            return
        for target in self.targets:
            self._install_one(target)
        self._since = time.perf_counter()

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        if self._since is not None:
            self.traced_s += time.perf_counter() - self._since
            self._since = None

    def _install_one(self, target: Target) -> None:
        module = sys.modules[target.module]
        if "." not in target.qualname:
            original = getattr(module, target.qualname)
            wrapper = _wrap(self.ledger, target, original)
            # Every repro module that imported the function by name holds
            # its own reference; replace those as well.
            for name, mod in list(sys.modules.items()):
                if (name == "repro" or name.startswith("repro.")) and getattr(
                    mod, target.qualname, None
                ) is original:
                    self._undo.append((mod, target.qualname, original))
                    setattr(mod, target.qualname, wrapper)
            return
        cls_name, attr = target.qualname.split(".")
        cls = getattr(module, cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            replacement: Any = classmethod(_wrap(self.ledger, target, raw.__func__))
        else:
            replacement = _wrap(self.ledger, target, raw)
        self._undo.append((cls, attr, raw))
        setattr(cls, attr, replacement)


def _wrap(ledger: Ledger, target: Target, fn: Callable[..., Any]) -> Callable[..., Any]:
    metric, before, after, request = target.metric, target.before, target.after, target.request
    clock = time.perf_counter

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if request is not None and ledger.depth() == 0:
            ledger.begin_request(request)
        if before is not None:
            before(ledger, args)
        ledger.enter(metric, clock())
        try:
            result = fn(*args, **kwargs)
        finally:
            ledger.exit(clock())
        if after is not None:
            after(ledger, args, result)
        return result

    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    return wrapper
