"""Span tracing: attribute a sweep's wall clock to engine phases.

A *span* is a named, timed region of code with optional attributes::

    with span("simulate_trace", workload="stereo", gating=key):
        ...

    @span("store_write")
    def put_result(...): ...

Spans nest through a thread-local stack (each records its parent), are
exception-safe (the timing is recorded and the error flagged even when
the body raises), and are timed with ``time.perf_counter``.

Two sinks consume them:

- **phase accumulators** — cumulative seconds and counts per span
  name, always on (two monotonic reads and two dict updates per span,
  nothing per control quantum): a process-wide one feeding the
  ``repro_engine_phase_seconds`` metric, and one per thread feeding
  run provenance, so a sweep's phases hold only its own thread's spans;
- an optional :class:`TraceCollector` — installed via
  :func:`start_tracing` (the CLI's ``--trace-out``), it records every
  span as an event and can serialise the lot as Chrome
  ``trace_event`` JSON loadable in ``chrome://tracing`` / Perfetto.

:func:`set_enabled` exists for the benchmark suite: it turns ``span``
into a near-total no-op so instrumentation overhead can be measured
against a true baseline.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "span",
    "TraceCollector",
    "start_tracing",
    "stop_tracing",
    "current_collector",
    "current_span_stack",
    "span_stacks_by_thread",
    "phase_totals",
    "thread_phase_totals",
    "reset_phase_totals",
    "set_enabled",
    "tracing_enabled",
]

_local = threading.local()

_phase_lock = threading.Lock()
#: name -> [total seconds, count]
_phase_acc: Dict[str, List[float]] = {}

#: thread id -> that thread's live span-stack list (the same object
#: ``_local.stack`` holds).  The sampling profiler reads these from its
#: own thread; entries are shared mutable lists, so a reader only ever
#: takes a cheap snapshot (``list(stack)``) and tolerates a concurrent
#: push/pop — the GIL keeps list operations atomic.
_stacks_lock = threading.Lock()
_stacks_by_thread: Dict[int, list] = {}

_collector: "TraceCollector | None" = None
_enabled = True


def _stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
        with _stacks_lock:
            _stacks_by_thread[threading.get_ident()] = stack
    return stack


def span_stacks_by_thread() -> Dict[int, Tuple[str, ...]]:
    """Snapshot of every thread's open span names, outermost first.

    Cross-thread view for the sampling profiler; threads that never
    opened a span are absent.
    """
    with _stacks_lock:
        items = list(_stacks_by_thread.items())
    return {tid: tuple(s.name for s in stack) for tid, stack in items}


def current_span_stack() -> Tuple[str, ...]:
    """Names of the open spans on this thread, outermost first."""
    return tuple(s.name for s in _stack())


def phase_totals() -> Dict[str, Dict[str, float]]:
    """Cumulative ``{span name: {"seconds": s, "count": n}}`` so far."""
    with _phase_lock:
        return {
            name: {"seconds": acc[0], "count": acc[1]}
            for name, acc in _phase_acc.items()
        }


def _thread_phases() -> Dict[str, List[float]]:
    """This thread's name -> [total seconds, count]."""
    phases = getattr(_local, "phases", None)
    if phases is None:
        phases = _local.phases = {}
    return phases


def thread_phase_totals() -> Dict[str, Dict[str, float]]:
    """Like :func:`phase_totals`, for the spans this thread closed."""
    return {
        name: {"seconds": acc[0], "count": acc[1]}
        for name, acc in _thread_phases().items()
    }


def reset_phase_totals() -> None:
    """Zero the process-wide phase accumulator (tests/benchmarks)."""
    with _phase_lock:
        _phase_acc.clear()


def set_enabled(enabled: bool) -> None:
    """Globally enable/disable span bookkeeping (benchmark baseline)."""
    global _enabled
    _enabled = bool(enabled)


def tracing_enabled() -> bool:
    """Whether span bookkeeping is currently enabled."""
    return _enabled


class TraceCollector:
    """In-memory, thread-safe store of finished span events.

    Events are plain dicts (``name``, ``ts``/``dur`` in seconds on the
    ``perf_counter`` clock, ``tid``, ``parent``, ``error``, ``args``);
    :meth:`chrome_trace` converts them to the Chrome ``trace_event``
    format and :meth:`dump` writes that JSON to a file.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._events: List[dict] = []
        self._counters: List[dict] = []

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def add(
        self,
        name: str,
        t0: float,
        t1: float,
        parent: Optional[str],
        error: bool,
        args: dict,
    ) -> None:
        """Record one finished span (called by ``span.__exit__``)."""
        event = {
            "name": name,
            "ts": t0,
            "dur": t1 - t0,
            "tid": threading.get_ident(),
            "parent": parent,
            "error": error,
            "args": args,
        }
        with self._lock:
            self._events.append(event)

    def events(self) -> List[dict]:
        """A snapshot copy of every recorded span event."""
        with self._lock:
            return list(self._events)

    def add_counter(
        self, name: str, ts: float, values: Dict[str, float]
    ) -> None:
        """Record one counter sample (telemetry channel values).

        ``ts`` is seconds on the ``perf_counter`` clock (same clock as
        span events).  Counters are kept separate from span events so
        :meth:`span_totals` and :meth:`events` are unaffected; they
        surface as Chrome ``"ph": "C"`` counter-track events in
        :meth:`chrome_trace`.
        """
        record = {
            "name": name,
            "ts": ts,
            "tid": threading.get_ident(),
            "values": {k: float(v) for k, v in values.items()},
        }
        with self._lock:
            self._counters.append(record)

    def counter_events(self) -> List[dict]:
        """A snapshot copy of every recorded counter sample."""
        with self._lock:
            return list(self._counters)

    def span_totals(self) -> Dict[str, float]:
        """Total seconds per span name across all recorded events."""
        totals: Dict[str, float] = {}
        for event in self.events():
            totals[event["name"]] = totals.get(event["name"], 0.0) + event["dur"]
        return totals

    def chrome_trace(self) -> dict:
        """The events as a Chrome ``trace_event`` JSON object.

        Complete (``"ph": "X"``) events with microsecond ``ts``/``dur``
        on a common origin, one row per thread — loadable directly in
        ``chrome://tracing`` or https://ui.perfetto.dev.
        """
        events = self.events()
        counters = self.counter_events()
        origin = min(
            (e["ts"] for e in events + counters), default=0.0
        )
        pid = os.getpid()
        trace_events = []
        for event in events:
            args = {k: _jsonable(v) for k, v in event["args"].items()}
            if event["parent"]:
                args["parent"] = event["parent"]
            if event["error"]:
                args["error"] = True
            trace_events.append(
                {
                    "name": event["name"],
                    "ph": "X",
                    "pid": pid,
                    "tid": event["tid"],
                    "ts": (event["ts"] - origin) * 1e6,
                    "dur": event["dur"] * 1e6,
                    "cat": "repro",
                    "args": args,
                }
            )
        for counter in counters:
            trace_events.append(
                {
                    "name": counter["name"],
                    "ph": "C",
                    "pid": pid,
                    "tid": counter["tid"],
                    "ts": (counter["ts"] - origin) * 1e6,
                    "cat": "repro.telemetry",
                    "args": counter["values"],
                }
            )
        return {"traceEvents": trace_events, "displayTimeUnit": "ms"}

    def dump(self, path: "str | os.PathLike") -> None:
        """Write :meth:`chrome_trace` JSON to ``path``."""
        Path(path).write_text(json.dumps(self.chrome_trace(), indent=1))


def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def start_tracing(collector: Optional[TraceCollector] = None) -> TraceCollector:
    """Install (and return) the process-wide span collector."""
    global _collector
    _collector = collector or TraceCollector()
    return _collector


def stop_tracing() -> "TraceCollector | None":
    """Uninstall and return the active collector (None if none)."""
    global _collector
    collector, _collector = _collector, None
    return collector


def current_collector() -> "TraceCollector | None":
    """The installed collector, or None when tracing is off."""
    return _collector


def _add_phase(acc: Dict[str, List[float]], name: str, seconds: float) -> None:
    slot = acc.get(name)
    if slot is None:
        acc[name] = [seconds, 1.0]
    else:
        slot[0] += seconds
        slot[1] += 1.0


class span:
    """Context manager / decorator timing one named engine phase.

    As a context manager each instance is single-use; as a decorator it
    opens a fresh span (same name and attributes) per call.  Timings
    land in the phase accumulators always and in the active
    :class:`TraceCollector` when one is installed; an exception inside
    the body still closes the span, flagged with ``error=True``.
    """

    __slots__ = ("name", "attrs", "_t0", "_parent", "_active")

    def __init__(self, name: str, **attrs) -> None:
        self.name = name
        self.attrs = attrs
        self._t0 = 0.0
        self._parent: Optional[str] = None
        self._active = False

    def __enter__(self) -> "span":
        if not _enabled:
            return self
        stack = _stack()
        self._parent = stack[-1].name if stack else None
        stack.append(self)
        self._active = True
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if not self._active:
            return False
        t1 = time.perf_counter()
        self._active = False
        stack = _stack()
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:  # pragma: no cover — defensive unwinding
            stack.remove(self)
        with _phase_lock:
            _add_phase(_phase_acc, self.name, t1 - self._t0)
        _add_phase(_thread_phases(), self.name, t1 - self._t0)
        collector = _collector
        if collector is not None:
            collector.add(
                self.name,
                self._t0,
                t1,
                self._parent,
                exc_type is not None,
                self.attrs,
            )
        return False

    def __call__(self, fn: Callable) -> Callable:
        """Decorate ``fn`` so every call runs inside a fresh span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with span(self.name, **self.attrs):
                return fn(*args, **kwargs)

        return wrapper
