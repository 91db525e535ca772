"""In-memory spans around calls into the program's layers.

A :class:`Tracer` replaces a layer's public function with a wrapper
that records ``(name, start, end, thread, args)`` on the
``perf_counter`` clock, which is the system-wide monotonic clock on
Linux, so spans from the load generator and from a server process
line up.  Spans stay in memory until the run ends.  The program's own
``repro.obs.tracing`` spans (``sweep``, ``run``, ``sweep_batch``,
``simulate_trace``, ``job``, ``store_write``) are imported alongside,
so the benchmark's spans nest with them.

A span's self time is its duration minus the part its child spans
cover; children are found per thread by interval nesting.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .common import BenchError

#: The program's existing span names and the layer each belongs to.
PROGRAM_SPAN_LAYERS = {
    "sweep": "core.experiment",
    "run": "core.runner",
    "sweep_batch": "core.batchstep",
    "simulate_trace": "mem.fastsim",
    "job": "service.scheduler",
    "store_write": "service.store",
}

#: One recorded span: (name, start s, end s, thread id, args).
SpanTuple = Tuple[str, float, float, int, dict]


def layer_of(name: str) -> Optional[str]:
    """Layer of a span: ``layer:function`` for ours, a table for the program's."""
    if ":" in name:
        return name.split(":", 1)[0]
    return PROGRAM_SPAN_LAYERS.get(name)


def _subclasses(cls: type) -> List[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def _holders(fn: Callable) -> list:
    return [
        module
        for mod_name, module in list(sys.modules.items())
        if mod_name.split(".")[0] == "repro"
        and module is not None
        and getattr(module, fn.__name__, None) is fn
    ]


class Tracer:
    """Records spans around wrapped functions; :meth:`restore` unwraps."""

    def __init__(self) -> None:
        self.spans: List[SpanTuple] = []
        self._patches: List[Tuple[object, str, object]] = []

    def wrap(
        self,
        fn: Callable,
        name: str,
        describe: Optional[Callable[[tuple, object], dict]] = None,
    ) -> Callable:
        """``fn`` timed under ``name``; ``describe(args, result)`` adds args."""
        spans = self.spans
        clock = time.perf_counter
        ident = threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                spans.append((name, t0, clock(), ident(), {"error": True}))
                raise
            t1 = clock()
            spans.append(
                (name, t0, t1, ident(), describe(args, out) if describe else {})
            )
            return out

        return wrapper

    def patch(self, owner, attr: str, name: str, describe=None) -> None:
        """Replace ``owner.attr`` (a class or module attribute) with a timed wrapper."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, (staticmethod, classmethod)):
            wrapped = type(original)(self.wrap(original.__func__, name, describe))
        else:
            wrapped = self.wrap(original, name, describe)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def patch_everywhere(self, fn: Callable, name: str, describe=None) -> None:
        """Wrap ``fn`` in every loaded ``repro`` module that holds it by name."""
        for module in _holders(fn):
            self.patch(module, fn.__name__, name, describe)

    def replace_everywhere(self, fn: Callable, replacement: Callable) -> None:
        """Swap ``fn`` for ``replacement`` in every loaded ``repro`` module."""
        for module in _holders(fn):
            setattr(module, fn.__name__, replacement)
            self._patches.append((module, fn.__name__, fn))

    def patch_method_tree(self, base: type, method: str, name: str, describe=None) -> None:
        """Wrap ``method`` on ``base`` and on every subclass that defines it."""
        for cls in _subclasses(base):
            if method in cls.__dict__:
                self.patch(cls, method, name, describe)

    def restore(self) -> None:
        """Put every wrapped function back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def program_spans(collector) -> List[SpanTuple]:
    """Events of a ``repro.obs.tracing.TraceCollector`` as span tuples."""
    return [
        (e["name"], e["ts"], e["ts"] + e["dur"], e["tid"], dict(e["args"]))
        for e in collector.events()
    ]


class Analyzed:
    """Spans with parent links and self times (computed per thread)."""

    def __init__(self, spans: Iterable[SpanTuple]) -> None:
        self.spans: List[SpanTuple] = sorted(spans, key=lambda s: (s[3], s[1], -s[2]))
        n = len(self.spans)
        self.parent: List[int] = [-1] * n
        self.children: List[List[int]] = [[] for _ in range(n)]
        self.self_s: List[float] = [s[2] - s[1] for s in self.spans]
        stack: List[int] = []
        tid = None
        for i, (_, t0, t1, thread, _) in enumerate(self.spans):
            if thread != tid:
                stack, tid = [], thread
            while stack and not (t1 <= self.spans[stack[-1]][2] + 1e-9):
                stack.pop()
            if stack:
                p = stack[-1]
                self.parent[i] = p
                self.children[p].append(i)
                self.self_s[p] -= t1 - t0
            stack.append(i)

    def layer_self_s(self, window: Tuple[float, float] = (float("-inf"), float("inf"))) -> Dict[str, float]:
        """Total self seconds per layer over spans starting inside ``window``."""
        out: Dict[str, float] = defaultdict(float)
        for i, (name, t0, _, _, _) in enumerate(self.spans):
            layer = layer_of(name)
            if layer is not None and window[0] <= t0 < window[1]:
                out[layer] += self.self_s[i]
        return dict(out)

    def calls(self, name: str, window: Tuple[float, float] = (float("-inf"), float("inf"))) -> List[int]:
        """Indices of outermost ``name`` spans (a subclass calling its base counts once)."""
        out = []
        for i, s in enumerate(self.spans):
            if s[0] != name or not (window[0] <= s[1] < window[1]):
                continue
            p = self.parent[i]
            if p >= 0 and self.spans[p][0] == name:
                continue
            out.append(i)
        return out

    def duration_s(self, indices: Iterable[int]) -> float:
        return sum(self.spans[i][2] - self.spans[i][1] for i in indices)

    def own_s(self, indices: Iterable[int]) -> float:
        """Time spent in each span's own layer while inside it.

        A span's self time plus that of its nested spans of the same
        layer, but not of other layers: a store write without the
        serializer it calls, which is reported as its own layer.
        """
        total = 0.0
        todo = list(indices)
        while todo:
            i = todo.pop()
            total += self.self_s[i]
            layer = layer_of(self.spans[i][0])
            todo.extend(c for c in self.children[i] if layer_of(self.spans[c][0]) == layer)
        return total


def check_layer_sum(values: Dict[str, Optional[float]], names: Sequence[str], op_ms: float) -> None:
    """Fail when reported per-operation layer times add up to more than an operation.

    ``names`` are reported figures that are each a self time (or a
    layer's own time) per operation, so they cover disjoint intervals
    of it; ``op_ms`` is the operation's mean traced time.  A figure that
    counted a nested layer's time a second time could push the sum past
    the operation.
    """
    total = sum(values.get(name) or 0.0 for name in names)
    if total > op_ms * (1.0 + 1e-9):
        raise BenchError(
            f"traced run: per-layer times ({total:.3f} ms over {list(names)}) exceed "
            f"the operation's traced time ({op_ms:.3f} ms)"
        )


def write_chrome_trace(path: Path, groups: List[Tuple[int, str, List[SpanTuple]]]) -> None:
    """Write ``[(pid, process label, spans)]`` as Chrome ``trace_event`` JSON.

    Complete (``"ph": "X"``) events with microsecond ``ts``/``dur`` on
    one origin, the format ``repro.obs.tracing.TraceCollector`` writes,
    plus a process-name record per group.
    """
    origin = min((s[1] for _, _, spans in groups for s in spans), default=0.0)
    events = []
    for pid, label, spans in groups:
        events.append({"name": "process_name", "ph": "M", "pid": pid, "args": {"name": label}})
        for name, t0, t1, tid, args in spans:
            events.append(
                {
                    "name": name,
                    "ph": "X",
                    "pid": pid,
                    "tid": tid,
                    "ts": (t0 - origin) * 1e6,
                    "dur": (t1 - t0) * 1e6,
                    "cat": "perfbench" if ":" in name else "repro",
                    "args": {k: _jsonable(v) for k, v in args.items()},
                }
            )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)
