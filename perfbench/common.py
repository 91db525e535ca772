"""Shared pieces: the metric catalog, the percentile rule, operation tallies, host drift, memory."""

from __future__ import annotations

import gc
import json
import math
import resource
import statistics
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def _catalog() -> Tuple[Dict[str, str], Dict[str, str]]:
    """End-to-end and per-layer metric names with their units, from ``BENCHMARK.json``."""
    path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


#: The metric catalog is declared once, in ``BENCHMARK.json``.
END_TO_END, PER_LAYER = _catalog()


class BenchError(RuntimeError):
    """The run cannot yield valid numbers: exit non-zero, print no result."""


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile ``p`` of ``samples``.

    Raises :class:`BenchError` unless at least :data:`MIN_BEYOND`
    samples lie above the reported rank, so a p90 is never read off a
    handful of samples (and never off one).
    """
    n = len(samples)
    rank = max(1, math.ceil(p / 100.0 * n))
    if n - rank < MIN_BEYOND:
        raise BenchError(
            f"p{p:g} needs {MIN_BEYOND} samples beyond it; the run has "
            f"{n} samples"
        )
    return sorted(samples)[rank - 1]


def samples_needed(p: float) -> int:
    """Fewest samples for which :func:`percentile` reports ``p``."""
    n = 1
    while n - max(1, math.ceil(p / 100.0 * n)) < MIN_BEYOND:
        n += 1
    return n


class Tally:
    """Attempted and failed operations; a failed output check is a failure."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter = Counter()

    def ok(self, n: int = 1) -> None:
        with self._lock:
            self.attempted += n

    def fail(self, reason: str, n: int = 1) -> None:
        with self._lock:
            self.attempted += n
            self.failed += n
            self.reasons[reason] += n

    def fail_counted(self, reason: str) -> None:
        """An operation already counted as attempted failed a later check."""
        with self._lock:
            self.failed += 1
            self.reasons[reason] += 1


def calibration_kernel() -> float:
    """Seconds for one fixed unit of pure-Python plus numpy work.

    The work never changes, so its time tracks only the host: timed
    between a workload's operations it separates host drift from
    program variance when two sets of runs disagree.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(30_000):
        acc = (acc * 31 + i) % 1_000_003
    x = np.arange(200_000, dtype=np.float64)
    float(np.sqrt(x).sum() + acc)
    return time.perf_counter() - t0


class Calibration:
    """Calibration-kernel samples interleaved with one run's operations."""

    def __init__(self) -> None:
        self._samples: List[float] = []

    def sample(self) -> None:
        self._samples.append(calibration_kernel())

    def summary(self) -> Dict[str, float]:
        ms = [s * 1e3 for s in self._samples] or [0.0]
        return {
            "median_ms": statistics.median(ms),
            "min_ms": min(ms),
            "max_ms": max(ms),
            "samples": len(self._samples),
        }


def own_peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident set size of a live child process, from /proc."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError as exc:
        raise BenchError(f"cannot read peak RSS of pid {pid}: {exc}")
    raise BenchError(f"no VmHWM line for pid {pid}")


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(values: Dict[str, float]) -> Dict[str, dict]:
    """Every end-to-end metric of the catalog, with its unit; no more, no fewer."""
    if set(values) != set(END_TO_END):
        raise BenchError(
            f"end-to-end metrics {sorted(values)} do not match the catalog {sorted(END_TO_END)}"
        )
    return {name: metric(values[name], unit) for name, unit in END_TO_END.items()}


def settle_memory() -> None:
    """Collect garbage left by earlier operations, outside any timed interval.

    Called before each in-process operation, so the collector's own
    pauses inside an operation start from the same state every time.
    """
    gc.collect()


def freeze_setup_state() -> None:
    """At the start of a timed phase: collect, then freeze what set-up left alive.

    Frozen objects are not traversed again by the collections that run
    inside the timed operations.
    """
    gc.collect()
    gc.freeze()


def result(tally: Tally, metrics: Dict[str, dict]) -> dict:
    """The run's last output line."""
    return {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def keep_going(t0: float, seconds: float, samples: int, needed: int) -> bool:
    """Whether a timed phase that began at ``t0`` should start another operation.

    It runs for ``seconds``; on a host too slow to collect the samples
    its percentiles need in that time it runs on, up to three times as
    long, rather than report a percentile the samples cannot support.
    """
    elapsed = time.perf_counter() - t0
    if elapsed < seconds:
        return True
    return samples < needed and elapsed < 3 * seconds
