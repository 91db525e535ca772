"""``repro-powercap top``: a curses-free live service dashboard.

Polls a running experiment service's ``/metrics`` (Prometheus text)
and ``/healthz`` endpoints and repaints a plain-ASCII panel: queue
depth and job states, worker utilization, rate-cache hit rate, stream
bus activity, per-rack headroom bars from the fleet health gauges, and
the most recent detector events.  Plain ANSI cursor-up repainting — no
curses, no dependencies — so it works in any terminal and degrades to
append-only output when redirected.

The SSE endpoints stream per-event detail; this dashboard deliberately
rides the scrape path instead, so it works against any service build
and costs the server one render per interval.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple
from urllib.request import urlopen

from .logging import get_logger

__all__ = [
    "parse_metrics",
    "render_dashboard",
    "run_top",
]

_log = get_logger("obs.top")

#: One parsed sample: labels (possibly empty) -> value.
MetricValue = Tuple[Dict[str, str], float]


def parse_metrics(text: str) -> Dict[str, List[MetricValue]]:
    """Parse Prometheus text exposition into name -> [(labels, value)].

    Handles exactly the subset our registry renders: ``name value``
    and ``name{k="v",...} value`` lines, ``#`` comments skipped.
    """
    out: Dict[str, List[MetricValue]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            head, raw_value = line.rsplit(None, 1)
            value = float(raw_value)
        except ValueError:
            continue
        labels: Dict[str, str] = {}
        name = head
        if "{" in head and head.endswith("}"):
            name, raw_labels = head.split("{", 1)
            for pair in raw_labels[:-1].split(","):
                if "=" not in pair:
                    continue
                key, val = pair.split("=", 1)
                labels[key.strip()] = val.strip().strip('"')
        out.setdefault(name, []).append((labels, value))
    return out


def _scalar(
    metrics: Dict[str, List[MetricValue]], name: str, default: float = 0.0
) -> float:
    samples = metrics.get(name)
    if not samples:
        return default
    return samples[0][1]


def _labelled(
    metrics: Dict[str, List[MetricValue]], name: str
) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for labels, value in metrics.get(name, []):
        if labels:
            out[next(iter(labels.values()))] = value
    return out


def _bar(value: float, lo: float, hi: float, width: int = 20) -> str:
    if hi <= lo:
        frac = 0.0
    else:
        frac = max(0.0, min(1.0, (value - lo) / (hi - lo)))
    filled = int(round(frac * width))
    return "#" * filled + "." * (width - filled)


def render_dashboard(
    metrics: Dict[str, List[MetricValue]],
    health: Optional[dict] = None,
    width: int = 72,
) -> str:
    """One dashboard frame from parsed ``/metrics`` (+ ``/healthz``)."""
    lines: List[str] = []
    rule = "-" * width
    lines.append("repro-powercap top".ljust(width - 19) + time.strftime("%H:%M:%S"))
    lines.append(rule)

    # Service: queue + jobs + workers.
    queue_depth = _scalar(metrics, "repro_queue_depth")
    states = _labelled(metrics, "repro_jobs")
    workers = float(health.get("workers", 0)) if health else 0.0
    running = states.get("running", 0.0)
    util = (100.0 * running / workers) if workers > 0 else 0.0
    lines.append(
        f"queue depth {queue_depth:>6.0f}   workers {workers:>3.0f} "
        f"({util:5.1f}% busy)"
    )
    if states:
        jobs = "  ".join(
            f"{state}={count:.0f}" for state, count in sorted(states.items())
        )
        lines.append(f"jobs  {jobs}")

    # Engine: rate cache.
    hits = _scalar(metrics, "repro_rate_cache_hits_total")
    misses = _scalar(metrics, "repro_rate_cache_misses_total")
    total = hits + misses
    hit_rate = (100.0 * hits / total) if total > 0 else 0.0
    lines.append(
        f"rate cache  {hit_rate:5.1f}% hit ({hits:.0f}/{total:.0f})"
    )

    # Stream bus.
    events = _scalar(metrics, "repro_stream_events_total")
    dropped = _scalar(metrics, "repro_stream_dropped_total")
    subs = _scalar(metrics, "repro_stream_subscribers")
    lines.append(
        f"stream      {events:.0f} events   {dropped:.0f} dropped   "
        f"{subs:.0f} subscribers"
    )

    # Fleet health (present once a fleet run with health rollups ran;
    # the gauges exist from registration, so gate on a run having set
    # the node count).
    if _scalar(metrics, "repro_fleet_nodes") > 0:
        lines.append(rule)
        headroom = _scalar(metrics, "repro_fleet_health_headroom_w")
        capfloor = _scalar(metrics, "repro_fleet_health_capfloor_frac")
        debt = _scalar(metrics, "repro_fleet_health_slo_debt_rate_w")
        esc = _scalar(metrics, "repro_fleet_health_escalation_level")
        lines.append(
            f"fleet  headroom {headroom:>9.1f} W   cap-floor "
            f"{100.0 * capfloor:5.1f}%   debt {debt:>8.1f} W/s   "
            f"esc L{esc:.0f}"
        )
        # Rack headroom histogram -> coarse distribution bar.
        hist = metrics.get("repro_fleet_health_rack_headroom_w_bucket", [])
        if hist:
            cum = sorted(
                (
                    (labels.get("le", "+Inf"), value)
                    for labels, value in hist
                ),
                key=lambda kv: (
                    float("inf") if kv[0] == "+Inf" else float(kv[0])
                ),
            )
            total_racks = cum[-1][1] if cum else 0.0
            if total_racks > 0:
                prev = 0.0
                for le, count in cum:
                    in_bucket = count - prev
                    prev = count
                    if in_bucket <= 0:
                        continue
                    label = f"<= {le} W".rjust(14)
                    lines.append(
                        f"  racks {label}  "
                        f"{_bar(in_bucket, 0, total_racks)} "
                        f"{in_bucket:.0f}"
                    )

    # Detector events (labelled gauge: phenomenon -> count).
    detections = _labelled(metrics, "repro_telemetry_detections_total")
    if detections:
        lines.append(rule)
        det = "  ".join(
            f"{name}={count:.0f}"
            for name, count in sorted(detections.items())
        )
        lines.append(f"detections  {det}")

    return "\n".join(lines)


def _fetch(url: str, timeout: float = 5.0) -> bytes:
    with urlopen(url, timeout=timeout) as resp:  # noqa: S310 — local URL
        return resp.read()


def run_top(
    url: str,
    interval_s: float = 2.0,
    iterations: Optional[int] = None,
    once: bool = False,
    write=None,
) -> int:
    """Poll ``url`` and repaint the dashboard until interrupted.

    ``once`` renders a single frame (no repaint escapes) — the testable
    and scriptable path; ``iterations`` bounds the loop.  Returns a
    process exit code.
    """
    import sys

    out = write or sys.stdout.write
    base = url.rstrip("/")
    frames = 0
    prev_height = 0
    try:
        while True:
            try:
                metrics = parse_metrics(
                    _fetch(base + "/metrics").decode()
                )
                try:
                    import json

                    health = json.loads(_fetch(base + "/healthz"))
                except Exception:  # noqa: BLE001 — healthz is optional
                    health = None
                frame = render_dashboard(metrics, health)
            except OSError as exc:
                frame = f"repro-powercap top\n{'-' * 72}\nunreachable: {base} ({exc})"
            if prev_height and not once:
                # Move the cursor up over the previous frame.
                out(f"\x1b[{prev_height}F\x1b[J")
            out(frame + "\n")
            prev_height = frame.count("\n") + 1
            frames += 1
            if once or (iterations is not None and frames >= iterations):
                return 0
            time.sleep(interval_s)
    except KeyboardInterrupt:
        return 0
