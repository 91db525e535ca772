"""In-run telemetry timelines: bounded, downsampling time-series.

The paper's evidence chain is time-resolved measurement — a Watts Up!
meter sampling wall power, average core frequency, and PAPI counters
per run.  Aggregates (PR 3's provenance manifests) cannot show the
phenomena *inside* a run: the 1,200 MHz frequency floor at caps
≤ 130 W, the DCM control loop's overshoot and settling, the energy
knee.  This module records those time series without unbounded memory
and without perturbing the simulation:

- :class:`SeriesChannel` — a fixed-capacity recorder of
  duration-weighted interval samples.  When full it decimates 2×
  (adjacent intervals merge into one, duration-weighted, min/max
  preserved), so a channel covers an arbitrarily long run at steadily
  coarser resolution while its time integral stays exact.
- :class:`RunTimeline` — the named channels of one run plus metadata,
  with JSON/CSV round-trips and rep merging.
- :class:`TelemetrySampler` — aggregates the runner's per-quantum
  state onto a configurable simulated-time period.  A steady-state
  fast-forwarded interval arrives as one long constant sample, so
  timelines have **no gaps** across fast-forwards and the power
  channel's integral still matches the scalar energy path.
- :class:`TelemetryConfig` — the knobs (a runner's ``telemetry``
  argument, or the CLI's ``--telemetry-period`` / ``--no-telemetry``).

Telemetry is pure observation: it draws no random numbers and touches
no model state, so results are bit-identical with sampling on or off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, chain

import numpy as np
from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import SimulationError

__all__ = [
    "TIMELINE_SCHEMA_VERSION",
    "SeriesPoint",
    "SeriesChannel",
    "RunTimeline",
    "TelemetryConfig",
    "TelemetrySampler",
    "channels_to_dict",
    "timeline_to_dict",
    "timeline_from_dict",
]

TIMELINE_SCHEMA_VERSION = 1

#: Channels every run records, with their units (insertion order is
#: the presentation order everywhere downstream).
STANDARD_CHANNELS: Dict[str, str] = {
    "power_w": "W",
    "freq_mhz": "MHz",
    "pstate": "index",
    "duty": "fraction",
    "c0_frac": "fraction",
    "temp_c": "degC",
    "l1_mpki": "misses/kinstr",
    "l2_mpki": "misses/kinstr",
    "l3_mpki": "misses/kinstr",
    "dtlb_mpki": "misses/kinstr",
    "itlb_mpki": "misses/kinstr",
}


def _sig(value: float) -> float:
    """Round to 8 significant digits for compact, stable JSON.

    The reference rounding: :func:`_sig_array` must agree with it bit
    for bit, and falls back to it wherever its fast path cannot prove
    that it does.
    """
    return float(f"{float(value):.8g}")


#: ``10.0**k`` for k = 0..22, each exact in float64 (5**22 < 2**53).
_POW10 = 10.0 ** np.arange(23)


def _sig_array(values: np.ndarray) -> np.ndarray:
    """:func:`_sig` applied to every element of a float64 array, bit for bit.

    For finite nonzero ``x`` with ``a = |x|`` and ``k = 7 - floor(log10 a)``
    in ``0..22``, ``p = a * 10**k`` is within 2**-27 of the exact product,
    so ``m = rint(p)`` is the 8-digit decimal mantissa ``%.8g`` prints,
    unless ``p`` lies within 1e-6 of a half-integer, or a misrounded
    log10 put ``m`` outside ``[1e7, 1e8]``.  ``m`` and ``10**k`` are both
    exact, so the correctly rounded ``m / 10**k`` is exactly what
    ``float()`` parses from that text (Clinger's fast path).  Zeros and
    infinities pass through unchanged, as :func:`_sig` leaves them;
    every other element (NaN, out of range, near a tie) goes to
    :func:`_sig` itself.
    """
    x = np.asarray(values, dtype=np.float64)
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = 7.0 - np.floor(np.log10(a))
        ok = (k >= 0.0) & (k <= 22.0)
        scale = _POW10[np.where(ok, k, 0.0).astype(np.intp)]
        p = a * scale
        m = np.rint(p)
        ok &= np.abs(p - np.floor(p) - 0.5) > 1e-6
        ok &= (m >= 1e7) & (m <= 1e8)
    out = np.where(ok, np.copysign(m / scale, x), x)
    for i in np.flatnonzero(~ok & (x != 0.0) & ~np.isinf(x)):
        out.flat[i] = _sig(x.flat[i])
    return out


class SeriesPoint(NamedTuple):
    """One duration-weighted interval sample of a channel.

    A NamedTuple rather than a frozen dataclass: the engine constructs
    one per flushed telemetry bucket inside the run loop, and tuple
    construction is several times cheaper while keeping the field API,
    immutability, and value-equality semantics unchanged.
    """

    t_s: float
    dt_s: float
    mean: float
    vmin: float
    vmax: float

    @property
    def end_s(self) -> float:
        """The instant this interval's coverage ends."""
        return self.t_s + self.dt_s


class SeriesChannel:
    """Bounded time series of duration-weighted interval samples.

    ``add`` appends an interval ``[t_s, t_s + dt_s)`` during which the
    value averaged ``mean`` (bounded by ``vmin``/``vmax``).  Once
    ``capacity`` points accumulate, adjacent pairs merge (duration-
    weighted mean, min of mins, max of maxes) — memory stays bounded,
    coverage stays gap-free, and ``integral()`` is preserved exactly up
    to float associativity.
    """

    __slots__ = ("name", "unit", "capacity", "_points", "decimations")

    def __init__(self, name: str, unit: str = "", capacity: int = 256) -> None:
        if capacity < 8:
            raise SimulationError("channel capacity must be at least 8")
        self.name = name
        self.unit = unit
        self.capacity = int(capacity)
        self._points: List[SeriesPoint] = []
        self.decimations = 0

    def __len__(self) -> int:
        return len(self._points)

    def add(
        self,
        t_s: float,
        dt_s: float,
        mean: float,
        vmin: Optional[float] = None,
        vmax: Optional[float] = None,
    ) -> None:
        """Append one interval sample (decimating 2× when full)."""
        if dt_s < 0:
            raise SimulationError("sample duration must be non-negative")
        vmin = mean if vmin is None else vmin
        vmax = mean if vmax is None else vmax
        if len(self._points) >= self.capacity:
            self._decimate()
        self._points.append(
            SeriesPoint(float(t_s), float(dt_s), float(mean), float(vmin),
                        float(vmax))
        )

    def add_block(self, points: "List[SeriesPoint]") -> None:
        """Append pre-built points exactly as sequential :meth:`add` calls.

        The block-step kernel builds its flushed buckets as
        :class:`SeriesPoint` tuples (already-float fields, non-negative
        durations) and lands them here in one call per channel.  Below
        capacity that is a plain ``extend``; otherwise each point is
        appended individually so 2× decimation fires at the same moments
        a sequence of :meth:`add` calls would fire it.
        """
        if len(self._points) + len(points) <= self.capacity:
            self._points.extend(points)
            return
        for p in points:
            if len(self._points) >= self.capacity:
                self._decimate()
            self._points.append(p)

    def _decimate(self) -> None:
        pts = self._points
        merged: List[SeriesPoint] = []
        for i in range(0, len(pts) - 1, 2):
            merged.append(_merge_pair(pts[i], pts[i + 1]))
        if len(pts) % 2:
            merged.append(pts[-1])
        self._points = merged
        self.decimations += 1

    def points(self) -> List[SeriesPoint]:
        """A snapshot of the current points, oldest first."""
        return list(self._points)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def duration_s(self) -> float:
        """Total covered simulated time."""
        return sum(p.dt_s for p in self._points)

    def integral(self) -> float:
        """``sum(mean * dt)`` — for the power channel, Joules."""
        return sum(p.mean * p.dt_s for p in self._points)

    def time_weighted_mean(self) -> float:
        """Duration-weighted mean over the whole channel."""
        total = self.duration_s()
        if total <= 0:
            raise SimulationError(f"channel {self.name!r} covers no time")
        return self.integral() / total

    def vmin(self) -> float:
        """Smallest value observed (pre-decimation minima survive)."""
        if not self._points:
            raise SimulationError(f"channel {self.name!r} is empty")
        return min(p.vmin for p in self._points)

    def vmax(self) -> float:
        """Largest value observed (pre-decimation maxima survive)."""
        if not self._points:
            raise SimulationError(f"channel {self.name!r} is empty")
        return max(p.vmax for p in self._points)

    def summary(self) -> dict:
        """JSON-ready headline statistics for this channel."""
        if not self._points:
            return {"points": 0}
        return {
            "points": len(self._points),
            "unit": self.unit,
            "t0_s": _sig(self._points[0].t_s),
            "t1_s": _sig(self._points[-1].end_s),
            "min": _sig(self.vmin()),
            "mean": _sig(self.time_weighted_mean()),
            "max": _sig(self.vmax()),
            "decimations": self.decimations,
        }

    # ------------------------------------------------------------------
    # Resampling and merging
    # ------------------------------------------------------------------

    @staticmethod
    def _ramp(span: np.ndarray) -> np.ndarray:
        """``[0..span[0]-1, 0..span[1]-1, ...]`` as one flat array."""
        total = int(span.sum())
        offsets = np.repeat(np.cumsum(span) - span, span)
        return np.arange(total) - offsets

    def _resample_columns(self, n: int, end: float):
        """``(means, mins, maxs, covered)`` arrays for ``n`` uniform bins.

        Vectorised projection onto the grid.  Bit-identical to the
        historical per-point Python loop: per-(point, bin) contributions
        are expanded in point order and accumulated with unbuffered
        ``np.add.at``, so each bin's weighted sum folds in exactly the
        order the scalar ``wsum[b] += mean * overlap`` statements did.
        Empty bins carry the nearest preceding mean (seeded from the
        first point) so renderings stay gap-free.
        """
        pts = self._points
        width = end / n
        m = len(pts)
        t = np.fromiter((p.t_s for p in pts), np.float64, count=m)
        dt = np.fromiter((p.dt_s for p in pts), np.float64, count=m)
        mean = np.fromiter((p.mean for p in pts), np.float64, count=m)
        vmin = np.fromiter((p.vmin for p in pts), np.float64, count=m)
        vmax = np.fromiter((p.vmax for p in pts), np.float64, count=m)
        live = dt > 0
        t, dt, mean, vmin, vmax = (
            t[live], dt[live], mean[live], vmin[live], vmax[live]
        )
        end_pts = t + dt
        lo = np.clip((t / width).astype(np.int64), 0, n - 1)
        hi = np.clip(((end_pts - 1e-12) / width).astype(np.int64), 0, n - 1)
        span = hi - lo + 1
        # One row per (point, bin) pair, in point order.
        bins = np.repeat(lo, span) + self._ramp(span)
        idx = np.repeat(np.arange(len(t)), span)
        b0 = bins * width
        b1 = (bins + 1) * width
        overlap = np.minimum(end_pts[idx], b1) - np.maximum(t[idx], b0)
        keep = overlap > 0
        bins, idx, overlap = bins[keep], idx[keep], overlap[keep]
        wsum = np.zeros(n)
        cover = np.zeros(n)
        mins = np.full(n, np.inf)
        maxs = np.full(n, -np.inf)
        np.add.at(wsum, bins, mean[idx] * overlap)
        np.add.at(cover, bins, overlap)
        np.minimum.at(mins, bins, vmin[idx])
        np.maximum.at(maxs, bins, vmax[idx])
        covered = cover > 0
        means = np.empty(n)
        np.divide(wsum, cover, out=means, where=covered)
        # Gap fill: each uncovered bin repeats the previous covered mean.
        if not covered.all():
            seed = self._points[0].mean
            filled = np.where(covered, means, np.nan)
            carry = np.concatenate(([seed], filled))
            order = np.maximum.accumulate(
                np.where(np.isnan(carry), 0, np.arange(n + 1))
            )
            means = carry[order][1:]
            mins = np.where(covered, mins, means)
            maxs = np.where(covered, maxs, means)
        return means, mins, maxs, covered

    def resample(self, n: int, t1_s: Optional[float] = None) -> List[SeriesPoint]:
        """Project onto ``n`` uniform bins over ``[0, t1_s]``.

        Bin means are coverage-weighted from the overlapping intervals
        (integral-preserving); bins with no coverage carry the nearest
        preceding value so renderings stay gap-free.
        """
        if n <= 0:
            raise SimulationError("resample bin count must be positive")
        if not self._points:
            return []
        end = float(t1_s) if t1_s is not None else self._points[-1].end_s
        if end <= 0:
            return []
        width = end / n
        means, mins, maxs, _ = self._resample_columns(n, end)
        return [
            SeriesPoint(b * width, width, means[b], mins[b], maxs[b])
            for b in range(n)
        ]

    @classmethod
    def merge(cls, channels: "Sequence[SeriesChannel]") -> "SeriesChannel":
        """Average several recordings of the same channel (rep merge).

        Channels are projected onto a common uniform grid spanning the
        longest recording and averaged bin-wise; ``vmin``/``vmax``
        envelope every contributor.  The grids fold as arrays, in
        channel order, so the result is bit-identical to the historical
        per-bin ``sum(...) / len`` loop.
        """
        channels = [c for c in channels if len(c)]
        if not channels:
            raise SimulationError("cannot merge zero non-empty channels")
        if len({c.name for c in channels}) != 1:
            raise SimulationError("merge mixes differently named channels")
        first = channels[0]
        if len(channels) == 1:
            out = cls(first.name, first.unit, first.capacity)
            out._points = first.points()
            out.decimations = first.decimations
            return out
        end = max(c._points[-1].end_s for c in channels)
        n = min(max(len(c) for c in channels), first.capacity)
        width = end / n
        grids = [c._resample_columns(n, end) for c in channels]
        # Same association order as ``sum(p.mean for p in pts)``: the
        # builtin starts at 0 and folds left-to-right over channels.
        acc = 0.0 + grids[0][0]
        mins = grids[0][1].copy()
        maxs = grids[0][2].copy()
        for means_g, mins_g, maxs_g, _ in grids[1:]:
            acc = acc + means_g
            np.minimum(mins, mins_g, out=mins)
            np.maximum(maxs, maxs_g, out=maxs)
        means = acc / len(grids)
        out = cls(first.name, first.unit, first.capacity)
        for b in range(n):
            out.add(b * width, width, means[b], mins[b], maxs[b])
        return out

    # ------------------------------------------------------------------
    # Serialisation (columnar, compact)
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """Columnar JSON-ready representation."""
        return channels_to_dict({self.name: self})[self.name]

    @classmethod
    def from_dict(cls, name: str, data: dict) -> "SeriesChannel":
        """Inverse of :meth:`to_dict`."""
        try:
            out = cls(name, data.get("unit", ""), int(data.get("capacity", 256)))
            out.decimations = int(data.get("decimations", 0))
            cols = (data["t"], data["dt"], data["mean"], data["min"], data["max"])
            if len({len(c) for c in cols}) != 1:
                raise SimulationError(
                    f"channel {name!r} has ragged columns"
                )
            out._points = [
                SeriesPoint(float(t), float(dt), float(m), float(lo), float(hi))
                for t, dt, m, lo, hi in zip(*cols)
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise SimulationError(f"malformed channel {name!r}: {exc}") from exc
        return out


def _rounded_points(channels: Sequence[SeriesChannel]) -> List[np.ndarray]:
    """Each channel's points as an ``(n, 5)`` array rounded by :func:`_sig`.

    All channels are rounded together, in one :func:`_sig_array` pass.
    """
    sizes = [len(ch) for ch in channels]
    points = chain.from_iterable(ch._points for ch in channels)
    fields = np.fromiter(
        chain.from_iterable(points), np.float64, count=5 * sum(sizes)
    )
    rows = _sig_array(fields).reshape(-1, 5)
    bounds = list(accumulate(sizes, initial=0))
    return [rows[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def channels_to_dict(channels: Mapping[str, SeriesChannel]) -> Dict[str, dict]:
    """``{name: channel.to_dict()}``, every channel rounded in one pass."""
    out = {}
    for (name, ch), rows in zip(
        channels.items(), _rounded_points(list(channels.values()))
    ):
        t, dt, mean, vmin, vmax = rows.T.tolist()
        out[name] = {
            "unit": ch.unit,
            "capacity": ch.capacity,
            "decimations": ch.decimations,
            "t": t,
            "dt": dt,
            "mean": mean,
            "min": vmin,
            "max": vmax,
        }
    return out


def _merge_pair(a: SeriesPoint, b: SeriesPoint) -> SeriesPoint:
    dt = a.dt_s + b.dt_s
    if dt <= 0:
        mean = (a.mean + b.mean) / 2.0
    else:
        mean = (a.mean * a.dt_s + b.mean * b.dt_s) / dt
    return SeriesPoint(
        a.t_s, dt, mean, min(a.vmin, b.vmin), max(a.vmax, b.vmax)
    )


@dataclass
class RunTimeline:
    """All sampled channels of one run (or a rep-merged average)."""

    workload: str
    cap_w: Optional[float]
    period_s: float
    channels: Dict[str, SeriesChannel] = field(default_factory=dict)
    #: How many repetitions were merged into this timeline (1 = raw).
    reps: int = 1

    @property
    def cap_label(self) -> str:
        """Row label: the cap in watts, or 'baseline'."""
        return "baseline" if self.cap_w is None else f"{self.cap_w:.0f}"

    def channel(self, name: str) -> SeriesChannel:
        """One channel by name."""
        try:
            return self.channels[name]
        except KeyError:
            raise SimulationError(
                f"timeline has no channel {name!r}; available: "
                f"{sorted(self.channels)}"
            ) from None

    def names(self) -> List[str]:
        """Channel names in recording order."""
        return list(self.channels)

    def duration_s(self) -> float:
        """Covered simulated time (the longest channel's coverage)."""
        return max((c.duration_s() for c in self.channels.values()), default=0.0)

    def summary(self) -> dict:
        """JSON-ready per-channel headline statistics."""
        return {
            "workload": self.workload,
            "cap_w": self.cap_w,
            "reps": self.reps,
            "period_s": _sig(self.period_s),
            "duration_s": _sig(self.duration_s()),
            "channels": {n: c.summary() for n, c in self.channels.items()},
        }

    @classmethod
    def merge(cls, timelines: "Sequence[RunTimeline]") -> "RunTimeline":
        """Average repetition timelines channel-by-channel."""
        timelines = list(timelines)
        if not timelines:
            raise SimulationError("cannot merge zero timelines")
        first = timelines[0]
        if len(timelines) == 1:
            return first
        out = cls(
            workload=first.workload,
            cap_w=first.cap_w,
            period_s=first.period_s,
            reps=sum(t.reps for t in timelines),
        )
        for name in first.channels:
            members = [
                t.channels[name] for t in timelines if name in t.channels
            ]
            out.channels[name] = SeriesChannel.merge(members)
        return out

    # ------------------------------------------------------------------
    # Exports
    # ------------------------------------------------------------------

    def to_csv(self, channels: Optional[Iterable[str]] = None) -> str:
        """CSV rows: ``workload,cap,channel,t_s,dt_s,mean,min,max``."""
        names = list(channels) if channels is not None else self.names()
        chans = [self.channel(name) for name in names]
        lines = ["workload,cap,channel,t_s,dt_s,mean,min,max"]
        for name, rows in zip(names, _rounded_points(chans)):
            prefix = f"{self.workload},{self.cap_label},{name}"
            lines.extend(
                f"{prefix},{t:g},{dt:g},{mean:g},{vmin:g},{vmax:g}"
                for t, dt, mean, vmin, vmax in rows.tolist()
            )
        return "\n".join(lines) + "\n"

    def counter_samples(
        self, max_points: int = 120
    ) -> List[Tuple[str, float, float]]:
        """``(channel, t_s, value)`` triples for trace counter export.

        Channels longer than ``max_points`` are resampled so a sweep's
        trace file stays small.
        """
        out: List[Tuple[str, float, float]] = []
        for name, ch in self.channels.items():
            pts = ch.points()
            if len(pts) > max_points:
                pts = ch.resample(max_points)
            out.extend((name, p.t_s, p.mean) for p in pts)
        return out


def timeline_to_dict(timeline: RunTimeline) -> dict:
    """JSON-ready representation of one timeline."""
    return {
        "schema": TIMELINE_SCHEMA_VERSION,
        "workload": timeline.workload,
        "cap_w": timeline.cap_w,
        "reps": timeline.reps,
        "period_s": _sig(timeline.period_s),
        "channels": channels_to_dict(timeline.channels),
    }


def timeline_from_dict(data: dict) -> RunTimeline:
    """Inverse of :func:`timeline_to_dict`."""
    try:
        schema = int(data.get("schema", 0))
        if schema != TIMELINE_SCHEMA_VERSION:
            raise SimulationError(
                f"unsupported timeline schema {schema!r} "
                f"(expected {TIMELINE_SCHEMA_VERSION})"
            )
        timeline = RunTimeline(
            workload=data["workload"],
            cap_w=None if data["cap_w"] is None else float(data["cap_w"]),
            period_s=float(data["period_s"]),
            reps=int(data.get("reps", 1)),
        )
        for name, ch in data.get("channels", {}).items():
            timeline.channels[name] = SeriesChannel.from_dict(name, ch)
    except (KeyError, TypeError, ValueError) as exc:
        raise SimulationError(f"malformed timeline: {exc}") from exc
    return timeline


@dataclass(frozen=True)
class TelemetryConfig:
    """Sampling knobs for in-run telemetry (picklable, frozen)."""

    enabled: bool = True
    #: Target simulated seconds per timeline point (aggregation bucket).
    period_s: float = 0.25
    #: Ring capacity per channel before 2× decimation.
    capacity: int = 256

    def __post_init__(self) -> None:
        if self.period_s <= 0:
            raise SimulationError("telemetry period must be positive")
        if self.capacity < 8:
            raise SimulationError("telemetry capacity must be at least 8")

    @classmethod
    def resolve(cls, telemetry: "TelemetryConfig | bool") -> "TelemetryConfig":
        """Normalise the ``telemetry`` argument runners accept.

        ``True``/``False`` give the default config on or off; a config
        passes through unchanged.
        """
        if telemetry is True:
            return cls()
        if telemetry is False:
            return cls(enabled=False)
        return telemetry


class TelemetrySampler:
    """Aggregates per-quantum engine state onto the sampling period.

    The runner calls :meth:`record` once per control step with the
    step's duration and channel values; contributions accumulate
    (duration-weighted) into the current bucket, which flushes into the
    channels once ``period_s`` of simulated time has elapsed.  A single
    long step — the steady-state fast-forward — flushes immediately as
    one wide interval, so coverage is continuous across fast-forwarded
    time and ``power_w``'s integral equals the scalar energy integral.

    Pure bookkeeping: no RNG, no model state, O(channels) per step.
    """

    def __init__(
        self,
        config: TelemetryConfig,
        channels: Optional[Mapping[str, str]] = None,
    ) -> None:
        self._cfg = config
        names = dict(channels if channels is not None else STANDARD_CHANNELS)
        self._channels: Dict[str, SeriesChannel] = {
            name: SeriesChannel(name, unit, config.capacity)
            for name, unit in names.items()
        }
        self._bucket_t0 = 0.0
        self._elapsed = 0.0
        self._samples = 0
        # Per-channel bucket accumulators: [weighted sum, min, max].
        self._acc: Dict[str, List[float]] = {}

    @property
    def config(self) -> TelemetryConfig:
        """The sampling knobs in force."""
        return self._cfg

    @property
    def samples(self) -> int:
        """Raw :meth:`record` calls so far."""
        return self._samples

    def block_state(self) -> tuple:
        """``(bucket_t0, elapsed, acc)`` snapshot for the kernel.

        ``acc`` is the live per-channel accumulator dict (each slot is
        ``[weighted sum, min, max]``); the block-step kernel seeds its
        local bucket folds from it and installs the evolved state with
        :meth:`commit_block`.
        """
        return self._bucket_t0, self._elapsed, self._acc

    def block_channel(self, name: str) -> SeriesChannel:
        """The channel ``name`` flushes into (created like ``_flush``)."""
        channel = self._channels.get(name)
        if channel is None:
            channel = self._channels[name] = SeriesChannel(
                name, "", self._cfg.capacity
            )
        return channel

    def commit_block(
        self,
        samples: int,
        bucket_t0: float,
        elapsed: float,
        acc: Dict[str, List[float]],
    ) -> None:
        """Install bucket state evolved by the block-step kernel.

        The kernel performs the same per-quantum folds :meth:`record`
        does (and flushes full buckets into the channels itself via
        :meth:`block_channel`); this commits the sample count and the
        partial tail bucket exactly as the scalar path would have left
        them.
        """
        self._samples += samples
        self._bucket_t0 = bucket_t0
        self._elapsed = elapsed
        self._acc = acc

    def record(self, dt_s: float, values: Mapping[str, float]) -> None:
        """Fold one control step's state into the current bucket."""
        if dt_s < 0:
            raise SimulationError("step duration must be non-negative")
        self._samples += 1
        acc = self._acc
        for name, value in values.items():
            slot = acc.get(name)
            if slot is None:
                acc[name] = [value * dt_s, value, value]
            else:
                slot[0] += value * dt_s
                if value < slot[1]:
                    slot[1] = value
                if value > slot[2]:
                    slot[2] = value
        self._elapsed += dt_s
        if self._elapsed >= self._cfg.period_s:
            self._flush()

    def _flush(self) -> None:
        if self._elapsed <= 0:
            return
        dt = self._elapsed
        t0 = self._bucket_t0
        for name, slot in self._acc.items():
            channel = self._channels.get(name)
            if channel is None:
                channel = self._channels[name] = SeriesChannel(
                    name, "", self._cfg.capacity
                )
            channel.add(t0, dt, slot[0] / dt, slot[1], slot[2])
        self._acc = {}
        self._bucket_t0 = t0 + dt
        self._elapsed = 0.0

    def finish(
        self, workload: str, cap_w: Optional[float]
    ) -> RunTimeline:
        """Flush the tail bucket and assemble the run's timeline."""
        self._flush()
        timeline = RunTimeline(
            workload=workload, cap_w=cap_w, period_s=self._cfg.period_s
        )
        for name, channel in self._channels.items():
            if len(channel):
                timeline.channels[name] = channel
        return timeline
