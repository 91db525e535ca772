"""Fleet health rollups and fleet-level phenomenon detectors.

The fleet engine's timelines (PR 7) say what the *fleet* did —
aggregate power, demand, SLO attainment.  Operating a budget tree
needs the layer below: per-rack/row/datacenter health, continuously.
This module computes those rollups with the same vectorized tools the
engine itself uses (``np.add.reduceat`` over the topology's CSR group
pointers), feeds them into bounded
:class:`~repro.obs.timeseries.SeriesChannel` timelines, and scans the
finished run for three fleet-scale failure shapes, following the
:mod:`repro.obs.detect` conventions (structured
:class:`~repro.obs.detect.Detection` records, ``phenomenon_detected``
logs):

- **budget thrash** — the tree keeps re-dividing: a large fraction of
  evaluated rebalances actually moved caps, so nodes live under a
  constantly shifting limit (the fleet-scale echo of the paper's
  per-node control-loop oscillation);
- **waterfill starvation** — low-priority nodes pinned at their cap
  floor while demand goes unserved: the division strategy has nothing
  left to give them, sustained;
- **SLO-debt runaway** — the fleet's debt accrual *rate* grows over
  the run instead of settling: the budget is infeasible for the
  offered load and shortfall compounds.

The per-tick path is engineered for the fleet engine's throughput
budget (< 10% of node-steps/s, guarded in
``benchmarks/test_bench_engine_throughput.py``): the floor-pin mask is
recomputed only when caps actually changed, the O(nodes) starvation
ops are skipped entirely while nothing is pinned, and channel points
are buffered into windows of :meth:`~FleetHealth.begin_run`-derived
stride so the per-rack channel writes amortize across ticks.
Everything else happens once at run end.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..obs.detect import Detection
from ..obs.timeseries import SeriesChannel
from .division import group_reduce
from .topology import FleetTopology

__all__ = [
    "HEALTH_CHANNELS",
    "MAX_RACK_CHANNELS",
    "FleetHealth",
    "detect_budget_thrash",
    "detect_waterfill_starvation",
    "detect_slo_debt_runaway",
]

#: Fleet-level health channel names and units, in recording order.
HEALTH_CHANNELS = (
    ("health_headroom_w", "W"),
    ("health_capfloor_frac", "fraction"),
    ("health_slo_debt_rate_w", "W"),
    ("health_escalation_level", "level"),
)

#: Per-rack headroom channels are only recorded up to this rack count —
#: beyond it the channel dict itself would dominate memory and the
#: per-rack story belongs in aggregate percentiles, not 10^4 series.
MAX_RACK_CHANNELS = 64

#: Applied caps within this many Watts of the floor count as pinned
#: (caps are integer-rounded like a BMC's Set Power Limit).
_FLOOR_TOL_W = 0.5

# Detector thresholds, tuned so the default demo fleet (flat traffic,
# feasible budget) stays quiet and an infeasible budget with bursty
# traffic trips all three.
THRASH_MIN_APPLIED = 10
THRASH_MIN_APPLY_RATE = 0.5
STARVATION_MIN_FRACTION = 0.5
RUNAWAY_MIN_GROWTH = 2.0


class FleetHealth:
    """Per-tick health rollups for one fleet run.

    The engine calls :meth:`observe_tick` with arrays it already
    computed (power, the rack rollup, current allocations); this class
    folds them into bounded timelines and run-end aggregates.  It
    draws no random numbers and mutates no engine state, so enabling
    it cannot change simulation results.
    """

    def __init__(
        self,
        topology: FleetTopology,
        capacity: int,
    ) -> None:
        self._topo = topology
        self.channels: Dict[str, SeriesChannel] = {
            name: SeriesChannel(name, unit, capacity=capacity)
            for name, unit in HEALTH_CHANNELS
        }
        self._rack_channels = topology.n_racks <= MAX_RACK_CHANNELS
        if self._rack_channels:
            for r in range(topology.n_racks):
                name = f"rack{r}_headroom_w"
                self.channels[name] = SeriesChannel(
                    name, "W", capacity=capacity
                )
        if self._rack_channels:
            self._rack_names = [
                f"rack{r}_headroom_w" for r in range(topology.n_racks)
            ]
        # Run-end aggregates.
        self._ticks = 0
        self._headroom_sum = 0.0
        self._capfloor_sum = 0.0
        self._debt_rate_sum = 0.0
        self._max_level = 0
        self._starved_ticks = np.zeros(topology.n_nodes, dtype=np.int64)
        # Floor-pin cache: caps move only at applied rebalances, so the
        # O(nodes) mask is recomputed on demand, not per tick.
        self._capfloor_frac = 0.0
        self._pinned: Optional[np.ndarray] = None
        self._any_pinned = False
        # Latest budget, used when the window is reduced.
        self._budget_w = 0.0
        self._alloc_buffers(1)

    def _alloc_buffers(self, stride: int) -> None:
        """(Re)allocate the window buffers for ``stride`` ticks.

        The buffers are deliberately tiny (racks wide, not nodes) —
        node-wide quantities fold into in-place accumulators instead
        so the hot loop's cache footprint stays near the engine's own.
        """
        t = self._topo
        self._stride = stride
        self._w_ticks = 0
        self._w_t0 = 0.0
        self._w_dt = 0.0
        # Node power summed over the window and reduced to racks at the
        # flush; only the per-rack channels read it.
        self._pwin_acc = np.zeros(t.n_nodes) if self._rack_channels else None
        self._abuf = np.zeros((stride, t.n_racks))
        self._has_alloc = np.zeros(stride, dtype=bool)
        self._psums: List[float] = []
        self._ssums: List[float] = []
        self._levels: List[float] = []

    def begin_run(self, n_ticks: int) -> None:
        """Size the window buffers to the run length.

        Targeting ~128 flushed windows keeps every channel well below
        its capacity (no decimation churn) while amortizing all numpy
        reductions and channel writes across the window; short runs
        keep per-tick resolution so the detectors see every point.
        """
        self._alloc_buffers(max(1, int(n_ticks) // 128))

    def observe_tick(
        self,
        time_s: float,
        dt_s: float,
        power_sum: float,
        power: np.ndarray,
        applied_cap_w: np.ndarray,
        floor_w: np.ndarray,
        shortfall: np.ndarray,
        shortfall_sum: float,
        slo_slack_w: float,
        rack_alloc: Optional[np.ndarray],
        fleet_budget_w: float,
        max_level: int,
        caps_changed: bool = True,
    ) -> None:
        """Fold one tick's state into the window.

        The hot path only *buffers*: per-node rows land in
        preallocated window arrays and every numpy reduction is
        deferred to :meth:`_flush_window`, which processes the whole
        window vectorized.  ``power`` is the per-node measured power;
        ``rack_alloc`` is None until the first division arms the tree —
        headroom then falls back to the whole-fleet budget and the
        per-rack channels stay silent for those ticks.
        ``caps_changed`` flushes the window early so the floor-pin
        mask stays tick-accurate while being recomputed only when caps
        actually moved.
        """
        self._ticks += 1

        if caps_changed or self._pinned is None:
            # Settle buffered ticks under the outgoing mask first.
            if self._w_ticks:
                self._flush_window()
            armed = np.isfinite(applied_cap_w)
            pinned = armed & (applied_cap_w <= floor_w + _FLOOR_TOL_W)
            self._pinned = pinned
            self._any_pinned = bool(pinned.any())
            self._capfloor_frac = (
                float(np.count_nonzero(pinned)) / self._topo.n_nodes
            )

        j = self._w_ticks
        if j == 0:
            self._w_t0 = time_s
        self._w_ticks = j + 1
        self._w_dt += dt_s
        if rack_alloc is not None:
            if self._rack_channels:
                self._pwin_acc += power
            self._abuf[j] = rack_alloc
            self._has_alloc[j] = True
        else:
            self._has_alloc[j] = False
        if self._any_pinned:
            self._starved_ticks += self._pinned & (shortfall > slo_slack_w)
        self._psums.append(power_sum)
        self._ssums.append(shortfall_sum)
        self._levels.append(float(max_level))
        self._budget_w = fleet_budget_w
        if self._w_ticks >= self._stride:
            self._flush_window()

    def _flush_window(self) -> None:
        """Reduce the buffered window: one vectorized pass per stride.

        The window is homogeneous by construction — the pin mask and
        capfloor fraction are constant inside it (a cap change flushes
        early), so per-window means/extrema computed here equal the
        per-tick folds they replace.
        """
        n = self._w_ticks
        if n == 0:
            return
        psums = np.array(self._psums)
        ssums = np.array(self._ssums)
        levels = np.array(self._levels)
        has_alloc = self._has_alloc[:n]
        n_alloc = int(np.count_nonzero(has_alloc))

        if n_alloc == n:
            alloc_sums = self._abuf[:n].sum(axis=1)
            headroom = alloc_sums - psums
        elif n_alloc == 0:
            headroom = self._budget_w - psums
        else:
            alloc_sums = self._abuf[:n].sum(axis=1)
            headroom = np.where(
                has_alloc, alloc_sums - psums, self._budget_w - psums
            )

        cf = self._capfloor_frac
        self._headroom_sum += float(headroom.sum())
        self._capfloor_sum += cf * n
        self._debt_rate_sum += float(ssums.sum())
        level_max = int(levels.max())
        if level_max > self._max_level:
            self._max_level = level_max

        ch = self.channels
        t0, dt = self._w_t0, self._w_dt
        ch["health_headroom_w"].add(
            t0, dt, float(headroom.mean()),
            float(headroom.min()), float(headroom.max()),
        )
        ch["health_capfloor_frac"].add(t0, dt, cf, cf, cf)
        ch["health_slo_debt_rate_w"].add(
            t0, dt, float(ssums.mean()),
            float(ssums.min()), float(ssums.max()),
        )
        ch["health_escalation_level"].add(
            t0, dt, float(levels.mean()),
            float(levels.min()), level_max,
        )
        if self._rack_channels and n_alloc:
            rack_alloc_sum = self._abuf[:n][has_alloc].sum(axis=0)
            rack_power_sum = group_reduce(
                self._pwin_acc, self._topo.rack_ptr
            )
            self._pwin_acc[:] = 0.0
            means = ((rack_alloc_sum - rack_power_sum) / n_alloc).tolist()
            for name, mean in zip(self._rack_names, means):
                ch[name].add(t0, dt, mean)

        self._w_ticks = 0
        self._w_dt = 0.0
        self._psums.clear()
        self._ssums.clear()
        self._levels.clear()

    def finish(self) -> None:
        """Flush any partial channel window at run end."""
        self._flush_window()

    # ------------------------------------------------------------------
    # Run-end summaries
    # ------------------------------------------------------------------

    def summary(self) -> dict:
        """Mean rollups over the run (the result's ``summary["health"]``)."""
        ticks = max(1, self._ticks)
        return {
            "mean_headroom_w": self._headroom_sum / ticks,
            "mean_capfloor_frac": self._capfloor_sum / ticks,
            "mean_slo_debt_rate_w": self._debt_rate_sum / ticks,
            "max_escalation_level": self._max_level,
        }

    def starved_fractions(self) -> np.ndarray:
        """Per-node fraction of ticks spent floor-pinned and starving."""
        return self._starved_ticks / max(1, self._ticks)

    def detect(
        self,
        rebalances,
        budget_w: float,
        ticks: int,
        dt_s: float,
    ) -> List[Detection]:
        """All fleet-level detections for the finished run."""
        detections = []
        for det in (
            detect_budget_thrash(rebalances, budget_w),
            detect_waterfill_starvation(
                self.starved_fractions(), budget_w, ticks
            ),
            detect_slo_debt_runaway(
                self.channels["health_slo_debt_rate_w"], budget_w
            ),
        ):
            if det is not None:
                detections.append(det)
        return detections


def detect_budget_thrash(
    rebalances,
    budget_w: float,
    min_applied: int = THRASH_MIN_APPLIED,
    min_apply_rate: float = THRASH_MIN_APPLY_RATE,
) -> Optional[Detection]:
    """Flag a budget tree that keeps moving caps.

    Hysteresis exists so the tree settles; when at least
    ``min_apply_rate`` of the evaluated rebalances still applied (and
    enough of them happened to matter), the readings keep crossing the
    threshold and nodes live under a churning limit.
    """
    evaluated = len(rebalances)
    if evaluated == 0:
        return None
    applied = sum(1 for r in rebalances if r.applied)
    rate = applied / evaluated
    if applied < min_applied or rate < min_apply_rate:
        return None
    forced = sum(1 for r in rebalances if r.forced_by_escalation)
    return Detection(
        phenomenon="budget_thrash",
        workload="fleet",
        cap_w=budget_w,
        detail={
            "applied": float(applied),
            "evaluated": float(evaluated),
            "apply_rate": round(rate, 4),
            "forced_by_escalation": float(forced),
        },
    )


def detect_waterfill_starvation(
    starved_fractions: np.ndarray,
    budget_w: float,
    ticks: int,
    min_fraction: float = STARVATION_MIN_FRACTION,
) -> Optional[Detection]:
    """Flag nodes the division strategy has durably starved.

    A node counts as starving on a tick when its applied cap sits at
    the (possibly escalated) floor *and* its shortfall exceeds the SLO
    slack — the waterfill ran dry before reaching it.  Sustained for
    ``min_fraction`` of the run, that is a policy failure, not noise.
    """
    if ticks <= 0 or starved_fractions.size == 0:
        return None
    starving = starved_fractions >= min_fraction
    count = int(np.count_nonzero(starving))
    if count == 0:
        return None
    return Detection(
        phenomenon="waterfill_starvation",
        workload="fleet",
        cap_w=budget_w,
        detail={
            "starved_nodes": float(count),
            "starved_node_frac": round(
                count / starved_fractions.size, 6
            ),
            "worst_starved_fraction": round(
                float(starved_fractions.max()), 4
            ),
            "threshold": float(min_fraction),
        },
    )


def detect_slo_debt_runaway(
    debt_rate_channel: SeriesChannel,
    budget_w: float,
    min_growth: float = RUNAWAY_MIN_GROWTH,
) -> Optional[Detection]:
    """Flag debt accrual that grows instead of settling.

    Compares the duration-weighted mean debt rate in the last quarter
    of the run against the first quarter: a healthy fleet settles
    (caps arm, escalation bites, the rate flattens or falls); a ratio
    above ``min_growth`` means shortfall is compounding and the budget
    cannot serve the offered load.
    """
    points = debt_rate_channel.points()
    if len(points) < 8:
        return None
    quarter = len(points) // 4
    head, tail = points[:quarter], points[-quarter:]

    def _mean(pts) -> float:
        total = sum(p.dt_s for p in pts)
        if total <= 0:
            return 0.0
        return sum(p.mean * p.dt_s for p in pts) / total

    head_rate = _mean(head)
    tail_rate = _mean(tail)
    if tail_rate <= 0:
        return None
    # A quiet start inflates any ratio; require real accrual late in
    # the run before flagging.
    if head_rate <= 0:
        grew = tail_rate > 1.0
        growth = float("inf")
    else:
        growth = tail_rate / head_rate
        grew = growth >= min_growth and tail_rate > 1.0
    if not grew:
        return None
    return Detection(
        phenomenon="slo_debt_runaway",
        workload="fleet",
        cap_w=budget_w,
        detail={
            "head_rate_w": round(head_rate, 3),
            "tail_rate_w": round(tail_rate, 3),
            "growth": (
                round(growth, 4) if growth != float("inf") else -1.0
            ),
            "threshold": float(min_growth),
        },
    )
