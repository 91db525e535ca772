"""The vectorized fleet engine: a simulated datacenter of capped nodes.

:class:`FleetEngine` steps an entire fleet — 8 nodes or 10^6 — through
the DCM control loop with *array-of-nodes* state: per-node cap, demand,
power, reading statistics, and SLO debt are flat float64 arrays, and
every tick is a handful of whole-fleet numpy operations.  One tick is:

1. the traffic model emits per-node demand (Watts);
2. served power is demand clamped by the node's armed cap — the
   population version of the paper's finding that a cap binds only
   when demand exceeds it;
3. reading statistics accumulate (the cumulative average a
   :class:`~repro.bmc.bmc.Bmc` would report, integer-rounded the same
   way);
4. the budget tree re-divides on its cadence: datacenter -> rows ->
   racks -> nodes, each level splitting its (escalation-adjusted)
   budget with the shared :class:`~repro.dcm.group.DivisionStrategy`
   semantics, leaf caps applied under the same strict-``>`` hysteresis
   as :class:`~repro.dcm.balancer.GroupBalancer`;
5. cascading cap escalation: a group whose measured power breaches its
   allocated budget for ``patience_ticks`` consecutive ticks raises its
   escalation level, which scales the *cap floor* of every node beneath
   it — emergency throttling below the configured minimum, cascading
   from the breached parent down the tree — and forces an immediate
   re-division; sustained compliance releases the level;
6. throughput / SLO accounting: shortfall (demand minus served power)
   accrues per-node debt, and a node-tick attains its SLO when the
   shortfall stays within ``slo_slack_w``.

**Parity contract** — a fleet with one row and one rack stepped with
``rebalance_every=1`` and no escalation reproduces the serial
:class:`~repro.dcm.manager.DataCenterManager` +
:class:`~repro.dcm.group.NodeGroup` +
:class:`~repro.dcm.balancer.GroupBalancer` loop on the same demand
schedule: identical rebalance decisions and times, caps within
documented float tolerance (see docs/FLEET.md and
``tests/fleet/test_parity.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..dcm.group import DivisionStrategy
from ..errors import ConfigError, PolicyError
from ..obs.detect import Detection
from ..obs.logging import get_logger
from ..obs.provenance import git_describe
from ..obs.timeseries import SeriesChannel, channels_to_dict
from ..rng import DEFAULT_SEED, RngStreams
from .division import divide_groups, group_reduce, priority_fill_order
from .health import FleetHealth
from .topology import FleetTopology
from .traffic import TrafficModel

__all__ = [
    "EscalationConfig",
    "FleetRebalance",
    "FleetResult",
    "FleetEngine",
]

_log = get_logger("fleet.engine")


@dataclass(frozen=True)
class EscalationConfig:
    """Cascading cap-escalation knobs (per budget-tree group).

    A group breaches when its measured power exceeds its allocated
    budget by more than ``over_tolerance_frac``; after
    ``patience_ticks`` consecutive breach ticks its escalation level
    rises.  Each level multiplies the *cap floor* of every node under
    the group by ``1 - step_frac * level`` — factors multiply down the
    tree, so a datacenter-level breach cascades emergency throttling to
    every leaf.  Escalated caps may drop below the configured
    ``min_cap_w`` (the normal floor exists precisely because an
    infeasible budget cannot otherwise be enforced), bounded at half
    idle power like the BMC firmware's sanity check.  Every level
    change forces a re-division that bypasses hysteresis;
    ``release_ticks`` consecutive compliant ticks step the level back
    down.
    """

    over_tolerance_frac: float = 0.05
    patience_ticks: int = 3
    step_frac: float = 0.08
    max_level: int = 4
    release_ticks: int = 10

    def __post_init__(self) -> None:
        if self.over_tolerance_frac < 0:
            raise ConfigError("over_tolerance_frac must be non-negative")
        if self.patience_ticks < 1 or self.release_ticks < 1:
            raise ConfigError("patience/release ticks must be >= 1")
        if not 0 < self.step_frac < 1:
            raise ConfigError("step_frac must be within (0, 1)")
        if not 0 <= self.max_level * self.step_frac < 1:
            raise ConfigError("max_level * step_frac must stay below 1")

    def to_dict(self) -> dict:
        """JSON-ready knob dump for provenance."""
        return {
            "over_tolerance_frac": self.over_tolerance_frac,
            "patience_ticks": self.patience_ticks,
            "step_frac": self.step_frac,
            "max_level": self.max_level,
            "release_ticks": self.release_ticks,
        }


@dataclass(frozen=True)
class FleetRebalance:
    """One budget-tree re-division decision (mirror of
    :class:`~repro.dcm.balancer.RebalanceRecord`)."""

    time_s: float
    applied: bool
    max_delta_w: float
    forced_by_escalation: bool = False


class _GroupLevel:
    """Escalation bookkeeping for one tree level (racks, rows, dc)."""

    def __init__(self, n: int) -> None:
        self.level = np.zeros(n, dtype=np.int64)
        self.breach_ticks = np.zeros(n, dtype=np.int64)
        self.calm_ticks = np.zeros(n, dtype=np.int64)
        self.allocated_w: Optional[np.ndarray] = None
        self.escalations = 0

    def observe(self, power_w: np.ndarray, cfg: EscalationConfig) -> bool:
        """Update breach counters against the allocated budgets.

        Returns True when any level moved (escalated or released).
        """
        if self.allocated_w is None:
            return False
        over = power_w > self.allocated_w * (1.0 + cfg.over_tolerance_frac)
        self.breach_ticks = np.where(over, self.breach_ticks + 1, 0)
        self.calm_ticks = np.where(over, 0, self.calm_ticks + 1)
        escalate = (self.breach_ticks >= cfg.patience_ticks) & (
            self.level < cfg.max_level
        )
        release = (self.calm_ticks >= cfg.release_ticks) & (self.level > 0)
        if not (escalate.any() or release.any()):
            return False
        self.level = self.level + escalate - release
        self.breach_ticks[escalate] = 0
        self.calm_ticks[release] = 0
        self.escalations += int(escalate.sum())
        return True

    def factor(self, cfg: EscalationConfig) -> np.ndarray:
        """Per-group cap-floor scale at the current escalation level."""
        return 1.0 - cfg.step_frac * self.level


@dataclass
class FleetResult:
    """Everything one :meth:`FleetEngine.run` produced."""

    topology: dict
    params: dict
    ticks: int
    dt_s: float
    #: Fleet- and row-level telemetry channels by name.
    timelines: Dict[str, SeriesChannel]
    #: Every re-division decision, oldest first.
    rebalances: List[FleetRebalance]
    summary: dict
    provenance: dict
    #: Per-tick (targets, applied caps, readings, powers) — recorded
    #: only when the engine ran with ``record_trajectory=True``.
    trajectory: Optional[dict] = None
    #: Fleet-level detections (budget thrash, waterfill starvation,
    #: SLO-debt runaway) — populated when health rollups ran.
    phenomena: List[Detection] = field(default_factory=list)

    def to_dict(self) -> dict:
        """JSON-ready document: summaries plus full channel points.

        ``timelines`` carries per-channel summaries (cheap to scan);
        ``timeline_channels`` carries the full
        :meth:`~repro.obs.timeseries.SeriesChannel.to_dict` dumps so
        ``repro-powercap timeline`` can chart a saved fleet run.
        """
        return {
            "topology": self.topology,
            "params": self.params,
            "ticks": self.ticks,
            "dt_s": self.dt_s,
            "summary": self.summary,
            "provenance": self.provenance,
            "rebalances": {
                "evaluated": len(self.rebalances),
                "applied": sum(1 for r in self.rebalances if r.applied),
                "forced_by_escalation": sum(
                    1 for r in self.rebalances if r.forced_by_escalation
                ),
            },
            "timelines": {
                name: ch.summary() for name, ch in self.timelines.items()
            },
            "timeline_channels": channels_to_dict(self.timelines),
            "phenomena": [d.to_dict() for d in self.phenomena],
        }


class FleetEngine:
    """Array-of-nodes simulation of a power-capped fleet."""

    def __init__(
        self,
        topology: FleetTopology,
        traffic: TrafficModel,
        *,
        budget_w: float,
        strategy: DivisionStrategy = DivisionStrategy.PROPORTIONAL,
        dt_s: float = 1.0,
        rebalance_every: int = 1,
        rebalance_threshold_w: float = 5.0,
        escalation: Optional[EscalationConfig] = None,
        slo_slack_w: float = 1.0,
        seed: int = DEFAULT_SEED,
        telemetry: bool = True,
        telemetry_capacity: int = 512,
        record_trajectory: bool = False,
        health: Optional[bool] = None,
    ) -> None:
        topology.validate()
        if budget_w <= 0:
            raise PolicyError("fleet budget must be positive")
        if dt_s <= 0:
            raise ConfigError("dt_s must be positive")
        if rebalance_every < 1:
            raise ConfigError("rebalance_every must be >= 1")
        if rebalance_threshold_w < 0:
            raise PolicyError("rebalance threshold must be non-negative")
        self._topo = topology
        self._traffic = traffic
        self.budget_w = float(budget_w)
        self._strategy = strategy
        self.dt_s = float(dt_s)
        self._rebalance_every = int(rebalance_every)
        self._threshold = float(rebalance_threshold_w)
        self._escalation = escalation
        self._slo_slack_w = float(slo_slack_w)
        self._seed = int(seed)
        self._telemetry = bool(telemetry)
        self._telemetry_capacity = int(telemetry_capacity)
        self._record_trajectory = bool(record_trajectory)
        # Health rollups follow the telemetry switch unless pinned, so
        # the telemetry=False benchmark configuration stays untouched.
        self._health_enabled = (
            self._telemetry if health is None else bool(health)
        )

        streams = RngStreams(seed=self._seed)
        traffic.bind(topology, streams.stream("fleet-traffic"))

        t = topology
        # Static group aggregates for the budget tree.
        self._rack_min_w = group_reduce(t.min_cap_w, t.rack_ptr)
        self._rack_max_w = group_reduce(t.max_cap_w, t.rack_ptr)
        self._row_min_w = group_reduce(self._rack_min_w, t.row_ptr)
        self._row_max_w = group_reduce(self._rack_max_w, t.row_ptr)
        self._rack_prio = np.maximum.reduceat(t.priority, t.rack_ptr[:-1])
        self._row_prio = np.maximum.reduceat(self._rack_prio, t.row_ptr[:-1])
        self._dc_ptr = np.array([0, t.n_rows], dtype=np.int64)
        # Static PRIORITY fill permutations per level.
        self._node_order = priority_fill_order(t.priority, t.rack_ptr)
        self._rack_order = priority_fill_order(self._rack_prio, t.row_ptr)
        self._row_order = priority_fill_order(self._row_prio, self._dc_ptr)

        self.reset()

    @property
    def topology(self) -> FleetTopology:
        """The fleet's static structure."""
        return self._topo

    def reset(self) -> None:
        """Zero all mutable fleet state (ready for a fresh run)."""
        t = self._topo
        n = t.n_nodes
        self._step_index = 0
        #: Caps currently programmed (integer Watts, like a BMC); +inf
        #: until the first division arms them.
        self._applied_cap_w = np.full(n, np.inf)
        self._last_target_w: Optional[np.ndarray] = None
        self._total_wq = np.zeros(n)
        self._quanta = 0
        self._slo_debt_ws = np.zeros(n)
        self._slo_ok_node_ticks = 0
        self._demand_ws = 0.0  # integral of demand (W * s)
        self._served_ws = 0.0
        self._energy_ws = 0.0
        self._rebalances: List[FleetRebalance] = []
        self._levels = {
            "rack": _GroupLevel(t.n_racks),
            "row": _GroupLevel(t.n_rows),
            "dc": _GroupLevel(1),
        }
        # Levels move only when an observe() reports a change, so the
        # per-tick health rollup reads this cache instead of scanning
        # three arrays every tick.
        self._esc_max_level = 0
        self._channels: Dict[str, SeriesChannel] = {}
        if self._telemetry:
            cap = self._telemetry_capacity
            for name, unit in (
                ("fleet_power_w", "W"),
                ("fleet_demand_w", "W"),
                ("fleet_cap_w", "W"),
                ("fleet_shortfall_w", "W"),
                ("slo_attainment", "fraction"),
                ("latency_inflation", "x"),
            ):
                self._channels[name] = SeriesChannel(name, unit, capacity=cap)
            for w in range(t.n_rows):
                self._channels[f"row{w}_power_w"] = SeriesChannel(
                    f"row{w}_power_w", "W", capacity=cap
                )
        self._health: Optional[FleetHealth] = None
        if self._health_enabled:
            self._health = FleetHealth(t, self._telemetry_capacity)
            # Health channels ride in the same timeline dict, so the
            # result and CLI surfaces treat them like any channel.
            self._channels.update(self._health.channels)
        self._traj: Optional[Dict[str, list]] = (
            {"target_w": [], "applied_w": [], "reading_w": [], "power_w": []}
            if self._record_trajectory
            else None
        )

    # ------------------------------------------------------------------
    # Budget tree
    # ------------------------------------------------------------------

    def _divide_tree(self, readings_w: np.ndarray) -> np.ndarray:
        """Datacenter -> rows -> racks -> nodes division, one pass.

        Group demand at each internal level is the sum of its members'
        readings; group clamp ranges are the sums of member ranges;
        group priority is the max member priority.  Escalation scales
        the minimum-cap floors at every level (factors multiplying down
        the tree), so a breached parent cascades emergency throttling
        to its leaves while the budgets themselves stay honest.
        """
        t = self._topo
        esc = self._escalation
        rack_demand = group_reduce(readings_w, t.rack_ptr)
        row_demand = group_reduce(rack_demand, t.row_ptr)

        row_min = self._row_min_w
        rack_min = self._rack_min_w
        node_min = t.min_cap_w
        if esc is not None:
            f_dc = float(self._levels["dc"].factor(esc)[0])
            f_row = f_dc * self._levels["row"].factor(esc)
            f_rack = (
                np.repeat(f_row, np.diff(t.row_ptr))
                * self._levels["rack"].factor(esc)
            )
            f_node = np.repeat(f_rack, np.diff(t.rack_ptr))
            row_min = row_min * f_row
            rack_min = rack_min * f_rack
            # Leaf floor bounded at half idle power, like the BMC
            # firmware's Set Power Limit sanity check.
            node_min = np.maximum(node_min * f_node, 0.5 * t.idle_w)

        dc_budget = np.array([self.budget_w])
        row_budgets = divide_groups(
            dc_budget,
            self._strategy,
            row_demand,
            row_min,
            self._row_max_w,
            self._row_prio,
            self._dc_ptr,
            priority_order=self._row_order,
        )
        rack_budgets = divide_groups(
            row_budgets,
            self._strategy,
            rack_demand,
            rack_min,
            self._rack_max_w,
            self._rack_prio,
            t.row_ptr,
            priority_order=self._rack_order,
        )
        self._levels["dc"].allocated_w = dc_budget
        self._levels["row"].allocated_w = row_budgets
        self._levels["rack"].allocated_w = rack_budgets
        return divide_groups(
            rack_budgets,
            self._strategy,
            readings_w,
            node_min,
            t.max_cap_w,
            t.priority,
            t.rack_ptr,
            priority_order=self._node_order,
        )

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------

    def step(self) -> None:
        """Advance the whole fleet by one control tick."""
        t = self._topo
        dt = self.dt_s
        time_s = self._step_index * dt

        demand = np.clip(
            self._traffic.demand_w(self._step_index, time_s),
            t.idle_w,
            t.busy_w,
        )
        power = np.minimum(demand, self._applied_cap_w)
        self._total_wq += power
        self._quanta += 1

        # SLO / throughput accounting.
        shortfall = demand - power
        self._slo_debt_ws += shortfall * dt
        slo_ok = shortfall <= self._slo_slack_w
        self._slo_ok_node_ticks += int(np.count_nonzero(slo_ok))
        demand_sum = float(demand.sum())
        power_sum = float(power.sum())
        shortfall_sum = demand_sum - power_sum
        self._demand_ws += demand_sum * dt
        self._served_ws += power_sum * dt
        self._energy_ws += power_sum * dt

        # Escalation watches measured group power every tick.
        esc_changed = False
        if self._escalation is not None:
            rack_power = group_reduce(power, t.rack_ptr)
            row_power = group_reduce(rack_power, t.row_ptr)
            cfg = self._escalation
            esc_changed |= self._levels["rack"].observe(rack_power, cfg)
            esc_changed |= self._levels["row"].observe(row_power, cfg)
            esc_changed |= self._levels["dc"].observe(
                np.array([power_sum]), cfg
            )
            if esc_changed:
                self._esc_max_level = max(
                    int(lv.level.max()) for lv in self._levels.values()
                )

        due = self._step_index % self._rebalance_every == 0
        caps_changed = False
        if due or esc_changed:
            readings = np.rint(self._total_wq / self._quanta)
            target = self._divide_tree(readings)
            if self._last_target_w is None:
                max_delta = float("inf")
            else:
                max_delta = float(
                    np.max(np.abs(target - self._last_target_w))
                )
            applied = max_delta > self._threshold or esc_changed
            if applied:
                self._applied_cap_w = np.rint(target)
                self._last_target_w = target
                caps_changed = True
            self._rebalances.append(
                FleetRebalance(
                    time_s=time_s,
                    applied=applied,
                    max_delta_w=max_delta,
                    forced_by_escalation=esc_changed,
                )
            )

        if self._telemetry:
            rack_power = group_reduce(power, t.rack_ptr)
            ch = self._channels
            ch["fleet_power_w"].add(time_s, dt, power_sum)
            ch["fleet_demand_w"].add(time_s, dt, demand_sum)
            armed = np.isfinite(self._applied_cap_w)
            cap_sum = float(self._applied_cap_w[armed].sum()) if armed.any() else 0.0
            ch["fleet_cap_w"].add(time_s, dt, cap_sum)
            ch["fleet_shortfall_w"].add(time_s, dt, shortfall_sum)
            ch["slo_attainment"].add(
                time_s, dt, float(np.count_nonzero(slo_ok)) / t.n_nodes
            )
            ch["latency_inflation"].add(
                time_s, dt, self._latency_inflation(demand)
            )
            row_power = group_reduce(rack_power, t.row_ptr)
            for w in range(t.n_rows):
                ch[f"row{w}_power_w"].add(time_s, dt, float(row_power[w]))

        if self._health is not None:
            self._health.observe_tick(
                time_s,
                dt,
                power_sum,
                power,
                self._applied_cap_w,
                t.min_cap_w,
                shortfall,
                shortfall_sum,
                self._slo_slack_w,
                self._levels["rack"].allocated_w,
                self.budget_w,
                self._esc_max_level,
                caps_changed=caps_changed,
            )

        if self._traj is not None:
            self._traj["target_w"].append(
                None
                if self._last_target_w is None
                else self._last_target_w.copy()
            )
            self._traj["applied_w"].append(self._applied_cap_w.copy())
            self._traj["reading_w"].append(
                np.rint(self._total_wq / self._quanta)
            )
            self._traj["power_w"].append(power.copy())

        self._step_index += 1

    def _latency_inflation(self, demand: np.ndarray) -> float:
        """Mean M/M/1-style latency inflation proxy across the fleet.

        A node offering work ``demand - idle`` against the capacity its
        armed cap grants (``min(cap, busy) - idle``) runs at
        utilization ``rho``; its latency inflates like
        ``1 / (1 - rho)``, clipped at 50x.  A cap squeezing demand
        pushes ``rho`` toward 1 — the fleet-scale echo of the paper's
        per-core slowdown under tight caps.
        """
        t = self._topo
        offered = demand - t.idle_w
        capacity = np.maximum(
            np.minimum(self._applied_cap_w, t.busy_w) - t.idle_w, 1e-9
        )
        rho = np.clip(offered / capacity, 0.0, 0.98)
        return float(np.mean(1.0 / (1.0 - rho)))

    def run(self, duration_s: float) -> FleetResult:
        """Step the fleet for ``duration_s`` simulated seconds."""
        if duration_s <= 0:
            raise ConfigError("duration_s must be positive")
        ticks = max(1, int(round(duration_s / self.dt_s)))
        if self._health is not None:
            self._health.begin_run(ticks)
        wall0 = time.perf_counter()
        for _ in range(ticks):
            self.step()
        wall = time.perf_counter() - wall0
        phenomena: List[Detection] = []
        if self._health is not None:
            self._health.finish()
            phenomena = self._health.detect(
                self._rebalances, self.budget_w, ticks, self.dt_s
            )
            for det in phenomena:
                _log.info(
                    "phenomenon_detected",
                    phenomenon=det.phenomenon,
                    workload=det.workload,
                    cap_w=det.cap_w,
                    **det.detail,
                )
        return self._result(ticks, wall, phenomena)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def _result(
        self,
        ticks: int,
        wall_s: float,
        phenomena: Optional[List[Detection]] = None,
    ) -> FleetResult:
        t = self._topo
        node_ticks = ticks * t.n_nodes
        applied = [r for r in self._rebalances if r.applied]
        summary = {
            "nodes": t.n_nodes,
            "racks": t.n_racks,
            "rows": t.n_rows,
            "ticks": ticks,
            "node_steps": node_ticks,
            "wall_s": round(wall_s, 4),
            "node_steps_per_s": (
                round(node_ticks / wall_s, 1) if wall_s > 0 else None
            ),
            "budget_w": self.budget_w,
            "energy_wh": round(self._energy_ws / 3600.0, 3),
            "demand_wh": round(self._demand_ws / 3600.0, 3),
            "served_wh": round(self._served_ws / 3600.0, 3),
            #: Fraction of offered work actually served under the caps.
            "throughput_attainment": (
                round(self._served_ws / self._demand_ws, 6)
                if self._demand_ws > 0
                else 1.0
            ),
            #: Fraction of node-ticks whose shortfall stayed in the SLO.
            "slo_attainment": round(
                self._slo_ok_node_ticks / node_ticks, 6
            ),
            "worst_node_debt_wh": round(
                float(self._slo_debt_ws.max()) / 3600.0, 4
            ),
            "rebalances_evaluated": len(self._rebalances),
            "rebalances_applied": len(applied),
            "escalations": {
                name: int(lv.escalations)
                for name, lv in self._levels.items()
            },
            "max_escalation_level": {
                name: int(lv.level.max())
                for name, lv in self._levels.items()
            },
        }
        if self._health is not None:
            hs = self._health.summary()
            summary["health"] = {
                "mean_headroom_w": round(hs["mean_headroom_w"], 3),
                "mean_capfloor_frac": round(
                    hs["mean_capfloor_frac"], 6
                ),
                "mean_slo_debt_rate_w": round(
                    hs["mean_slo_debt_rate_w"], 3
                ),
                "max_escalation_level": hs["max_escalation_level"],
            }
        params = {
            "strategy": self._strategy.value,
            "budget_w": self.budget_w,
            "dt_s": self.dt_s,
            "rebalance_every": self._rebalance_every,
            "rebalance_threshold_w": self._threshold,
            "slo_slack_w": self._slo_slack_w,
            "seed": self._seed,
            "escalation": (
                self._escalation.to_dict() if self._escalation else None
            ),
            "traffic": self._traffic.describe(),
        }
        trajectory = None
        if self._traj is not None:
            trajectory = {
                key: [
                    (None if row is None else np.asarray(row))
                    for row in rows
                ]
                for key, rows in self._traj.items()
            }
        from .. import __version__

        provenance = {
            "schema": 1,
            "package_version": __version__,
            "git": git_describe(),
            "engine": "repro.fleet",
            "topology": t.to_dict(),
            **params,
        }
        return FleetResult(
            topology=t.to_dict(),
            params=params,
            ticks=ticks,
            dt_s=self.dt_s,
            timelines=dict(self._channels),
            rebalances=list(self._rebalances),
            summary=summary,
            provenance=provenance,
            trajectory=trajectory,
            phenomena=list(phenomena or []),
        )
