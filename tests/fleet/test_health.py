"""Fleet health rollups and the fleet-level detectors.

Unit-level: `FleetHealth.observe_tick` arithmetic, the per-rack
channel gate, and each detector against synthetic inputs pinned right
at its thresholds.  Integration: engine runs whose budgets are
constructed to trip (or provably not trip) each phenomenon, and the
no-perturbation contract — health rollups cannot change what the
simulation computes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fleet import FleetEngine, FleetTopology, FlatTraffic, ReplayTraffic
from repro.fleet.engine import FleetRebalance
from repro.fleet.health import (
    HEALTH_CHANNELS,
    MAX_RACK_CHANNELS,
    STARVATION_MIN_FRACTION,
    THRASH_MIN_APPLIED,
    FleetHealth,
    detect_budget_thrash,
    detect_slo_debt_runaway,
    detect_waterfill_starvation,
)
from repro.obs.timeseries import SeriesChannel


def small_topo(nodes_per_rack=2, racks_per_row=2, rows=1):
    return FleetTopology.build(
        rows=rows, racks_per_row=racks_per_row,
        nodes_per_rack=nodes_per_rack,
    )


def observe(health, *, rack_alloc, rack_power, applied, shortfall,
            time_s=0.0, max_level=0):
    """One observe_tick call with the bookkeeping args filled in.

    Specified per rack for readability; node power is spread evenly
    within each rack (observe_tick reduces it back at flush time).
    """
    topo = health._topo
    applied = np.asarray(applied, dtype=np.float64)
    shortfall = np.asarray(shortfall, dtype=np.float64)
    rack_power = np.asarray(rack_power, dtype=np.float64)
    nodes_per_rack = np.diff(topo.rack_ptr)
    power = np.repeat(rack_power / nodes_per_rack, nodes_per_rack)
    return health.observe_tick(
        time_s=time_s,
        dt_s=1.0,
        power_sum=float(rack_power.sum()),
        power=power,
        applied_cap_w=applied,
        floor_w=topo.min_cap_w,
        shortfall=shortfall,
        shortfall_sum=float(shortfall.sum()),
        slo_slack_w=1.0,
        rack_alloc=(
            np.asarray(rack_alloc, dtype=np.float64)
            if rack_alloc is not None else None
        ),
        fleet_budget_w=500.0,
        max_level=max_level,
    )


class TestRollups:
    def test_observe_tick_rollup_values(self):
        topo = small_topo()  # 2 racks x 2 nodes, floors at 110 W
        health = FleetHealth(topo, capacity=64)
        observe(
            health,
            rack_alloc=[250.0, 250.0],
            rack_power=[240.0, 230.0],
            applied=[110.0, 150.0, 110.0, 150.0],  # 2 of 4 at the floor
            shortfall=[50.0, 0.0, 0.0, 0.0],
        )
        s = health.summary()
        assert s["mean_headroom_w"] == pytest.approx(30.0)
        assert s["mean_capfloor_frac"] == pytest.approx(0.5)
        assert s["mean_slo_debt_rate_w"] == pytest.approx(50.0)
        assert s["max_escalation_level"] == 0

    def test_headroom_falls_back_to_budget_before_first_division(self):
        health = FleetHealth(small_topo(), capacity=64)
        observe(
            health,
            rack_alloc=None,
            rack_power=[200.0, 200.0],
            applied=[np.inf] * 4,   # nothing armed yet
            shortfall=[0.0] * 4,
        )
        s = health.summary()
        assert s["mean_headroom_w"] == pytest.approx(500.0 - 400.0)
        assert s["mean_capfloor_frac"] == 0.0  # unarmed caps never pin
        # Per-rack channels stayed silent for the unallocated tick.
        assert len(health.channels["rack0_headroom_w"].points()) == 0

    def test_summary_means_and_starved_fractions(self):
        topo = small_topo()
        health = FleetHealth(topo, capacity=64)
        # Node 0 starves (floor-pinned + shortfall) on 2 of 4 ticks.
        for i in range(4):
            observe(
                health,
                rack_alloc=[250.0, 250.0],
                rack_power=[200.0, 200.0],
                applied=[110.0, 150.0, 150.0, 150.0],
                shortfall=[30.0 if i < 2 else 0.0, 0.0, 0.0, 0.0],
                time_s=float(i),
                max_level=i,
            )
        s = health.summary()
        assert s["mean_headroom_w"] == pytest.approx(100.0)
        assert s["mean_capfloor_frac"] == pytest.approx(0.25)
        assert s["mean_slo_debt_rate_w"] == pytest.approx(15.0)
        assert s["max_escalation_level"] == 3
        np.testing.assert_allclose(
            health.starved_fractions(), [0.5, 0.0, 0.0, 0.0]
        )

    def test_channels_record_every_tick(self):
        health = FleetHealth(small_topo(), capacity=64)
        for i in range(3):
            observe(
                health,
                rack_alloc=[250.0, 250.0],
                rack_power=[240.0, 230.0],
                applied=[150.0] * 4,
                shortfall=[0.0] * 4,
                time_s=float(i),
            )
        for name, _unit in HEALTH_CHANNELS:
            assert len(health.channels[name].points()) == 3
        assert health.channels["rack1_headroom_w"].points()[0].mean == 20.0

    def test_rack_channels_gated_above_64_racks(self):
        wide = FleetTopology.build(
            rows=1, racks_per_row=MAX_RACK_CHANNELS + 1, nodes_per_rack=1
        )
        health = FleetHealth(wide, capacity=16)
        assert not any(k.startswith("rack") for k in health.channels)
        # The four fleet-level channels are always present.
        assert len(health.channels) == len(HEALTH_CHANNELS)


def rebalances(applied, skipped, forced=0):
    recs = [
        FleetRebalance(float(i), True, 10.0)
        for i in range(applied - forced)
    ]
    recs += [
        FleetRebalance(float(100 + i), True, 0.0, forced_by_escalation=True)
        for i in range(forced)
    ]
    recs += [
        FleetRebalance(float(200 + i), False, 0.0) for i in range(skipped)
    ]
    return recs


class TestDetectBudgetThrash:
    def test_fires_on_high_apply_rate(self):
        det = detect_budget_thrash(rebalances(15, 5, forced=2), 1000.0)
        assert det is not None and det.phenomenon == "budget_thrash"
        assert det.detail["applied"] == 15.0
        assert det.detail["evaluated"] == 20.0
        assert det.detail["apply_rate"] == pytest.approx(0.75)
        assert det.detail["forced_by_escalation"] == 2.0

    def test_quiet_below_either_threshold(self):
        assert detect_budget_thrash([], 1000.0) is None
        # Rate high but too few applied to matter.
        few = rebalances(THRASH_MIN_APPLIED - 1, 0)
        assert detect_budget_thrash(few, 1000.0) is None
        # Plenty applied but the tree mostly settled.
        settled = rebalances(12, 20)
        assert detect_budget_thrash(settled, 1000.0) is None

    def test_exact_boundary_fires(self):
        det = detect_budget_thrash(rebalances(10, 10), 1000.0)
        assert det is not None  # >= on both thresholds


class TestDetectWaterfillStarvation:
    def test_fires_and_counts_starved_nodes(self):
        fracs = np.array([0.9, 0.5, 0.4, 0.0])
        det = detect_waterfill_starvation(fracs, 1000.0, ticks=100)
        assert det is not None and det.phenomenon == "waterfill_starvation"
        assert det.detail["starved_nodes"] == 2.0  # >= threshold counts
        assert det.detail["starved_node_frac"] == pytest.approx(0.5)
        assert det.detail["worst_starved_fraction"] == pytest.approx(0.9)

    def test_quiet_cases(self):
        below = np.full(8, STARVATION_MIN_FRACTION - 0.01)
        assert detect_waterfill_starvation(below, 1000.0, ticks=100) is None
        assert detect_waterfill_starvation(
            np.array([1.0]), 1000.0, ticks=0
        ) is None
        assert detect_waterfill_starvation(
            np.array([]), 1000.0, ticks=100
        ) is None


def debt_channel(rates):
    ch = SeriesChannel("health_slo_debt_rate_w", "W", capacity=256)
    for i, rate in enumerate(rates):
        ch.add(float(i), 1.0, float(rate))
    return ch


class TestDetectSloDebtRunaway:
    def test_fires_on_growing_rate(self):
        det = detect_slo_debt_runaway(
            debt_channel([10.0] * 4 + [20.0] * 8 + [30.0] * 4), 1000.0
        )
        assert det is not None and det.phenomenon == "slo_debt_runaway"
        assert det.detail["head_rate_w"] == pytest.approx(10.0)
        assert det.detail["tail_rate_w"] == pytest.approx(30.0)
        assert det.detail["growth"] == pytest.approx(3.0)

    def test_needs_at_least_eight_points(self):
        assert detect_slo_debt_runaway(
            debt_channel([0.0] * 3 + [100.0] * 4), 1000.0
        ) is None

    def test_settled_rate_is_quiet(self):
        assert detect_slo_debt_runaway(
            debt_channel([40.0] * 16), 1000.0
        ) is None
        # Falling debt is a healthy fleet, not a runaway.
        assert detect_slo_debt_runaway(
            debt_channel(list(range(50, 10, -2))), 1000.0
        ) is None

    def test_zero_head_rate_requires_real_tail_accrual(self):
        # Quiet start, real accrual late: fires with sentinel growth.
        det = detect_slo_debt_runaway(
            debt_channel([0.0] * 8 + [50.0] * 8), 1000.0
        )
        assert det is not None
        assert det.detail["growth"] == -1.0  # inf sentinel
        # Quiet start, negligible tail: noise, not a phenomenon.
        assert detect_slo_debt_runaway(
            debt_channel([0.0] * 8 + [0.5] * 8), 1000.0
        ) is None


class TestEngineIntegration:
    def test_health_summary_and_channels_on_by_default(self):
        engine = FleetEngine(
            small_topo(), FlatTraffic(), budget_w=600.0
        )
        result = engine.run(10.0)
        assert "health" in result.summary
        hs = result.summary["health"]
        assert set(hs) == {
            "mean_headroom_w", "mean_capfloor_frac",
            "mean_slo_debt_rate_w", "max_escalation_level",
        }
        for name, _unit in HEALTH_CHANNELS:
            assert name in result.timelines
        doc = result.to_dict()
        assert "health_headroom_w" in doc["timeline_channels"]
        assert isinstance(doc["phenomena"], list)

    def test_telemetry_off_means_no_health(self):
        engine = FleetEngine(
            small_topo(), FlatTraffic(), budget_w=600.0, telemetry=False
        )
        result = engine.run(10.0)
        assert "health" not in result.summary
        assert result.timelines == {}
        assert result.phenomena == []

    def test_health_pinned_on_with_telemetry_off(self):
        engine = FleetEngine(
            small_topo(), FlatTraffic(), budget_w=600.0,
            telemetry=False, health=True,
        )
        result = engine.run(10.0)
        assert "health" in result.summary
        assert "health_headroom_w" in result.timelines
        assert "fleet_power_w" not in result.timelines

    def test_health_cannot_perturb_the_simulation(self):
        def run(health):
            engine = FleetEngine(
                small_topo(), FlatTraffic(), budget_w=600.0,
                seed=7, health=health,
            )
            return engine.run(20.0)

        on, off = run(True), run(False)
        # Wall-clock throughput fields legitimately differ run to run.
        skip = {"health", "wall_s", "node_steps_per_s"}
        core_on = {k: v for k, v in on.summary.items() if k not in skip}
        core_off = {k: v for k, v in off.summary.items() if k not in skip}
        assert core_on == core_off
        assert len(on.rebalances) == len(off.rebalances)
        for a, b in zip(on.rebalances, off.rebalances):
            assert a == b

    def test_starvation_fires_on_infeasible_budget(self):
        topo = small_topo(nodes_per_rack=4)  # 8 nodes, floors 110 W
        demand = np.full((1, topo.n_nodes), 195.0)
        engine = FleetEngine(
            topo, ReplayTraffic(demand),
            budget_w=0.5 * float(topo.min_cap_w.sum()),  # infeasible
        )
        result = engine.run(30.0)
        names = {d.phenomenon for d in result.phenomena}
        assert "waterfill_starvation" in names
        det = next(
            d for d in result.phenomena
            if d.phenomenon == "waterfill_starvation"
        )
        assert det.workload == "fleet"
        assert det.detail["starved_node_frac"] == 1.0

    def test_runaway_fires_on_ramping_demand(self):
        topo = small_topo(nodes_per_rack=4)
        ramp = np.linspace(110.0, 200.0, 40)
        demand = np.repeat(ramp[:, None], topo.n_nodes, axis=1)
        engine = FleetEngine(
            topo, ReplayTraffic(demand),
            budget_w=0.9 * float(topo.min_cap_w.sum()),
        )
        result = engine.run(40.0)
        names = {d.phenomenon for d in result.phenomena}
        assert "slo_debt_runaway" in names

    def test_thrash_fires_with_zero_threshold_oscillation(self):
        topo = small_topo(nodes_per_rack=4)
        # Demand must keep *redistributing across nodes* — uniform
        # oscillation leaves the proportional shares identical and the
        # tree never moves.  Swap halves of the fleet every tick.
        rows = np.empty((30, topo.n_nodes))
        half = topo.n_nodes // 2
        rows[0::2, :half], rows[0::2, half:] = 120.0, 190.0
        rows[1::2, :half], rows[1::2, half:] = 190.0, 120.0
        engine = FleetEngine(
            topo, ReplayTraffic(rows),
            budget_w=0.8 * float(topo.max_cap_w.sum()),
            rebalance_threshold_w=0.0,
        )
        result = engine.run(30.0)
        names = {d.phenomenon for d in result.phenomena}
        assert "budget_thrash" in names

    def test_feasible_flat_fleet_stays_quiet(self):
        engine = FleetEngine(
            small_topo(), FlatTraffic(utilization=0.5),
            budget_w=float(small_topo().max_cap_w.sum()),
            seed=3,
        )
        result = engine.run(30.0)
        assert result.phenomena == []

