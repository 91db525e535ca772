"""The fleet engine: stepping, budget tree, hysteresis, escalation,
SLO accounting, telemetry, determinism, the real-time floor."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.dcm.group import DivisionStrategy
from repro.errors import ConfigError, PolicyError
from repro.fleet import (
    DiurnalTraffic,
    EscalationConfig,
    FlatTraffic,
    FleetEngine,
    FleetTopology,
    ReplayTraffic,
)
from repro.fleet.division import group_reduce


def small_topo(nodes_per_rack=4, racks_per_row=2, rows=2):
    return FleetTopology.build(
        rows=rows, racks_per_row=racks_per_row,
        nodes_per_rack=nodes_per_rack,
    )


def make_engine(topo=None, **kwargs):
    topo = topo or small_topo()
    kwargs.setdefault("budget_w", 0.8 * float(topo.max_cap_w.sum()))
    kwargs.setdefault("telemetry", True)
    return FleetEngine(topo, kwargs.pop("traffic", FlatTraffic()), **kwargs)


class TestValidation:
    def test_bad_parameters_rejected(self):
        topo = small_topo()
        with pytest.raises(PolicyError):
            make_engine(topo, budget_w=0.0)
        with pytest.raises(ConfigError):
            make_engine(topo, dt_s=0.0)
        with pytest.raises(ConfigError):
            make_engine(topo, rebalance_every=0)
        with pytest.raises(PolicyError):
            make_engine(topo, rebalance_threshold_w=-1.0)
        with pytest.raises(ConfigError):
            make_engine(topo).run(0.0)
        with pytest.raises(ConfigError):
            EscalationConfig(step_frac=0.0)
        with pytest.raises(ConfigError):
            EscalationConfig(step_frac=0.3, max_level=4)


class TestStepping:
    def test_caps_respect_budget_tree(self):
        topo = small_topo()
        engine = make_engine(topo, rebalance_every=1)
        result = engine.run(10.0)
        assert result.trajectory is None  # not requested
        # Re-run with trajectory to inspect the armed caps.
        engine = make_engine(topo, rebalance_every=1,
                             record_trajectory=True)
        result = engine.run(10.0)
        caps = result.trajectory["applied_w"][-1]
        assert np.isfinite(caps).all()
        assert caps.sum() <= engine.budget_w + 1e-6
        rack_caps = group_reduce(caps, topo.rack_ptr)
        assert np.all(rack_caps <= engine.budget_w)

    def test_power_never_exceeds_armed_cap(self):
        topo = small_topo()
        engine = make_engine(topo, rebalance_every=1,
                             record_trajectory=True)
        result = engine.run(10.0)
        # Power at tick k is served under the caps armed *before* the
        # tick (the trajectory stores post-rebalance caps), so compare
        # against the previous tick's entry.
        caps_before = result.trajectory["applied_w"][:-1]
        powers = result.trajectory["power_w"][1:]
        for caps, power in zip(caps_before, powers):
            assert np.all(power <= caps + 1e-9)

    def test_first_rebalance_always_applies(self):
        engine = make_engine(rebalance_every=1)
        result = engine.run(3.0)
        assert result.rebalances[0].applied
        assert result.rebalances[0].max_delta_w == float("inf")

    def test_hysteresis_skips_small_moves(self):
        topo = small_topo()
        # Constant demand: after the first division nothing moves.
        schedule = np.full((20, topo.n_nodes), 150.0)
        engine = make_engine(topo, traffic=ReplayTraffic(schedule),
                             rebalance_every=1, rebalance_threshold_w=5.0)
        result = engine.run(20.0)
        applied = [r for r in result.rebalances if r.applied]
        assert len(applied) == 1

    def test_rebalance_cadence(self):
        engine = make_engine(rebalance_every=5)
        result = engine.run(20.0)
        assert len(result.rebalances) == 4  # ticks 0, 5, 10, 15

    def test_reset_gives_a_fresh_run(self):
        engine = make_engine(rebalance_every=1, seed=9)
        first = engine.run(5.0)
        engine.reset()
        # Traffic RNG is not reset (it lives in the model), so compare
        # structural state only: the cap arrays start disarmed again.
        assert not np.isfinite(engine._applied_cap_w).any()
        second = engine.run(5.0)
        assert second.ticks == first.ticks

    def test_same_seed_same_result(self):
        r1 = make_engine(seed=42, rebalance_every=1).run(8.0)
        r2 = make_engine(seed=42, rebalance_every=1).run(8.0)
        assert r1.summary["served_wh"] == r2.summary["served_wh"]
        assert r1.summary["slo_attainment"] == r2.summary["slo_attainment"]


class TestRealTimeFloor:
    def test_100k_nodes_step_at_1m_node_steps_per_s(self):
        """The "simulated datacenter in real time" contract: 99,840
        nodes at 10 control ticks per wall-clock second, or 1M
        node-steps/s.  A floor, not a benchmark: the engine runs about
        20x faster on a 2-core x86 host."""
        topo = FleetTopology.build(
            rows=390, racks_per_row=8, nodes_per_rack=32
        )
        ticks = 40
        best_s = float("inf")
        for _ in range(2):
            engine = FleetEngine(
                topo,
                DiurnalTraffic(),
                budget_w=0.8 * float(topo.max_cap_w.sum()),
                strategy=DivisionStrategy.PROPORTIONAL,
                rebalance_every=5,
                telemetry=False,
            )
            t0 = time.perf_counter()
            engine.run(float(ticks))
            best_s = min(best_s, time.perf_counter() - t0)
        rate = topo.n_nodes * ticks / best_s
        assert topo.n_nodes == 99_840
        assert rate >= 1e6, f"{rate:,.0f} node-steps/s"


class TestSloAccounting:
    def test_ample_budget_full_attainment(self):
        topo = small_topo()
        engine = make_engine(topo, budget_w=float(topo.max_cap_w.sum()))
        result = engine.run(10.0)
        assert result.summary["slo_attainment"] == 1.0
        assert result.summary["throughput_attainment"] == pytest.approx(1.0)

    def test_starved_budget_builds_debt(self):
        topo = small_topo()
        n = topo.n_nodes
        schedule = np.full((10, n), 195.0)  # near-peak demand
        engine = make_engine(
            topo,
            traffic=ReplayTraffic(schedule),
            budget_w=float(topo.min_cap_w.sum()),  # bare minimum
            rebalance_every=1,
        )
        result = engine.run(10.0)
        assert result.summary["slo_attainment"] < 0.5
        assert result.summary["throughput_attainment"] < 0.85
        assert result.summary["worst_node_debt_wh"] > 0


class TestEscalation:
    def test_breach_escalates_and_forces_rebalance(self):
        topo = small_topo()
        n = topo.n_nodes
        # An infeasible budget: 93% of the sum of minimum caps.  Every
        # division floors the caps at the minima, so the fleet draws
        # the full minimum power — above the datacenter budget — until
        # escalation pushes the cap floors below the configured minimum
        # (emergency throttling).
        schedule = np.full((30, n), 200.0)
        budget = 0.93 * float(topo.min_cap_w.sum())
        engine = make_engine(
            topo,
            traffic=ReplayTraffic(schedule),
            budget_w=budget,
            rebalance_every=1,
            escalation=EscalationConfig(
                patience_ticks=2,
                over_tolerance_frac=0.01,
                release_ticks=50,  # no release inside this run
            ),
            record_trajectory=True,
        )
        result = engine.run(30.0)
        assert sum(result.summary["escalations"].values()) > 0
        forced = [r for r in result.rebalances if r.forced_by_escalation]
        assert forced
        assert max(result.summary["max_escalation_level"].values()) >= 1
        # Escalation actually restored compliance: the final tick's
        # fleet power fits the (tolerance-padded) budget.
        final_power = float(result.trajectory["power_w"][-1].sum())
        assert final_power <= budget * 1.01 + 1e-6
        # And the throttled caps dropped below the configured minimum.
        final_caps = result.trajectory["applied_w"][-1]
        assert float(final_caps.min()) < float(topo.min_cap_w.min())

    def test_no_escalation_without_config(self):
        engine = make_engine(rebalance_every=1)
        result = engine.run(10.0)
        assert sum(result.summary["escalations"].values()) == 0


class TestTelemetry:
    def test_fleet_and_row_channels_recorded(self):
        topo = small_topo(rows=2)
        engine = make_engine(topo, rebalance_every=1)
        result = engine.run(10.0)
        for name in ("fleet_power_w", "fleet_demand_w", "fleet_cap_w",
                     "fleet_shortfall_w", "slo_attainment",
                     "latency_inflation", "row0_power_w", "row1_power_w"):
            assert name in result.timelines
            assert len(result.timelines[name]) == 10
        rows_sum = (
            result.timelines["row0_power_w"].integral()
            + result.timelines["row1_power_w"].integral()
        )
        assert rows_sum == pytest.approx(
            result.timelines["fleet_power_w"].integral(), rel=1e-9
        )

    def test_telemetry_off_records_nothing(self):
        engine = make_engine(telemetry=False)
        result = engine.run(5.0)
        assert result.timelines == {}


class TestResultDocument:
    def test_to_dict_is_json_ready(self):
        import json

        result = make_engine(rebalance_every=2).run(6.0)
        doc = json.loads(json.dumps(result.to_dict()))
        assert doc["summary"]["nodes"] == 16
        assert doc["provenance"]["engine"] == "repro.fleet"
        assert doc["params"]["traffic"]["type"] == "flat"
        assert "fleet_power_w" in doc["timelines"]

    def test_summary_counts_the_run(self):
        result = make_engine().run(4.0)
        summary = result.summary
        assert summary["ticks"] == 4
        assert summary["node_steps"] == 4 * 16
        assert summary["rebalances_applied"] == sum(
            1 for r in result.rebalances if r.applied
        )
