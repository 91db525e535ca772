"""fleet-100k: the vectorized fleet engine at 99,840 nodes, one control tick per operation.

The grid of ``scripts/bench_fleet.py`` (390 rows x 8 racks x 32 nodes),
bursty traffic, ``priority`` division every 5 ticks and cascading
escalation, with telemetry and health left at their defaults (on),
driven through ``FleetEngine.run`` as the CLI's ``fleet`` command does.
Every fleet layer and the telemetry channels work on every tick; the
node simulator and the service do none.  Each run of the engine is a
fresh engine on the benchmark's seed, so every run's summary must match.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import List

from repro.dcm.group import DivisionStrategy
from repro.fleet import EscalationConfig, FleetEngine, FleetTopology, make_traffic

from .common import (
    Calibration,
    Tally,
    end_to_end,
    freeze_setup_state,
    keep_going,
    own_peak_rss_mb,
    percentile,
    result,
    samples_needed,
    settle_memory,
)
from .layers import SELF_MS, install_fleet_layers, per_layer_metrics
from .spans import Analyzed, Tracer, check_layer_sum, write_chrome_trace

ROWS, RACKS_PER_ROW, NODES_PER_RACK = 390, 8, 32
TICKS_PER_RUN = 200
WARMUP_TICKS = 20
SETUPS = 3
#: Summary fields that hold wall-clock readings rather than results.
WALL_FIELDS = ("wall_s", "node_steps_per_s")


def engine(topology: FleetTopology, seed: int) -> FleetEngine:
    """The CLI's ``fleet --traffic bursty --strategy priority --escalation`` engine."""
    return FleetEngine(
        topology,
        make_traffic("bursty"),
        budget_w=0.8 * float(topology.max_cap_w.sum()),
        strategy=DivisionStrategy.PRIORITY,
        rebalance_every=5,
        escalation=EscalationConfig(),
        seed=seed,
    )


def _summary(res) -> dict:
    return {k: v for k, v in res.summary.items() if k not in WALL_FIELDS}


def run(ctx) -> dict:
    tally, calib = Tally(), Calibration()
    tracer = Tracer() if ctx.trace else None

    setups = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        topology = FleetTopology.build(
            rows=ROWS, racks_per_row=RACKS_PER_ROW, nodes_per_rack=NODES_PER_RACK
        )
        engine(topology, ctx.seed).run(float(WARMUP_TICKS))
        setups.append(time.perf_counter() - t0)
    n_nodes = topology.n_nodes

    needed = 2 * samples_needed(50) if ctx.trace else samples_needed(90)
    ticks: List[float] = []
    traced_ticks: List[float] = []
    untraced_ticks: List[float] = []
    run_walls: List[float] = []
    counts = {"rebalances": 0, "escalations": 0, "runs": 0}
    reference = None
    freeze_setup_state()
    t_start = time.perf_counter()
    while keep_going(t_start, ctx.seconds, len(ticks), needed):
        traced = tracer is not None and len(run_walls) % 2 == 0
        res = eng = None  # so the previous engine run is collected too
        settle_memory()
        eng = engine(topology, ctx.seed)
        step = eng.step
        if traced:
            install_fleet_layers(tracer)
            step = tracer.wrap(step, "fleet.engine:step")
        run_ticks: List[float] = []
        clock = time.perf_counter

        def timed_step(step=step, out=run_ticks):
            t0 = clock()
            step()
            out.append(clock() - t0)

        eng.step = timed_step
        t0 = time.perf_counter()
        res = eng.run(float(TICKS_PER_RUN))
        run_walls.append(time.perf_counter() - t0)
        if traced:
            tracer.restore()
            traced_ticks.extend(run_ticks)
            counts["rebalances"] += res.summary["rebalances_applied"]
            counts["escalations"] += sum(res.summary["escalations"].values())
            counts["runs"] += 1
        else:
            untraced_ticks.extend(run_ticks)
        ticks.extend(run_ticks)
        summary = _summary(res)
        reference = reference or summary
        if summary != reference:
            tally.fail("run summary differs from the first run of this seed", len(run_ticks))
        elif not summary["served_wh"] <= summary["demand_wh"]:
            tally.fail("served_wh exceeds demand_wh", len(run_ticks))
        else:
            tally.ok(len(run_ticks))
        calib.sample()
    t_end = time.perf_counter()
    ctx.summary.update(
        ops=len(ticks),
        runs=len(run_walls),
        nodes=n_nodes,
        ticks_per_run=TICKS_PER_RUN,
        work_per_run={k: reference[k] for k in ("rebalances_applied", "escalations", "served_wh")},
        setup_samples_s=setups,
        calibration=calib.summary(),
        failures=dict(tally.reasons),
    )

    if not ctx.trace:
        return result(
            tally,
            end_to_end(
                {
                    # Median over the engine runs, each run's node-steps/s.
                    "throughput_per_s": statistics.median(
                        n_nodes * TICKS_PER_RUN / w for w in run_walls
                    ),
                    "latency_p50_ms": percentile(ticks, 50) * 1e3,
                    "latency_p90_ms": percentile(ticks, 90) * 1e3,
                    "setup_s": statistics.median(setups),
                    "peak_rss_mb": own_peak_rss_mb(),
                }
            ),
        )

    analyzed = Analyzed(tracer.spans)
    timed = (t_start, t_end)
    layer = analyzed.layer_self_s(timed)
    n = len(traced_ticks)

    def per_tick_ms(name):
        return layer[name] * 1e3 / n if name in layer else None

    values = {
        "fleet.engine.self_ms": per_tick_ms("fleet.engine"),
        "fleet.engine.rebalances": counts["rebalances"] / counts["runs"],
        "fleet.engine.escalations": counts["escalations"] / counts["runs"],
        "fleet.traffic.self_ms": per_tick_ms("fleet.traffic"),
        "fleet.division.self_ms": per_tick_ms("fleet.division"),
        "fleet.division.calls": len(analyzed.calls("fleet.division:divide_groups", timed)) / n or None,
        "fleet.health.self_ms": per_tick_ms("fleet.health"),
        "obs.timeseries.self_ms": per_tick_ms("obs.timeseries"),
        "obs.timeseries.samples": len(analyzed.calls("obs.timeseries:add", timed)) / n or None,
        "trace.overhead_pct": (statistics.median(traced_ticks) / statistics.median(untraced_ticks) - 1.0) * 100.0,
    }
    check_layer_sum(values, SELF_MS["fleet-100k"], statistics.fmean(traced_ticks) * 1e3)
    write_chrome_trace(
        ctx.trace_dir / f"fleet-100k-seed{ctx.seed}.json",
        [(os.getpid(), "perfbench fleet-100k", tracer.spans)],
    )
    return result(tally, per_layer_metrics("fleet-100k", values))
