"""Command-line interface: ``repro-powercap`` / ``python -m repro``.

Subcommands map one-to-one onto the paper's experiments:

- ``baseline``    — Table I (uncapped power and time for both apps);
- ``sweep``       — Table II rows for one workload across caps;
- ``stride``      — the Figure 3/4 stride microbenchmark grid;
- ``amenability`` — the future-work characterisation (knee, cap range);
- ``predict``     — predict cap impact from baseline counters alone;
- ``multicore``   — core-count x cap scaling (future work #1);
- ``detect``      — identify the active mechanisms at a cap (#2);
- ``fleet``       — vectorized fleet-scale DCM simulation (budget
  tree, traffic model, throughput/SLO attainment; docs/FLEET.md);
- ``serve``       — the long-lived experiment service (HTTP API, job
  queue, persistent SQLite result store, ``/metrics``);
- ``inspect``     — show the provenance manifest of a result file or a
  stored service job (``--format json`` for machine-readable output;
  fleet run documents get a dedicated provenance/health block);
- ``timeline``    — render the telemetry timelines recorded during a
  sweep or a saved fleet run (summaries, ``--ascii`` sparklines, or
  ``--csv``);
- ``top``         — live ASCII dashboard over a running service's
  ``/metrics`` + ``/healthz`` (queue, workers, rate cache, stream
  bus, fleet health, detections);
- ``trends``      — regression trends over the observability archive's
  run history (median-shift per series against a named baseline,
  ASCII sparklines, ``--check`` to fail on drift, ``--ingest`` to append
  BENCH_sweep.json documents);
- ``compare``     — per-series deltas between two archived runs.

All subcommands accept ``--scale`` to shrink the instruction budgets
(the shape is scale-invariant; see DESIGN.md §5) and ``--seed`` for
reproducibility.  ``sweep`` and ``baseline`` take ``--format json``
for structured output that round-trips through
:mod:`repro.core.serialize` (the table stays the default).

Observability flags (global; see docs/OBSERVABILITY.md): ``--log-level``
and ``--log-json`` configure structured logging on stderr (overriding
``REPRO_LOG_LEVEL`` / ``REPRO_LOG_JSON``); ``--trace-out PATH`` records
every engine span — plus telemetry counter tracks — and writes a Chrome
``trace_event`` profile on exit; ``--telemetry-period`` /
``--no-telemetry`` control in-run telemetry sampling (overriding
``REPRO_TELEMETRY_PERIOD`` / ``REPRO_TELEMETRY``); ``--profile``
samples the process with the background profiler (overriding
``REPRO_PROFILE``; ``--profile-hz`` tunes the rate and
``--profile-out`` writes the JSON report).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import PAPER_POWER_CAPS_W
from .core.amenability import characterize_amenability
from .core.detector import TechniqueDetector
from .core.experiment import PowerCapExperiment, validate_caps
from .core.multicore import MultiCoreRunner
from .core.predictor import CapImpactPredictor
from .core.report import (
    render_stride_figure,
    render_table1,
    render_table2,
)
from .core.runner import NodeRunner
from .core.serialize import experiment_to_dict, extract_timelines
from .errors import ReproError
from .mem.reconfig import GatingState
from .obs.logging import configure_logging, get_logger
from .obs.profile import ProfileConfig, SamplingProfiler, profiling_enabled
from .obs.provenance import render_provenance
from .obs.timeseries import TelemetryConfig, timeline_from_dict
from .obs.tracing import span, start_tracing, stop_tracing
from .rng import DEFAULT_SEED
from .workloads import WORKLOAD_REGISTRY as _WORKLOADS
from .workloads import make_workload as _make_workload
from .workloads.stride import StrideBenchmark

__all__ = ["main", "build_parser"]

_log = get_logger("cli")


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-powercap",
        description=(
            "Reproduction of 'Evaluation of Core Performance when the "
            "Node is Power Capped using Intel Data Center Manager' "
            "(ICPPW 2012)"
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, help="experiment seed"
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=0.05,
        help="instruction-budget scale (1.0 = paper-calibrated budgets)",
    )
    parser.add_argument(
        "--rate-cache",
        default=os.environ.get("REPRO_RATE_CACHE"),
        help="path to a persistent miss-rate cache (JSON); defaults to "
        "the REPRO_RATE_CACHE environment variable",
    )
    parser.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error", "critical"),
        default=None,
        help="structured-log threshold on stderr (overrides "
        "REPRO_LOG_LEVEL; default warning)",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit logs as JSON lines instead of human-readable text "
        "(overrides REPRO_LOG_JSON)",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="record engine spans and write a Chrome trace_event "
        "profile (load in chrome://tracing or ui.perfetto.dev)",
    )
    parser.add_argument(
        "--telemetry-period",
        type=float,
        default=None,
        metavar="SECONDS",
        help="simulated seconds per telemetry timeline sample "
        "(overrides REPRO_TELEMETRY_PERIOD; default 0.25)",
    )
    parser.add_argument(
        "--no-telemetry",
        action="store_true",
        help="disable in-run telemetry timelines (simulation results "
        "are bit-identical either way)",
    )
    parser.add_argument(
        "--no-block-step",
        action="store_true",
        help="evaluate the control loop quantum by quantum instead of "
        "with the block-step kernel (overrides REPRO_BLOCK_STEP; "
        "results are bit-identical either way — see "
        "docs/PERFORMANCE.md)",
    )
    parser.add_argument(
        "--no-batch",
        action="store_true",
        help="run sweep tasks strictly one at a time instead of "
        "marching stable segments of many runs as one numpy batch "
        "(overrides REPRO_BATCH; results are bit-identical either "
        "way — see docs/PERFORMANCE.md)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="sample the process with the background profiler and log "
        "the phase/function report on exit (overrides REPRO_PROFILE; "
        "results are bit-identical either way)",
    )
    parser.add_argument(
        "--profile-hz",
        type=float,
        default=None,
        metavar="HZ",
        help="profiler sampling rate (overrides REPRO_PROFILE_HZ; "
        "default 97)",
    )
    parser.add_argument(
        "--profile-out",
        default=None,
        metavar="PATH",
        help="write the profiler's JSON report to PATH (implies "
        "--profile)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    baseline = sub.add_parser("baseline", help="Table I: uncapped baselines")
    baseline.add_argument(
        "--format",
        choices=("table", "json"),
        default="table",
        help="output format (json round-trips via repro.core.serialize)",
    )

    sweep = sub.add_parser("sweep", help="Table II: the cap sweep")
    sweep.add_argument(
        "--workload", choices=sorted(_WORKLOADS), default="stereo"
    )
    sweep.add_argument(
        "--caps",
        type=float,
        nargs="*",
        default=list(PAPER_POWER_CAPS_W),
        help="caps in Watts (default: the paper's nine)",
    )
    sweep.add_argument("--reps", type=int, default=1)
    sweep.add_argument(
        "--format",
        choices=("table", "json"),
        default="table",
        help="output format (json round-trips via repro.core.serialize)",
    )

    stride = sub.add_parser("stride", help="Figures 3/4: stride sweep")
    stride.add_argument(
        "--cap",
        type=float,
        default=None,
        help="enforce a cap during the sweep (Figure 4); default uncapped",
    )

    amen = sub.add_parser(
        "amenability", help="characterise amenability to capping"
    )
    amen.add_argument(
        "--workload", choices=sorted(_WORKLOADS), default="stereo"
    )
    amen.add_argument(
        "--tolerance",
        type=float,
        default=1.25,
        help="tolerable slowdown (1.25 = the paper's 25%% bound)",
    )
    amen.add_argument("--reps", type=int, default=1)

    predict = sub.add_parser(
        "predict", help="predict cap impact from baseline counters"
    )
    predict.add_argument(
        "--workload", choices=sorted(_WORKLOADS), default="stereo"
    )
    predict.add_argument(
        "--caps",
        type=float,
        nargs="*",
        default=list(PAPER_POWER_CAPS_W),
    )

    multicore = sub.add_parser(
        "multicore", help="core-count x cap scaling table"
    )
    multicore.add_argument(
        "--workload", choices=sorted(_WORKLOADS), default="stereo"
    )
    multicore.add_argument(
        "--cores", type=int, nargs="*", default=[1, 2, 4]
    )
    multicore.add_argument("--cap", type=float, default=None)

    detect = sub.add_parser(
        "detect", help="identify active power-management mechanisms"
    )
    detect.add_argument("--cap", type=float, required=True)

    figures = sub.add_parser(
        "figures", help="render Figures 1/2 as terminal charts"
    )
    figures.add_argument(
        "--workload", choices=sorted(_WORKLOADS), default="sire"
    )
    figures.add_argument("--reps", type=int, default=1)

    fleet = sub.add_parser(
        "fleet",
        help="vectorized fleet-scale DCM simulation (see docs/FLEET.md)",
    )
    fleet.add_argument(
        "--rows", type=int, default=2, help="datacenter rows"
    )
    fleet.add_argument(
        "--racks-per-row", type=int, default=4, help="racks per row"
    )
    fleet.add_argument(
        "--nodes-per-rack", type=int, default=32, help="nodes per rack"
    )
    fleet.add_argument(
        "--spec",
        default=None,
        metavar="PATH",
        help="JSON topology spec (rows/racks_per_row/nodes_per_rack/"
        "node_classes); overrides the shape flags",
    )
    fleet.add_argument(
        "--traffic",
        default="diurnal",
        help="traffic model: flat, diurnal, bursty, or a JSON object "
        "with a 'type' key and model knobs",
    )
    fleet.add_argument(
        "--budget-frac",
        type=float,
        default=0.8,
        help="fleet budget as a fraction of the sum of max caps "
        "(ignored when --budget-w is given)",
    )
    fleet.add_argument(
        "--budget-w",
        type=float,
        default=None,
        help="absolute fleet budget in Watts",
    )
    fleet.add_argument(
        "--strategy",
        choices=("equal", "proportional", "priority"),
        default="proportional",
        help="division strategy at every budget-tree level",
    )
    fleet.add_argument(
        "--duration", type=float, default=300.0, help="simulated seconds"
    )
    fleet.add_argument(
        "--dt", type=float, default=1.0, help="control tick in seconds"
    )
    fleet.add_argument(
        "--rebalance-every",
        type=int,
        default=5,
        help="budget-tree re-division cadence in ticks",
    )
    fleet.add_argument(
        "--threshold",
        type=float,
        default=5.0,
        help="rebalance hysteresis threshold in Watts",
    )
    fleet.add_argument(
        "--escalation",
        action="store_true",
        help="enable cascading cap escalation on group budget breaches",
    )
    fleet.add_argument(
        "--parity",
        action="store_true",
        help="also run the small-fleet parity check against the serial "
        "DCM stack and print the comparison table",
    )
    fleet.add_argument(
        "--format",
        choices=("table", "json"),
        default="table",
        help="output format (json emits the full run document)",
    )
    fleet.add_argument(
        "--archive",
        default=None,
        metavar="PATH",
        help="observability archive (SQLite) to record this run and its "
        "windowed health rollups into",
    )

    serve = sub.add_parser(
        "serve",
        help="run the experiment service (job queue + HTTP API + metrics)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=8080,
        help="listen port (0 = pick an ephemeral port and print it)",
    )
    serve.add_argument(
        "--workers", type=int, default=2, help="sweep worker threads"
    )
    serve.add_argument(
        "--db",
        default="repro-service.sqlite3",
        help="result store: a SQLite path (default), sqlite://PATH, or "
        "memory:// for an ephemeral in-process store",
    )
    serve.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        help="retry budget per job before it is marked FAILED",
    )
    serve.add_argument(
        "--archive",
        default=None,
        metavar="PATH",
        help="observability archive (SQLite): record periodic /metrics "
        "snapshots and per-run records, and serve /metrics/history + "
        "/runs/compare",
    )
    serve.add_argument(
        "--archive-period",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="wall seconds between archived metric snapshots",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=0,
        metavar="N",
        help="partitioned worker shard processes (>= 2; jobs route by "
        "consistent hashing over the spec digest, each shard owns a "
        "rate-cache partition; 0 = simulate in-process; single-core "
        "hosts fall back to in-process with a warning)",
    )
    serve.add_argument(
        "--admission-rate",
        type=float,
        default=200.0,
        metavar="JOBS_PER_S",
        help="per-client sustained submission rate before 429",
    )
    serve.add_argument(
        "--admission-burst",
        type=float,
        default=400.0,
        metavar="N",
        help="per-client submission burst allowance",
    )
    serve.add_argument(
        "--max-queue-depth",
        type=int,
        default=1024,
        metavar="N",
        help="queue depth beyond which submissions shed with 503",
    )

    inspect = sub.add_parser(
        "inspect",
        help="show the provenance manifest of a result file or stored job",
    )
    inspect.add_argument(
        "target",
        help="a result JSON file (from sweep/baseline --format json) or "
        "a service job id",
    )
    inspect.add_argument(
        "--db",
        default="repro-service.sqlite3",
        help="service store to resolve job ids against",
    )
    inspect.add_argument(
        "--format",
        choices=("table", "json"),
        default="table",
        help="output format (json gives machine-readable provenance "
        "plus timeline summaries)",
    )

    timeline = sub.add_parser(
        "timeline",
        help="render the telemetry timelines of a result file or stored "
        "job",
    )
    timeline.add_argument(
        "target",
        help="a result JSON file (from sweep/baseline --format json) or "
        "a service job id",
    )
    timeline.add_argument(
        "--db",
        default="repro-service.sqlite3",
        help="service store to resolve job ids against",
    )
    timeline.add_argument(
        "--channel",
        action="append",
        default=None,
        metavar="NAME",
        help="channel to include (repeatable; default: all channels)",
    )
    timeline.add_argument(
        "--cap",
        default=None,
        help="only the timeline at this cap in Watts, or 'baseline'",
    )
    timeline.add_argument(
        "--csv",
        action="store_true",
        help="emit CSV rows (workload,cap,channel,t_s,dt_s,mean,min,max)",
    )
    timeline.add_argument(
        "--ascii",
        action="store_true",
        help="render ASCII sparkline charts instead of summaries",
    )

    top = sub.add_parser(
        "top",
        help="live ASCII dashboard over a running service's /metrics",
    )
    top.add_argument(
        "--url",
        default="http://127.0.0.1:8080",
        help="base URL of the experiment service",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="refresh period",
    )
    top.add_argument(
        "--iterations",
        type=int,
        default=None,
        metavar="N",
        help="stop after N frames (default: run until interrupted)",
    )
    top.add_argument(
        "--once",
        action="store_true",
        help="render a single frame and exit (no repaint escapes)",
    )

    trends = sub.add_parser(
        "trends",
        help="regression trends over the archived run history "
        "(median-shift per series, sparklines; --check fails on drift)",
    )
    trends.add_argument(
        "--archive",
        default="repro-archive.sqlite3",
        metavar="PATH",
        help="observability archive to read (and --ingest into)",
    )
    trends.add_argument(
        "--ingest",
        action="append",
        default=None,
        metavar="PATH",
        help="BENCH_sweep.json document to append into the archive "
        "before analysing (repeatable)",
    )
    trends.add_argument(
        "--kind",
        default=None,
        help="restrict to one run kind (job, fleet, bench_sweep)",
    )
    trends.add_argument(
        "--series",
        action="append",
        default=None,
        metavar="NAME",
        help="series to analyse (repeatable; default: every recorded "
        "series)",
    )
    trends.add_argument(
        "--window",
        type=int,
        default=3,
        metavar="N",
        help="recent window: the median of the last N runs is compared "
        "against the baseline (or the earlier history's median)",
    )
    trends.add_argument(
        "--baseline",
        default=None,
        metavar="NAME",
        help="named baseline to compare against (default: the median "
        "of the history before the window)",
    )
    trends.add_argument(
        "--save-baseline",
        default=None,
        metavar="NAME",
        help="store the current recent medians as a named baseline "
        "and exit",
    )
    trends.add_argument(
        "--check",
        action="store_true",
        help="exit nonzero when any analysed series regressed",
    )
    trends.add_argument(
        "--format",
        choices=("table", "json"),
        default="table",
        help="output format",
    )

    compare = sub.add_parser(
        "compare",
        help="per-series deltas between two archived runs",
    )
    compare.add_argument("a", help="run id of the reference run")
    compare.add_argument("b", help="run id of the candidate run")
    compare.add_argument(
        "--archive",
        default="repro-archive.sqlite3",
        metavar="PATH",
        help="observability archive to read",
    )
    compare.add_argument(
        "--format",
        choices=("table", "json"),
        default="table",
        help="output format",
    )
    return parser


def _cmd_baseline(args) -> str:
    experiment = PowerCapExperiment(
        [_make_workload(n, args.scale) for n in sorted(_WORKLOADS)],
        caps_w=(),
        repetitions=1,
        seed=args.seed,
        rate_cache=args.rate_cache,
        telemetry=args.telemetry,
        block_step=args.block_step,
        batch=args.batch,
    )
    results = []
    for name in sorted(_WORKLOADS):
        workload = _make_workload(name, args.scale)
        results.append(experiment.run_workload(workload))
    if args.format == "json":
        return json.dumps(
            {r.workload: experiment_to_dict(r) for r in results},
            indent=2,
            sort_keys=True,
        )
    return render_table1(results)


def _cmd_sweep(args) -> str:
    workload = _make_workload(args.workload, args.scale)
    experiment = PowerCapExperiment(
        [workload],
        caps_w=validate_caps(args.caps),
        repetitions=args.reps,
        seed=args.seed,
        rate_cache=args.rate_cache,
        telemetry=args.telemetry,
        block_step=args.block_step,
        batch=args.batch,
    )
    result = experiment.run_workload(workload)
    if args.format == "json":
        return json.dumps(experiment_to_dict(result), indent=2, sort_keys=True)
    return render_table2(result)


def _cmd_stride(args) -> str:
    sizes = tuple(4 * 1024 * 4**i for i in range(7))
    strides = tuple(8 * 4**i for i in range(8))
    bench = StrideBenchmark(sizes=sizes, strides=strides, accesses_per_cell=3000)
    if args.cap is None:
        result = bench.run()
        title = "Stride microbenchmark, no power cap (ns) [Figure 3]"
    else:
        result = bench.run_capped(
            args.cap,
            np.random.default_rng(args.seed),
            cell_duration_s=0.5,
            settle_s=10.0,
        )
        title = f"Stride microbenchmark, {args.cap:.0f} W cap (ns) [Figure 4]"
    return render_stride_figure(result, title)


def _cmd_amenability(args) -> str:
    workload = _make_workload(args.workload, args.scale)
    experiment = PowerCapExperiment(
        [workload],
        caps_w=PAPER_POWER_CAPS_W,
        repetitions=args.reps,
        seed=args.seed,
        rate_cache=args.rate_cache,
        telemetry=args.telemetry,
        block_step=args.block_step,
        batch=args.batch,
    )
    result = experiment.run_workload(workload)
    report = characterize_amenability(result, tolerance_slowdown=args.tolerance)
    lines = [
        f"Amenability of {report.workload} "
        f"(tolerance x{report.tolerance_slowdown:.2f}):",
        "",
        f"{'cap (W)':>8} {'slowdown':>9} {'ok?':>4}",
    ]
    for cap, slowdown in report.slowdown_curve:
        ok = "yes" if cap in report.usable_caps_w else "no"
        lines.append(f"{cap:>8.0f} {slowdown:>9.2f} {ok:>4}")
    lines.append("")
    if report.knee_cap_w is not None:
        lines.append(
            f"Knee: {report.knee_cap_w:.0f} W "
            f"(headroom {report.headroom_w:.1f} W below uncapped draw)"
        )
    else:
        lines.append("No studied cap stays within the tolerance.")
    lines.append(f"Amenability score: {report.amenability_score:.2f}")
    return "\n".join(lines)


def _cmd_predict(args) -> str:
    workload = _make_workload(args.workload, args.scale)
    runner = NodeRunner(
        seed=args.seed,
        slice_accesses=200_000,
        rate_cache=args.rate_cache,
        block_step=args.block_step,
    )
    rates = runner.rates_for(workload, GatingState.ungated())
    predictor = CapImpactPredictor(runner.config)
    curve = predictor.predict_curve(rates, args.caps)
    lines = [
        f"Predicted cap impact for {workload.name} "
        "(from baseline counters only):",
        "",
        f"{'cap (W)':>8} {'regime':>13} {'freq (MHz)':>11} {'slowdown':>10}",
    ]
    for cap in sorted(curve, reverse=True):
        impact = curve[cap]
        bound = ">=" if impact.is_lower_bound else "  "
        lines.append(
            f"{cap:>8.0f} {impact.regime.value:>13} "
            f"{impact.predicted_freq_mhz:>11.0f} "
            f"{bound}{impact.predicted_slowdown:>8.2f}"
        )
    knee = predictor.knee_cap_w(rates, 1.25, args.caps)
    lines.append("")
    lines.append(
        f"Predicted knee (25% tolerance): "
        + (f"{knee:.0f} W" if knee else "none of the studied caps")
    )
    return "\n".join(lines)


def _cmd_multicore(args) -> str:
    workload_name = args.workload
    runner = MultiCoreRunner(seed=args.seed, slice_accesses=150_000)
    lines = [
        f"Multi-core scaling for {workload_name} "
        f"(cap: {'none' if args.cap is None else f'{args.cap:.0f} W'}):",
        "",
        f"{'cores':>6} {'time (s)':>9} {'power (W)':>10} {'freq (MHz)':>11} "
        f"{'Ginstr/s':>9} {'esc':>4} {'duty':>5}",
    ]
    for n in args.cores:
        workload = _make_workload(workload_name, args.scale)
        r = runner.run(workload, n, args.cap)
        lines.append(
            f"{n:>6} {r.execution_s:>9.2f} {r.avg_power_w:>10.1f} "
            f"{r.avg_freq_mhz:>11.0f} {r.throughput_ips / 1e9:>9.2f} "
            f"{r.max_escalation_level:>4} {r.min_duty:>5.2f}"
        )
    return "\n".join(lines)


def _cmd_detect(args) -> str:
    import numpy as np

    from .arch.node import Node
    from .bmc.controller import CapController
    from .bmc.sensors import PowerSensor
    from .workloads.microbench import MachineUnderTest

    node = Node()
    node.thermal.reset(38.0)
    controller = CapController(
        node, PowerSensor(np.random.default_rng(args.seed), noise_sigma_w=0.2)
    )
    controller.set_cap(args.cap)
    power = node.power_w()
    cmd = None
    for _ in range(1500):
        cmd = controller.update(power)
        p = [
            node.power_model.power_of_pstate(
                st, duty=cmd.duty, gating_saving_w=cmd.gating_saving_w,
                temperature_c=node.thermal.temperature_c,
            )
            for st in (cmd.pstate_fast, cmd.pstate_slow)
        ]
        power = cmd.alpha * p[0] + (1 - cmd.alpha) * p[1]
        node.thermal.step(power, 0.05)
    machine = MachineUnderTest(
        gating=cmd.gating, freq_hz=cmd.effective_freq_hz, duty=cmd.duty
    )
    report = TechniqueDetector(machine, seed=args.seed).detect(
        l2_footprints=(48 * 1024, 96 * 1024, 160 * 1024, 224 * 1024,
                       384 * 1024),
        l3_footprints=tuple(m * 1024 * 1024 for m in (3, 6, 10, 16)),
        itlb_page_counts=(8, 16, 32, 96, 128, 192),
    )
    return (
        f"Mechanisms at a {args.cap:.0f} W cap "
        f"(node settled at {power:.1f} W):\n" + report.summary()
    )


def _cmd_figures(args) -> str:
    from .core.ascii_plot import line_chart
    from .core.report import figure1_series, figure2_series

    workload = _make_workload(args.workload, args.scale)
    experiment = PowerCapExperiment(
        [workload],
        caps_w=PAPER_POWER_CAPS_W,
        repetitions=args.reps,
        seed=args.seed,
        rate_cache=args.rate_cache,
        telemetry=args.telemetry,
        block_step=args.block_step,
        batch=args.batch,
    )
    result = experiment.run_workload(workload)
    if args.workload == "sire":
        series = figure1_series(result)
        title = "Figure 1: SIRE/RSM, normalised (baseline + caps 160..120 W)"
        keys = ("PAPI_TLB_IM", "frequency", "time", "power", "energy")
    else:
        series = figure2_series(result)
        title = "Figure 2: Stereo Matching, normalised"
        keys = ("PAPI_L2_TCM", "PAPI_L3_TCM", "PAPI_TLB_IM",
                "frequency", "time", "energy")
    labels = [str(l) for l in series["labels"]]
    chart_series = {k: list(series[k]) for k in keys}
    return line_chart(chart_series, labels, title=title)


def _cmd_fleet(args) -> str:
    from .dcm.group import DivisionStrategy
    from .fleet import (
        EscalationConfig,
        FleetEngine,
        FleetTopology,
        format_fleet_summary,
        format_parity_table,
        make_traffic,
        run_parity,
    )

    if args.spec is not None:
        try:
            spec = json.loads(Path(args.spec).read_text())
        except (OSError, ValueError) as exc:
            raise ReproError(f"cannot read topology spec: {exc}") from exc
        topology = FleetTopology.from_spec(spec)
    else:
        topology = FleetTopology.build(
            rows=args.rows,
            racks_per_row=args.racks_per_row,
            nodes_per_rack=args.nodes_per_rack,
        )
    traffic_arg = args.traffic.strip()
    traffic_spec = (
        json.loads(traffic_arg) if traffic_arg.startswith("{") else traffic_arg
    )
    budget_w = (
        args.budget_w
        if args.budget_w is not None
        else args.budget_frac * float(topology.max_cap_w.sum())
    )
    archive = None
    run_id = None
    health_sink = None
    if args.archive is not None:
        import time as _time

        from .obs.archive import ObsArchive

        archive = ObsArchive(args.archive)
        run_id = f"fleet-{_time.time():.3f}"
        health_sink = archive.health_sink(run_id)
    engine = FleetEngine(
        topology,
        make_traffic(traffic_spec),
        budget_w=budget_w,
        strategy=DivisionStrategy(args.strategy),
        dt_s=args.dt,
        rebalance_every=args.rebalance_every,
        rebalance_threshold_w=args.threshold,
        escalation=EscalationConfig() if args.escalation else None,
        seed=args.seed,
        health_sink=health_sink,
    )
    result = engine.run(args.duration)
    if archive is not None:
        from .obs.archive import distill_fleet_doc

        series, meta = distill_fleet_doc(result.to_dict())
        archive.record_run(run_id, "fleet", series, meta=meta, source="cli")
    parity = run_parity(strategy=DivisionStrategy(args.strategy)) if args.parity else None
    if args.format == "json":
        doc = result.to_dict()
        if parity is not None:
            doc["parity"] = parity.to_dict()
        if run_id is not None:
            doc["archived_run_id"] = run_id
        return json.dumps(doc, indent=2, sort_keys=True)
    out = format_fleet_summary(result)
    if parity is not None:
        out += "\n" + format_parity_table(parity)
    if run_id is not None:
        out += f"\narchived as {run_id} in {args.archive}"
    return out


def _cmd_serve(args) -> str:
    import signal
    import threading

    from .service.api import ExperimentService

    service = ExperimentService(
        db_path=args.db,
        host=args.host,
        port=args.port,
        workers=args.workers,
        rate_cache=args.rate_cache,
        max_attempts=args.max_attempts,
        batch=args.batch,
        archive=args.archive,
        archive_period_s=args.archive_period,
        shards=args.shards,
        admission_rate=args.admission_rate,
        admission_burst=args.admission_burst,
        max_queue_depth=args.max_queue_depth,
    )

    # SIGTERM/SIGINT trigger one graceful shutdown: finish in-flight
    # jobs, re-record still-queued ones for restart recovery, flush
    # every rate-cache partition and the archive recorder, and close
    # SSE streams with a terminal event.  Shutdown joins threads and
    # can take seconds, so it runs on a helper thread rather than in
    # the signal handler; the loop below sees ``stopping`` and waits
    # in ``shutdown`` until the helper has finished.
    def _graceful(signum, frame):  # noqa: ARG001 — signal signature
        threading.Thread(
            target=service.shutdown,
            kwargs={"drain": False, "timeout": 60.0},
            name="repro-shutdown",
            daemon=True,
        ).start()

    try:
        signal.signal(signal.SIGTERM, _graceful)
        signal.signal(signal.SIGINT, _graceful)
    except ValueError:
        pass  # Not the main thread (embedded use); rely on the caller.

    service.start()
    # Printed (and flushed) once bound, so scripts can scrape the
    # resolved port when --port 0 asked for an ephemeral one.
    print(
        f"repro experiment service listening on {service.url}",
        flush=True,
    )
    print(
        f"  workers={service.scheduler.workers} "
        f"shards={service.scheduler.effective_shards} db={args.db} "
        f"rate_cache={args.rate_cache or 'off'} "
        f"archive={args.archive or 'off'}",
        flush=True,
    )
    try:
        while not service.stopping:
            time.sleep(0.2)
    except KeyboardInterrupt:
        pass
    finally:
        service.shutdown(drain=False)
    return "service stopped (in-flight jobs finished; queue re-recorded)"


def _is_fleet_doc(doc) -> bool:
    """Whether ``doc`` is a ``fleet --format json`` run document."""
    return (
        isinstance(doc, dict)
        and isinstance(doc.get("provenance"), dict)
        and doc["provenance"].get("engine") == "repro.fleet"
    )


def _result_docs(data: dict) -> dict:
    """``{workload: experiment doc}`` from any result-file layout.

    ``sweep --format json`` writes a single experiment document (it has
    a ``format_version`` key); ``baseline --format json`` writes a map
    of workload name to document; ``fleet --format json`` writes a
    fleet run document (``provenance.engine == "repro.fleet"``), mapped
    here under the ``"fleet"`` key.
    """
    if not isinstance(data, dict):
        raise ReproError("not a result file: expected a JSON object")
    if "format_version" in data:
        return {data.get("workload", "?"): data}
    if _is_fleet_doc(data):
        return {"fleet": data}
    docs = {
        name: doc
        for name, doc in data.items()
        if isinstance(doc, dict) and "format_version" in doc
    }
    if not docs:
        raise ReproError(
            "not a result file: no experiment documents found "
            "(expected output of sweep/baseline/fleet --format json)"
        )
    return docs


def _load_target_docs(target: str, db: str):
    """Resolve ``target`` as a result file or a stored job id.

    Returns ``(header, docs)`` where ``header`` describes the source
    and ``docs`` is a ``{workload: experiment doc}`` map — or ``None``
    when the target is a job that has not stored a result yet.  The
    store is opened only if its file already exists; read-only commands
    must never create an empty database as a side effect.
    """
    path = Path(target)
    if path.is_file():
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ReproError(f"cannot read {path}: {exc}") from exc
        return f"result file {path}", _result_docs(data)
    from .service.store import ResultStore

    if not Path(db).is_file():
        raise ReproError(
            f"{target!r} is not a result file, and no service store "
            f"exists at {db!r} to resolve it as a job id"
        )
    store = ResultStore(db)
    try:
        job = store.get_job(target)
        if job is None:
            raise ReproError(
                f"{target!r} is neither a result file nor a job id in {db!r}"
            )
        doc = store.get_result_dict(job.spec_digest)
    finally:
        store.close()
    header = (
        f"job {job.id}: state={job.state.value} "
        f"spec_digest={job.spec_digest}"
    )
    return header, doc


def _render_fleet_doc(doc: dict, title: str) -> str:
    """Provenance/summary block for a fleet run document.

    Fleet provenance is engine-shaped (topology, strategy, traffic)
    rather than experiment-shaped, so :func:`render_provenance` does
    not apply.
    """
    prov = doc.get("provenance") or {}
    topo = doc.get("topology") or {}
    summary = doc.get("summary") or {}
    reb = doc.get("rebalances") or {}
    lines = [title]
    lines.append(
        f"  engine      {prov.get('engine', '?')} "
        f"(package {prov.get('package_version', '?')}, "
        f"git {prov.get('git', '?')})"
    )
    lines.append(
        f"  topology    {topo.get('n_nodes', '?')} nodes / "
        f"{topo.get('n_racks', '?')} racks / {topo.get('n_rows', '?')} rows"
    )
    traffic = prov.get("traffic")
    lines.append(
        f"  params      strategy={prov.get('strategy', '?')} "
        f"budget_w={prov.get('budget_w', '?')} dt_s={prov.get('dt_s', '?')} "
        f"seed={prov.get('seed', '?')}"
    )
    if traffic:
        lines.append(f"  traffic     {json.dumps(traffic, sort_keys=True)}")
    lines.append(
        f"  run         {doc.get('ticks', '?')} ticks; rebalances "
        f"applied {reb.get('applied', '?')}/{reb.get('evaluated', '?')} "
        f"(forced {reb.get('forced_by_escalation', 0)})"
    )
    for key in sorted(k for k in summary if not isinstance(summary[k], dict)):
        lines.append(f"  {key:<24} {summary[key]}")
    health = summary.get("health")
    if isinstance(health, dict):
        lines.append(
            "  health      headroom "
            f"{health.get('mean_headroom_w', '?')} W, cap-floor "
            f"{health.get('mean_capfloor_frac', '?')}, SLO debt "
            f"{health.get('mean_slo_debt_rate_w', '?')} W/s, max esc "
            f"L{health.get('max_escalation_level', '?')}"
        )
    phenomena = doc.get("phenomena") or []
    if phenomena:
        lines.append("  phenomena:")
        for det in phenomena:
            lines.append(
                f"    - {det.get('phenomenon', '?')}: "
                f"{json.dumps(det.get('detail') or {}, sort_keys=True)}"
            )
    else:
        lines.append("  phenomena:  none detected")
    return "\n".join(lines)


def _fleet_run_timeline(name: str, doc: dict):
    """A :class:`RunTimeline` rebuilt from a fleet doc's channels."""
    from .obs.timeseries import RunTimeline, SeriesChannel

    timeline = RunTimeline(
        workload=name, cap_w=None, period_s=float(doc.get("dt_s") or 1.0)
    )
    for ch_name, ch_doc in sorted(
        (doc.get("timeline_channels") or {}).items()
    ):
        timeline.channels[ch_name] = SeriesChannel.from_dict(ch_name, ch_doc)
    return timeline


def _cmd_inspect(args) -> str:
    header, docs = _load_target_docs(args.target, args.db)
    if args.format == "json":
        out = {}
        for name, doc in sorted((docs or {}).items()):
            if _is_fleet_doc(doc):
                out[name] = {
                    "provenance": doc.get("provenance"),
                    "summary": doc.get("summary"),
                    "rebalances": doc.get("rebalances"),
                    "phenomena": doc.get("phenomena"),
                    "timelines": doc.get("timelines"),
                }
                continue
            timelines = {}
            rows = {"baseline": doc.get("baseline") or {}}
            rows.update(doc.get("by_cap") or {})
            for label, row in rows.items():
                tl_doc = row.get("timeline")
                if tl_doc is not None:
                    timelines[label] = timeline_from_dict(tl_doc).summary()
            out[name] = {
                "provenance": doc.get("provenance"),
                "timelines": timelines,
            }
        return json.dumps(out, indent=2, sort_keys=True)
    lines = [header]
    if docs is None:
        lines.append("  (no stored result for this job yet)")
        return "\n".join(lines)
    for name, doc in sorted(docs.items()):
        if _is_fleet_doc(doc):
            lines.append(_render_fleet_doc(doc, title=f"{name}:"))
        else:
            lines.append(
                render_provenance(doc.get("provenance"), title=f"{name}:")
            )
    return "\n".join(lines)


def _cmd_timeline(args) -> str:
    from .core.ascii_plot import timeline_chart

    _, docs = _load_target_docs(args.target, args.db)
    if docs is None:
        raise ReproError(
            f"job {args.target!r} has no stored result yet"
        )
    fleet_docs = {n: d for n, d in docs.items() if _is_fleet_doc(d)}
    exp_docs = {n: d for n, d in docs.items() if n not in fleet_docs}
    timelines = extract_timelines(exp_docs, args.channel) if exp_docs else []
    for name, doc in sorted(fleet_docs.items()):
        timeline = _fleet_run_timeline(name, doc)
        if args.channel:
            wanted = set(args.channel)
            missing = wanted - set(timeline.names())
            if missing:
                raise ReproError(
                    f"fleet run has no channel(s) {sorted(missing)}; "
                    f"available: {timeline.names()}"
                )
            timeline.channels = {
                n: ch
                for n, ch in timeline.channels.items()
                if n in wanted
            }
        if timeline.channels:
            timelines.append(timeline)
    if args.cap is not None:
        if args.cap == "baseline":
            timelines = [t for t in timelines if t.cap_w is None]
        else:
            try:
                cap = float(args.cap)
            except ValueError:
                raise ReproError(
                    f"--cap must be a number of Watts or 'baseline', "
                    f"not {args.cap!r}"
                ) from None
            timelines = [t for t in timelines if t.cap_w == cap]
    if not timelines:
        raise ReproError(
            "no matching telemetry timelines "
            "(did the sweep run with telemetry disabled, or is --cap "
            "outside the swept caps?)"
        )
    if args.csv:
        lines = ["workload,cap,channel,t_s,dt_s,mean,min,max"]
        for timeline in timelines:
            lines.extend(timeline.to_csv().splitlines()[1:])
        return "\n".join(lines)
    if args.ascii:
        return "\n\n".join(timeline_chart(t) for t in timelines)
    lines = []
    for timeline in timelines:
        label = (
            "uncapped" if timeline.cap_w is None
            else f"{timeline.cap_w:g} W cap"
        )
        lines.append(
            f"{timeline.workload} @ {label} — "
            f"{timeline.duration_s():.1f} simulated s, "
            f"period {timeline.period_s:g} s, {timeline.reps} rep(s)"
        )
        name_w = max(len(n) for n in timeline.names())
        for name in timeline.names():
            s = timeline.channel(name).summary()
            lines.append(
                f"  {name:>{name_w}}  {s['points']:>4} pts  "
                f"min {s['min']:>12.6g}  mean {s['mean']:>12.6g}  "
                f"max {s['max']:>12.6g}  {s['unit']}"
            )
        lines.append("")
    return "\n".join(lines).rstrip()


def _open_archive(path: str):
    """An existing archive, or a clear error for read-style commands."""
    from .obs.archive import ObsArchive

    if not Path(path).is_file():
        raise ReproError(
            f"no archive at {path!r}; create one with serve/fleet/bench "
            "--archive, or trends --ingest"
        )
    return ObsArchive(path)


def _cmd_trends(args) -> str:
    from .core.ascii_plot import sparkline
    from .obs.archive import ObsArchive, detect_trends

    if args.ingest:
        # Ingestion may create the archive; analysis alone never does.
        archive = ObsArchive(args.archive)
        for path in args.ingest:
            try:
                doc = json.loads(Path(path).read_text())
            except (OSError, ValueError) as exc:
                raise ReproError(f"cannot read {path}: {exc}") from exc
            kind, run_id = archive.ingest_bench(doc, source=path)
            _log.info(
                "bench_ingested", path=path, kind=kind, run_id=run_id
            )
    else:
        archive = _open_archive(args.archive)
    trends = detect_trends(
        archive,
        series=args.series,
        kind=args.kind,
        window=args.window,
        baseline=args.baseline,
    )
    if args.save_baseline:
        values = {
            t.series: t.recent for t in trends if t.recent is not None
        }
        if not values:
            raise ReproError("no series with history to baseline")
        archive.set_baseline(args.save_baseline, values)
        return (
            f"baseline {args.save_baseline!r} saved "
            f"({len(values)} series) in {args.archive}"
        )
    regressions = [t for t in trends if t.is_regression]
    if args.format == "json":
        out = json.dumps(
            {
                "archive": args.archive,
                "window": args.window,
                "baseline": args.baseline,
                "trends": [t.to_dict() for t in trends],
                "regressions": [t.series for t in regressions],
            },
            indent=2,
            sort_keys=True,
        )
    else:
        if not trends:
            out = f"no run series recorded in {args.archive}"
        else:
            name_w = max(len(t.series) for t in trends)
            lines = [
                f"trends over {args.archive} "
                f"(window {args.window}, baseline "
                f"{args.baseline or 'history median'})"
            ]
            for t in sorted(
                trends, key=lambda t: (t.verdict != "regression", t.series)
            ):
                spark = (
                    sparkline(t.values[-24:]) if len(t.values) > 1 else "·"
                )
                if t.shift is None:
                    detail = f"n={t.n}"
                else:
                    arrow = "↑" if t.shift >= 0 else "↓"
                    detail = (
                        f"{t.reference:.6g} → {t.recent:.6g} "
                        f"({arrow}{abs(t.shift) * 100:.1f}%)"
                    )
                lines.append(
                    f"  {t.series:<{name_w}}  {t.verdict:<12} {spark}  "
                    f"{detail}"
                )
            lines.append(
                f"{len(regressions)} regression(s) across "
                f"{len(trends)} series"
            )
            out = "\n".join(lines)
    if args.check and regressions:
        # The report still lands on stdout before the nonzero exit.
        print(out)
        raise ReproError(
            f"{len(regressions)} series regressed beyond threshold: "
            + ", ".join(sorted(t.series for t in regressions))
        )
    return out


def _cmd_compare(args) -> str:
    archive = _open_archive(args.archive)
    from .errors import SimulationError

    try:
        comparison = archive.compare_runs(args.a, args.b)
    except SimulationError as exc:
        raise ReproError(str(exc)) from exc
    if args.format == "json":
        return json.dumps(comparison, indent=2, sort_keys=True)
    a, b = comparison["a"], comparison["b"]
    lines = [
        f"compare {a['run_id']} ({a['kind']}) → {b['run_id']} ({b['kind']})",
    ]
    names = sorted(comparison["series"])
    name_w = max((len(n) for n in names), default=1)
    for name in names:
        entry = comparison["series"][name]
        va, vb = entry["a"], entry["b"]
        if va is None or vb is None:
            side = "a only" if vb is None else "b only"
            value = va if vb is None else vb
            lines.append(f"  {name:<{name_w}}  {value:>14.6g}  ({side})")
            continue
        rel = entry.get("rel")
        rel_txt = "" if rel is None else f"  ({rel * +100:+.1f}%)"
        lines.append(
            f"  {name:<{name_w}}  {va:>14.6g} → {vb:>14.6g}"
            f"  Δ {entry['delta']:+.6g}{rel_txt}"
        )
    return "\n".join(lines)


def _cmd_top(args) -> None:
    """Live dashboard; writes frames itself (repaints in place)."""
    from .obs.top import run_top

    code = run_top(
        args.url,
        interval_s=args.interval,
        iterations=args.iterations,
        once=args.once,
    )
    if code != 0:  # pragma: no cover — run_top currently always returns 0
        raise ReproError(f"top exited with status {code}")
    return None


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    # Flags beat REPRO_LOG_* (configure_logging falls back to the
    # environment for whichever of the two is not given).
    configure_logging(
        level=args.log_level, json_mode=True if args.log_json else None
    )
    # Resolve the global telemetry flags into the TelemetryConfig (or
    # None = read REPRO_TELEMETRY*) that experiment commands thread
    # through to their runners.
    if args.no_telemetry:
        args.telemetry = TelemetryConfig.resolve(False)
    elif args.telemetry_period is not None:
        base = TelemetryConfig.from_env()
        args.telemetry = TelemetryConfig(
            enabled=base.enabled,
            period_s=args.telemetry_period,
            capacity=base.capacity,
        )
    else:
        args.telemetry = None
    # --no-block-step forces the scalar control loop; otherwise leave
    # the runner to its default (REPRO_BLOCK_STEP, else on).
    args.block_step = False if args.no_block_step else None
    # --no-batch likewise forces per-run sweep execution; otherwise the
    # experiment resolves REPRO_BATCH (default on).
    args.batch = False if args.no_batch else None
    collector = start_tracing() if args.trace_out else None
    # --profile / --profile-out force the sampler on; otherwise defer
    # to REPRO_PROFILE.  --profile-hz beats REPRO_PROFILE_HZ.
    profiler = None
    if profiling_enabled(
        True if (args.profile or args.profile_out) else None
    ):
        config = (
            ProfileConfig(hz=args.profile_hz)
            if args.profile_hz is not None
            else ProfileConfig.from_env()
        )
        profiler = SamplingProfiler(config).start()
    handler = {
        "baseline": _cmd_baseline,
        "sweep": _cmd_sweep,
        "stride": _cmd_stride,
        "amenability": _cmd_amenability,
        "predict": _cmd_predict,
        "multicore": _cmd_multicore,
        "detect": _cmd_detect,
        "figures": _cmd_figures,
        "fleet": _cmd_fleet,
        "serve": _cmd_serve,
        "inspect": _cmd_inspect,
        "timeline": _cmd_timeline,
        "top": _cmd_top,
        "trends": _cmd_trends,
        "compare": _cmd_compare,
    }[args.command]
    try:
        with span("cli", command=args.command):
            out = handler(args)
        if out is not None:
            print(out)
    except ReproError as exc:
        _log.error("command_failed", command=args.command, error=str(exc))
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        # Stop the profiler before dumping the trace so its counter
        # track lands in the Chrome profile.
        if profiler is not None:
            report = profiler.stop()
            if args.profile_out:
                try:
                    with open(args.profile_out, "w") as fh:
                        json.dump(report.to_dict(), fh, indent=2)
                except OSError as exc:
                    print(
                        f"error: cannot write {args.profile_out}: {exc}",
                        file=sys.stderr,
                    )
        if collector is not None:
            stop_tracing()
            collector.dump(args.trace_out)
            _log.info(
                "trace_written", path=args.trace_out, spans=len(collector)
            )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
