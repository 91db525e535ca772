"""Which public functions of which module are timed, and which per-layer metrics each workload yields.

Every wrapper is installed only for a traced run.  Span names are
``layer:function``; :func:`perfbench.spans.layer_of` maps them (and the
program's own span names) to layers.  The per-layer metric names and
units are those ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from .common import PER_LAYER, BenchError, metric
from .spans import Tracer

_REQUESTS = [
    "service.frontend.overhead_ms",
    "service.submit.p50_ms",
    "service.submit.p90_ms",
    "service.routes.post_jobs_ms",
    "service.routes.get_result_ms",
    "service.routes.requests_per_job",
    "service.admission.admit_us",
    "service.admission.shed",
    "service.scheduler.submit_ms",
    "service.store.has_result_ms",
    "service.store.record_job_ms",
    "service.store.get_result_ms",
    "service.store.has_result.calls",
    "service.store.record_job.calls",
    "service.store.get_result.calls",
    "core.serialize.result_kb",
    "core.experiment.model_error_pct",
    # Set-up simulates the warm-up grids in the server.
    "mem.fastsim.self_ms",
    "mem.fastsim.traces",
    "workloads.build_slice_ms",
    "trace.overhead_pct",
]
#: What the server's simulation of a fresh job runs through.
_ENGINE = [
    "core.experiment.run_all_ms",
    "core.runner.self_ms",
    "core.runner.quanta",
    "core.runner.fast_forwards",
    "core.blockstep.block_quanta",
    "core.blockstep.engagement",
    "core.batchstep.self_ms",
    "core.batchstep.batch_quanta",
    "obs.timeseries.self_ms",
    "obs.timeseries.samples",
    "obs.detect.self_ms",
    "obs.provenance.self_ms",
    "core.ratecache.self_ms",
    "core.ratecache.hit_ratio",
    "core.serialize.to_dict_ms",
]

#: The per-layer metrics each workload must yield; an empty one fails
#: the traced run.  Layers a workload never calls report 0.
REQUIRED: Dict[str, List[str]] = {
    "service-unique": _REQUESTS
    + _ENGINE
    + [
        "service.routes.get_job_ms",
        "service.scheduler.queue_wait_ms",
        "service.scheduler.run_ms",
        "service.scheduler.sims_per_digest",
        "service.store.put_result_ms",
        "service.store.put_result.calls",
    ],
    "service-repeat": _REQUESTS,
    "fleet-100k": [
        "fleet.engine.self_ms",
        "fleet.engine.rebalances",
        "fleet.engine.escalations",
        "fleet.traffic.self_ms",
        "fleet.division.self_ms",
        "fleet.division.calls",
        "fleet.health.self_ms",
        "obs.timeseries.self_ms",
        "obs.timeseries.samples",
        "trace.overhead_pct",
    ],
}


#: Per workload, the reported per-operation figures that are each a
#: layer's self time, so they cover disjoint parts of an operation and
#: must add up to no more than it (:func:`perfbench.spans.check_layer_sum`).
#: Inclusive figures (``run_all_ms``, the per-request route times) are
#: not among them.
SELF_MS: Dict[str, List[str]] = {
    "service-unique": [
        "core.runner.self_ms",
        "core.batchstep.self_ms",
        "obs.timeseries.self_ms",
        "obs.detect.self_ms",
        "obs.provenance.self_ms",
        "core.ratecache.self_ms",
        "core.serialize.to_dict_ms",
        "service.store.has_result_ms",
        "service.store.record_job_ms",
        "service.store.put_result_ms",
        "service.store.get_result_ms",
    ],
    "fleet-100k": [
        "fleet.engine.self_ms",
        "fleet.traffic.self_ms",
        "fleet.division.self_ms",
        "fleet.health.self_ms",
        "obs.timeseries.self_ms",
    ],
}
SELF_MS["service-repeat"] = SELF_MS["service-unique"]


def per_layer_metrics(workload: str, values: Dict[str, Optional[float]]) -> Dict[str, dict]:
    """Every per-layer metric; fails if one the workload exercises is empty.

    ``values`` maps a metric to its value, or to None when nothing was
    observed for it.  Metrics of layers the workload never calls read 0.
    """
    empty = [n for n in REQUIRED[workload] if values.get(n) is None]
    if empty:
        raise BenchError(f"traced run: per-layer metrics came out empty: {empty}")
    unknown = sorted(set(values) - set(PER_LAYER))
    if unknown:
        raise BenchError(f"unknown per-layer metrics: {unknown}")
    return {
        name: metric(values.get(name) or 0.0, unit) for name, unit in PER_LAYER.items()
    }


def _hit(args, out) -> dict:
    return {"hit": out is not None}


def _no_counter_tracks(*args, **kwargs) -> None:
    return None


def install_engine_layers(tracer: Tracer) -> None:
    """Time the simulation path: experiment, rates, traces, telemetry, serialize."""
    from repro.core.experiment import PowerCapExperiment
    from repro.core.ratecache import RateCache
    from repro.core.runner import export_counter_tracks
    from repro.core.serialize import experiment_to_dict
    from repro.mem.fastsim import TraceEngine
    from repro.obs.detect import scan_experiment
    from repro.obs.provenance import build_provenance
    from repro.obs.timeseries import RunTimeline, TelemetrySampler
    from repro.workloads.base import Workload

    # Spans are collected through the program's own trace collector,
    # whose presence also makes every run export telemetry counter
    # tracks; those are not a layer of the measured path and would
    # cost about a third of a sweep, so the traced run skips them.
    tracer.replace_everywhere(export_counter_tracks, _no_counter_tracks)
    tracer.patch(PowerCapExperiment, "run_all", "core.experiment:run_all")
    tracer.patch(RateCache, "get", "core.ratecache:get", _hit)
    tracer.patch(RateCache, "put", "core.ratecache:put")
    tracer.patch(RateCache, "save", "core.ratecache:save")
    tracer.patch(TraceEngine, "counts", "mem.fastsim:counts")
    tracer.patch_method_tree(Workload, "build_slice", "workloads:build_slice")
    for method in ("record", "commit_block", "finish"):
        tracer.patch(TelemetrySampler, method, f"obs.timeseries:{method}")
    tracer.patch(RunTimeline, "merge", "obs.timeseries:merge")
    tracer.patch_everywhere(scan_experiment, "obs.detect:scan_experiment")
    tracer.patch_everywhere(build_provenance, "obs.provenance:build_provenance")
    tracer.patch_everywhere(experiment_to_dict, "core.serialize:experiment_to_dict")


def _describe_dispatch(args, out) -> dict:
    req = args[1]
    parts = req.route
    job = None
    if req.method == "POST" and parts == ("jobs",):
        route = "post_jobs"
        if getattr(out, "status", 0) in (200, 201):
            job = json.loads(out.body)["id"]
    elif req.method == "GET" and len(parts) == 2 and parts[0] == "jobs":
        route, job = "get_job", parts[1]
    elif req.method == "GET" and len(parts) == 3 and parts[0] == "jobs" and parts[2] == "result":
        route, job = "get_result", parts[1]
    else:
        route = "other"
    return {"route": route, "job": job, "status": getattr(out, "status", None)}


def install_service_layers(tracer: Tracer) -> None:
    """Time the request path and the store, on top of the simulation path."""
    from repro.service.admission import AdmissionController
    from repro.service.routes import Router
    from repro.service.scheduler import ExperimentScheduler
    from repro.service.store import ResultStoreBase

    install_engine_layers(tracer)
    tracer.patch(Router, "dispatch", "service.routes:dispatch", _describe_dispatch)
    tracer.patch(
        AdmissionController,
        "admit",
        "service.admission:admit",
        lambda args, out: {"admitted": bool(out.admitted)},
    )
    tracer.patch(ExperimentScheduler, "submit", "service.scheduler:submit")
    for method in ("has_result", "record_job", "put_result", "get_result_dict"):
        tracer.patch_method_tree(ResultStoreBase, method, f"service.store:{method}")


def install_fleet_layers(tracer: Tracer) -> None:
    """Time traffic, division, health and the telemetry channels of the fleet."""
    from repro.fleet.division import divide_groups
    from repro.fleet.health import FleetHealth
    from repro.fleet.traffic import TrafficModel
    from repro.obs.timeseries import SeriesChannel

    tracer.patch_method_tree(TrafficModel, "demand_w", "fleet.traffic:demand_w")
    tracer.patch_everywhere(divide_groups, "fleet.division:divide_groups")
    tracer.patch(FleetHealth, "observe_tick", "fleet.health:observe_tick")
    tracer.patch(FleetHealth, "finish", "fleet.health:finish")
    tracer.patch(SeriesChannel, "add", "obs.timeseries:add")
