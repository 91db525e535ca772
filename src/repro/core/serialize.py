"""Serialise experiment results to JSON (and back).

Sweeps are expensive; downstream analysis (plotting, regression
tracking, EXPERIMENTS.md generation) should not have to re-run them.
The format is a stable, versioned JSON document with every field of
:class:`~repro.core.metrics.AveragedResult` spelled out — no pickles,
so results are diffable and safe to load from anywhere.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from ..errors import SimulationError
from ..obs.timeseries import RunTimeline, timeline_from_dict, timeline_to_dict
from ..perf.events import PapiEvent
from .experiment import ExperimentResult
from .metrics import AveragedResult

__all__ = [
    "experiment_to_dict",
    "experiment_from_dict",
    "extract_timelines",
    "save_experiment",
    "load_experiment",
]

FORMAT_VERSION = 1


def _row_to_dict(row: AveragedResult) -> dict:
    doc = {
        "workload": row.workload,
        "cap_w": row.cap_w,
        "n_runs": row.n_runs,
        "execution_s": row.execution_s,
        "avg_power_w": row.avg_power_w,
        "energy_j": row.energy_j,
        "avg_freq_mhz": row.avg_freq_mhz,
        "counters": {e.value: v for e, v in row.counters.items()},
        "committed_instructions": row.committed_instructions,
        "executed_instructions": row.executed_instructions,
        "max_escalation_level": row.max_escalation_level,
        "min_duty": row.min_duty,
        "execution_s_std": row.execution_s_std,
    }
    # The telemetry timeline is optional (absent when sampling is off),
    # so documents written either way stay loadable by either reader —
    # format_version 1 is unchanged.
    if row.timeline is not None:
        doc["timeline"] = timeline_to_dict(row.timeline)
    return doc


def _row_from_dict(data: dict) -> AveragedResult:
    try:
        counters = {
            PapiEvent(name): float(v) for name, v in data["counters"].items()
        }
        return AveragedResult(
            workload=data["workload"],
            cap_w=data["cap_w"],
            n_runs=int(data["n_runs"]),
            execution_s=float(data["execution_s"]),
            avg_power_w=float(data["avg_power_w"]),
            energy_j=float(data["energy_j"]),
            avg_freq_mhz=float(data["avg_freq_mhz"]),
            counters=counters,
            committed_instructions=float(data["committed_instructions"]),
            executed_instructions=float(data["executed_instructions"]),
            max_escalation_level=int(data["max_escalation_level"]),
            min_duty=float(data["min_duty"]),
            execution_s_std=float(data.get("execution_s_std", 0.0)),
            timeline=(
                timeline_from_dict(data["timeline"])
                if data.get("timeline") is not None
                else None
            ),
        )
    except (KeyError, ValueError) as exc:
        raise SimulationError(f"malformed result row: {exc}") from exc


def experiment_to_dict(result: ExperimentResult) -> dict:
    """A JSON-ready representation of one workload's sweep.

    The provenance manifest (when the sweep recorded one) travels in a
    ``provenance`` key; it is optional, so documents written before the
    instrumentation layer still load.
    """
    doc = {
        "format_version": FORMAT_VERSION,
        "workload": result.workload,
        "baseline": _row_to_dict(result.baseline),
        "by_cap": {
            f"{cap:g}": _row_to_dict(row)
            for cap, row in result.by_cap.items()
        },
    }
    if result.provenance is not None:
        doc["provenance"] = result.provenance
    return doc


def experiment_from_dict(data: dict) -> ExperimentResult:
    """Reconstruct a sweep from its JSON representation."""
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise SimulationError(
            f"unsupported result format version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    result = ExperimentResult(
        workload=data["workload"],
        baseline=_row_from_dict(data["baseline"]),
        provenance=data.get("provenance"),
    )
    for cap_str, row in data.get("by_cap", {}).items():
        result.by_cap[float(cap_str)] = _row_from_dict(row)
    return result


def extract_timelines(
    doc: dict, channels: "list[str] | None" = None
) -> "list[RunTimeline]":
    """Every telemetry timeline in a result document.

    ``doc`` is either one sweep document (``format_version`` present)
    or a ``{workload: sweep document}`` map (the ``baseline --format
    json`` and service-store layouts).  Timelines come back baseline
    first, then caps highest to lowest, per workload.  With
    ``channels`` each timeline is restricted to the named channels;
    unknown names raise :class:`~repro.errors.SimulationError`.
    """
    sweep_docs = [doc] if "format_version" in doc else list(doc.values())
    out: "list[RunTimeline]" = []
    for sweep in sweep_docs:
        if not isinstance(sweep, dict):
            continue
        rows = [sweep.get("baseline") or {}]
        by_cap = sweep.get("by_cap") or {}
        rows.extend(
            by_cap[k] for k in sorted(by_cap, key=float, reverse=True)
        )
        for row in rows:
            tl_doc = row.get("timeline")
            if tl_doc is None:
                continue
            timeline = timeline_from_dict(tl_doc)
            if channels:
                missing = [
                    c for c in channels if c not in timeline.channels
                ]
                if missing:
                    raise SimulationError(
                        f"unknown channel(s) {missing}; available: "
                        f"{sorted(timeline.channels)}"
                    )
                timeline.channels = {
                    c: timeline.channels[c] for c in channels
                }
            out.append(timeline)
    return out


def save_experiment(result: ExperimentResult, path: Union[str, Path]) -> None:
    """Write a sweep to a JSON file."""
    Path(path).write_text(
        json.dumps(experiment_to_dict(result), indent=2, sort_keys=True)
    )


def load_experiment(path: Union[str, Path]) -> ExperimentResult:
    """Read a sweep back from a JSON file."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SimulationError(f"not a result file: {exc}") from exc
    return experiment_from_dict(data)
