#!/usr/bin/env python
"""Table II sweep benchmark -> BENCH_sweep.json, with a CI guard.

Measures the three numbers docs/PERFORMANCE.md commits to:

- **sweep wall-clock** — the full Table II experiment (both paper
  workloads, all nine caps plus the uncapped baseline), run serially
  on the per-run and the batch-engine path (``jobs1`` and
  ``jobs1_batch``), with runs/s for each;
- **single-run speedup** — one 120 W Stereo run through the scalar
  loop versus the block-step kernel, interleaved best-of-N so the two
  paths see the same thermal/cache conditions of the host;
- **block-step engagement** — the fraction of control quanta the
  120 W run retires inside the kernel (``block_quanta / quanta``).

Modes::

    PYTHONPATH=src python scripts/bench_sweep.py            # write BENCH_sweep.json
    PYTHONPATH=src python scripts/bench_sweep.py --check    # CI regression guard

``--check`` re-measures and compares against the committed
``BENCH_sweep.json``: it fails (exit 1) when the per-run sweep
wall-clock regresses by more than ``--tolerance`` (default 20 %), or
when the machine-independent ratios degrade — single-run speedup
below ``--min-speedup``, kernel engagement below
``--min-engagement``, or the batched sweep slower than
``--min-batch-ratio`` of the per-run one.  The ratio guards are the
portable part of the contract (wall-clock shifts with host hardware;
the speedup and engagement of a deterministic simulation do not).

Schema 3 artifacts time serial sweeps only.  ``--check`` still reads
schema-1 and schema-2 baselines: the shared fields are compared, and
a schema-2 baseline's process-pool sweep (``jobs4``,
``parallel_speedup``, ``chunk_overhead_ms``) is ignored.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.config import PAPER_POWER_CAPS_W  # noqa: E402
from repro.core.experiment import PowerCapExperiment  # noqa: E402
from repro.core.runner import NodeRunner  # noqa: E402
from repro.workloads.sar import SireRsmWorkload  # noqa: E402
from repro.workloads.stereo import StereoMatchingWorkload  # noqa: E402

SCHEMA = 3
DEFAULT_OUT = REPO / "BENCH_sweep.json"


def _scaled(workload, scale):
    workload._spec = dataclasses.replace(
        workload.spec,
        total_instructions=workload.spec.total_instructions * scale,
    )
    return workload


def _bench_sweep(args, rate_cache, batch=None):
    """Wall-clock one full Table II sweep."""
    experiment = PowerCapExperiment(
        [
            _scaled(StereoMatchingWorkload(), args.scale),
            _scaled(SireRsmWorkload(), args.scale),
        ],
        caps_w=PAPER_POWER_CAPS_W,
        repetitions=args.repetitions,
        slice_accesses=args.slice_accesses,
        rate_cache=rate_cache,
        batch=batch,
    )
    runs = len(experiment._workloads) * (len(PAPER_POWER_CAPS_W) + 1)
    runs *= args.repetitions
    wall = float("inf")
    for _ in range(2):  # best-of-2: the guard wants a floor, not noise
        t0 = time.perf_counter()
        experiment.run_all()
        wall = min(wall, time.perf_counter() - t0)
    return {
        "batch": batch if batch is not None else True,
        "runs": runs,
        "wall_s": round(wall, 3),
        "runs_per_s": round(runs / wall, 3),
    }


def _bench_single_run(args):
    """Scalar vs block-step on one 120 W Stereo run, interleaved."""
    workload = _scaled(StereoMatchingWorkload(), args.scale)
    scalar = NodeRunner(
        slice_accesses=args.slice_accesses, block_step=False
    )
    block = NodeRunner(
        slice_accesses=args.slice_accesses, block_step=True
    )
    # Warm both runners' rate memoization so timing covers the control
    # loop, not the one-time trace simulation.
    scalar._run(workload, 120.0, 0)
    _, quanta, _, block_steps, block_quanta = block._run(
        workload, 120.0, 0
    )
    best_scalar = best_block = float("inf")
    for _ in range(args.number):
        t0 = time.perf_counter()
        scalar._run(workload, 120.0, 0)
        best_scalar = min(best_scalar, time.perf_counter() - t0)
        t0 = time.perf_counter()
        block._run(workload, 120.0, 0)
        best_block = min(best_block, time.perf_counter() - t0)
    return {
        "workload": "StereoMatching",
        "cap_w": 120.0,
        "scalar_ms": round(best_scalar * 1e3, 3),
        "block_ms": round(best_block * 1e3, 3),
        "speedup": round(best_scalar / best_block, 2),
        "quanta": quanta,
        "block_steps": block_steps,
        "block_quanta": block_quanta,
        "engagement": round(block_quanta / quanta, 4),
    }


def measure(args):
    with tempfile.TemporaryDirectory() as tmp:
        # One shared on-disk rate cache, warmed by an untimed sweep
        # first: both timed sweeps then measure the control loop, not
        # the one-time trace simulation (same policy a user gets via
        # --rate-cache across repeated sweeps).
        cache = os.path.join(tmp, "rates.json")
        _bench_sweep(args, cache)
        jobs1 = _bench_sweep(args, cache, batch=False)
        jobs1_batch = _bench_sweep(args, cache, batch=True)
    single = _bench_single_run(args)
    return {
        "schema": SCHEMA,
        "benchmark": "table2-sweep",
        "machine": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "parameters": {
            "scale": args.scale,
            "repetitions": args.repetitions,
            "slice_accesses": args.slice_accesses,
            "number": args.number,
            "caps_w": list(PAPER_POWER_CAPS_W),
        },
        "sweep": {
            "jobs1": jobs1,
            "jobs1_batch": jobs1_batch,
            "batch_runs_per_s": jobs1_batch["runs_per_s"],
        },
        "single_run_120w": single,
    }


def check(doc, baseline, args):
    """Return a list of failure strings (empty = guard passes)."""
    failures = []
    wall = doc["sweep"]["jobs1"]["wall_s"]
    base_wall = baseline["sweep"]["jobs1"]["wall_s"]
    limit = base_wall * (1.0 + args.tolerance)
    if wall > limit:
        failures.append(
            f"sweep wall-clock regressed: {wall:.2f}s vs committed "
            f"{base_wall:.2f}s (limit {limit:.2f}s, "
            f"tolerance {args.tolerance:.0%})"
        )
    speedup = doc["single_run_120w"]["speedup"]
    if speedup < args.min_speedup:
        failures.append(
            f"block-step speedup {speedup:.2f}x below the "
            f"{args.min_speedup:.1f}x floor "
            f"(committed {baseline['single_run_120w']['speedup']:.2f}x)"
        )
    engagement = doc["single_run_120w"]["engagement"]
    if engagement < args.min_engagement:
        failures.append(
            f"kernel engagement {engagement:.1%} below the "
            f"{args.min_engagement:.0%} floor"
        )
    # The batched sweep must stay within --min-batch-ratio of the
    # per-run path (the engine's contract is "never meaningfully
    # slower").
    ratio = (
        doc["sweep"]["batch_runs_per_s"]
        / doc["sweep"]["jobs1"]["runs_per_s"]
    )
    if ratio < args.min_batch_ratio:
        failures.append(
            f"batched sweep at {ratio:.2f}x of the per-run sweep, "
            f"below the {args.min_batch_ratio:.2f}x floor"
        )
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against the committed baseline and exit non-zero "
        "on regression (does not rewrite the baseline)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=DEFAULT_OUT,
        help=f"artifact path (default {DEFAULT_OUT})",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=DEFAULT_OUT,
        help="committed baseline for --check",
    )
    parser.add_argument("--scale", type=float, default=0.3)
    parser.add_argument("--repetitions", type=int, default=2)
    parser.add_argument("--slice-accesses", type=int, default=300_000)
    parser.add_argument(
        "--number",
        type=int,
        default=9,
        help="interleaved timing repetitions for the single-run pair",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.20,
        help="allowed fractional wall-clock regression (default 0.20)",
    )
    parser.add_argument("--min-speedup", type=float, default=2.0)
    parser.add_argument("--min-engagement", type=float, default=0.75)
    parser.add_argument(
        "--min-batch-ratio",
        type=float,
        default=0.75,
        help="floor on batched/per-run throughput (default 0.75)",
    )
    parser.add_argument(
        "--artifact",
        type=Path,
        default=None,
        help="also write the measured document here (any mode; CI "
        "uploads this without touching the committed baseline)",
    )
    args = parser.parse_args(argv)

    doc = measure(args)
    sweep = doc["sweep"]
    single = doc["single_run_120w"]
    print(
        f"sweep per-run: {sweep['jobs1']['wall_s']:.2f}s "
        f"({sweep['jobs1']['runs_per_s']:.2f} runs/s)  "
        f"batched: {sweep['jobs1_batch']['wall_s']:.2f}s "
        f"({sweep['batch_runs_per_s']:.2f} runs/s)"
    )
    print(
        f"single 120 W Stereo: scalar {single['scalar_ms']:.2f} ms, "
        f"block {single['block_ms']:.2f} ms -> x{single['speedup']:.2f}, "
        f"engagement {single['engagement']:.1%} "
        f"({single['block_quanta']}/{single['quanta']} quanta in "
        f"{single['block_steps']} blocks)"
    )

    if args.artifact is not None:
        args.artifact.parent.mkdir(parents=True, exist_ok=True)
        args.artifact.write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote artifact {args.artifact}")

    if args.check:
        if not args.baseline.exists():
            print(f"FAIL: no committed baseline at {args.baseline}")
            return 1
        baseline = json.loads(args.baseline.read_text())
        if baseline.get("schema", 1) != SCHEMA:
            print(
                f"note: baseline schema {baseline.get('schema', 1)} vs "
                f"current {SCHEMA} — comparing shared fields only"
            )
        failures = check(doc, baseline, args)
        for failure in failures:
            print(f"FAIL: {failure}")
        if failures:
            return 1
        print(f"OK: within {args.tolerance:.0%} of the committed baseline")
        return 0

    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
