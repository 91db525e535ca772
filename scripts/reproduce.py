#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md: paper-vs-measured for every artifact.

Runs the full methodology (both workloads, all nine caps, the stride
grids) at a configurable instruction-budget scale and rewrites
EXPERIMENTS.md with the measured numbers next to the paper's published
ones, plus the pass/fail status of each shape criterion from DESIGN.md.
Exits 1, after writing the report, when any computed criterion
diverges, so the report can gate a CI run.

Usage:
    python scripts/reproduce.py [--scale 0.06] [--reps 2] [--out EXPERIMENTS.md]
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.config import PAPER_POWER_CAPS_W  # noqa: E402
from repro.core.amenability import characterize_amenability  # noqa: E402
from repro.core.experiment import PowerCapExperiment  # noqa: E402
from repro.core.report import figure1_series, figure2_series  # noqa: E402
from repro.perf.events import PapiEvent  # noqa: E402
from repro.units import format_duration  # noqa: E402
from repro.workloads.sar import SireRsmWorkload  # noqa: E402
from repro.workloads.stereo import StereoMatchingWorkload  # noqa: E402
from repro.workloads.stride import StrideBenchmark  # noqa: E402

# ---------------------------------------------------------------------------
# Paper values (Table II; figures described in text)
# ---------------------------------------------------------------------------

PAPER = {
    "StereoMatching": {
        "baseline": {"time_s": 89, "power_w": 153.1, "energy_j": 13626},
        "time_pct": {160: 3, 155: 0, 150: 9, 145: 21, 140: 40, 135: 107,
                     130: 444, 125: 1104, 120: 3467},
        "power_w": {160: 153.3, 155: 152.7, 150: 139.9, 145: 142.4,
                    140: 136.6, 135: 131.3, 130: 126.8, 125: 123.0,
                    120: 124.9},
        "freq": {160: 2701, 155: 2701, 150: 2699, 145: 2697, 140: 2168,
                 135: 1274, 130: 1207, 125: 1200, 120: 1200},
        "l2_pct": {125: 203, 120: 244},
        "l3_pct": {125: 371, 120: 350},
        "itlb_pct": {125: 2069, 120: 6395},
    },
    "SIRE/RSM": {
        "baseline": {"time_s": 378, "power_w": 156.7, "energy_j": 59249},
        "time_pct": {160: 0, 155: 2, 150: 7, 145: 14, 140: 21, 135: 58,
                     130: 93, 125: 193, 120: 2583},
        "power_w": {160: 155.5, 155: 155.7, 150: 148.8, 145: 142.7,
                    140: 139.0, 135: 132.9, 130: 128.3, 125: 125.7,
                    120: 124.0},
        "freq": {160: 2701, 155: 2701, 150: 2065, 145: 1752, 140: 2422,
                 135: 1285, 130: 1200, 125: 1200, 120: 1200},
        "l2_pct": {125: 0, 120: 0},
        "l3_pct": {125: 0, 120: 0},
        "itlb_pct": {125: 1085, 120: 8481},
    },
}


def scaled(workload, scale):
    workload._spec = dataclasses.replace(
        workload.spec,
        total_instructions=workload.spec.total_instructions * scale,
    )
    return workload


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--scale", type=float, default=0.06)
    parser.add_argument("--reps", type=int, default=2)
    parser.add_argument("--out", default="EXPERIMENTS.md")
    parser.add_argument(
        "--rate-cache",
        default=os.environ.get("REPRO_RATE_CACHE"),
        help="path to a persistent miss-rate cache (JSON); defaults to "
        "the REPRO_RATE_CACHE environment variable",
    )
    args = parser.parse_args(argv)
    verdicts: list[bool] = []

    def check(ok: bool) -> str:
        verdicts.append(bool(ok))
        return "PASS" if ok else "DIVERGES"

    t0 = time.time()
    experiment = PowerCapExperiment(
        [
            scaled(StereoMatchingWorkload(), args.scale),
            scaled(SireRsmWorkload(), args.scale),
        ],
        caps_w=PAPER_POWER_CAPS_W,
        repetitions=args.reps,
        slice_accesses=300_000,
        rate_cache=args.rate_cache,
    )
    sweeps = experiment.run_all()
    sweep_wall_s = time.time() - t0

    lines: list[str] = []
    w = lines.append
    w("# EXPERIMENTS — paper vs measured")
    w("")
    w(f"Generated by `scripts/reproduce.py --scale {args.scale} "
      f"--reps {args.reps}` (seed {20120910}).  Instruction budgets are "
      f"scaled by {args.scale}; measured times/energies are reported "
      "unscaled (divided back) since time and energy are linear in the "
      "budget while rates, powers and the controller trajectory are "
      "budget-independent.  Absolute agreement is NOT the goal — the "
      "substrate is a calibrated simulator — the *shape criteria* from "
      "DESIGN.md §4 are.")
    w("")

    # ------------------------------------------------------------------
    # Table I
    # ------------------------------------------------------------------
    w("## Table I — baselines")
    w("")
    w("| Code | paper power (W) | measured | paper time | measured |")
    w("|---|---|---|---|---|")
    for name, sweep in sweeps.items():
        paper = PAPER[name]["baseline"]
        base = sweep.baseline
        unscaled_t = base.execution_s / args.scale
        w(
            f"| {name} | {paper['power_w']} | {base.avg_power_w:.1f} | "
            f"{format_duration(paper['time_s'])} | "
            f"{format_duration(unscaled_t)} |"
        )
    stereo, sire = sweeps["StereoMatching"], sweeps["SIRE/RSM"]
    w("")
    w(f"- T1 ratio (SIRE/Stereo runtimes, paper ~4.2x): measured "
      f"{sire.baseline.execution_s / stereo.baseline.execution_s:.2f}x — "
      + check(3.0 < sire.baseline.execution_s / stereo.baseline.execution_s < 5.5))
    w(f"- T1 power ordering (SIRE > Stereo): "
      + check(sire.baseline.avg_power_w > stereo.baseline.avg_power_w))
    w("")

    # ------------------------------------------------------------------
    # Table II
    # ------------------------------------------------------------------
    for name, sweep in sweeps.items():
        paper = PAPER[name]
        w(f"## Table II — {name}")
        w("")
        w("| cap (W) | paper Δtime % | measured Δtime % | paper power | "
          "measured | paper freq | measured |")
        w("|---|---|---|---|---|---|---|")
        for cap in sorted(paper["time_pct"], reverse=True):
            row = sweep.row(float(cap))
            measured_pct = (sweep.slowdown(float(cap)) - 1.0) * 100.0
            w(
                f"| {cap} | {paper['time_pct'][cap]} | {measured_pct:.0f} | "
                f"{paper['power_w'][cap]} | {row.avg_power_w:.1f} | "
                f"{paper['freq'][cap]} | {row.avg_freq_mhz:.0f} |"
            )
        w("")
        base = sweep.baseline

        def pct(row, event):
            b = base.counters[event]
            return (row.counters[event] - b) / b * 100.0 if b else 0.0

        w("| cap (W) | paper ΔL2 % | measured | paper ΔL3 % | measured | "
          "paper ΔiTLB % | measured |")
        w("|---|---|---|---|---|---|---|")
        for cap in (125, 120):
            row = sweep.row(float(cap))
            w(
                f"| {cap} | {paper['l2_pct'][cap]} | "
                f"{pct(row, PapiEvent.PAPI_L2_TCM):.0f} | "
                f"{paper['l3_pct'][cap]} | "
                f"{pct(row, PapiEvent.PAPI_L3_TCM):.0f} | "
                f"{paper['itlb_pct'][cap]} | "
                f"{pct(row, PapiEvent.PAPI_TLB_IM):.0f} |"
            )
        w("")

    # Shape criteria summary.
    w("### Shape criteria (DESIGN.md §4)")
    w("")
    crits = []
    for name, sweep in sweeps.items():
        high = min(sweep.row(160.0).energy_j, sweep.row(155.0).energy_j)
        crits.append((f"T2-a energy minimal at >=155 W ({name})",
                      all(sweep.row(c).energy_j > 0.99 * high
                          for c in (150.0, 140.0, 130.0, 120.0))))
        crits.append((f"T2-b <=40-45% down to 140 W ({name})",
                      all(sweep.slowdown(c) <= 1.45
                          for c in (160.0, 155.0, 150.0, 145.0, 140.0))))
        crits.append((f"T2-b blow-up at 120 W ({name})",
                      sweep.slowdown(120.0) > 15.0))
        crits.append((f"T2-c freq pinned at floor <=125 W ({name})",
                      all(abs(sweep.row(c).avg_freq_mhz - 1200.0) < 25
                          for c in (125.0, 120.0))))
    st_base, st_low = stereo.baseline, stereo.row(120.0)
    crits.append(("T2-d Stereo L2 x>2 at 120 W",
                  st_low.counters[PapiEvent.PAPI_L2_TCM]
                  > 2 * st_base.counters[PapiEvent.PAPI_L2_TCM]))
    crits.append(("T2-d Stereo L3 x>2 at 120 W",
                  st_low.counters[PapiEvent.PAPI_L3_TCM]
                  > 2 * st_base.counters[PapiEvent.PAPI_L3_TCM]))
    si_base, si_low = sire.baseline, sire.row(120.0)
    crits.append(("T2-d SIRE L2/L3 flat at 120 W",
                  all(abs(si_low.counters[e] - si_base.counters[e])
                      / si_base.counters[e] < 0.10
                      for e in (PapiEvent.PAPI_L2_TCM, PapiEvent.PAPI_L3_TCM))))
    crits.append(("T2-d iTLB explosion both apps",
                  all(s.row(120.0).counters[PapiEvent.PAPI_TLB_IM]
                      > 10 * max(1.0, s.baseline.counters[PapiEvent.PAPI_TLB_IM])
                      for s in (stereo, sire))))
    crits.append(("Stereo blow-up >= SIRE blow-up at 120 W",
                  stereo.slowdown(120.0) >= sire.slowdown(120.0)))
    st_rep = characterize_amenability(stereo, 1.25)
    si_rep = characterize_amenability(sire, 1.25)
    crits.append((
        f"SIRE more amenable (knees: SIRE {si_rep.knee_cap_w}, "
        f"Stereo {st_rep.knee_cap_w}; paper 140 vs 145)",
        si_rep.knee_cap_w is not None
        and st_rep.knee_cap_w is not None
        and si_rep.knee_cap_w <= st_rep.knee_cap_w,
    ))
    for label, ok in crits:
        w(f"- {label}: **{check(ok)}**")
    w("")

    # ------------------------------------------------------------------
    # Figures 1 and 2 (series summary)
    # ------------------------------------------------------------------
    w("## Figures 1 & 2 — normalised series")
    w("")
    w("Each series is normalised to its maximum over the ten rows "
      "(baseline, then 160 W down to 120 W).  The criteria are the "
      "shapes `benchmarks/test_bench_fig1_sire.py` and "
      "`test_bench_fig2_stereo.py` assert.")
    w("")
    floor = 1200.0 / 2701.0

    def near(value, target, tol=1e-6):
        return abs(float(value) - target) <= tol

    def peaks_at_one(series, keys):
        return all(len(series[k]) == 10 and near(np.nanmax(series[k]), 1.0)
                   for k in keys)

    f1, f2 = figure1_series(sire), figure2_series(stereo)
    l2, l3 = f2["PAPI_L2_TCM"], f2["PAPI_L3_TCM"]
    fig_crits = [
        ("F1 (SIRE) every series peaks at 1.0",
         peaks_at_one(f1, ("frequency", "time", "power", "energy",
                           "PAPI_TLB_IM"))),
        ("F1 frequency maximal at baseline, floor ratio 0.444 at 120 W",
         near(f1["frequency"][0], 1.0)
         and near(f1["frequency"][-1], floor, 0.02)),
        ("F1 time and energy maximal at 120 W, time < 0.1 at baseline",
         near(f1["time"][-1], 1.0) and near(f1["energy"][-1], 1.0)
         and f1["time"][0] < 0.1),
        ("F1 power maximal at baseline, > 0.75 at 120 W",
         near(f1["power"][0], 1.0, 0.02) and f1["power"][-1] > 0.75),
        ("F1 iTLB < 0.05 down to 145 W, maximal at 120 W",
         bool(np.all(f1["PAPI_TLB_IM"][:5] < 0.05))
         and near(f1["PAPI_TLB_IM"][-1], 1.0)),
        ("F2 (Stereo) every series peaks at 1.0",
         peaks_at_one(f2, ("frequency", "time", "power", "energy",
                           "PAPI_L2_TCM", "PAPI_L3_TCM", "PAPI_TLB_IM"))),
        ("F2 L2 flat down to 140 W, maximal and x>2 at 120 W",
         np.ptp(l2[:6]) < 0.12 and near(l2[-1], 1.0) and l2[-1] > 2.0 * l2[0]),
        ("F2 L3 x>1.8 at 120 W", l3[-1] > 1.8 * l3[0]),
        ("F2 time maximal at 120 W, < 0.1 down to 140 W",
         near(f2["time"][-1], 1.0) and bool(np.all(f2["time"][:6] < 0.1))),
        ("F2 frequency at the floor ratio at 125 and 120 W",
         near(f2["frequency"][-1], floor, 0.02)
         and near(f2["frequency"][-2], f2["frequency"][-1], 0.02)),
    ]
    for label, ok in fig_crits:
        w(f"- {label}: **{check(ok)}**")
    w("")

    # ------------------------------------------------------------------
    # Figures 3 and 4
    # ------------------------------------------------------------------
    w("## Figures 3 & 4 — stride microbenchmark")
    w("")
    sizes = (16 * 1024, 128 * 1024, 4 * 1024 * 1024, 48 * 1024 * 1024)
    # Figure 3 also needs both sides of each capacity edge: L1 32K|64K,
    # L2 256K|512K and L3 16M|48M.
    edge_sizes = (32 * 1024, 64 * 1024, 256 * 1024, 512 * 1024,
                  16 * 1024 * 1024)
    fig3 = StrideBenchmark(sizes=sorted(sizes + edge_sizes), strides=(64,),
                           accesses_per_cell=3000).run()
    fig3_ns = {size: fig3.series_for_size(size)[64] for size in fig3.sizes}
    bench = StrideBenchmark(sizes=sizes, strides=(64,), accesses_per_cell=3000)
    fig4 = bench.run_capped(120.0, np.random.default_rng(42),
                            cell_duration_s=1.0, settle_s=15.0)
    w("| array (64 B stride) | paper level (ns) | Fig-3 measured | "
      "Fig-4 measured (120 W) |")
    w("|---|---|---|---|")
    paper_levels = {16 * 1024: "1.5 (L1)", 128 * 1024: "3.5 (L2)",
                    4 * 1024 * 1024: "8.6 (L3)",
                    48 * 1024 * 1024: "~60 (DRAM)"}
    for i, size in enumerate(sizes):
        label = f"{size // 1024}K" if size < 1 << 20 else f"{size >> 20}M"
        w(f"| {label} | {paper_levels[size]} | "
          f"{fig3_ns[size]:.1f} | "
          f"{fig4.access_time_ns[i, 0]:.1f} |")
    inflation = fig4.access_time_ns[:, 0] / np.array([fig3_ns[s] for s in sizes])
    steps = (fig3_ns[64 * 1024] / fig3_ns[32 * 1024],
             fig3_ns[512 * 1024] / fig3_ns[256 * 1024],
             fig3_ns[48 * 1024 * 1024] / fig3_ns[16 * 1024 * 1024])
    w("")
    w(f"- F3 capacity edges at 32K/256K/20M step x>1.5/x>1.5/x>2.5: "
      f"**{check(steps[0] > 1.5 and steps[1] > 1.5 and steps[2] > 2.5)}** "
      f"(x{steps[0]:.1f}/x{steps[1]:.1f}/x{steps[2]:.1f})")
    w(f"- F4 every level inflated under the cap: **{check(bool(np.all(inflation > 2.0)))}** "
      f"(x{inflation.min():.1f}..x{inflation.max():.1f})")
    w(f"- F4 inflation non-uniform ('not consistent with what we would "
      f"expect'): **{check(bool(inflation.max() / inflation.min() > 1.3))}**")
    w("")

    # ------------------------------------------------------------------
    # Known divergences
    # ------------------------------------------------------------------
    w("## Known divergences")
    w("")
    w("1. **Stereo at 130/125 W**: the paper measures x5.4 and x12.0 "
      "slowdowns with *measured power below the cap* (126.8 W @ 130, "
      "123.0 W @ 125).  A power-rational controller — ours — that is "
      "already under the cap does not throttle further, so we measure "
      "~x2-4 at those caps.  The paper itself notes its observed "
      "behaviour is 'not consistent with what we would expect'; we "
      "reproduce the consistent part of the curve and the 120 W "
      "catastrophe.")
    w("2. **SIRE frequency at 150/145/140 W**: the paper reports "
      "non-monotone averages (2065, 1752, 2422 MHz).  Our controller "
      "produces a monotone frequency-vs-cap curve; the published "
      "non-monotonicity is unexplained measurement variance.")
    w("3. **Absolute counter magnitudes**: the paper's L2/L3 counts for "
      "SIRE (6x10^11 L2 misses > total L1 misses) include hardware "
      "prefetcher traffic we do not model; we match per-instruction "
      "*demand* miss-rate magnitudes and their flat-vs-jumping shape "
      "instead.")
    w("")
    legacy = (
        " (the scalar-replay engine took 14.1 s at these settings)"
        if args.scale == 0.06 and args.reps == 2
        else ""
    )
    w(f"_Cap-sweep wall clock: {sweep_wall_s:.1f} s with the fast "
      f"engine{legacy}; total generation time: "
      f"{time.time() - t0:.0f} s._")

    Path(args.out).write_text("\n".join(lines) + "\n")
    print(f"wrote {args.out} ({len(lines)} lines) in {time.time() - t0:.0f}s")
    diverged = verdicts.count(False)
    if diverged:
        print(
            f"{diverged} of {len(verdicts)} shape criteria diverge",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
