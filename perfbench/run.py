"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload service-unique --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` is the separate traced run that attributes each
operation's time to the program's modules and writes a Chrome trace to
``.perfbench/traces/``.  Lines before the last one are a human summary
(sample counts, the host-drift calibration, checks).  Exit status is
non-zero, with no result line, when the run cannot produce valid
numbers, including when the program's source is not in this checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("service-unique", "service-repeat", "fleet-100k")


class Context:
    """What one run knows: its arguments and its scratch space."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.root = ROOT
        self.workload = args.workload
        self.seed = int(args.seed)
        self.seconds = float(args.seconds)
        self.trace = bool(args.trace)
        self.tmp = ROOT / ".perfbench" / f"tmp-{args.workload}-{os.getpid()}"
        self.trace_dir = ROOT / ".perfbench" / "traces"
        self.summary: dict = {"workload": args.workload, "seed": self.seed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # Defaults only: no REPRO_* switch from the caller's shell may pick
    # a non-default code path in this process or in a server it starts.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]

    from perfbench.common import BenchError

    if args.workload == "fleet-100k":
        from perfbench import fleet as module
    else:
        from perfbench import service as module

    # A terminated run still stops the servers it started (finally blocks).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    ctx = Context(args)
    ctx.tmp.mkdir(parents=True, exist_ok=True)
    try:
        result = module.run(ctx)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(ctx.tmp, ignore_errors=True)
    print("summary " + json.dumps(ctx.summary, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
