"""Serve with the layers' public functions timed; write the spans at shutdown.

    python3 perfbench/serve_traced.py --spans-out PATH -- [repro-powercap arguments]

Used by the traced run of the service workloads: the wrappers are
installed before ``repro-powercap`` starts serving, the program's own
spans are collected alongside, and everything recorded is written to
``PATH`` as JSON when the server exits (SIGTERM shuts it down
gracefully).  Needs ``src`` and the checkout root on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--" not in argv:
        print("usage: serve_traced.py --spans-out PATH -- [repro-powercap arguments]", file=sys.stderr)
        return 2
    split = argv.index("--")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans-out", required=True, type=Path)
    args = parser.parse_args(argv[:split])

    import repro.service.api  # noqa: F401 — load what the wrappers patch
    from repro import cli
    from repro.obs.tracing import start_tracing

    from perfbench.layers import install_service_layers
    from perfbench.spans import Tracer, program_spans

    tracer = Tracer()
    install_service_layers(tracer)
    collector = start_tracing()
    try:
        return cli.main(argv[split + 1 :])
    finally:
        spans = tracer.spans + program_spans(collector)
        args.spans_out.write_text(json.dumps({"pid": os.getpid(), "spans": spans}, default=str))


if __name__ == "__main__":
    sys.exit(main())
