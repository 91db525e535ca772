#!/usr/bin/env python
"""CI smoke test for the experiment service.

Boots the service on an ephemeral port with a throwaway SQLite store,
submits a tiny sweep over HTTP, polls the job to DONE, POSTs a fresh
spec twice back to back and checks that the pair ran one sweep, and
asserts that ``/healthz`` answers and ``/metrics`` exposes the queue/
state/cache counters and every group of the process-wide registry.  Then it shuts the service down, boots a second one on
the same database, and checks that the job, its result bytes and the
store hit for its spec survived the restart.  Exits non-zero on any
failure; prints a one-line summary per step so CI logs read as a
transcript.

Usage::

    PYTHONPATH=src python scripts/service_smoke.py
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

from repro.service.api import ExperimentService

SPEC = {
    "workload": "stereo",
    "caps_w": [150.0],
    "repetitions": 1,
    "scale": 0.001,
}
#: A spec no other step submits, POSTed twice back to back.
TWIN_SPEC = {**SPEC, "seed": 7}
TIMEOUT_S = 300.0

REQUIRED_METRICS = (
    "repro_queue_depth",
    'repro_jobs{state="done"}',
    'repro_jobs{state="queued"}',
    "repro_rate_cache_hits_total",
    "repro_rate_cache_misses_total",
    "repro_jobs_submitted_total",
    "repro_jobs_coalesced_total",
    "repro_sweep_wall_seconds_count",
    # The process-wide registry: build info, engine, telemetry, stream.
    "repro_build_info",
    "repro_engine_runs_total",
    "repro_engine_quanta_total",
    "repro_engine_traces_simulated_total",
    "repro_engine_rate_cache_hits_total",
    "repro_engine_rate_cache_misses_total",
    "repro_engine_run_seconds_count",
    'repro_engine_phase_seconds{phase="run"}',
    "repro_telemetry_runs_total",
    "repro_stream_events_total",
)


def http(method: str, url: str, body: dict | None = None):
    data = None if body is None else json.dumps(body).encode()
    req = urllib.request.Request(
        url,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    with urllib.request.urlopen(req, timeout=30) as resp:
        return resp.read()


def wait_terminal(service: ExperimentService, job: dict) -> dict:
    deadline = time.monotonic() + TIMEOUT_S
    while job["state"] not in ("done", "failed", "cancelled"):
        assert time.monotonic() < deadline, f"job did not finish: {job}"
        time.sleep(0.2)
        job = json.loads(http("GET", f"{service.url}/jobs/{job['id']}"))
    return job


def engine_runs(service: ExperimentService) -> float:
    for line in http("GET", service.url + "/metrics").decode().splitlines():
        if line.startswith("repro_engine_runs_total "):
            return float(line.split()[1])
    raise AssertionError("missing metric: repro_engine_runs_total")


def boot(tmp: Path) -> ExperimentService:
    service = ExperimentService(
        db_path=tmp / "smoke.sqlite3",
        port=0,
        workers=2,
        rate_cache=tmp / "rates.json",
    )
    service.start()
    print(f"[smoke] service up at {service.url}")
    return service


def run_smoke() -> None:
    tmp = Path(tempfile.mkdtemp(prefix="repro-smoke-"))
    service = boot(tmp)
    try:
        health = json.loads(http("GET", service.url + "/healthz"))
        assert health["status"] == "ok", health
        print(f"[smoke] /healthz ok (workers={health['workers']})")

        job = json.loads(http("POST", service.url + "/jobs", SPEC))
        print(f"[smoke] submitted job {job['id']} state={job['state']}")

        job = wait_terminal(service, job)
        assert job["state"] == "done", f"job did not finish: {job}"
        print(f"[smoke] job done after {job['attempts']} attempt(s)")

        result_bytes = http("GET", f"{service.url}/jobs/{job['id']}/result")
        rows = json.loads(result_bytes)["results"]["StereoMatching"]
        assert "baseline" in json.dumps(rows), rows
        print("[smoke] result document retrieved")

        twin = json.loads(http("POST", service.url + "/jobs", SPEC))
        assert twin["state"] == "done" and twin["deduplicated"], twin
        print("[smoke] identical resubmission was a store hit")

        runs0 = engine_runs(service)
        pair = [
            json.loads(http("POST", service.url + "/jobs", TWIN_SPEC))
            for _ in range(2)
        ]
        pair = [wait_terminal(service, twin) for twin in pair]
        assert [t["state"] for t in pair] == ["done", "done"], pair
        results = [
            json.dumps(
                json.loads(
                    http("GET", f"{service.url}/jobs/{t['id']}/result")
                )["results"],
                sort_keys=True,
            )
            for t in pair
        ]
        assert results[0] == results[1], "twins returned different results"
        sweep_runs = (len(TWIN_SPEC["caps_w"]) + 1) * TWIN_SPEC["repetitions"]
        runs = engine_runs(service) - runs0
        assert runs == sweep_runs, f"twins ran {runs:g} runs, not {sweep_runs}"
        print(f"[smoke] twins POSTed back to back: both done, identical "
              f"results, {runs:g} engine runs (one sweep)")

        metrics = http("GET", service.url + "/metrics").decode()
        for name in REQUIRED_METRICS:
            assert name in metrics, f"missing metric: {name}"
        fleet = [
            line for line in metrics.splitlines()
            if line.startswith("repro_fleet_")
        ]
        assert not fleet, f"fleet series on /metrics: {fleet}"
        print(f"[smoke] /metrics exposes all {len(REQUIRED_METRICS)} "
              "required series")
    finally:
        service.shutdown(drain=False)
        print("[smoke] service stopped")

    service = boot(tmp)
    try:
        again = json.loads(http("GET", f"{service.url}/jobs/{job['id']}"))
        assert again["state"] == "done", again
        assert http(
            "GET", f"{service.url}/jobs/{job['id']}/result"
        ) == result_bytes, "result bytes changed across the restart"
        twin = json.loads(http("POST", service.url + "/jobs", SPEC))
        assert twin["state"] == "done" and twin["deduplicated"], twin
        print("[smoke] after a restart on the same database: job done, "
              "result bytes unchanged, resubmission a store hit")
    finally:
        service.shutdown(drain=False)
        print("[smoke] service stopped")


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__).parse_args(argv)
    run_smoke()
    print("[smoke] PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
