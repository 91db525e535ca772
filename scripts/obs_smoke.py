#!/usr/bin/env python
"""CI smoke test for the observability layer.

Runs a tiny CLI sweep with ``--log-json --log-level info --trace-out``
in a subprocess (exactly what a user types) and asserts the
instrumentation products are well-formed:

- **stderr** is valid JSON lines, every record carrying the stable
  schema keys (``ts``, ``level``, ``logger``, ``event``);
- **the trace file** parses as Chrome ``trace_event`` JSON whose
  complete (``"ph": "X"``) spans account for at least 90% of the
  trace's wall-clock extent via the ``sweep`` span, and whose
  telemetry counter (``"ph": "C"``) events carry channel values;
- **stdout** is the sweep's JSON result document with a ``provenance``
  manifest recording seed, config digest, and per-phase seconds —
  and ``repro-powercap inspect`` renders it;
- **the service timeline API**: a tiny job driven to DONE over HTTP
  serves ``GET /jobs/<id>/timeseries`` with non-empty, monotonic
  timestamps and both power and frequency channels;
- **the SSE stream**: ``GET /jobs/<id>/stream`` subscribed to during a
  live sweep delivers at least one telemetry ``sample`` event with
  strictly increasing event ids and closes cleanly on a terminal
  job-lifecycle event;
- **the observability archive**: the service runs with ``--archive``
  semantics (an :class:`repro.obs.archive.ObsArchive` attached), so
  after the job completes the archive holds ``/metrics`` snapshot rows
  (including ``repro_build_info``), a distilled per-run record, and
  ``GET /metrics/history`` serves the recorded series.

The trace, the served timeline JSON, and the captured SSE stream are
copied into ``$REPRO_SMOKE_ARTIFACT_DIR`` (when set) so CI can upload
them as workflow artifacts.  Exits non-zero on any failure; prints a one-line
summary per step so CI logs read as a transcript.

Usage::

    PYTHONPATH=src python scripts/obs_smoke.py
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
import urllib.parse
import urllib.request
from pathlib import Path

SCHEMA_KEYS = {"ts", "level", "logger", "event"}


def run_cli(args: list[str], **kwargs) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        timeout=600,
        env=env,
        **kwargs,
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


def check_timeline_api(tmp: Path) -> tuple[Path, Path]:
    """Drive a job to DONE and validate ``GET /jobs/<id>/timeseries``."""
    from repro.service.api import ExperimentService

    service = ExperimentService(
        db_path=tmp / "smoke.sqlite3",
        port=0,
        workers=1,
        rate_cache=tmp / "rates.json",
        archive=tmp / "archive.sqlite3",
        archive_period_s=0.2,
    )
    service.start()
    print(f"[obs-smoke] service up at {service.url}")
    try:
        spec = {
            "workload": "stereo",
            "caps_w": [150.0, 120.0],
            "repetitions": 1,
            "scale": 0.001,
        }
        job = json.loads(http("POST", service.url + "/jobs", spec))
        deadline = time.monotonic() + 300.0
        while time.monotonic() < deadline:
            job = json.loads(http("GET", f"{service.url}/jobs/{job['id']}"))
            if job["state"] in ("done", "failed"):
                break
            time.sleep(0.2)
        assert job["state"] == "done", f"job did not finish: {job}"

        raw = http("GET", f"{service.url}/jobs/{job['id']}/timeseries")
        payload = json.loads(raw)
        entry = payload["timeseries"]["StereoMatching"]
        rows = [entry["baseline"], *entry["by_cap"].values()]
        assert entry["by_cap"], "no per-cap timelines served"
        for row in rows:
            channels = row["timeline"]["channels"]
            assert "power_w" in channels, sorted(channels)
            assert "freq_mhz" in channels, sorted(channels)
            ts = channels["power_w"]["t"]
            assert ts, "empty power_w timestamps"
            assert ts == sorted(ts), "timestamps not monotonic"
        print(
            f"[obs-smoke] /jobs/<id>/timeseries serves {len(rows)} "
            "timelines with monotonic power+frequency samples"
        )
        timeline_path = tmp / "timeline.json"
        timeline_path.write_bytes(raw)

        check_archive(service, job["id"])

        stream_path = check_sse_stream(service, tmp)
        return timeline_path, stream_path
    finally:
        service.shutdown(drain=False)


def check_archive(service, job_id: str) -> None:
    """The attached archive holds snapshots and the completed run."""
    archive = service.archive
    assert archive is not None, "service did not attach the archive"
    # The recorder snapshots once at start(); give the periodic loop a
    # beat so at least one timed scrape lands too.
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline and archive.snapshot_count() == 0:
        time.sleep(0.1)
    n_rows = archive.snapshot_count()
    assert n_rows > 0, "no /metrics snapshot rows recorded while serving"
    series = archive.snapshot_series()
    assert any(s.startswith("repro_build_info") for s in series), series
    assert any(s.startswith("repro_jobs_submitted_total") for s in series), (
        series
    )

    run = archive.get_run(job_id)
    assert run is not None, f"completed job {job_id} not archived"
    assert run["kind"] == "job", run
    assert run["series"].get("runs_per_s", 0.0) > 0.0, run["series"]
    assert any(k.startswith("phase.") for k in run["series"]), run["series"]

    history = json.loads(http("GET", service.url + "/metrics/history"))
    # Snapshots keep landing while this runs, and a series once archived
    # stays, so each later read holds every series an earlier one saw.
    assert (
        set(series) <= set(history["series"]) <= set(archive.snapshot_series())
    ), (series, history["series"])
    name = next(s for s in series if s.startswith("repro_jobs_submitted_total"))
    points = json.loads(
        http("GET", service.url + "/metrics/history?series="
             + urllib.parse.quote(name))
    )
    assert points["points"], f"no history points served for {name}"
    print(
        f"[obs-smoke] archive recorded {n_rows} snapshot rows over "
        f"{len(series)} series and the run record for {job_id}; "
        "/metrics/history serves them"
    )


def parse_sse(text: str) -> list[dict]:
    """``[{'id': .., 'event': .., 'data': ..}, ...]`` from a raw stream."""
    frames = []
    for block in text.split("\n\n"):
        frame: dict = {}
        for line in block.splitlines():
            if line.startswith(":"):  # comment / keepalive
                continue
            if ": " in line:
                key, value = line.split(": ", 1)
                frame[key] = value
        if frame:
            frames.append(frame)
    return frames


def check_sse_stream(service, tmp: Path) -> Path:
    """Subscribe to ``/jobs/<id>/stream`` during a live sweep.

    The subscription is opened immediately after the POST, so the
    stream is consumed while the sweep runs; ``Last-Event-ID`` replay
    covers the race where the tiny job finishes first.  Asserts at
    least one telemetry ``sample`` event, strictly increasing event
    ids, and a clean terminal close.
    """
    spec = {
        "workload": "sire",
        "caps_w": [150.0],
        "repetitions": 1,
        "scale": 0.001,
    }
    job = json.loads(http("POST", service.url + "/jobs", spec))
    # Blocks until the server closes the stream on the terminal event.
    raw = http("GET", f"{service.url}/jobs/{job['id']}/stream").decode()
    frames = parse_sse(raw)
    assert frames, "empty SSE stream"
    kinds = [f.get("event") for f in frames]
    assert "job_started" in kinds, kinds
    assert kinds.count("sample") >= 1, f"no telemetry samples: {kinds}"
    assert kinds[-1] in ("job_done", "end"), f"unclean close: {kinds[-1]}"
    ids = [int(f["id"]) for f in frames if "id" in f]
    assert ids == sorted(set(ids)), f"event ids not increasing: {ids}"
    for frame in frames:
        if "data" in frame:
            json.loads(frame["data"])  # raises on malformed payloads
    print(
        f"[obs-smoke] /jobs/<id>/stream delivered {len(frames)} SSE "
        f"events ({kinds.count('sample')} samples), closed on "
        f"{kinds[-1]!r}"
    )
    stream_path = tmp / "stream.txt"
    stream_path.write_text(raw)
    return stream_path


def export_artifacts(paths: list[Path]) -> None:
    artifact_dir = os.environ.get("REPRO_SMOKE_ARTIFACT_DIR")
    if not artifact_dir:
        return
    dest = Path(artifact_dir)
    dest.mkdir(parents=True, exist_ok=True)
    for path in paths:
        (dest / path.name).write_bytes(path.read_bytes())
    print(f"[obs-smoke] exported {len(paths)} artifact(s) to {dest}")


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__).parse_args(argv)
    tmp = Path(tempfile.mkdtemp(prefix="repro-obs-smoke-"))
    trace_path = tmp / "prof.json"
    proc = run_cli(
        [
            "--log-json",
            "--log-level",
            "info",
            "--trace-out",
            str(trace_path),
            "--scale",
            "0.001",
            "sweep",
            "--workload",
            "stereo",
            "--caps",
            "150",
            "--format",
            "json",
        ]
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    print("[obs-smoke] sweep exited 0")

    log_lines = [l for l in proc.stderr.splitlines() if l.strip()]
    assert log_lines, "no log lines on stderr"
    for line in log_lines:
        doc = json.loads(line)  # raises on malformed JSON
        missing = SCHEMA_KEYS - set(doc)
        assert not missing, f"log line missing {missing}: {line}"
    events = [json.loads(l)["event"] for l in log_lines]
    assert "sweep_done" in events, events
    print(f"[obs-smoke] {len(log_lines)} JSON log lines, schema stable")

    trace = json.loads(trace_path.read_text())
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    counters = [e for e in trace["traceEvents"] if e["ph"] == "C"]
    assert spans, "empty traceEvents"
    assert len(spans) + len(counters) == len(trace["traceEvents"]), (
        "unexpected event phase in trace"
    )
    for event in spans:
        assert event["dur"] >= 0.0, event
    start = min(e["ts"] for e in spans)
    end = max(e["ts"] + e["dur"] for e in spans)
    sweep_us = sum(e["dur"] for e in spans if e["name"] == "sweep")
    coverage = sweep_us / (end - start)
    assert coverage >= 0.9, f"sweep span covers only {coverage:.0%}"
    print(
        f"[obs-smoke] trace has {len(spans)} spans; sweep covers "
        f"{coverage:.0%} of the {(end - start) / 1e6:.2f}s extent"
    )
    assert counters, "no telemetry counter events in trace"
    for event in counters:
        assert event["args"], event
    names = {e["name"] for e in counters}
    assert "telemetry:power_w" in names, sorted(names)
    print(
        f"[obs-smoke] trace has {len(counters)} counter events on "
        f"{len(names)} telemetry tracks"
    )

    result = json.loads(proc.stdout)
    manifest = result["provenance"]
    for key in ("config_digest", "seed", "phase_seconds", "workload"):
        assert key in manifest, f"provenance missing {key}"
    assert manifest["phase_seconds"].get("sweep", 0.0) > 0.0
    print("[obs-smoke] result document carries a provenance manifest")

    result_path = tmp / "result.json"
    result_path.write_text(proc.stdout)
    proc = run_cli(["inspect", str(result_path)])
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "config_digest:" in proc.stdout, proc.stdout
    print("[obs-smoke] inspect renders the stored manifest")

    proc = run_cli(["timeline", str(result_path), "--ascii",
                    "--channel", "power_w"])
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "power_w |" in proc.stdout, proc.stdout
    print("[obs-smoke] timeline --ascii renders the stored timeline")

    timeline_path, stream_path = check_timeline_api(tmp)
    export_artifacts([trace_path, timeline_path, stream_path])

    print("[obs-smoke] PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
