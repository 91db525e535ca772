"""The SSE streaming API end-to-end.

Covers: live subscription to a running job (every event exactly once,
ids strictly increasing, terminal close), full-history replay on a
finished job, ``Last-Event-ID`` resume via header and query parameter,
404 on unknown jobs, the fleet stream, the live stream/engine gauges
on ``/metrics``, and the no-perturbation contract — the result
document is identical whether or not anyone was subscribed while the
job ran.
"""

from __future__ import annotations

import http.client
import json
import time
import urllib.error
import urllib.request
from urllib.parse import urlparse

import pytest

from repro.obs.stream import FLEET_TOPIC, event_bus
from repro.service.api import ExperimentService

SPEC = {
    "workload": "stereo",
    "caps_w": [150.0, 140.0],
    "repetitions": 1,
    "scale": 0.001,
}


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("stream_service")
    svc = ExperimentService(
        db_path=tmp / "svc.sqlite3",
        port=0,
        workers=2,
        rate_cache=tmp / "rates.json",
    )
    svc.start()
    yield svc
    svc.shutdown(drain=False)


def request_json(service, method, path, body=None):
    data = None if body is None else json.dumps(body).encode()
    req = urllib.request.Request(
        service.url + path,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    with urllib.request.urlopen(req, timeout=30) as resp:
        return resp.status, json.loads(resp.read())


def read_stream(service, path, headers=None):
    """Blocking GET; returns the whole SSE body once the server closes."""
    req = urllib.request.Request(service.url + path, headers=headers or {})
    with urllib.request.urlopen(req, timeout=120) as resp:
        assert resp.headers["Content-Type"] == "text/event-stream"
        return resp.read().decode()


def parse_sse(text):
    """SSE body -> [{'id': int|None, 'event': str, 'data': dict}]."""
    frames = []
    for block in text.split("\n\n"):
        fields = {}
        for line in block.splitlines():
            if not line or line.startswith(":"):
                continue
            key, _, value = line.partition(": ")
            fields[key] = value
        if "event" in fields:
            frames.append({
                "id": int(fields["id"]) if "id" in fields else None,
                "event": fields["event"],
                "data": json.loads(fields["data"]),
            })
    return frames


@pytest.fixture(scope="module")
def streamed_job(service):
    """Submit a job and consume its live stream until the server closes."""
    status, job = request_json(service, "POST", "/jobs", SPEC)
    assert status == 201
    frames = parse_sse(read_stream(service, f"/jobs/{job['id']}/stream"))
    return job, frames


class TestJobStream:
    def test_live_stream_exactly_once_and_terminal_close(self, streamed_job):
        _job, frames = streamed_job
        kinds = [f["event"] for f in frames]
        assert kinds[0] == "job_started"
        assert kinds[-1] == "job_done"
        assert kinds.count("job_done") == 1
        assert kinds.count("sample") >= 1
        ids = [f["id"] for f in frames if f["id"] is not None]
        # Strictly increasing: nothing duplicated, nothing reordered.
        assert all(b > a for a, b in zip(ids, ids[1:]))
        assert ids[0] == 1  # the live subscriber saw the very first event

    def test_sample_frames_carry_telemetry(self, streamed_job):
        _job, frames = streamed_job
        sample = next(f for f in frames if f["event"] == "sample")
        assert "t_s" in sample["data"]
        assert "channels" in sample["data"]
        assert "power_w" in sample["data"]["channels"]

    def test_finished_job_replays_full_history(self, service, streamed_job):
        job, live_frames = streamed_job
        replay = parse_sse(read_stream(service, f"/jobs/{job['id']}/stream"))
        assert replay == live_frames

    def test_last_event_id_header_resumes(self, service, streamed_job):
        job, live_frames = streamed_job
        ids = [f["id"] for f in live_frames if f["id"] is not None]
        floor = ids[len(ids) // 2]
        resumed = parse_sse(read_stream(
            service,
            f"/jobs/{job['id']}/stream",
            headers={"Last-Event-ID": str(floor)},
        ))
        resumed_ids = [f["id"] for f in resumed if f["id"] is not None]
        assert resumed_ids == [i for i in ids if i > floor]
        assert resumed[-1]["event"] == "job_done"

    def test_last_event_id_query_param_resumes(self, service, streamed_job):
        job, live_frames = streamed_job
        last = max(f["id"] for f in live_frames if f["id"] is not None)
        # Fully caught up: no events left, just the synthetic end frame.
        tail = parse_sse(read_stream(
            service, f"/jobs/{job['id']}/stream?last_event_id={last}"
        ))
        assert [f["event"] for f in tail] == ["end"]
        assert tail[0]["data"]["state"] == "done"

    def test_unknown_job_is_404(self, service):
        with pytest.raises(urllib.error.HTTPError) as err:
            read_stream(service, "/jobs/nope/stream")
        assert err.value.code == 404


class TestFleetStream:
    def test_replays_published_fleet_events(self, service):
        bus = event_bus()
        first = bus.publish(FLEET_TOPIC, "fleet_health", {"headroom_w": 40.0})
        bus.publish(FLEET_TOPIC, "fleet_health", {"headroom_w": 35.0})
        last = bus.publish(
            FLEET_TOPIC, "detection", {"phenomenon": "budget_thrash"}
        )
        # The fleet topic never terminates, so read incrementally over
        # a raw connection and hang up once the frames have arrived.
        parsed = urlparse(service.url)
        conn = http.client.HTTPConnection(
            parsed.hostname, parsed.port, timeout=10
        )
        try:
            conn.request(
                "GET", f"/fleet/stream?last_event_id={first - 1}"
            )
            resp = conn.getresponse()
            assert resp.headers["Content-Type"] == "text/event-stream"
            buf = b""
            while f"id: {last}\n".encode() not in buf or not buf.endswith(
                b"\n\n"
            ):
                buf += resp.fp.readline()
        finally:
            conn.close()
        frames = parse_sse(buf.decode())
        assert [f["id"] for f in frames] == [first, first + 1, last]
        assert [f["event"] for f in frames] == [
            "fleet_health", "fleet_health", "detection",
        ]
        assert frames[0]["data"] == {"headroom_w": 40.0}


class TestLiveGauges:
    def get_metrics(self, service):
        req = urllib.request.Request(service.url + "/metrics")
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.read().decode()

    def scalar(self, text, name):
        for line in text.splitlines():
            if line.startswith(name + " "):
                return float(line.split()[1])
        raise AssertionError(f"{name} not found in /metrics")

    def test_stream_counters_exposed(self, service, streamed_job):
        _job, frames = streamed_job
        text = self.get_metrics(service)
        assert self.scalar(text, "repro_stream_events_total") >= len(frames)
        assert self.scalar(text, "repro_stream_dropped_total") >= 0.0
        # A client that hangs up on an idle fleet stream is noticed at
        # once, not at the server's next keepalive write (5 s away).
        parsed = urlparse(service.url)
        conn = http.client.HTTPConnection(
            parsed.hostname, parsed.port, timeout=10
        )
        conn.request("GET", "/fleet/stream")
        resp = conn.getresponse()  # holds the socket open
        subscribers = "repro_stream_subscribers"
        assert self.scalar(self.get_metrics(service), subscribers) >= 1.0
        resp.close()
        conn.close()
        hung_up = time.monotonic()
        while time.monotonic() - hung_up < 2.0:
            value = self.scalar(self.get_metrics(service), subscribers)
            if value == 0.0:
                break
            time.sleep(0.05)
        assert value == 0.0

    def test_effective_jobs_gauge_exposed(self, service, streamed_job):
        text = self.get_metrics(service)
        assert self.scalar(text, "repro_engine_effective_jobs") >= 1.0

    def test_rate_cache_gauges_live(self, service, streamed_job):
        text = self.get_metrics(service)
        hits = self.scalar(text, "repro_rate_cache_hits_total")
        misses = self.scalar(text, "repro_rate_cache_misses_total")
        # The sweep simulated at least one fresh (workload, gating)
        # rate set; the scrape-time callback must see the scheduler's
        # shared cache, not a zeroed default.
        assert misses >= 1.0
        assert hits >= 0.0


class TestByteIdentity:
    """Streaming is observation only: a subscriber cannot change results."""

    def run_job(self, tmp_path, name, subscribe):
        svc = ExperimentService(
            db_path=tmp_path / f"{name}.sqlite3",
            port=0,
            workers=1,
            rate_cache=tmp_path / f"{name}_rates.json",
        )
        svc.start()
        try:
            _, job = request_json(svc, "POST", "/jobs", SPEC)
            if subscribe:
                frames = parse_sse(
                    read_stream(svc, f"/jobs/{job['id']}/stream")
                )
                assert frames[-1]["event"] == "job_done"
            else:
                for _ in range(1200):
                    _, j = request_json(svc, "GET", f"/jobs/{job['id']}")
                    if j["state"] == "done":
                        break
                    time.sleep(0.05)
                else:
                    raise AssertionError("job never finished")
            _, payload = request_json(
                svc, "GET", f"/jobs/{job['id']}/result"
            )
            return payload["results"]
        finally:
            svc.shutdown(drain=False)

    def test_result_identical_with_and_without_subscriber(self, tmp_path):
        observed = self.run_job(tmp_path, "observed", subscribe=True)
        silent = self.run_job(tmp_path, "silent", subscribe=False)
        assert set(observed) == set(silent)
        for name in observed:
            a, b = dict(observed[name]), dict(silent[name])
            # Provenance records this production's wall times; every
            # engine-produced byte must match exactly.
            a.pop("provenance")
            b.pop("provenance")
            assert a == b
