"""The SSE streaming API end-to-end.

Covers: live subscription to a running job (its lifecycle events
exactly once, ids from 1, terminal close), full-history replay on a
finished job, ``Last-Event-ID`` resume via header and query parameter,
404 on unknown jobs, the live stream/engine gauges on ``/metrics``, the
no-perturbation contract — the result document is identical whether or
not anyone was subscribed while the job ran — the synthetic ``end``
frame of a job whose topic the bus forgot, and that the bus retains
only lifecycle events, a few per job.
"""

from __future__ import annotations

import http.client
import json
import time
import urllib.error
import urllib.request
from urllib.parse import urlparse

import pytest

from repro.obs import stream
from repro.obs.stream import (
    JOB_TOPIC_PREFIX,
    MAX_TOPICS,
    TERMINAL_EVENT_KINDS,
    EventBus,
    event_bus,
)
from repro.service.api import ExperimentService
from repro.service.jobs import JobSpec, JobState

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
        # A job's stream is its lifecycle: nothing duplicated, nothing
        # reordered, and the live subscriber saw the very first event.
        assert [f["event"] for f in frames] == ["job_started", "job_done"]
        assert [f["id"] for f in frames] == [1, 2]

    def test_finished_job_replays_full_history(self, service, streamed_job):
        job, live_frames = streamed_job
        replay = parse_sse(read_stream(service, f"/jobs/{job['id']}/stream"))
        assert replay == live_frames

    def test_last_event_id_header_resumes(self, service, streamed_job):
        job, live_frames = streamed_job
        ids = [f["id"] for f in live_frames if f["id"] is not None]
        floor = ids[0]
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
        with err.value:
            assert err.value.code == 404


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

    def test_stream_counters_exposed(self, service, streamed_job, tmp_path):
        _job, frames = streamed_job
        text = self.get_metrics(service)
        assert self.scalar(text, "repro_stream_events_total") >= len(frames)
        assert self.scalar(text, "repro_stream_dropped_total") >= 0.0
        # A client that hangs up on an idle stream is noticed at once:
        # a job that stays QUEUED publishes nothing, so only the
        # socket's EOF can end its session.
        idle = ExperimentService(
            db_path=tmp_path / "idle.sqlite3", port=0, workers=1
        )
        idle.start(start_workers=False)
        try:
            _, job = request_json(idle, "POST", "/jobs", SPEC)
            assert job["state"] == "queued"
            parsed = urlparse(idle.url)
            conn = http.client.HTTPConnection(
                parsed.hostname, parsed.port, timeout=10
            )
            conn.request("GET", f"/jobs/{job['id']}/stream")
            resp = conn.getresponse()  # holds the socket open
            subscribers = "repro_stream_subscribers"
            assert self.scalar(self.get_metrics(idle), subscribers) >= 1.0
            resp.close()
            conn.close()
            hung_up = time.monotonic()
            while time.monotonic() - hung_up < 2.0:
                value = self.scalar(self.get_metrics(idle), subscribers)
                if value == 0.0:
                    break
                time.sleep(0.05)
            assert value == 0.0
        finally:
            idle.shutdown(drain=False)

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


class TestForgottenTopic:
    """Runs last: it pushes every earlier job's topic out of the bus."""

    def test_finished_job_past_the_topic_bound_ends_cleanly(self, service):
        # A spec no earlier test ran, so the job publishes a full stream.
        _, job = request_json(service, "POST", "/jobs", {**SPEC, "seed": 99})
        for _ in range(1200):
            _, current = request_json(service, "GET", f"/jobs/{job['id']}")
            if current["state"] == "done":
                break
            time.sleep(0.05)
        assert current["state"] == "done"
        assert not current["deduplicated"]
        bus = event_bus()
        for k in range(MAX_TOPICS):
            bus.publish(f"job:forget-{k}", "sample", {})
        frames = parse_sse(read_stream(service, f"/jobs/{job['id']}/stream"))
        assert frames == [
            {"id": None, "event": "end", "data": {"state": "done"}}
        ]


class TestBusStaysSmall:
    """Only the scheduler publishes: a handful of lifecycle events a job."""

    def test_job_topics_hold_only_lifecycle_events(
        self, tmp_path, monkeypatch
    ):
        bus = EventBus()
        monkeypatch.setattr(stream, "_bus", bus)
        svc = ExperimentService(
            db_path="memory://",
            port=0,
            workers=2,
            rate_cache=tmp_path / "rates.json",
        )
        svc.start()
        try:
            jobs = [
                svc.scheduler.submit(
                    JobSpec(
                        workload="stereo",
                        caps_w=(150.0,),
                        scale=0.001,
                        seed=seed,
                    )
                )
                for seed in range(MAX_TOPICS + 6)
            ]
            assert svc.scheduler.drain(timeout=300)
            states = {svc.scheduler.get(job.id).state for job in jobs}
            max_attempts = jobs[0].max_attempts
        finally:
            svc.shutdown(drain=False)
        assert states == {JobState.DONE}
        # Every fresh job published exactly its start and its end, so
        # no forgotten topic held a sample or detection event either.
        assert bus.published_total() == 2 * len(jobs)
        topics = bus.topics()
        assert len(topics) == MAX_TOPICS
        lifecycle = {"job_started", "job_retry"} | TERMINAL_EVENT_KINDS
        for topic in topics:
            assert topic.startswith(JOB_TOPIC_PREFIX)
            sub = bus.subscribe(topic)
            events = iter(lambda: sub.get(timeout=0), None)
            kinds = [event.kind for event in events]
            bus.unsubscribe(sub)
            assert set(kinds) <= lifecycle, kinds
            assert len(kinds) <= 2 * max_attempts
