"""HTTP API end-to-end: the acceptance path of the service layer.

Covers: submit -> DONE; dedup on resubmission; the timeseries
endpoint; /healthz; /metrics content; cancellation; error paths.  The
served result's byte-identity with a direct sweep is checked in
``test_async_api.py``.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.service.api import ExperimentService

SPEC = {
    "workload": "stereo",
    "caps_w": [150.0, 140.0],
    "repetitions": 1,
    "scale": 0.001,
}
POLL_S = 0.05
POLL_TRIES = 1200  # 60 s ceiling


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("service")
    svc = ExperimentService(
        db_path=tmp / "svc.sqlite3",
        port=0,
        workers=2,
        rate_cache=tmp / "rates.json",
    )
    svc.start()
    yield svc
    svc.shutdown(drain=False)


def request(service, method, path, body=None):
    data = None if body is None else json.dumps(body).encode()
    req = urllib.request.Request(
        service.url + path,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    with urllib.request.urlopen(req, timeout=30) as resp:
        return resp.status, resp.read()


def request_json(service, method, path, body=None):
    status, raw = request(service, method, path, body)
    return status, json.loads(raw)


def poll_until_done(service, job_id):
    import time

    for _ in range(POLL_TRIES):
        _, job = request_json(service, "GET", f"/jobs/{job_id}")
        if job["state"] in ("done", "failed", "cancelled"):
            return job
        time.sleep(POLL_S)
    raise AssertionError(f"job {job_id} never finished: {job}")


@pytest.fixture(scope="module")
def finished_job(service):
    status, job = request_json(service, "POST", "/jobs", SPEC)
    assert status == 201
    assert job["state"] in ("queued", "running", "done")
    return poll_until_done(service, job["id"])


class TestEndToEnd:
    def test_job_reaches_done(self, finished_job):
        assert finished_job["state"] == "done"
        assert finished_job["error"] is None
        assert finished_job["attempts"] == 1

    def test_resubmission_is_a_store_hit(self, service, finished_job):
        status, twin = request_json(service, "POST", "/jobs", SPEC)
        assert status == 201
        assert twin["state"] == "done"
        assert twin["deduplicated"] is True
        assert twin["spec_digest"] == finished_job["spec_digest"]
        _, payload = request_json(
            service, "GET", f"/jobs/{twin['id']}/result"
        )
        assert payload["deduplicated"] is True

    def test_jobs_listing(self, service, finished_job):
        _, listing = request_json(service, "GET", "/jobs")
        assert any(j["id"] == finished_job["id"] for j in listing["jobs"])


class TestTimeseriesEndpoint:
    def test_json_timelines_for_every_cap(self, service, finished_job):
        status, payload = request_json(
            service, "GET", f"/jobs/{finished_job['id']}/timeseries"
        )
        assert status == 200
        assert payload["id"] == finished_job["id"]
        entry = payload["timeseries"]["StereoMatching"]
        assert entry["baseline"] is not None
        assert set(entry["by_cap"]) == {"150", "140"}
        for cap_entry in [entry["baseline"], *entry["by_cap"].values()]:
            channels = cap_entry["timeline"]["channels"]
            assert "power_w" in channels and "freq_mhz" in channels
            ts = channels["power_w"]["t"]
            assert len(ts) > 0
            assert ts == sorted(ts)  # monotonic timestamps
            assert cap_entry["summary"]["channels"]["power_w"]["points"] > 0

    def test_channel_filter(self, service, finished_job):
        _, payload = request_json(
            service,
            "GET",
            f"/jobs/{finished_job['id']}/timeseries?channel=power_w",
        )
        entry = payload["timeseries"]["StereoMatching"]
        assert list(entry["baseline"]["timeline"]["channels"]) == ["power_w"]

    def test_csv_format(self, service, finished_job):
        status, raw = request(
            service,
            "GET",
            f"/jobs/{finished_job['id']}/timeseries?format=csv"
            "&channel=power_w&channel=freq_mhz",
        )
        assert status == 200
        lines = raw.decode().strip().splitlines()
        assert lines[0] == "workload,cap,channel,t_s,dt_s,mean,min,max"
        assert len(lines) > 3
        assert any(",baseline,power_w," in l for l in lines[1:])
        assert any(",140,freq_mhz," in l for l in lines[1:])

    def test_unknown_channel_400(self, service, finished_job):
        with pytest.raises(urllib.error.HTTPError) as err:
            request(
                service,
                "GET",
                f"/jobs/{finished_job['id']}/timeseries?channel=bogus",
            )
        assert err.value.code == 400
        assert "unknown channel" in json.loads(err.value.read())["error"]

    def test_unknown_format_400(self, service, finished_job):
        with pytest.raises(urllib.error.HTTPError) as err:
            request(
                service,
                "GET",
                f"/jobs/{finished_job['id']}/timeseries?format=xml",
            )
        assert err.value.code == 400

    def test_unknown_job_404(self, service):
        with pytest.raises(urllib.error.HTTPError) as err:
            request(service, "GET", "/jobs/ghost/timeseries")
        assert err.value.code == 404


class TestHealthAndMetrics:
    def test_healthz(self, service):
        status, health = request_json(service, "GET", "/healthz")
        assert status == 200
        assert health["status"] == "ok"
        assert health["workers"] == 2
        assert isinstance(health["queue_depth"], int)
        assert health["frontend"] == "async"

    def test_metrics_exposition(self, service, finished_job):
        url = service.url + "/metrics"
        with urllib.request.urlopen(url, timeout=30) as resp:
            assert resp.status == 200
            assert resp.headers["Content-Type"].startswith("text/plain")
            text = resp.read().decode()
        assert "# TYPE repro_queue_depth gauge" in text
        assert "repro_queue_depth " in text
        assert 'repro_jobs{state="done"}' in text
        assert 'repro_jobs{state="queued"}' in text
        assert "repro_rate_cache_hits_total" in text
        assert "repro_rate_cache_misses_total" in text
        assert "# TYPE repro_sweep_wall_seconds histogram" in text
        assert "repro_sweep_wall_seconds_count" in text
        assert "repro_jobs_submitted_total" in text
        # Telemetry series ride along in the same exposition; the
        # finished sweep recorded at least one timeline.
        assert "repro_telemetry_runs_total" in text
        assert "repro_telemetry_samples_total" in text
        assert "repro_admission_shed_total" in text
        assert "repro_service_shards" in text

    def test_rate_cache_counters_move(self, service, finished_job):
        # The sweep measured at least one gating -> misses > 0.
        _, raw = request(service, "GET", "/metrics")
        line = next(
            l
            for l in raw.decode().splitlines()
            if l.startswith("repro_rate_cache_misses_total")
        )
        assert float(line.split()[-1]) > 0


class TestErrorPaths:
    def expect_status(self, service, method, path, body, expected):
        with pytest.raises(urllib.error.HTTPError) as err:
            request(service, method, path, body)
        assert err.value.code == expected
        return json.loads(err.value.read())

    def test_unknown_job_404(self, service):
        body = self.expect_status(service, "GET", "/jobs/ghost", None, 404)
        assert "no such job" in body["error"]

    def test_unknown_route_404(self, service):
        self.expect_status(service, "GET", "/nope", None, 404)

    def test_bad_spec_400(self, service):
        body = self.expect_status(
            service, "POST", "/jobs", {"workload": "linpack"}, 400
        )
        assert "unknown workload" in body["error"]
        body = self.expect_status(
            service, "POST", "/jobs", {"workload": "stereo", "jobs": 2}, 400
        )
        assert "unknown job spec fields: ['jobs']" in body["error"]

    def test_inverted_range_400(self, service):
        body = self.expect_status(
            service,
            "POST",
            "/jobs",
            {"workload": "stereo", "cap_max_w": 120, "cap_min_w": 160},
            400,
        )
        assert "inverted cap range" in body["error"]

    def test_invalid_json_400(self, service):
        req = urllib.request.Request(
            service.url + "/jobs", data=b"{nope", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10)
        assert err.value.code == 400

    def test_queued_job_result_409_and_cancel(self, tmp_path):
        # API up, workers idle: the job deterministically stays QUEUED.
        svc = ExperimentService(
            db_path=tmp_path / "idle.sqlite3", port=0, workers=1
        )
        svc.start(start_workers=False)
        try:
            _, job = request_json(svc, "POST", "/jobs", SPEC)
            assert job["state"] == "queued"
            body = self.expect_status(
                svc, "GET", f"/jobs/{job['id']}/result", None, 409
            )
            assert "not available" in body["error"]
            status, cancelled = request_json(
                svc, "DELETE", f"/jobs/{job['id']}"
            )
            assert status == 200
            assert cancelled["state"] == "cancelled"
        finally:
            svc.shutdown(drain=False)

    def test_cancel_unknown_404(self, service):
        self.expect_status(service, "DELETE", "/jobs/ghost", None, 404)

    def test_cancel_done_job_409(self, service, finished_job):
        body = self.expect_status(
            service, "DELETE", f"/jobs/{finished_job['id']}", None, 409
        )
        assert "only queued jobs" in body["error"]
