"""The HTTP front end (``repro.service.asyncapi``), over real sockets.

Covers the transport's own contract: the served result document is
byte-identical to a direct in-process sweep; keep-alive reuse and the
close rules of HTTP/1.1 and HTTP/1.0; no delayed-ACK stall on small
keep-alive responses; 405 and 413; requests the parser refuses
answered with 400/413/414/431 and ``Connection: close``; admission
sheds (rate limit and full queue) with ``Retry-After``; concurrent
keep-alive submission; bind errors raised by ``start``; and
graceful shutdown (queued jobs re-recorded, open streams closed with a
terminal ``end`` frame).  The routes themselves are covered in
``test_api.py`` and the SSE streams in ``test_stream_api.py``.
"""

from __future__ import annotations

import http.client
import json
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request
from urllib.parse import urlparse

import pytest

from repro.core.experiment import PowerCapExperiment
from repro.core.serialize import experiment_to_dict
from repro.service.api import ExperimentService
from repro.service.store import ResultStore
from repro.workloads import make_workload

SPEC = {
    "workload": "stereo",
    "caps_w": [150.0, 140.0],
    "repetitions": 1,
    "scale": 0.001,
}
POLL_S = 0.05
POLL_TRIES = 1200


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("async_service")
    svc = ExperimentService(
        db_path=tmp / "svc.sqlite3",
        port=0,
        workers=2,
        rate_cache=tmp / "rates.json",
    )
    svc.start()
    yield svc
    svc.shutdown(drain=False)


def request(service, method, path, body=None, headers=None):
    data = None if body is None else json.dumps(body).encode()
    merged = dict(headers or {})
    if data:
        merged.setdefault("Content-Type", "application/json")
    req = urllib.request.Request(
        service.url + path, data=data, method=method, headers=merged
    )
    with urllib.request.urlopen(req, timeout=30) as resp:
        return resp.status, resp.read(), dict(resp.headers)


def request_json(service, method, path, body=None, headers=None):
    status, raw, _ = request(service, method, path, body, headers)
    return status, json.loads(raw)


def poll_until_done(service, job_id):
    for _ in range(POLL_TRIES):
        _, job = request_json(service, "GET", f"/jobs/{job_id}")
        if job["state"] in ("done", "failed", "cancelled"):
            return job
        time.sleep(POLL_S)
    raise AssertionError(f"job {job_id} never finished: {job}")


def parse_sse(text):
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


def read_stream(service, path, headers=None):
    req = urllib.request.Request(service.url + path, headers=headers or {})
    with urllib.request.urlopen(req, timeout=120) as resp:
        assert resp.headers["Content-Type"] == "text/event-stream"
        return resp.read().decode()


@pytest.fixture(scope="module")
def finished_job(service):
    status, job = request_json(service, "POST", "/jobs", SPEC)
    assert status == 201
    done = poll_until_done(service, job["id"])
    assert done["state"] == "done"
    return done


def raw_exchange(service, payload: bytes, timeout: float = 10.0) -> bytes:
    """Send raw bytes on a fresh socket; return all bytes until EOF."""
    parsed = urlparse(service.url)
    with socket.create_connection(
        (parsed.hostname, parsed.port), timeout=timeout
    ) as sock:
        sock.sendall(payload)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


class TestParity:
    def test_result_byte_identical_to_direct_sweep(
        self, service, finished_job
    ):
        _, payload = request_json(
            service, "GET", f"/jobs/{finished_job['id']}/result"
        )
        workload = make_workload(SPEC["workload"], SPEC["scale"])
        direct = PowerCapExperiment(
            [workload],
            caps_w=tuple(SPEC["caps_w"]),
            repetitions=SPEC["repetitions"],
            seed=finished_job["spec"]["seed"],
        ).run_all()
        expected = {
            name: json.loads(json.dumps(experiment_to_dict(result)))
            for name, result in direct.items()
        }
        served = payload["results"]
        for docs in (served, expected):
            for doc in docs.values():
                doc.pop("provenance")
        assert served == expected


class TestErrors:
    def test_unsupported_method_405(self, service):
        req = urllib.request.Request(
            service.url + "/jobs", data=b"{}", method="PUT"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=30)
        with err.value:
            assert err.value.code == 405

    def test_oversized_body_413(self, service):
        body = b'{"pad": "' + b"x" * (1 << 20) + b'"}'
        req = urllib.request.Request(
            service.url + "/jobs",
            data=body,
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=30)
        with err.value:
            assert err.value.code == 413

    @pytest.mark.parametrize(
        "payload, status",
        [
            (b"GARBAGE\r\n\r\n", 400),
            (b"POST /jobs HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400),
            (
                b"POST /jobs HTTP/1.1\r\nContent-Length: 3145728\r\n\r\n",
                413,
            ),
            (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", 414),
            (
                b"GET /healthz HTTP/1.1\r\nX-Big: "
                + b"a" * 70_000
                + b"\r\n\r\n",
                431,
            ),
            (
                b"GET /healthz HTTP/1.1\r\n"
                + b"".join(b"X-H%d: 1\r\n" % k for k in range(101))
                + b"\r\n",
                431,
            ),
        ],
        ids=[
            "bad-request-line",
            "bad-content-length",
            "body-over-limit",
            "request-line-over-limit",
            "header-line-over-limit",
            "101-header-lines",
        ],
    )
    def test_refused_request_is_answered_then_closed(
        self, service, payload, status
    ):
        """The parser answers what it refuses instead of dropping it."""
        raw = raw_exchange(service, payload)
        head, _, body = raw.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        assert lines[0].split()[1] == str(status), lines[0]
        assert "Connection: close" in lines[1:]
        assert "request_id" in json.loads(body)


class TestKeepAlive:
    def test_connection_reuse(self, service):
        """Several requests down one socket: HTTP/1.1 keep-alive."""
        parsed = urlparse(service.url)
        conn = http.client.HTTPConnection(
            parsed.hostname, parsed.port, timeout=30
        )
        try:
            for _ in range(3):
                conn.request("GET", "/healthz")
                resp = conn.getresponse()
                assert resp.status == 200
                json.loads(resp.read())
        finally:
            conn.close()

    def test_connection_close_honoured(self, service):
        """The server closes after the response; ``raw_exchange`` reads
        to EOF, so a connection left open fails by timing out."""
        for payload in (
            b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
            b"GET /healthz HTTP/1.0\r\n\r\n",
        ):
            raw = raw_exchange(service, payload, timeout=3.0)
            head, _, body = raw.partition(b"\r\n\r\n")
            lines = head.decode("latin-1").split("\r\n")
            assert lines[0].split()[1] == "200", payload
            assert "Connection: close" in lines[1:], payload
            json.loads(body)

    def test_http10_keep_alive_on_request(self, service):
        """An HTTP/1.0 request that asks for keep-alive gets it."""
        raw = raw_exchange(
            service,
            b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
            b"GET /healthz HTTP/1.0\r\n\r\n",
            timeout=3.0,
        )
        responses = raw.split(b"HTTP/1.1 200 OK\r\n")[1:]
        assert len(responses) == 2, raw
        assert b"Connection: keep-alive" in responses[0]
        assert b"Connection: close" in responses[1]

    def test_small_keep_alive_responses_do_not_stall(self, service):
        """No ~40 ms Nagle/delayed-ACK wait on a keep-alive response."""
        parsed = urlparse(service.url)
        conn = http.client.HTTPConnection(
            parsed.hostname, parsed.port, timeout=30
        )
        latencies = []
        try:
            for _ in range(20):
                t0 = time.perf_counter()
                conn.request("GET", "/healthz")
                resp = conn.getresponse()
                resp.read()
                latencies.append(time.perf_counter() - t0)
                assert resp.status == 200
        finally:
            conn.close()
        assert statistics.median(latencies) < 0.020, latencies


class TestAdmissionOverHttp:
    @pytest.fixture()
    def tight_service(self, tmp_path):
        svc = ExperimentService(
            db_path="memory://",
            port=0,
            workers=1,
            rate_cache=tmp_path / "rates.json",
            admission_rate=0.001,
            admission_burst=1.0,
        )
        svc.start(start_workers=False)
        yield svc
        svc.shutdown(drain=False)

    def test_rate_limited_submit_gets_429_with_retry_after(
        self, tight_service
    ):
        status, job = request_json(
            tight_service,
            "POST",
            "/jobs",
            SPEC,
            headers={"X-Client-Id": "hot"},
        )
        assert status == 201
        with pytest.raises(urllib.error.HTTPError) as err:
            request(
                tight_service,
                "POST",
                "/jobs",
                SPEC,
                headers={"X-Client-Id": "hot"},
            )
        assert err.value.code == 429
        assert float(err.value.headers["Retry-After"]) > 0
        body = json.loads(err.value.read())
        assert "rate_limit" in body["error"]

    def test_shed_counted_on_metrics(self, tight_service):
        for _ in range(2):
            try:
                request(
                    tight_service,
                    "POST",
                    "/jobs",
                    SPEC,
                    headers={"X-Client-Id": "metered"},
                )
            except urllib.error.HTTPError:
                pass
        _, raw, _ = request(tight_service, "GET", "/metrics")
        shed_lines = [
            line
            for line in raw.decode().splitlines()
            if line.startswith("repro_admission_shed_total")
            and 'reason="rate_limit"' in line
        ]
        assert shed_lines and float(shed_lines[0].split()[-1]) >= 1.0
        assert tight_service.admission.shed_counts()["rate_limit"] >= 1.0

    def test_full_queue_sheds_503_with_retry_after(self):
        svc = ExperimentService(
            db_path="memory://", port=0, workers=1, max_queue_depth=4
        )
        svc.start(start_workers=False)  # nothing drains the queue
        try:
            parsed = urlparse(svc.url)
            conn = http.client.HTTPConnection(
                parsed.hostname, parsed.port, timeout=30
            )
            sheds = []
            try:
                # Distinct specs from distinct clients: no dedup and no
                # rate limit, so only the bounded queue can shed.
                for k in range(16):
                    conn.request(
                        "POST",
                        "/jobs",
                        body=json.dumps(dict(SPEC, seed=6000 + k)),
                        headers={
                            "Content-Type": "application/json",
                            "X-Client-Id": f"filler-{k}",
                        },
                    )
                    resp = conn.getresponse()
                    resp.read()
                    if resp.status == 503:
                        sheds.append(resp.getheader("Retry-After"))
                        break
                    assert resp.status == 201
            finally:
                conn.close()
            assert len(sheds) == 1 and float(sheds[0]) > 0
            assert svc.scheduler.queue_depth() == 4
            _, raw, _ = request(svc, "GET", "/metrics")
            (queue_full,) = [
                line
                for line in raw.decode().splitlines()
                if line.startswith("repro_admission_shed_total")
                and 'reason="queue_full"' in line
            ]
            assert float(queue_full.split()[-1]) == len(sheds)
        finally:
            svc.shutdown(drain=False)


class TestConcurrentSubmission:
    def test_keep_alive_clients_all_admitted_and_done(self, tmp_path):
        """8 keep-alive clients x 25 POSTs of 4 distinct specs: every
        submission is admitted and every job finishes DONE."""
        svc = ExperimentService(
            db_path=tmp_path / "svc.sqlite3",
            port=0,
            workers=2,
            rate_cache=tmp_path / "rates.json",
        )
        svc.start()
        try:
            parsed = urlparse(svc.url)
            statuses = []

            def client():
                conn = http.client.HTTPConnection(
                    parsed.hostname, parsed.port, timeout=60
                )
                try:
                    for i in range(25):
                        conn.request(
                            "POST",
                            "/jobs",
                            body=json.dumps(dict(SPEC, seed=7000 + i % 4)),
                            headers={"Content-Type": "application/json"},
                        )
                        resp = conn.getresponse()
                        resp.read()
                        statuses.append(resp.status)
                finally:
                    conn.close()

            threads = [threading.Thread(target=client) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert statuses == [201] * 200
            assert svc.scheduler.drain(timeout=60)
            counts = svc.scheduler.counts_by_state()
            assert counts["done"] == 200 and counts["failed"] == 0
        finally:
            svc.shutdown(drain=False)


class TestGracefulShutdown:
    def test_queued_jobs_survive_and_streams_get_end_frame(self, tmp_path):
        db = tmp_path / "shutdown.sqlite3"
        svc = ExperimentService(
            db_path=db,
            port=0,
            workers=1,
            rate_cache=tmp_path / "rates.json",
        )
        svc.start(start_workers=False)  # jobs queue, never run
        job_ids = []
        for k in range(3):
            spec = dict(SPEC, seed=4200 + k)
            status, job = request_json(svc, "POST", "/jobs", spec)
            assert status == 201
            job_ids.append(job["id"])

        # Hold a live stream open across the shutdown.
        captured = {}

        def consume():
            try:
                captured["body"] = read_stream(
                    svc, f"/jobs/{job_ids[0]}/stream"
                )
            except Exception as exc:  # noqa: BLE001 — asserted below
                captured["error"] = exc

        reader = threading.Thread(target=consume)
        reader.start()
        time.sleep(0.5)  # let the subscription attach

        svc.shutdown(drain=False)
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert "error" not in captured
        frames = parse_sse(captured["body"])
        assert frames[-1]["event"] == "end"
        assert frames[-1]["data"]["state"] == "shutting_down"

        # The queue was discarded, not lost: every job is back in the
        # store as QUEUED, ready for recovery on the next boot.
        reopened = ResultStore(db)
        try:
            pending = {j.id for j in reopened.pending_jobs()}
            assert set(job_ids) <= pending
        finally:
            reopened.close()

    def test_second_shutdown_waits_for_the_first(self):
        """The CLI's main thread must not exit mid-drain while its
        signal handler's thread is still shutting the service down."""
        svc = ExperimentService(db_path="memory://", port=0, workers=1)
        svc.start(start_workers=False)
        release = threading.Event()
        scheduler_shutdown = svc.scheduler.shutdown

        def held_shutdown(**kwargs):
            release.wait(timeout=10)
            scheduler_shutdown(**kwargs)

        svc.scheduler.shutdown = held_shutdown
        first = threading.Thread(target=svc.shutdown, kwargs={"drain": False})
        first.start()
        deadline = time.monotonic() + 10
        while not svc.stopping and time.monotonic() < deadline:
            time.sleep(0.01)
        second = threading.Thread(target=svc.shutdown, kwargs={"drain": False})
        second.start()
        second.join(timeout=0.5)
        assert second.is_alive()
        release.set()
        first.join(timeout=10)
        second.join(timeout=10)
        assert not first.is_alive() and not second.is_alive()

    def test_submissions_after_shutdown_are_shed(self, tmp_path):
        svc = ExperimentService(
            db_path="memory://",
            port=0,
            workers=1,
            rate_cache=tmp_path / "rates.json",
        )
        svc.start(start_workers=False)
        try:
            svc.admission.begin_shutdown()
            with pytest.raises(urllib.error.HTTPError) as err:
                request_json(svc, "POST", "/jobs", SPEC)
            with err.value:
                assert err.value.code == 503
                assert "Retry-After" in err.value.headers
        finally:
            svc.shutdown(drain=False)


class TestBind:
    def test_port_in_use_raises_from_start(self, tmp_path):
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            port = taken.getsockname()[1]
            svc = ExperimentService(db_path="memory://", port=port)
            t0 = time.monotonic()
            try:
                with pytest.raises(OSError):
                    svc.start(start_workers=False)
            finally:
                svc.shutdown(drain=False)
            assert time.monotonic() - t0 < 5.0
