"""HTTP routing for the experiment service, apart from the transport.

The API lives here; the front end
(:class:`~repro.service.asyncapi.AsyncFrontEnd`) only adapts bytes to
it:

1. parse bytes into a :class:`Request`;
2. call :meth:`Router.dispatch`;
3. write back the :class:`Response`, or — for the SSE endpoint —
   drive the returned :class:`JobStreamSession`: write the stream's
   fixed head, then loop ``poll()`` / wait until ``done``.

The stream session is deliberately *poll-style*: a non-blocking
``poll`` holds the replay/terminal semantics, and the front end
sleeps between polls on the subscription's wakeup hook.

Admission control happens here too: every ``POST /jobs`` passes the
service's :class:`~repro.service.admission.AdmissionController` before
a job object is even built, and sheds answer with ``429``/``503`` plus
a ``Retry-After`` header.
"""

from __future__ import annotations

import json
import time
import uuid
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union
from urllib.parse import parse_qs, urlparse

from ..core.serialize import extract_timelines
from ..errors import ConfigError, SimulationError
from ..obs.logging import get_logger
from ..obs.stream import (
    JOB_TOPIC_PREFIX,
    TERMINAL_EVENT_KINDS,
    StreamEvent,
    Subscription,
    event_bus,
)
from ..obs.timeseries import timeline_to_dict
from .jobs import JobSpec, JobState

__all__ = [
    "Request",
    "Response",
    "JobStreamSession",
    "Router",
    "error_response",
    "sse_frame",
    "sse_end",
]

_log = get_logger("service.routes")

#: Hard cap on request body size (1 MiB); a job spec is tiny.
MAX_BODY_BYTES = 1 << 20

#: How long an idle job stream waits for the terminal event to land
#: after observing a terminal job state (the scheduler flips state
#: before publishing).
_TERMINAL_GRACE_S = 0.5

#: Longest wait between stream polls.
STREAM_POLL_S = 0.25


@dataclass
class Request:
    """One parsed HTTP request, transport-independent."""

    method: str
    #: Full request target including the query string.
    target: str
    #: Header map with lower-cased names.
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    #: Peer identity (address, or whatever the transport knows).
    client: str = ""

    @property
    def path(self) -> str:
        """The target without its query string."""
        return self.target.split("?", 1)[0]

    @property
    def query(self) -> Dict[str, List[str]]:
        """Parsed query parameters."""
        return parse_qs(urlparse(self.target).query)

    @property
    def route(self) -> Tuple[str, ...]:
        """Non-empty path segments."""
        return tuple(p for p in self.path.split("/") if p)

    def header(self, name: str) -> Optional[str]:
        """One header by case-insensitive name."""
        return self.headers.get(name.lower())

    @property
    def client_id(self) -> str:
        """Admission identity: ``X-Client-Id`` when sent, else the peer."""
        return self.header("x-client-id") or self.client or "anonymous"

    def json_body(self) -> dict:
        """The body as a JSON object; raises ConfigError on anything else."""
        if not self.body:
            raise ConfigError(
                "empty request body; expected a JSON job spec"
            )
        try:
            data = json.loads(self.body)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc}")
        if not isinstance(data, dict):
            raise ConfigError("request body must be a JSON object")
        return data


@dataclass
class Response:
    """One complete (non-streaming) HTTP response."""

    status: int
    body: bytes = b""
    content_type: str = "application/json"
    #: Extra headers beyond Content-Type/Content-Length.
    headers: List[Tuple[str, str]] = field(default_factory=list)

    @classmethod
    def json(cls, status: int, obj, **kwargs) -> "Response":
        return cls(
            status,
            json.dumps(obj, sort_keys=True).encode() + b"\n",
            **kwargs,
        )

    @classmethod
    def text(cls, status: int, text: str, content_type: str) -> "Response":
        return cls(status, text.encode(), content_type)


def error_response(status: int, message: str, **context) -> Response:
    """A JSON error whose request id is also logged with ``context``.

    The id lets a client-reported failure be matched to the
    server-side record.
    """
    request_id = uuid.uuid4().hex[:12]
    _log.warning(
        "request_error",
        request_id=request_id,
        **context,
        code=status,
        error=message,
    )
    return Response.json(status, {"error": message, "request_id": request_id})


# ----------------------------------------------------------------------
# SSE wire format
# ----------------------------------------------------------------------


def sse_frame(event: StreamEvent) -> bytes:
    """One event as an SSE frame (id doubles as Last-Event-ID)."""
    return (
        f"id: {event.seq}\n"
        f"event: {event.kind}\n"
        f"data: {json.dumps(event.data, sort_keys=True)}\n\n"
    ).encode()


def sse_end(state: str) -> bytes:
    """The synthetic close frame for streams with no terminal event."""
    return (
        f"event: end\ndata: {json.dumps({'state': state})}\n\n"
    ).encode()


# ----------------------------------------------------------------------
# Stream sessions
# ----------------------------------------------------------------------


class JobStreamSession:
    """One job-stream subscriber's state machine.

    Encapsulates the full SSE contract for ``/jobs/<id>/stream``:
    ``Last-Event-ID`` replay (done at subscribe time), terminal-event
    close, the post-terminal grace window, the synthetic ``end`` for
    jobs whose events rotated out of the ring, and the shutdown
    terminal frame.  The front end drives it like this::

        frames, done = session.poll()
        # write frames; if done: close; else wait and poll again
    """

    def __init__(self, service, job_id: str, last_event_id: Optional[int]):
        self._service = service
        self._job_id = job_id
        self.subscription: Subscription = event_bus().subscribe(
            JOB_TOPIC_PREFIX + job_id, last_event_id=last_event_id
        )
        self._grace_deadline: Optional[float] = None
        self._done = False

    def poll(self) -> Tuple[List[bytes], bool]:
        """Drain ready events into frames; True when the stream is over."""
        if self._done:
            return [], True
        frames: List[bytes] = []
        while True:
            event = self.subscription.get(timeout=0)
            if event is None:
                break
            self._grace_deadline = None
            frames.append(sse_frame(event))
            if event.kind in TERMINAL_EVENT_KINDS:
                self._done = True
                return frames, True
        if frames:
            return frames, False
        if self._service.stopping:
            frames.append(sse_end("shutting_down"))
            self._done = True
            return frames, True
        # Queue idle: a job that is already terminal can never publish
        # again (dedup-answered and recovered jobs may never have
        # published at all).  The scheduler flips the state before
        # publishing the terminal event, so give it one grace window
        # to land before closing with a synthetic end.
        job = self._service.scheduler.get(self._job_id)
        if job is None or job.state.is_terminal:
            now = time.monotonic()
            if self._grace_deadline is None:
                self._grace_deadline = now + _TERMINAL_GRACE_S
            elif now >= self._grace_deadline:
                state = job.state.value if job else "unknown"
                frames.append(sse_end(state))
                self._done = True
                return frames, True
        return frames, False

    def close(self) -> None:
        """Detach from the bus (idempotent)."""
        event_bus().unsubscribe(self.subscription)


# ----------------------------------------------------------------------
# The router
# ----------------------------------------------------------------------


class Router:
    """Maps requests onto the service."""

    def __init__(self, service) -> None:
        self._service = service

    # -- helpers -------------------------------------------------------

    def _error(self, req: Request, status: int, message: str) -> Response:
        return error_response(
            status, message, method=req.method, path=req.path
        )

    @staticmethod
    def _last_event_id(req: Request) -> Optional[int]:
        """The client's resume offset: header first, then query param."""
        raw = req.header("last-event-id")
        if raw is None:
            values = req.query.get("last_event_id")
            raw = values[0] if values else None
        if raw is None:
            return None
        try:
            return int(raw)
        except ValueError:
            return None

    # -- dispatch ------------------------------------------------------

    def dispatch(self, req: Request) -> Union[Response, JobStreamSession]:
        """Route one request; never raises (500 is a Response too)."""
        try:
            return self._dispatch(req)
        except Exception as exc:  # noqa: BLE001 — route-crash containment
            return self._error(
                req, 500, f"internal error: {type(exc).__name__}: {exc}"
            )

    def _dispatch(self, req: Request) -> Union[Response, JobStreamSession]:
        parts = req.route
        if req.method == "GET":
            return self._dispatch_get(req, parts)
        if req.method == "POST":
            if parts == ("jobs",):
                return self._post_job(req)
            return self._error(req, 404, f"no such resource: {req.path}")
        if req.method == "DELETE":
            if len(parts) == 2 and parts[0] == "jobs":
                return self._delete_job(req, parts[1])
            return self._error(req, 404, f"no such resource: {req.path}")
        return self._error(req, 405, f"method {req.method} not allowed")

    def _dispatch_get(
        self, req: Request, parts: Tuple[str, ...]
    ) -> Union[Response, JobStreamSession]:
        service = self._service
        if parts == ("healthz",):
            return Response.json(
                200,
                {
                    "status": (
                        "stopping" if service.stopping else "ok"
                    ),
                    "workers": service.scheduler.workers,
                    "queue_depth": service.scheduler.queue_depth(),
                    "shards": service.scheduler.effective_shards,
                    # Clients such as the benchmark record which
                    # front end served them.
                    "frontend": "async",
                },
            )
        if parts == ("metrics",):
            return Response.text(
                200,
                service.metrics.render(),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        if parts == ("jobs",):
            return Response.json(
                200,
                {"jobs": [j.to_dict() for j in service.scheduler.jobs()]},
            )
        if len(parts) == 2 and parts[0] == "jobs":
            job = service.scheduler.get(parts[1])
            if job is None:
                return self._error(req, 404, f"no such job: {parts[1]}")
            return Response.json(200, job.to_dict())
        if len(parts) == 3 and parts[0] == "jobs":
            job_id, leaf = parts[1], parts[2]
            if leaf == "result":
                return self._get_result(req, job_id)
            if leaf == "timeseries":
                return self._get_timeseries(req, job_id)
            if leaf == "stream":
                return self._get_job_stream(req, job_id)
        return self._error(req, 404, f"no such resource: {req.path}")

    # -- submission / cancellation -------------------------------------

    def _post_job(self, req: Request) -> Response:
        service = self._service
        if len(req.body) > MAX_BODY_BYTES:
            return self._error(req, 413, "request body too large")
        decision = service.admission.admit(req.client_id)
        if not decision.admitted:
            response = self._error(
                req,
                decision.status,
                f"submission shed: {decision.reason}",
            )
            response.headers.append(
                ("Retry-After", f"{decision.retry_after_s:g}")
            )
            return response
        try:
            data = req.json_body()
            priority = int(data.pop("priority", 0))
            spec = JobSpec.from_dict(data)
        except ConfigError as exc:
            return self._error(req, 400, str(exc))
        except (TypeError, ValueError) as exc:
            return self._error(req, 400, f"bad job spec: {exc}")
        t0 = time.perf_counter()
        job = service.scheduler.submit(spec, priority=priority)
        service.metrics.submit_seconds.observe(time.perf_counter() - t0)
        return Response.json(201, job.to_dict())

    def _delete_job(self, req: Request, job_id: str) -> Response:
        service = self._service
        job = service.scheduler.get(job_id)
        if job is None:
            return self._error(req, 404, f"no such job: {job_id}")
        if service.scheduler.cancel(job_id):
            return Response.json(
                200, service.scheduler.get(job_id).to_dict()
            )
        return self._error(
            req,
            409,
            f"job is {job.state.value}; only queued jobs can be cancelled",
        )

    # -- results -------------------------------------------------------

    def _load_result(self, req: Request, job_id: str):
        """(job, doc) or an error Response."""
        service = self._service
        job = service.scheduler.get(job_id)
        if job is None:
            return self._error(req, 404, f"no such job: {job_id}")
        if job.state is JobState.FAILED:
            return self._error(req, 410, f"job failed: {job.error}")
        if job.state is not JobState.DONE:
            return self._error(
                req,
                409,
                f"job is {job.state.value}; result not available yet",
            )
        doc = service.store.get_result_dict(job.spec_digest)
        if doc is None:
            return self._error(
                req, 500, "job is DONE but its result is missing"
            )
        return job, doc

    def _get_result(self, req: Request, job_id: str) -> Response:
        loaded = self._load_result(req, job_id)
        if isinstance(loaded, Response):
            return loaded
        job, doc = loaded
        return Response.json(
            200,
            {
                "id": job.id,
                "spec_digest": job.spec_digest,
                "deduplicated": job.deduplicated,
                "results": doc,
            },
        )

    def _get_timeseries(self, req: Request, job_id: str) -> Response:
        """The job's telemetry timelines: JSON by default, CSV on request.

        Query parameters: ``channel`` (repeatable; restricts every
        timeline to the named channels) and ``format`` (``json`` |
        ``csv``).  The JSON document carries, per workload, the
        baseline timeline plus one per cap, each with its summary.
        """
        loaded = self._load_result(req, job_id)
        if isinstance(loaded, Response):
            return loaded
        job, doc = loaded
        query = req.query
        channels = query.get("channel") or None
        fmt = (query.get("format") or ["json"])[0].lower()
        if fmt not in ("json", "csv"):
            return self._error(
                req, 400, f"unknown format {fmt!r} (json or csv)"
            )
        try:
            timelines = extract_timelines(doc, channels)
        except SimulationError as exc:
            return self._error(req, 400, str(exc))
        if not timelines:
            return self._error(
                req,
                404,
                "result carries no telemetry timelines "
                "(sweep ran with telemetry disabled)",
            )
        if fmt == "csv":
            lines = ["workload,cap,channel,t_s,dt_s,mean,min,max"]
            for timeline in timelines:
                body = timeline.to_csv(
                    channels if channels is not None else None
                )
                lines.extend(body.splitlines()[1:])
            return Response.text(
                200, "\n".join(lines) + "\n", "text/csv"
            )
        by_workload: dict = {}
        for timeline in timelines:
            entry = by_workload.setdefault(
                timeline.workload, {"baseline": None, "by_cap": {}}
            )
            payload = {
                "timeline": timeline_to_dict(timeline),
                "summary": timeline.summary(),
            }
            if timeline.cap_w is None:
                entry["baseline"] = payload
            else:
                entry["by_cap"][f"{timeline.cap_w:g}"] = payload
        return Response.json(
            200,
            {
                "id": job.id,
                "spec_digest": job.spec_digest,
                "timeseries": by_workload,
            },
        )

    # -- streams -------------------------------------------------------

    def _get_job_stream(
        self, req: Request, job_id: str
    ) -> Union[Response, JobStreamSession]:
        job = self._service.scheduler.get(job_id)
        if job is None:
            return self._error(req, 404, f"no such job: {job_id}")
        return JobStreamSession(
            self._service, job_id, self._last_event_id(req)
        )
