"""The experiment service: store + scheduler + the asyncio front end.

The HTTP API itself lives in :mod:`repro.service.routes` (one
:class:`~repro.service.routes.Router`), and
:class:`~repro.service.asyncapi.AsyncFrontEnd` serves it.  This module
provides :class:`ExperimentService` — the composition root wiring the
result store, scheduler, admission controller, optional shard pool
and the front end.

Endpoints (see ``docs/SERVICE.md`` for payloads):

====================  =====================================================
``POST /jobs``        submit a sweep (JSON :class:`JobSpec` + ``priority``);
                      passes admission control (429/503 + ``Retry-After``)
``GET /jobs``         recent jobs, newest first
``GET /jobs/{id}``    one job's lifecycle record
``GET /jobs/{id}/result``  the stored sweep document once DONE
``GET /jobs/{id}/timeseries``  the sweep's telemetry timelines
``GET /jobs/{id}/stream``  live Server-Sent Events for an in-flight run
``DELETE /jobs/{id}`` cancel a still-queued job
``GET /healthz``      liveness + queue depth + shard/front-end identity
``GET /metrics``      Prometheus text exposition (version 0.0.4)
====================  =====================================================
"""

from __future__ import annotations

import os
import threading
from typing import Optional

from ..obs.logging import get_logger
from ..obs.metrics import ServiceMetrics
from .admission import AdmissionController
from .asyncapi import AsyncFrontEnd
from .routes import Router
from .scheduler import ExperimentScheduler
from .shards import ShardPool, effective_shard_count
from .store import ResultStore

__all__ = ["ExperimentService"]

_log = get_logger("service.api")


class ExperimentService:
    """The long-lived service: store + scheduler + HTTP front end.

    ``port=0`` binds an ephemeral port (read it back from
    :attr:`port`) — the tests and the CI smoke job rely on this.
    ``shards >= 2`` moves simulation into worker processes, each job
    going to any idle one (falling back to in-process execution on a
    single-core host).
    """

    def __init__(
        self,
        db_path: "str | os.PathLike",
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        rate_cache: "str | os.PathLike | None" = None,
        max_attempts: int = 3,
        batch: "bool | None" = None,
        shards: int = 0,
        admission_rate: float = 200.0,
        admission_burst: float = 400.0,
        max_queue_depth: int = 1024,
    ) -> None:
        self.metrics = ServiceMetrics()
        self._stopping = threading.Event()
        self._stopped = threading.Event()
        # Shard pool (with the single-core in-process fallback).  When
        # sharded, each shard owns its own rate-cache file and the
        # scheduler's in-process cache stays unopened.
        n_shards = effective_shard_count(shards)
        self._shard_pool: Optional[ShardPool] = (
            ShardPool(
                n_shards,
                rate_cache=rate_cache,
                batch=batch,
            )
            if n_shards >= 2
            else None
        )
        self.store = ResultStore(db_path)
        try:
            self.scheduler = ExperimentScheduler(
                self.store,
                workers=workers,
                rate_cache=None if self._shard_pool is not None else rate_cache,
                metrics=self.metrics,
                max_attempts=max_attempts,
                batch=batch,
                shard_pool=self._shard_pool,
            )
            self.admission = AdmissionController(
                rate=admission_rate,
                burst=admission_burst,
                max_queue_depth=max_queue_depth,
                queue_depth=self.scheduler.queue_depth,
            )
            self.admission.bind_drain_rate(self.scheduler.drain_rate)
            self.metrics.bind_admission(self.admission)
            self.scheduler.recover()
        except BaseException:
            # A refused setting leaves no store connection open.
            self.store.close()
            raise
        self.router = Router(self)
        self._frontend = AsyncFrontEnd(self, host, int(port))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def stopping(self) -> bool:
        """Whether a graceful shutdown has begun (SSE streams close)."""
        return self._stopping.is_set()

    @property
    def shard_pool(self) -> Optional[ShardPool]:
        """The shard process pool (None when unsharded)."""
        return self._shard_pool

    @property
    def host(self) -> str:
        """Bound interface."""
        return self._frontend.host

    @property
    def port(self) -> int:
        """Bound port (resolved by :meth:`start` when 0 was requested)."""
        return self._frontend.port

    @property
    def url(self) -> str:
        """Base URL of the running API."""
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self, start_workers: bool = True) -> None:
        """Bind, serve HTTP on a background thread, then start workers.

        Binding comes first, so a port that is already taken raises
        before any worker thread or shard process exists.
        ``start_workers=False`` brings up the API with an idle
        scheduler (jobs queue but never run) — useful for tests that
        need to observe pre-execution states deterministically.
        """
        self._frontend.start()
        if self._shard_pool is not None:
            self._shard_pool.start()
        if start_workers:
            self.scheduler.start()
        _log.info(
            "service_started",
            url=self.url,
            workers=self.scheduler.workers,
            shards=self.scheduler.effective_shards,
        )

    def shutdown(self, drain: bool = True, timeout: float = 60.0) -> None:
        """Graceful stop: shed, close streams, drain, flush, exit.

        Ordering matters and is part of the contract:

        1. admission starts shedding (503 ``shutting_down``) and
           :attr:`stopping` flips, so SSE sessions emit their terminal
           ``end`` frame on the next poll;
        2. the front end stops and wakes every stream at once;
        3. the scheduler stops — with ``drain`` it finishes everything
           queued, without it queued jobs are re-recorded for restart
           recovery and only in-flight jobs are awaited — then flushes
           the rate cache (or every shard's own cache file, via the
           pool);
        4. the store closes.

        Idempotent; safe to call from a signal-handler thread.  A call
        made while another thread is shutting down waits (up to
        ``timeout``) for that shutdown to finish, so a process that
        exits after it returns does not cut the drain short.
        """
        if self._stopping.is_set():
            self._stopped.wait(timeout)
            return
        self._stopping.set()
        try:
            self.admission.begin_shutdown()
            self._frontend.shutdown()
            self.scheduler.shutdown(drain=drain, timeout=timeout)
            self.store.close()
        finally:
            self._stopped.set()
