"""Scheduler: a thread worker pool draining the job queue.

Each worker pops the highest-priority queued job and gets its result
document from :func:`~repro.service.jobs.run_spec`, serially in the
worker thread, or from the first idle shard process when sharded, and
stores it with ``put_result``, the document's one use on completion.
All workers share one :class:`~repro.core.ratecache.RateCache`, so
distinct jobs over the same (workload, geometry, gating) skip trace
simulation entirely.

Failure containment: an exception inside a sweep marks the attempt,
re-queues the job with exponential backoff while attempts remain, and
moves it to FAILED once the retry budget is spent.  ``shutdown`` can
drain (finish everything queued) or stop after in-flight jobs.

Single flight: a job's result depends only on its spec digest, so each
digest is executed at most once at a time.  Admission puts every job
in one of three places: a digest already queued or running makes it a
*follower* of that execution's *leader* (QUEUED, holding no queue
slot, settled with the leader's outcome); a stored digest makes it
DONE at once; otherwise it leads and is queued.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from typing import Callable, Dict, List, Optional

from ..core.ratecache import RateCache
from ..errors import ReproError
from ..obs.logging import get_logger
from ..obs.metrics import ServiceMetrics
from ..obs.stream import JOB_TOPIC_PREFIX, event_bus
from ..obs.tracing import span
from .jobs import Job, JobQueue, JobSpec, JobState, run_spec
from .shards import ShardPool
from .store import ResultStore

__all__ = ["ExperimentScheduler"]

_log = get_logger("service.scheduler")


class ExperimentScheduler:
    """Submit/schedule/store orchestration over a thread worker pool."""

    def __init__(
        self,
        store: ResultStore,
        workers: int = 2,
        rate_cache: "RateCache | str | os.PathLike | None" = None,
        metrics: Optional[ServiceMetrics] = None,
        max_attempts: int = 3,
        retry_backoff_s: float = 0.5,
        batch: "bool | None" = None,
        shard_pool: Optional[ShardPool] = None,
    ) -> None:
        self._store = store
        self._queue = JobQueue()
        # A worker thread waits on one shard's reply, so a sharded
        # scheduler runs at least one thread per shard.
        self._workers = max(
            1, int(workers), shard_pool.shards if shard_pool else 0
        )
        if rate_cache is not None and not isinstance(rate_cache, RateCache):
            rate_cache = RateCache(rate_cache)
        self._rate_cache: Optional[RateCache] = rate_cache
        self._shard_pool = shard_pool
        self.metrics = metrics or ServiceMetrics()
        self._max_attempts = max(1, int(max_attempts))
        self._retry_backoff_s = float(retry_backoff_s)
        self._batch = batch
        self._jobs: Dict[str, Job] = {}
        #: The in-flight registry: spec digest -> {job id: job}, the
        #: leader (queued or running) first, then its followers oldest
        #: first.  A digest leaves only once its leader is terminal.
        self._flights: Dict[str, Dict[str, Job]] = {}
        self._lock = threading.RLock()
        self._threads: List[threading.Thread] = []
        self._running = 0
        self._idle = threading.Condition(self._lock)
        self._started = False
        #: Recent completion stamps, for the admission gate's
        #: drain-aware Retry-After estimate.
        self._completions: "deque[float]" = deque(maxlen=256)
        self.metrics.bind(
            queue_depth=self._queue.depth,
            jobs_by_state=self._counts_by_state_float,
            cache_hits=self._cache_hits_total,
            cache_misses=self._cache_misses_total,
        )
        self.metrics.bind_shards(lambda: float(self.effective_shards))

    def _cache_hits_total(self) -> float:
        hits = self._rate_cache.hits if self._rate_cache else 0
        if self._shard_pool is not None:
            hits += self._shard_pool.cache_hits
        return float(hits)

    def _cache_misses_total(self) -> float:
        misses = self._rate_cache.misses if self._rate_cache else 0
        if self._shard_pool is not None:
            misses += self._shard_pool.cache_misses
        return float(misses)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def rate_cache(self) -> Optional[RateCache]:
        """The shared cross-job rate cache (None when disabled)."""
        return self._rate_cache

    @property
    def workers(self) -> int:
        """Size of the worker pool."""
        return self._workers

    @property
    def effective_shards(self) -> int:
        """Shard processes actually running (0 = in-process execution)."""
        return self._shard_pool.shards if self._shard_pool is not None else 0

    @property
    def shard_pool(self) -> Optional[ShardPool]:
        """The shard process pool (None when unsharded)."""
        return self._shard_pool

    def drain_rate(self) -> float:
        """Recent completion throughput (jobs/s) over a 30 s window.

        Feeds the admission gate's queue-full ``Retry-After`` estimate;
        0.0 until at least two completions land inside the window.
        """
        now = time.monotonic()
        with self._lock:
            recent = [t for t in self._completions if now - t <= 30.0]
        if len(recent) < 2:
            return 0.0
        window = max(1e-6, recent[-1] - recent[0])
        return (len(recent) - 1) / window

    def queue_depth(self) -> int:
        """Jobs queued (including retry backoff) and not yet running."""
        return self._queue.depth()

    def counts_by_state(self) -> Dict[str, int]:
        """``{state value: count}`` over every job this process knows."""
        counts = {state.value: 0 for state in JobState}
        with self._lock:
            for job in self._jobs.values():
                counts[job.state.value] += 1
        return counts

    def _counts_by_state_float(self) -> Dict[str, float]:
        return {k: float(v) for k, v in self.counts_by_state().items()}

    def jobs(self) -> List[Job]:
        """Every job known to this process, newest first."""
        with self._lock:
            return sorted(
                self._jobs.values(), key=lambda j: j.created_at, reverse=True
            )

    def get(self, job_id: str) -> Optional[Job]:
        """One job by id — live registry first, then the store."""
        with self._lock:
            job = self._jobs.get(job_id)
        if job is not None:
            return job
        return self._store.get_job(job_id)

    # ------------------------------------------------------------------
    # Submission / cancellation
    # ------------------------------------------------------------------

    def submit(
        self,
        spec: JobSpec,
        priority: int = 0,
        max_attempts: Optional[int] = None,
    ) -> Job:
        """Accept one sweep request; returns its lifecycle record.

        If the result store already holds this spec's digest the job is
        born DONE (``deduplicated=True``) and never touches the queue;
        if a twin is queued or running, the job follows it.
        """
        job = Job(
            spec=spec,
            priority=int(priority),
            max_attempts=max_attempts or self._max_attempts,
        )
        self.metrics.jobs_submitted.inc()
        leads = self._admit(job)
        _log.info(
            "job_submitted",
            job_id=job.id,
            spec_digest=job.spec_digest,
            workload=spec.workload,
            priority=job.priority,
            deduplicated=job.deduplicated,
        )
        if leads:
            self._queue.push(job)
        return job

    def _admit(self, job: Job) -> bool:
        """Register a QUEUED job; True when it leads and must be queued.

        The registry and store checks share the lock a leader takes to
        leave the registry, which it does only after its result
        commits, so a twin finds one or the other.  A follower is
        recorded under that lock too: its leader settles it only after
        taking the lock, so this QUEUED record never lands last.
        """
        digest = job.spec_digest
        with self._lock:
            self._jobs[job.id] = job
            flight = self._flights.get(digest)
            if flight is not None:
                flight[job.id] = job
                self._store.record_job(job)
                return False
            if self._store.has_result(digest):
                job.deduplicated = True
                job.finished_at = time.time()
                job.state = JobState.DONE
                self.metrics.dedup_hits.inc()
                self.metrics.jobs_completed.inc()
            else:
                self._flights[digest] = {job.id: job}
        self._store.record_job(job)
        return job.state is JobState.QUEUED

    def cancel(self, job_id: str) -> bool:
        """Cancel a QUEUED job; False if unknown or already beyond QUEUED.

        A cancelled leader hands its flight to its oldest follower,
        which is queued at its own priority.  A follower already being
        settled by its finished leader is beyond cancelling.
        """
        promoted = None
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.state is not JobState.QUEUED:
                return False
            flight = self._flights.get(job.spec_digest)
            if flight is None or job.id not in flight:
                return False
            led = next(iter(flight)) == job.id
            del flight[job.id]
            if not flight:
                del self._flights[job.spec_digest]
            elif led:
                promoted = next(iter(flight.values()))
            job.finished_at = time.time()
            job.state = JobState.CANCELLED
        self._store.record_job(job)
        if promoted is not None:
            self._queue.push(promoted)
        event_bus().publish(
            JOB_TOPIC_PREFIX + job.id,
            "job_cancelled",
            {"job_id": job.id},
        )
        return True

    def recover(self) -> int:
        """Re-admit jobs a previous process left QUEUED/RUNNING."""
        recovered = 0
        for job in self._store.pending_jobs():
            with self._lock:
                if job.id in self._jobs:
                    continue
                job.state = JobState.QUEUED
                if self._admit(job):
                    self._queue.push(job)
            recovered += 1
        if recovered:
            _log.info("jobs_recovered", count=recovered)
        return recovered

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Spawn the worker pool (idempotent)."""
        with self._lock:
            if self._started:
                return
            self._started = True
        for i in range(self._workers):
            t = threading.Thread(
                target=self._worker_loop, name=f"repro-worker-{i}", daemon=True
            )
            t.start()
            self._threads.append(t)

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until nothing is queued or running; False on timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._idle:
            while self._queue.depth() > 0 or self._running > 0:
                wait = 0.1
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                    wait = min(wait, remaining)
                self._idle.wait(wait)
        return True

    def shutdown(
        self, drain: bool = True, timeout: Optional[float] = 60.0
    ) -> None:
        """Stop the pool; with ``drain`` finish all queued work first.

        Without ``drain``, queued jobs are discarded from the in-memory
        queue but stay QUEUED in the store — :meth:`recover` picks them
        up on the next start, so a fast shutdown loses no submissions.
        In-flight jobs are always allowed to finish (a sweep is not
        interruptible mid-simulation without corrupting its attempt
        accounting).
        """
        if drain:
            self.drain(timeout)
            self._queue.close()
        else:
            discarded = self._queue.close(discard=True)
            for job in discarded:
                # Still QUEUED: persist that state so recover() re-runs
                # them after restart.
                self._store.record_job(job)
            if discarded:
                _log.info("jobs_deferred", count=len(discarded))
            # Wait (bounded) for in-flight jobs to land.
            deadline = time.monotonic() + (timeout or 0.0)
            with self._idle:
                while self._running > 0:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._idle.wait(min(0.1, remaining))
        for t in self._threads:
            t.join(timeout=5.0)
        if self._rate_cache is not None:
            self._rate_cache.save()
        if self._shard_pool is not None:
            self._shard_pool.shutdown()

    # ------------------------------------------------------------------
    # Worker internals
    # ------------------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            job = self._queue.pop(timeout=0.2)
            if job is None:
                if self._queue.closed:
                    return
                continue
            with self._lock:
                # A cancel can land between the pop and here.
                if job.state is not JobState.QUEUED:
                    continue
                job.started_at = time.time()
                job.attempts += 1
                job.state = JobState.RUNNING
                self._running += 1
            try:
                self._run_job(job)
            finally:
                with self._idle:
                    self._running -= 1
                    self._idle.notify_all()

    def _run_spec(self, spec: JobSpec) -> Dict[str, dict]:
        if self._shard_pool is not None:
            # The first idle shard returns the document it serialized.
            return self._shard_pool.run(spec.to_dict())
        return run_spec(spec, rate_cache=self._rate_cache, batch=self._batch)

    def _run_job(self, job: Job) -> None:
        """One attempt of a leader; settles its followers when terminal."""
        self._store.record_job(job)
        _log.info(
            "job_started",
            job_id=job.id,
            workload=job.spec.workload,
            attempt=job.attempts,
        )
        topic = JOB_TOPIC_PREFIX + job.id
        event_bus().publish(
            topic,
            "job_started",
            {
                "job_id": job.id,
                "workload": job.spec.workload,
                "attempt": job.attempts,
            },
        )
        t0 = time.perf_counter()
        error = None
        try:
            with span("job", job_id=job.id, workload=job.spec.workload):
                doc = self._run_spec(job.spec)
            self._store.put_result(job.spec_digest, doc)
        except Exception as exc:  # noqa: BLE001 — worker crash containment
            error = f"{type(exc).__name__}: {exc}"
            if job.attempts < job.max_attempts and not isinstance(
                exc, ReproError
            ):
                # Transient crash: exponential backoff, back of the line;
                # the followers stay attached.
                job.error = error
                job.state = JobState.QUEUED
                self.metrics.job_retries.inc()
                self._store.record_job(job)
                _log.warning(
                    "job_retry",
                    job_id=job.id,
                    attempt=job.attempts,
                    max_attempts=job.max_attempts,
                    error=job.error,
                )
                event_bus().publish(
                    topic,
                    "job_retry",
                    {
                        "job_id": job.id,
                        "attempt": job.attempts,
                        "max_attempts": job.max_attempts,
                        "error": job.error,
                    },
                )
                self._queue.push(
                    job,
                    delay_s=self._retry_backoff_s * 2 ** (job.attempts - 1),
                )
                return
        self._settle(job, error, round(time.perf_counter() - t0, 6))

    def _settle(
        self, leader: Job, error: Optional[str], wall_s: float
    ) -> None:
        """End a leader's flight: DONE without ``error``, else FAILED.

        Its followers take the same outcome, a DONE one as
        ``deduplicated``.  Each job's ``state`` is assigned last, so a
        poll never sees a terminal job without its ``finished_at``.
        """
        with self._lock:
            jobs = list(self._flights.pop(leader.spec_digest).values())
            self._completions.append(time.monotonic())
        finished_at = time.time()
        for job in jobs:
            job.error = error
            job.finished_at = finished_at
            job.deduplicated = error is None and job is not leader
            job.state = JobState.DONE if error is None else JobState.FAILED
        if error is None:
            self.metrics.sweep_seconds.observe(wall_s)
        for job in jobs:
            self._store.record_job(job)
            topic = JOB_TOPIC_PREFIX + job.id
            if error is None:
                self.metrics.jobs_completed.inc()
                if job.deduplicated:
                    self.metrics.jobs_coalesced.inc()
                _log.info(
                    "job_done",
                    job_id=job.id,
                    deduplicated=job.deduplicated,
                    wall_s=wall_s,
                )
                event_bus().publish(
                    topic,
                    "job_done",
                    {
                        "job_id": job.id,
                        "deduplicated": job.deduplicated,
                        "wall_s": wall_s,
                    },
                )
            else:
                self.metrics.jobs_failed.inc()
                _log.error(
                    "job_failed",
                    job_id=job.id,
                    attempts=job.attempts,
                    error=error,
                )
                event_bus().publish(
                    topic,
                    "job_failed",
                    {
                        "job_id": job.id,
                        "attempts": job.attempts,
                        "error": error,
                    },
                )
