"""The experiment service layer: submit / schedule / store / observe.

PR 1 made sweeps cheap; this package makes them *operable*.  Instead
of one-shot CLI invocations whose results live in ad-hoc JSON files,
a long-lived service accepts sweep jobs over HTTP, schedules them on
a worker pool (sharing one rate cache across all jobs), persists every
result durably keyed by the spec's content digest (identical
resubmissions are store hits, never re-simulated), and exposes its
health and throughput as Prometheus metrics.

- :mod:`.jobs` — the frozen :class:`JobSpec`, the one function that
  turns a spec into its result document, job lifecycle states, and
  the priority queue with retry backoff;
- :mod:`.scheduler` — the worker pool that runs and stores each job,
  executing each spec digest at most once at a time;
- :mod:`.shards` — worker processes, each job going to any idle one,
  each owning its own rate-cache file;
- :mod:`.store` — the result store, one SQLite database: a file, or
  ``memory://`` for one that ends with the process;
- :mod:`.admission` — token-bucket rate limiting and bounded-queue
  backpressure in front of every submission;
- :mod:`.routes` — the HTTP API, apart from the transport;
- :mod:`.asyncapi` — the asyncio HTTP front end that serves it;
- :mod:`.api` — the :class:`ExperimentService` composition root
  (``repro-powercap serve``).
"""

from ..obs.metrics import ServiceMetrics
from .admission import Admission, AdmissionController, TokenBucket
from .jobs import Job, JobQueue, JobSpec, JobState, caps_from_range
from .scheduler import ExperimentScheduler
from .shards import ShardPool, effective_shard_count
from .store import ResultStore
from .api import ExperimentService

__all__ = [
    "Admission",
    "AdmissionController",
    "TokenBucket",
    "Job",
    "JobQueue",
    "JobSpec",
    "JobState",
    "caps_from_range",
    "ServiceMetrics",
    "ExperimentScheduler",
    "ShardPool",
    "effective_shard_count",
    "ResultStore",
    "ExperimentService",
]
