"""Job + result persistence in one SQLite database.

The service persists two kinds of state:

- **jobs** — every submission's lifecycle record (spec JSON, state,
  attempts, timestamps), so a restarted service can recover queued
  work and answer status queries for past jobs;
- **results** — one document per distinct :meth:`JobSpec.digest
  <repro.service.jobs.JobSpec.digest>`: the sweep document a job
  produced (``{workload name: experiment_to_dict(...)}``), stored as
  the one JSON text :meth:`ResultStore.put_result` encodes.

:class:`ResultStore` opens its database from one of two forms:

- a filesystem path — a durable file in WAL mode;
- ``memory://`` — an in-memory database that ends with the store; no
  file is made.

Either way the store talks to SQLite through one connection (30 s busy
timeout, ``synchronous`` at SQLite's default FULL) that a lock hands to
one thread at a time, for one transaction.  Shard processes fork after
the store opens and never touch its connection.  Any other
``scheme://`` is rejected, and so is SQLite's own ``:memory:``
spelling.

The store does the one ``json.dumps`` of each document, so results
loaded from it compare equal (dataclass equality, PAPI counter dicts
included) to the live objects the document was made from.  The
conformance suite in ``tests/service/test_store_conformance.py`` runs
over a file and over ``memory://``.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional

from ..core.experiment import ExperimentResult
from ..core.serialize import experiment_from_dict
from ..errors import ConfigError
from ..obs.logging import get_logger
from ..obs.tracing import span
from .jobs import Job, JobSpec, JobState

__all__ = ["ResultStore"]

_log = get_logger("service.store")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    id          TEXT PRIMARY KEY,
    spec_digest TEXT NOT NULL,
    spec_json   TEXT NOT NULL,
    priority    INTEGER NOT NULL DEFAULT 0,
    state       TEXT NOT NULL,
    attempts    INTEGER NOT NULL DEFAULT 0,
    max_attempts INTEGER NOT NULL DEFAULT 3,
    error       TEXT,
    created_at  REAL NOT NULL,
    started_at  REAL,
    finished_at REAL,
    deduplicated INTEGER NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS idx_jobs_state ON jobs (state);
CREATE INDEX IF NOT EXISTS idx_jobs_digest ON jobs (spec_digest);

CREATE TABLE IF NOT EXISTS results (
    spec_digest TEXT PRIMARY KEY,
    created_at  REAL NOT NULL,
    result_json TEXT NOT NULL
);
"""


def _job_to_record(job: Job) -> dict:
    """A job as the flat record the ``jobs`` table holds."""
    return {
        "id": job.id,
        "spec_digest": job.spec_digest,
        "spec_json": json.dumps(job.spec.to_dict(), sort_keys=True),
        "priority": job.priority,
        "state": job.state.value,
        "attempts": job.attempts,
        "max_attempts": job.max_attempts,
        "error": job.error,
        "created_at": job.created_at,
        "started_at": job.started_at,
        "finished_at": job.finished_at,
        "deduplicated": int(job.deduplicated),
    }


def _job_from_record(row: sqlite3.Row) -> Job:
    """Rebuild a :class:`Job` from a ``jobs`` row."""
    spec = json.loads(row["spec_json"])
    # Specs stored before the per-job process fan-out was retired
    # carry its "jobs" key; it never entered the digest.
    spec.pop("jobs", None)
    return Job(
        spec=JobSpec.from_dict(spec),
        id=row["id"],
        priority=row["priority"],
        state=JobState(row["state"]),
        attempts=row["attempts"],
        max_attempts=row["max_attempts"],
        error=row["error"],
        created_at=row["created_at"],
        started_at=row["started_at"],
        finished_at=row["finished_at"],
        deduplicated=bool(row["deduplicated"]),
    )


class ResultStore:
    """Jobs and sweep results in one SQLite database: a file or ``memory://``."""

    def __init__(self, path: "str | os.PathLike") -> None:
        self._path = str(path)
        if self._path == "memory://":
            database = ":memory:"
        elif "://" in self._path or self._path == ":memory:":
            raise ConfigError(
                f"unsupported result store {self._path!r}: give a SQLite "
                "file path or memory://"
            )
        elif Path(self._path).is_dir():
            raise ConfigError(f"store path is a directory: {self._path}")
        else:
            database = self._path
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(
            database, timeout=30.0, check_same_thread=False
        )
        self._conn.row_factory = sqlite3.Row
        # An in-memory database keeps its "memory" journal.
        self._conn.execute("PRAGMA journal_mode=WAL")
        with self._connect() as conn:
            conn.executescript(_SCHEMA)

    @property
    def path(self) -> str:
        """Where the database lives: a file path, or ``memory://``."""
        return self._path

    @contextmanager
    def _connect(self) -> Iterator[sqlite3.Connection]:
        """The store's connection, held under its lock for one transaction.

        Commits when the block exits cleanly, rolls back when it raises.
        """
        with self._lock, self._conn:
            yield self._conn

    def close(self) -> None:
        """Close the connection (idempotent); the store is unusable after.

        An in-memory database is gone once its store is closed.
        """
        with self._lock:
            self._conn.close()

    # ------------------------------------------------------------------
    # Jobs
    # ------------------------------------------------------------------

    def record_job(self, job: Job) -> None:
        """Insert or update one job's lifecycle record (upsert by id)."""
        rec = _job_to_record(job)
        with self._connect() as conn:
            conn.execute(
                "INSERT OR REPLACE INTO jobs (id, spec_digest, spec_json, "
                "priority, state, attempts, max_attempts, error, created_at, "
                "started_at, finished_at, deduplicated) "
                "VALUES (:id, :spec_digest, :spec_json, :priority, :state, "
                ":attempts, :max_attempts, :error, :created_at, :started_at, "
                ":finished_at, :deduplicated)",
                rec,
            )

    def get_job(self, job_id: str) -> Optional[Job]:
        """One job by id, or None."""
        with self._connect() as conn:
            row = conn.execute(
                "SELECT * FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
        return _job_from_record(row) if row else None

    def pending_jobs(self) -> List[Job]:
        """QUEUED / RUNNING jobs (for crash recovery at startup)."""
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT * FROM jobs WHERE state IN (?, ?) "
                "ORDER BY created_at",
                (JobState.QUEUED.value, JobState.RUNNING.value),
            ).fetchall()
        return [_job_from_record(r) for r in rows]

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def put_result(self, spec_digest: str, doc: Dict[str, dict]) -> None:
        """Persist one result document as one sorted-key JSON text.

        ``doc`` is ``{workload name: experiment_to_dict(...)}``, as
        :func:`~repro.service.jobs.run_spec` returns it.  Storing a
        digest again replaces its document.
        """
        with span("store_write", spec_digest=spec_digest):
            row = (spec_digest, time.time(), json.dumps(doc, sort_keys=True))
            with self._connect() as conn:
                conn.execute(
                    "INSERT OR REPLACE INTO results "
                    "(spec_digest, created_at, result_json) VALUES (?, ?, ?)",
                    row,
                )
        _log.debug(
            "result_stored", spec_digest=spec_digest, workloads=sorted(doc)
        )

    def get_result_dict(self, spec_digest: str) -> Optional[dict]:
        """The raw sweep document (JSON-decoded), or None."""
        with self._connect() as conn:
            row = conn.execute(
                "SELECT result_json FROM results WHERE spec_digest = ?",
                (spec_digest,),
            ).fetchone()
        return json.loads(row["result_json"]) if row else None

    def get_result(
        self, spec_digest: str
    ) -> Optional[Dict[str, ExperimentResult]]:
        """The stored sweeps as live objects, or None."""
        doc = self.get_result_dict(spec_digest)
        if doc is None:
            return None
        return {
            name: experiment_from_dict(data) for name, data in doc.items()
        }

    def has_result(self, spec_digest: str) -> bool:
        """Whether a sweep for this digest is already stored."""
        with self._connect() as conn:
            row = conn.execute(
                "SELECT 1 FROM results WHERE spec_digest = ?", (spec_digest,)
            ).fetchone()
        return row is not None

    def result_count(self) -> int:
        """Number of distinct stored sweep documents."""
        with self._connect() as conn:
            return conn.execute("SELECT COUNT(*) FROM results").fetchone()[0]


# perfbench, the benchmark of record, imports this name to time the
# store's methods; it goes once perfbench imports ``ResultStore``.
ResultStoreBase = ResultStore
