"""Pluggable job + result persistence behind one store interface.

The service persists two kinds of state:

- **jobs** — every submission's lifecycle record (spec JSON, state,
  attempts, timestamps), so a restarted service can recover queued
  work and answer status queries for past jobs;
- **results** — one document per distinct :meth:`JobSpec.digest
  <repro.service.jobs.JobSpec.digest>`: the sweep document a job
  produced (``{workload name: experiment_to_dict(...)}``), stored as
  the one JSON text :meth:`ResultStoreBase.put_result` encodes.

:class:`ResultStoreBase` is the backend contract.  The base class does
the one ``json.dumps`` of each document — backends only move opaque
JSON strings — so every backend stores the same bytes, and results
loaded from any store compare equal (dataclass equality, PAPI counter
dicts included) to the live objects the document was made from.  The
conformance suite in ``tests/service/test_store_conformance.py`` runs
against every registered backend.

Backends:

- :class:`SQLiteResultStore` (default; ``ResultStore`` is a
  compatibility alias) — one SQLite file in WAL mode, through one
  connection per store (30 s busy timeout, ``synchronous`` at SQLite's
  default FULL) that a lock hands to one thread at a time, for one
  transaction.  Shard processes fork after the store opens and never
  touch its connection;
- :class:`MemoryResultStore` — process-local dicts under a lock; no
  durability, no files.  Used by tests that must not measure
  filesystem latency;
- Postgres — not bundled (the container ships no driver), but the
  interface is shaped for it: all backend methods are keyed reads /
  upserts with JSON payloads, exactly what
  ``INSERT ... ON CONFLICT DO UPDATE`` over ``jsonb`` columns needs.
  :func:`open_store` rejects ``postgres://`` URLs with a pointed
  message instead of failing at first use.

:func:`open_store` picks the backend from a URL-ish spec:
``memory://`` for the in-memory store, ``sqlite:///path`` or a bare
filesystem path for SQLite.
"""

from __future__ import annotations

import abc
import json
import os
import sqlite3
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from ..core.experiment import ExperimentResult
from ..core.serialize import experiment_from_dict
from ..errors import ConfigError
from ..obs.logging import get_logger
from ..obs.tracing import span
from .jobs import Job, JobSpec, JobState

__all__ = [
    "ResultStoreBase",
    "SQLiteResultStore",
    "MemoryResultStore",
    "ResultStore",
    "open_store",
]

_log = get_logger("service.store")


class ResultStoreBase(abc.ABC):
    """Backend contract for job + result persistence.

    Concrete backends implement the raw keyed operations; everything
    about *what* is stored — the JSON encoding, dedup semantics — is
    decided here, once, so two backends can never drift in their
    on-disk document format.
    """

    #: Short backend tag for provenance / logs (``sqlite``, ``memory``).
    backend: str = "abstract"

    # ------------------------------------------------------------------
    # Jobs (abstract)
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def record_job(self, job: Job) -> None:
        """Insert or update one job's lifecycle record (upsert by id)."""

    @abc.abstractmethod
    def get_job(self, job_id: str) -> Optional[Job]:
        """One job by id, or None."""

    @abc.abstractmethod
    def list_jobs(self, limit: int = 200) -> List[Job]:
        """Most recent jobs, newest first."""

    @abc.abstractmethod
    def counts_by_state(self) -> Dict[str, int]:
        """``{state value: job count}`` over every recorded job."""

    @abc.abstractmethod
    def pending_jobs(self) -> List[Job]:
        """QUEUED / RUNNING jobs (for crash recovery at startup)."""

    # ------------------------------------------------------------------
    # Results (abstract, JSON-string payloads)
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def _put_result_json(
        self, spec_digest: str, created_at: float, result_json: str
    ) -> None:
        """Upsert one sweep document's JSON text."""

    @abc.abstractmethod
    def _get_result_json(self, spec_digest: str) -> Optional[str]:
        """The stored sweep document JSON, or None."""

    @abc.abstractmethod
    def has_result(self, spec_digest: str) -> bool:
        """Whether a sweep for this digest is already stored."""

    @abc.abstractmethod
    def result_count(self) -> int:
        """Number of distinct stored sweep documents."""

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release backend resources (idempotent; default no-op)."""

    # ------------------------------------------------------------------
    # Shared serialization (concrete)
    # ------------------------------------------------------------------

    def put_result(self, spec_digest: str, doc: Dict[str, dict]) -> None:
        """Persist one result document as one sorted-key JSON text.

        ``doc`` is ``{workload name: experiment_to_dict(...)}``, as
        :func:`~repro.service.jobs.run_spec` returns it.
        """
        with span("store_write", spec_digest=spec_digest):
            self._put_result_json(
                spec_digest, time.time(), json.dumps(doc, sort_keys=True)
            )
        _log.debug(
            "result_stored",
            spec_digest=spec_digest,
            backend=self.backend,
            workloads=sorted(doc),
        )

    def get_result_dict(self, spec_digest: str) -> Optional[dict]:
        """The raw sweep document (JSON-decoded), or None."""
        raw = self._get_result_json(spec_digest)
        return json.loads(raw) if raw is not None else None

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

    # ------------------------------------------------------------------
    # Shared job (de)serialization helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _job_to_record(job: Job) -> dict:
        """A job as the flat record every backend persists."""
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

    @staticmethod
    def _job_from_record(row) -> Job:
        """Rebuild a :class:`Job` from a flat record (dict or sqlite Row)."""
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


class SQLiteResultStore(ResultStoreBase):
    """SQLite-backed persistence for jobs and sweep results."""

    backend = "sqlite"

    def __init__(self, path: "str | os.PathLike") -> None:
        self._path = str(path)
        if Path(self._path).is_dir():
            raise ConfigError(f"store path is a directory: {self._path}")
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(
            self._path, timeout=30.0, check_same_thread=False
        )
        self._conn.row_factory = sqlite3.Row
        self._conn.execute("PRAGMA journal_mode=WAL")
        with self._connect() as conn:
            conn.executescript(_SCHEMA)

    @property
    def path(self) -> str:
        """Location of the database file."""
        return self._path

    @contextmanager
    def _connect(self) -> Iterator[sqlite3.Connection]:
        """The store's connection, held under its lock for one transaction.

        Commits when the block exits cleanly, rolls back when it raises.
        """
        with self._lock, self._conn:
            yield self._conn

    def close(self) -> None:
        """Close the connection (idempotent); the store is unusable after."""
        with self._lock:
            self._conn.close()

    # ------------------------------------------------------------------
    # Jobs
    # ------------------------------------------------------------------

    def record_job(self, job: Job) -> None:
        rec = self._job_to_record(job)
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
        with self._connect() as conn:
            row = conn.execute(
                "SELECT * FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
        return self._job_from_record(row) if row else None

    def list_jobs(self, limit: int = 200) -> List[Job]:
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT * FROM jobs ORDER BY created_at DESC LIMIT ?",
                (int(limit),),
            ).fetchall()
        return [self._job_from_record(r) for r in rows]

    def counts_by_state(self) -> Dict[str, int]:
        counts = {state.value: 0 for state in JobState}
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT state, COUNT(*) AS n FROM jobs GROUP BY state"
            ).fetchall()
        for row in rows:
            counts[row["state"]] = row["n"]
        return counts

    def pending_jobs(self) -> List[Job]:
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT * FROM jobs WHERE state IN (?, ?) "
                "ORDER BY created_at",
                (JobState.QUEUED.value, JobState.RUNNING.value),
            ).fetchall()
        return [self._job_from_record(r) for r in rows]

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def _put_result_json(
        self, spec_digest: str, created_at: float, result_json: str
    ) -> None:
        with self._connect() as conn:
            conn.execute(
                "INSERT OR REPLACE INTO results "
                "(spec_digest, created_at, result_json) VALUES (?, ?, ?)",
                (spec_digest, created_at, result_json),
            )

    def _get_result_json(self, spec_digest: str) -> Optional[str]:
        with self._connect() as conn:
            row = conn.execute(
                "SELECT result_json FROM results WHERE spec_digest = ?",
                (spec_digest,),
            ).fetchone()
        return row["result_json"] if row else None

    def has_result(self, spec_digest: str) -> bool:
        with self._connect() as conn:
            row = conn.execute(
                "SELECT 1 FROM results WHERE spec_digest = ?", (spec_digest,)
            ).fetchone()
        return row is not None

    def result_count(self) -> int:
        with self._connect() as conn:
            return conn.execute("SELECT COUNT(*) FROM results").fetchone()[0]


class MemoryResultStore(ResultStoreBase):
    """In-process store: dicts under a lock, no durability.

    Holds exactly the JSON strings the SQLite backend would, so the
    two backends are byte-for-byte interchangeable for everything but
    persistence across restarts.
    """

    backend = "memory"

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._jobs: Dict[str, dict] = {}
        self._results: Dict[str, Tuple[float, str]] = {}

    # Jobs ---------------------------------------------------------------

    def record_job(self, job: Job) -> None:
        rec = self._job_to_record(job)
        with self._lock:
            self._jobs[job.id] = rec

    def get_job(self, job_id: str) -> Optional[Job]:
        with self._lock:
            rec = self._jobs.get(job_id)
        return self._job_from_record(rec) if rec else None

    def list_jobs(self, limit: int = 200) -> List[Job]:
        with self._lock:
            recs = sorted(
                self._jobs.values(),
                key=lambda r: r["created_at"],
                reverse=True,
            )[: int(limit)]
        return [self._job_from_record(r) for r in recs]

    def counts_by_state(self) -> Dict[str, int]:
        counts = {state.value: 0 for state in JobState}
        with self._lock:
            for rec in self._jobs.values():
                counts[rec["state"]] += 1
        return counts

    def pending_jobs(self) -> List[Job]:
        pending = (JobState.QUEUED.value, JobState.RUNNING.value)
        with self._lock:
            recs = sorted(
                (r for r in self._jobs.values() if r["state"] in pending),
                key=lambda r: r["created_at"],
            )
        return [self._job_from_record(r) for r in recs]

    # Results ------------------------------------------------------------

    def _put_result_json(
        self, spec_digest: str, created_at: float, result_json: str
    ) -> None:
        with self._lock:
            self._results[spec_digest] = (created_at, result_json)

    def _get_result_json(self, spec_digest: str) -> Optional[str]:
        with self._lock:
            entry = self._results.get(spec_digest)
        return entry[1] if entry else None

    def has_result(self, spec_digest: str) -> bool:
        with self._lock:
            return spec_digest in self._results

    def result_count(self) -> int:
        with self._lock:
            return len(self._results)


#: Compatibility alias — the historical concrete class name.  Existing
#: code (and the tier-1 tests) construct ``ResultStore(path)``; that
#: keeps working and now yields the SQLite backend explicitly.
ResultStore = SQLiteResultStore


def open_store(spec: "str | os.PathLike | ResultStoreBase") -> ResultStoreBase:
    """Build a store from a URL-ish spec (or pass an instance through).

    - ``memory://`` → :class:`MemoryResultStore`
    - ``sqlite:///path/to.db`` or ``sqlite:path`` → SQLite at that path
    - ``postgres://…`` → rejected with a pointer (no bundled driver)
    - anything else → treated as a SQLite file path
    """
    if isinstance(spec, ResultStoreBase):
        return spec
    text = str(spec)
    if text == "memory://":
        return MemoryResultStore()
    if text.startswith(("postgres://", "postgresql://")):
        raise ConfigError(
            "no Postgres driver is bundled with this build; the "
            "ResultStore interface supports it — implement "
            "ResultStoreBase over your driver and pass the instance in"
        )
    if text.startswith("sqlite://"):
        # sqlite:///abs/path → /abs/path; sqlite://rel/path → rel/path
        text = text[len("sqlite://"):]
    return SQLiteResultStore(text)
