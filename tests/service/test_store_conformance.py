"""ResultStore conformance suite, parameterized over every backend.

The pluggable-store contract: any backend reachable through
``open_store`` must behave identically for job CRUD, result dedup,
concurrent writers, and — the property everything else leans on —
byte-identical storage of serialized sweep documents.  A future
Postgres backend plugs into this suite unchanged.
"""

from __future__ import annotations

import json
import sys
import threading

import pytest

from repro.core.experiment import PowerCapExperiment
from repro.core.serialize import experiment_to_dict
from repro.errors import ConfigError
from repro.service.jobs import Job, JobSpec, JobState
from repro.service.store import (
    MemoryResultStore,
    ResultStore,
    ResultStoreBase,
    SQLiteResultStore,
    open_store,
)
from repro.workloads import make_workload

from .test_store import as_doc

BACKENDS = ("sqlite", "memory")


@pytest.fixture(params=BACKENDS)
def store(request, tmp_path):
    if request.param == "sqlite":
        store = SQLiteResultStore(tmp_path / "conformance.sqlite3")
    else:
        store = MemoryResultStore()
    yield store
    store.close()


@pytest.fixture(scope="module")
def sweeps():
    spec = JobSpec(workload="stereo", caps_w=(150.0, 140.0), scale=0.001)
    workload = make_workload(spec.workload, spec.scale)
    experiment = PowerCapExperiment(
        [workload],
        caps_w=spec.caps_w,
        repetitions=spec.repetitions,
        seed=spec.seed,
    )
    return spec, experiment.run_all()


class TestJobCrud:
    def test_record_and_get_round_trip(self, store):
        job = Job(spec=JobSpec(workload="stereo"), priority=3)
        store.record_job(job)
        loaded = store.get_job(job.id)
        assert loaded is not None
        assert loaded.to_dict() == job.to_dict()

    def test_get_unknown_job_is_none(self, store):
        assert store.get_job("nope") is None

    def test_update_overwrites(self, store):
        job = Job(spec=JobSpec(workload="stereo"))
        store.record_job(job)
        job.state = JobState.DONE
        job.finished_at = 123.0
        store.record_job(job)
        assert store.get_job(job.id).state is JobState.DONE

    def test_list_jobs_newest_first(self, store):
        jobs = [Job(spec=JobSpec(workload="stereo")) for _ in range(3)]
        for i, job in enumerate(jobs):
            job.created_at = 1000.0 + i
            store.record_job(job)
        listed = store.list_jobs()
        assert [j.id for j in listed[:3]] == [j.id for j in reversed(jobs)]

    def test_counts_by_state(self, store):
        done = Job(spec=JobSpec(workload="stereo"), state=JobState.DONE)
        queued = Job(spec=JobSpec(workload="sire"))
        store.record_job(done)
        store.record_job(queued)
        counts = store.counts_by_state()
        assert counts.get("done") == 1
        assert counts.get("queued") == 1

    def test_pending_jobs_covers_queued_and_running(self, store):
        states = {
            JobState.QUEUED: True,
            JobState.RUNNING: True,
            JobState.DONE: False,
            JobState.CANCELLED: False,
        }
        ids = {}
        for state, pending in states.items():
            job = Job(spec=JobSpec(workload="stereo"), state=state)
            store.record_job(job)
            ids[job.id] = pending
        pending_ids = {j.id for j in store.pending_jobs()}
        for job_id, expected in ids.items():
            assert (job_id in pending_ids) is expected


class TestResults:
    def test_put_and_has_result(self, store, sweeps):
        spec, results = sweeps
        assert not store.has_result(spec.digest())
        store.put_result(spec.digest(), as_doc(results))
        assert store.has_result(spec.digest())
        assert store.result_count() == 1

    def test_round_trip_is_byte_identical(self, store, sweeps):
        spec, results = sweeps
        store.put_result(spec.digest(), as_doc(results))
        doc = store.get_result_dict(spec.digest())
        expected = {
            name: json.loads(
                json.dumps(experiment_to_dict(result), sort_keys=True)
            )
            for name, result in results.items()
        }
        assert doc == expected

    def test_overwrite_same_digest_is_idempotent(self, store, sweeps):
        spec, results = sweeps
        store.put_result(spec.digest(), as_doc(results))
        store.put_result(spec.digest(), as_doc(results))
        assert store.result_count() == 1

    def test_missing_result_is_none(self, store):
        assert store.get_result_dict("absent") is None


class TestConcurrency:
    def test_concurrent_writers_all_land(self, store, sweeps):
        """Writers on many threads: every job and result survives."""
        doc = as_doc(sweeps[1])
        errors = []

        def write(k: int) -> None:
            try:
                spec = JobSpec(workload="stereo", seed=7000 + k)
                job = Job(spec=spec)
                store.record_job(job)
                store.put_result(spec.digest(), doc)
                assert store.get_job(job.id).spec == spec
                assert store.has_result(spec.digest())
            except Exception as exc:  # noqa: BLE001 — surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=write, args=(k,)) for k in range(16)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert store.result_count() == 16
        assert len(store.list_jobs()) == 16


class TestLifecycle:
    def test_close_is_idempotent(self, store):
        store.close()
        store.close()


class TestOpenStore:
    def test_bare_path_is_sqlite(self, tmp_path):
        store = open_store(tmp_path / "s.sqlite3")
        assert isinstance(store, SQLiteResultStore)
        assert store.backend == "sqlite"
        # The store's one connection: connect(timeout=30.0) is its whole
        # lock-wait policy, and the file is in WAL mode.
        with store._connect() as conn:
            assert conn.execute("PRAGMA busy_timeout").fetchone()[0] == 30000
            assert conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
        store.close()

    def test_sqlite_url(self, tmp_path):
        store = open_store(f"sqlite://{tmp_path}/s.sqlite3")
        assert isinstance(store, SQLiteResultStore)

    def test_memory_url(self):
        store = open_store("memory://")
        assert isinstance(store, MemoryResultStore)
        assert store.backend == "memory"

    def test_instance_passthrough(self):
        store = MemoryResultStore()
        assert open_store(store) is store

    def test_postgres_not_wired_yet(self):
        with pytest.raises(ConfigError):
            open_store("postgres://db.example/repro")

    def test_compat_alias(self):
        assert ResultStore is SQLiteResultStore
        assert issubclass(SQLiteResultStore, ResultStoreBase)
        assert issubclass(MemoryResultStore, ResultStoreBase)
