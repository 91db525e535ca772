"""ResultStore conformance suite, over a file and ``memory://``.

Both forms of the one store must behave identically for job CRUD,
result dedup, concurrent writers, and — the property everything else
leans on — byte-identical storage of serialized sweep documents.
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
from repro.service.store import ResultStore
from repro.workloads import make_workload

from .test_store import as_doc

#: The two forms of a store's path: "sqlite" is a database file.
FORMS = ("sqlite", "memory")


@pytest.fixture(params=FORMS)
def store(request, tmp_path):
    if request.param == "sqlite":
        store = ResultStore(tmp_path / "conformance.sqlite3")
    else:
        store = ResultStore("memory://")
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
        jobs = [
            Job(spec=JobSpec(workload="stereo", seed=7000 + k))
            for k in range(16)
        ]

        def write(k: int) -> None:
            try:
                job = jobs[k]
                spec = job.spec
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
        for job in jobs:
            assert store.get_job(job.id).to_dict() == job.to_dict()


class TestLifecycle:
    def test_close_is_idempotent(self, store):
        store.close()
        store.close()


class TestOpenStore:
    """A store opens a file path or ``memory://``, and nothing else."""

    def test_bare_path_is_sqlite(self, tmp_path):
        path = tmp_path / "s.sqlite3"
        store = ResultStore(path)
        assert store.path == str(path)
        # The store's one connection: connect(timeout=30.0) is its whole
        # lock-wait policy, and the file is in WAL mode.
        with store._connect() as conn:
            assert conn.execute("PRAGMA busy_timeout").fetchone()[0] == 30000
            assert conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
        store.close()

    def test_memory_url(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        store = ResultStore("memory://")
        assert store.path == "memory://"
        with store._connect() as conn:
            assert conn.execute("PRAGMA busy_timeout").fetchone()[0] == 30000
            assert conn.execute("PRAGMA database_list").fetchone()["file"] == ""
        store.close()
        assert list(tmp_path.iterdir()) == []

    def test_other_schemes_are_rejected(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for url in ("postgres://db.example/repro", "sqlite://svc.sqlite3"):
            with pytest.raises(ConfigError, match="file path or memory://"):
                ResultStore(url)
        assert list(tmp_path.iterdir()) == []

    def test_sqlite_memory_spelling_is_rejected(self, tmp_path, monkeypatch):
        # ":memory:" would open an in-memory database under a third
        # spelling, which inspect and timeline then cannot find.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ConfigError, match="file path or memory://"):
            ResultStore(":memory:")
        assert list(tmp_path.iterdir()) == []
