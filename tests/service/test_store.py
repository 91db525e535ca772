"""SQLite result store: round-trips, dedup, job records, old files, crashes.

The round-trip tests double as the :mod:`repro.core.serialize`
coverage the store relies on: an :class:`ExperimentResult` serialized,
pushed through SQLite and back must compare equal field-for-field,
PAPI counter dicts and cap labels included.
"""

from __future__ import annotations

import json
import os
import signal
import sqlite3
import subprocess
import sys
import time
from contextlib import closing
from pathlib import Path

import pytest

import repro
from repro.core.experiment import ExperimentResult
from repro.core.metrics import AveragedResult
from repro.core.serialize import experiment_to_dict
from repro.perf.events import PapiEvent
from repro.service.jobs import Job, JobSpec, JobState
from repro.service.scheduler import ExperimentScheduler
from repro.service.store import ResultStore, _job_to_record


def make_row(cap, time_s):
    counters = {e: float(i) * 7.5 for i, e in enumerate(PapiEvent, start=1)}
    return AveragedResult(
        workload="StereoMatching",
        cap_w=cap,
        n_runs=5,
        execution_s=time_s,
        avg_power_w=153.1,
        energy_j=153.1 * time_s,
        avg_freq_mhz=3101.0 if cap is None else 1200.0,
        counters=counters,
        committed_instructions=1e9,
        executed_instructions=1.07e9,
        max_escalation_level=0 if cap is None else 3,
        min_duty=1.0 if cap is None else 0.12,
        execution_s_std=0.4,
    )


def make_result() -> ExperimentResult:
    result = ExperimentResult(
        workload="StereoMatching", baseline=make_row(None, 91.0)
    )
    for cap, t in ((160.0, 91.2), (140.0, 127.5), (120.0, 3100.0)):
        result.by_cap[cap] = make_row(cap, t)
    return result


def as_doc(sweeps):
    """The result document a job stores for live sweep objects."""
    return {name: experiment_to_dict(r) for name, r in sweeps.items()}


def stored_json(path, spec_digest):
    """The ``result_json`` text a store file holds for a digest, or None."""
    with closing(sqlite3.connect(path)) as conn:
        row = conn.execute(
            "SELECT result_json FROM results WHERE spec_digest = ?",
            (spec_digest,),
        ).fetchone()
    return row[0] if row else None


def child_env():
    """The environment a child process needs to import this checkout."""
    src = Path(repro.__file__).resolve().parents[1]
    return {**os.environ, "PYTHONPATH": str(src)}


@pytest.fixture
def store(tmp_path):
    store = ResultStore(tmp_path / "svc.sqlite3")
    yield store
    store.close()


class TestResultRoundTrip:
    def test_experiment_result_round_trips_exactly(self, store):
        original = make_result()
        store.put_result("digest-1", as_doc({"StereoMatching": original}))
        loaded = store.get_result("digest-1")["StereoMatching"]
        # AveragedResult is a dataclass: equality is field-by-field,
        # so this asserts the counters dict and every statistic.
        assert loaded.baseline == original.baseline
        assert loaded.by_cap == original.by_cap
        assert loaded.workload == original.workload

    def test_counters_preserve_papi_enum_keys(self, store):
        store.put_result("digest-2", as_doc({"StereoMatching": make_result()}))
        loaded = store.get_result("digest-2")["StereoMatching"]
        counters = loaded.baseline.counters
        assert set(counters) == set(PapiEvent)
        assert counters[PapiEvent.PAPI_TLB_IM] == pytest.approx(
            make_result().baseline.counters[PapiEvent.PAPI_TLB_IM]
        )

    def test_cap_labels_preserved(self, store):
        store.put_result("digest-3", as_doc({"StereoMatching": make_result()}))
        loaded = store.get_result("digest-3")["StereoMatching"]
        assert loaded.baseline.cap_label == "baseline"
        assert sorted(r.cap_label for r in loaded.rows()) == sorted(
            ["baseline", "160", "140", "120"]
        )

    def test_multi_workload_document(self, store):
        sweeps = {"StereoMatching": make_result(), "SIRE/RSM": make_result()}
        store.put_result("digest-4", as_doc(sweeps))
        assert set(store.get_result("digest-4")) == {
            "StereoMatching",
            "SIRE/RSM",
        }

    def test_missing_digest_is_none(self, store):
        assert store.get_result("nope") is None
        assert store.get_result_dict("nope") is None
        assert not store.has_result("nope")


class TestDedup:
    def test_has_result_after_put(self, store):
        assert not store.has_result("d")
        store.put_result("d", as_doc({"StereoMatching": make_result()}))
        assert store.has_result("d")

    def test_idempotent_put(self, store):
        store.put_result("d", as_doc({"StereoMatching": make_result()}))
        store.put_result("d", as_doc({"StereoMatching": make_result()}))
        assert store.result_count() == 1


class TestJobRecords:
    def test_job_round_trip(self, store):
        job = Job(
            spec=JobSpec(workload="sire", caps_w=(150.0,), scale=0.01),
            priority=3,
        )
        job.state = JobState.RUNNING
        job.attempts = 2
        job.started_at = time.time()
        store.record_job(job)
        loaded = store.get_job(job.id)
        assert loaded.spec == job.spec
        assert loaded.state is JobState.RUNNING
        assert loaded.attempts == 2
        assert loaded.priority == 3
        assert loaded.spec_digest == job.spec_digest

    def test_unknown_job_is_none(self, store):
        assert store.get_job("missing") is None

    def test_pending_jobs_for_recovery(self, store):
        queued = Job(spec=JobSpec(caps_w=(150.0,)))
        running = Job(spec=JobSpec(caps_w=(140.0,)))
        running.state = JobState.RUNNING
        done = Job(spec=JobSpec(caps_w=(130.0,)))
        done.state = JobState.DONE
        for j in (queued, running, done):
            store.record_job(j)
        pending = {j.id for j in store.pending_jobs()}
        assert pending == {queued.id, running.id}


#: The schema of a store file written while every result was also
#: exploded into per-cap rows: the ``result_rows`` table is still there
#: in such files, unread.
_ROWS_ERA_SCHEMA = """
CREATE TABLE jobs (
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
CREATE INDEX idx_jobs_state ON jobs (state);
CREATE INDEX idx_jobs_digest ON jobs (spec_digest);
CREATE TABLE results (
    spec_digest TEXT PRIMARY KEY,
    created_at  REAL NOT NULL,
    result_json TEXT NOT NULL
);
CREATE TABLE result_rows (
    spec_digest TEXT NOT NULL,
    workload    TEXT NOT NULL,
    cap_label   TEXT NOT NULL,
    row_json    TEXT NOT NULL,
    PRIMARY KEY (spec_digest, workload, cap_label)
);
"""


#: Records a job and puts a result, then leaves without close() or a
#: checkpoint, as a killed process would.
_EXIT_WITHOUT_CLOSE = """
import json, os, sys
from repro.service.jobs import Job, JobSpec
from repro.service.store import ResultStore
store = ResultStore(sys.argv[1])
job = Job(spec=JobSpec(caps_w=(150.0,), scale=0.01), created_at=100.0)
store.record_job(job)
with open(sys.argv[2]) as f:
    store.put_result(job.spec_digest, json.load(f))
print(job.id, flush=True)
os._exit(0)
"""


class TestExitWithoutClose:
    def test_committed_writes_survive(self, tmp_path):
        path = tmp_path / "svc.sqlite3"
        doc = as_doc({"StereoMatching": make_result()})
        doc_path = tmp_path / "doc.json"
        doc_path.write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-c", _EXIT_WITHOUT_CLOSE, str(path), str(doc_path)],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        # The commits sit in the write-ahead log, never checkpointed.
        assert Path(f"{path}-wal").stat().st_size > 0
        store = ResultStore(path)
        job = store.get_job(proc.stdout.strip())
        assert job is not None and job.created_at == 100.0
        assert stored_json(path, job.spec_digest) == json.dumps(
            doc, sort_keys=True
        )
        store.close()


#: Records a job and puts its result on a fresh digest, over and over,
#: printing each job id once its result has committed.  It runs until
#: it is killed.
_WRITE_UNTIL_KILLED = """
import json, sys
from repro.service.jobs import Job, JobSpec
from repro.service.store import ResultStore
store = ResultStore(sys.argv[1])
with open(sys.argv[2]) as f:
    doc = json.load(f)
seed = 0
while True:
    job = Job(spec=JobSpec(caps_w=(150.0,), scale=0.01, seed=seed))
    store.record_job(job)
    store.put_result(job.spec_digest, doc)
    print(job.id, flush=True)
    seed += 1
"""


class TestKilledMidWrite:
    """A store file killed by SIGKILL mid-write opens whole and recovers."""

    def test_commits_survive_and_recover(self, tmp_path):
        path = tmp_path / "svc.sqlite3"
        doc = as_doc({"StereoMatching": make_result()})
        doc_path = tmp_path / "doc.json"
        doc_path.write_text(json.dumps(doc))
        with subprocess.Popen(
            [sys.executable, "-c", _WRITE_UNTIL_KILLED, str(path), str(doc_path)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=child_env(),
        ) as proc:
            ids = []
            while len(ids) < 20:
                line = proc.stdout.readline()
                if not line:
                    break
                ids.append(line.strip())
            # Still writing: the kill lands somewhere in its loop of
            # commits, not after a clean exit.
            alive = proc.poll() is None
            proc.send_signal(signal.SIGKILL)
            rest, err = proc.communicate(timeout=60)
        assert alive, err
        assert len(ids) == 20, err
        assert proc.returncode == -signal.SIGKILL
        ids += rest.split()

        with closing(sqlite3.connect(path)) as conn:
            assert conn.execute("PRAGMA integrity_check").fetchone()[0] == "ok"
        store = ResultStore(path)
        try:
            stored = json.dumps(doc, sort_keys=True)
            for job_id in ids:
                job = store.get_job(job_id)
                assert job is not None and job.state is JobState.QUEUED
                assert stored_json(path, job.spec_digest) == stored
            # The child records every job QUEUED.  The kill can cut at
            # most one iteration short: a job recorded without its
            # result, or one whose result committed before its id was
            # printed.
            pending = store.pending_jobs()
            assert set(ids) <= {j.id for j in pending}
            assert len(pending) - len(ids) <= 1

            scheduler = ExperimentScheduler(store)  # never started
            assert scheduler.recover() == len(pending)
            for job in pending:
                recovered = scheduler.get(job.id)
                if store.has_result(job.spec_digest):
                    assert recovered.state is JobState.DONE
                    assert recovered.deduplicated
                else:
                    assert job.id not in ids
                    assert recovered.state is JobState.QUEUED
        finally:
            store.close()


class TestRowsEraStoreFile:
    """A file with ``result_rows`` and ``"jobs": 1`` specs still serves."""

    def test_old_file_serves_jobs_and_results(self, tmp_path):
        path = tmp_path / "old.sqlite3"
        spec = JobSpec(caps_w=(150.0,), scale=0.01)
        queued = Job(spec=spec, created_at=100.0)
        done = Job(spec=spec, state=JobState.DONE, created_at=200.0)
        stored_json = json.dumps(
            as_doc({"StereoMatching": make_result()}), sort_keys=True
        )
        with closing(sqlite3.connect(path)) as conn, conn:
            conn.executescript(_ROWS_ERA_SCHEMA)
            for job in (queued, done):
                rec = _job_to_record(job)
                rec["spec_json"] = json.dumps(
                    {**spec.to_dict(), "jobs": 1}, sort_keys=True
                )
                conn.execute(
                    "INSERT INTO jobs VALUES (:id, :spec_digest, :spec_json, "
                    ":priority, :state, :attempts, :max_attempts, :error, "
                    ":created_at, :started_at, :finished_at, :deduplicated)",
                    rec,
                )
            conn.execute(
                "INSERT INTO results VALUES (?, ?, ?)",
                (spec.digest(), 1.0, stored_json),
            )
            conn.execute(
                "INSERT INTO result_rows VALUES (?, ?, ?, ?)",
                (spec.digest(), "StereoMatching", "baseline", "{}"),
            )

        store = ResultStore(path)
        assert store.get_job(done.id).to_dict() == done.to_dict()
        assert [j.id for j in store.pending_jobs()] == [queued.id]
        scheduler = ExperimentScheduler(store)  # never started
        assert scheduler.recover() == 1
        assert scheduler.get(queued.id).spec == spec
        assert store.has_result(spec.digest())
        assert store.get_result_dict(spec.digest()) == json.loads(stored_json)

        fresh = as_doc({"StereoMatching": make_result()})
        store.put_result("fresh-digest", fresh)
        assert store.get_result_dict("fresh-digest") == fresh
        assert store.result_count() == 2
        with closing(sqlite3.connect(path)) as conn:
            # No migration: the old table stays, unread and untouched.
            assert conn.execute(
                "SELECT COUNT(*) FROM result_rows"
            ).fetchone()[0] == 1
