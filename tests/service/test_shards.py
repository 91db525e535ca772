"""Worker shards: dispatch to any idle shard, fallback, byte-identity.

The acceptance property: a result produced through the sharded path is
byte-identical to the synchronous in-process path — same digests, same
stored documents.  A job goes to whichever shard is idle, so a busy or
dead shard never holds a job up while another shard lives, and every
shard has a worker thread to feed it.  A sharded job streams the same
lifecycle events as an in-process one.  The tests
start real shard processes on any host: they build ``ShardPool``
directly, or patch ``os.cpu_count`` where the service decides how many
shards to start.
"""

from __future__ import annotations

import json
import os
import threading
import time
import urllib.request

import pytest

from repro.core.experiment import PowerCapExperiment
from repro.core.serialize import experiment_to_dict
from repro.errors import SimulationError
from repro.service.api import ExperimentService
from repro.service.jobs import JobSpec, JobState
from repro.service.shards import ShardPool, effective_shard_count
from repro.workloads import make_workload

SPEC = JobSpec(
    workload="stereo", caps_w=(150.0, 140.0), scale=0.001, seed=11
)


def without_provenance(doc):
    """The engine output of a result document (provenance records
    *this* production: timestamps, host phase seconds, cache path)."""
    doc = json.loads(json.dumps(doc, sort_keys=True))
    for payload in doc.values():
        payload.pop("provenance")
    return doc


def kill(proc):
    proc.kill()
    proc.join(timeout=10.0)
    assert not proc.is_alive()


def start_run(pool, spec, errors):
    """Run ``spec`` on ``pool`` in a daemon thread; collect RuntimeErrors."""

    def run():
        try:
            pool.run(spec.to_dict())
        except RuntimeError as exc:
            errors.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread


class TestEffectiveShardCount:
    def test_below_two_is_in_process(self):
        assert effective_shard_count(0) == 0
        assert effective_shard_count(1) == 0

    def test_single_core_falls_back(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 1)
        assert effective_shard_count(4) == 0

    def test_capped_by_cpu_count(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 4)
        assert effective_shard_count(16) == 4


@pytest.fixture(scope="module")
def pool(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("shards")
    p = ShardPool(2, rate_cache=tmp / "rates.json")
    p.start()
    yield p
    p.shutdown()


class TestShardPool:
    def test_result_byte_identical_to_in_process(self, pool):
        doc = pool.run(SPEC.to_dict())
        workload = make_workload(SPEC.workload, SPEC.scale)
        direct = PowerCapExperiment(
            [workload],
            caps_w=SPEC.caps_w,
            repetitions=SPEC.repetitions,
            seed=SPEC.seed,
        ).run_all()
        expected = {
            name: json.loads(
                json.dumps(experiment_to_dict(result), sort_keys=True)
            )
            for name, result in direct.items()
        }
        served = json.loads(json.dumps(doc, sort_keys=True))
        # Provenance records *this* production (timestamps, host phase
        # seconds); the engine output must still be bit-identical.
        for docs in (served, expected):
            for payload in docs.values():
                payload.pop("provenance")
        assert served == expected

    def test_busy_shard_does_not_hold_up_the_next_spec(self, pool):
        # Both digests hash to shard 0 on a 64-replica blake2b ring, so
        # pinning digests to shards would run them one after the other.
        # Each is a cold trace simulation (~0.5 s), long enough that
        # both are dispatched before either finishes.
        specs = [
            JobSpec(
                workload="stereo",
                caps_w=(150.0, 140.0),
                scale=0.001,
                seed=seed,
            )
            for seed in (1, 2)
        ]
        barrier = threading.Barrier(len(specs))
        intervals, docs = [], []

        def run(spec):
            barrier.wait()
            t0 = time.monotonic()
            docs.append(pool.run(spec.to_dict()))
            intervals.append((t0, time.monotonic()))

        threads = [
            threading.Thread(target=run, args=(s,), daemon=True)
            for s in specs
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
        assert len(docs) == 2
        starts, ends = zip(*intervals)
        assert max(starts) < min(ends)
        # Each document names the cache file of the shard that ran it.
        cache_paths = {
            payload["provenance"]["rate_cache"]["path"]
            for doc in docs
            for payload in doc.values()
        }
        assert len(cache_paths) == 2

    def test_simulation_error_crosses_the_pipe(self, pool):
        bad = dict(SPEC.to_dict())
        bad["workload"] = "no-such-workload"
        with pytest.raises(SimulationError):
            pool.run(bad)

    def test_rejects_single_shard(self):
        with pytest.raises(SimulationError):
            ShardPool(1)

    def test_corrupt_cache_files_are_ignored_then_rewritten(
        self, pool, tmp_path
    ):
        rates = tmp_path / "rates.json"
        for k in range(2):
            (tmp_path / f"rates.json.shard{k}").write_bytes(
                b"\xff\xfe{not json"
            )
        corrupt = ShardPool(2, rate_cache=rates)
        corrupt.start()
        try:
            # Idle shards take turns, so each shard runs one job.
            docs = [corrupt.run(SPEC.to_dict()) for _ in range(2)]
        finally:
            corrupt.shutdown()
        clean = without_provenance(pool.run(SPEC.to_dict()))
        assert [without_provenance(doc) for doc in docs] == [clean, clean]
        for k in range(2):
            text = (tmp_path / f"rates.json.shard{k}").read_text()
            assert isinstance(json.loads(text), dict)


class TestDeadShards:
    def test_run_raises_at_once_when_every_shard_is_dead(self):
        dead = ShardPool(2)
        dead.start()
        errors = []
        try:
            for proc in dead._procs:
                kill(proc)
            # No request goes to a dead shard, so there is no reply
            # poll (1 s) to sit out.
            caller = start_run(dead, SPEC, errors)
            caller.join(timeout=0.5)
            assert not caller.is_alive()
            assert len(errors) == 1
        finally:
            dead.shutdown()

    def test_waiting_job_is_released_when_the_last_shard_dies(self):
        dying = ShardPool(2)
        dying.start()
        errors = []
        # A cold three-cap sweep (~1 s) keeps the last shard busy while
        # a second job waits for it.
        long_spec = JobSpec(
            workload="stereo",
            caps_w=(150.0, 130.0, 120.0),
            scale=0.01,
            seed=4,
        )
        try:
            kill(dying._procs[0])
            busy = start_run(dying, long_spec, errors)
            time.sleep(0.1)
            waiting = start_run(dying, long_spec, errors)
            time.sleep(0.1)
            kill(dying._procs[1])
            busy.join(timeout=10.0)
            waiting.join(timeout=10.0)
            assert not busy.is_alive() and not waiting.is_alive()
            assert len(errors) == 2
        finally:
            dying.shutdown()

    def test_service_jobs_reach_done_with_one_of_two_shards_dead(
        self, tmp_path
    ):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(os, "cpu_count", lambda: 2)
            svc = ExperimentService(
                db_path=tmp_path / "svc.sqlite3",
                port=0,
                workers=2,
                rate_cache=tmp_path / "rates.json",
                shards=2,
            )
        svc.start()
        try:
            kill(svc.shard_pool._procs[1])
            # Six distinct digests; a 64-replica blake2b hash ring pins
            # three of them to shard 1, where every attempt would fail.
            specs = [
                JobSpec(
                    workload="stereo", caps_w=caps, scale=0.001, seed=11
                )
                for caps in [
                    (150.0, 140.0),
                    (150.0, 135.0),
                    (150.0, 130.0),
                    (145.0, 140.0),
                    (155.0, 140.0),
                    (160.0, 140.0),
                ]
            ]
            jobs = [svc.scheduler.submit(spec) for spec in specs]
            assert svc.scheduler.drain(timeout=120)
            states = [svc.scheduler.get(job.id).state for job in jobs]
            assert states == [JobState.DONE] * len(specs)
        finally:
            svc.shutdown(drain=False)


class TestWorkersPerShard:
    def test_every_shard_can_be_busy_at_once(self, tmp_path):
        # A worker thread waits on one shard's reply, so two workers
        # over four shards would leave two shards idle.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(os, "cpu_count", lambda: 4)
            svc = ExperimentService(
                db_path=tmp_path / "svc.sqlite3",
                port=0,
                workers=2,
                rate_cache=tmp_path / "rates.json",
                shards=4,
            )
        svc.start()
        try:
            assert svc.scheduler.workers == 4
            # Cold three-cap sweeps (~1 s each) keep every shard busy
            # long enough to be seen.
            jobs = [
                svc.scheduler.submit(
                    JobSpec(
                        workload="stereo",
                        caps_w=(150.0, 130.0, 120.0),
                        scale=0.01,
                        seed=seed,
                    )
                )
                for seed in range(4)
            ]
            most_running = most_busy = 0
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline and (
                most_running < 4 or most_busy < 4
            ):
                counts = svc.scheduler.counts_by_state()
                most_running = max(most_running, counts["running"])
                most_busy = max(most_busy, svc.shard_pool._busy)
                if counts["done"] + counts["failed"] == len(jobs):
                    break
                time.sleep(0.005)
            assert most_running == 4
            assert most_busy == 4
            assert svc.scheduler.drain(timeout=120)
            states = [svc.scheduler.get(job.id).state for job in jobs]
            assert states == [JobState.DONE] * len(jobs)
        finally:
            svc.shutdown(drain=False)


class TestShardedService:
    """End-to-end: the service with real shards matches unsharded."""

    @pytest.fixture(scope="class")
    def sharded_service(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("sharded")
        with pytest.MonkeyPatch.context() as patch:
            # Two CPUs, so even a single-core host starts both shards.
            patch.setattr(os, "cpu_count", lambda: 2)
            svc = ExperimentService(
                db_path=tmp / "svc.sqlite3",
                port=0,
                workers=2,
                rate_cache=tmp / "rates.json",
                shards=2,
            )
        svc.start()
        yield svc
        svc.shutdown(drain=False)

    def test_service_runs_sharded(self, sharded_service):
        assert sharded_service.scheduler.effective_shards == 2

    def test_stream_is_the_jobs_lifecycle(self, sharded_service):
        # The same two events an in-process job streams.
        job = sharded_service.scheduler.submit(
            JobSpec(workload="stereo", caps_w=(145.0,), scale=0.001, seed=11)
        )
        url = f"{sharded_service.url}/jobs/{job.id}/stream"
        with urllib.request.urlopen(url, timeout=120) as resp:
            body = resp.read().decode()
        frames = []
        for block in body.split("\n\n"):
            fields = dict(
                line.split(": ", 1)
                for line in block.splitlines()
                if line and not line.startswith(":")
            )
            if fields:
                frames.append((fields.get("id"), fields["event"]))
        assert frames == [("1", "job_started"), ("2", "job_done")]

    def test_result_through_shards_matches_store_bytes(
        self, sharded_service, tmp_path
    ):
        import time as _time

        job = sharded_service.scheduler.submit(SPEC)
        for _ in range(1200):
            current = sharded_service.scheduler.get(job.id)
            if current.state.value in ("done", "failed"):
                break
            _time.sleep(0.05)
        assert current.state.value == "done"
        served = sharded_service.store.get_result_dict(SPEC.digest())
        assert served is not None

        # The same spec through a plain unsharded scheduler stores the
        # same bytes (provenance aside).
        from repro.service.store import ResultStore

        workload = make_workload(SPEC.workload, SPEC.scale)
        direct = PowerCapExperiment(
            [workload],
            caps_w=SPEC.caps_w,
            repetitions=SPEC.repetitions,
            seed=SPEC.seed,
        ).run_all()
        reference = ResultStore("memory://")
        reference.put_result(
            SPEC.digest(),
            {name: experiment_to_dict(r) for name, r in direct.items()},
        )
        expected = reference.get_result_dict(SPEC.digest())
        reference.close()
        for docs in (served, expected):
            for payload in docs.values():
                payload.pop("provenance")
        assert served == expected
