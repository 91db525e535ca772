"""Scheduler: worker pool, retries, dedup, single flight, drain."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.core import serialize
from repro.errors import ConfigError
from repro.obs.metrics import process_metrics
from repro.service.jobs import Job, JobSpec, JobState
from repro.service.scheduler import ExperimentScheduler
from repro.service.shards import ShardPool
from repro.service.store import ResultStore

from .test_store import as_doc, make_result

TINY = dict(caps_w=(150.0,), repetitions=1, scale=0.001)


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "svc.sqlite3")


def make_scheduler(store, **kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("retry_backoff_s", 0.01)
    return ExperimentScheduler(store, **kwargs)


def fake_run(scheduler, delay_s=0.0, fail_times=0):
    """Replace the sweep with a stub (keeps scheduler tests fast)."""
    calls = {"n": 0}
    lock = threading.Lock()

    def _run(spec):
        with lock:
            calls["n"] += 1
            n = calls["n"]
        if n <= fail_times:
            raise RuntimeError(f"injected crash #{n}")
        if delay_s:
            time.sleep(delay_s)
        return as_doc({"StereoMatching": make_result()})

    scheduler._run_spec = _run
    return calls


def wait_for(predicate, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition not met in time"
        time.sleep(0.002)


class TestLifecycle:
    def test_real_tiny_sweep_reaches_done(self, store, tmp_path):
        scheduler = make_scheduler(
            store, workers=1, rate_cache=tmp_path / "rates.json"
        )
        scheduler.start()
        job = scheduler.submit(JobSpec(**TINY))
        assert scheduler.drain(timeout=120)
        scheduler.shutdown(drain=False)
        assert job.state is JobState.DONE
        stored = store.get_result(job.spec_digest)
        assert "StereoMatching" in stored
        assert stored["StereoMatching"].by_cap[150.0].execution_s > 0

    def test_submit_before_start_queues(self, store):
        scheduler = make_scheduler(store)
        fake_run(scheduler)
        job = scheduler.submit(JobSpec(**TINY))
        assert job.state is JobState.QUEUED
        assert scheduler.queue_depth() == 1
        scheduler.start()
        assert scheduler.drain(timeout=30)
        scheduler.shutdown(drain=False)
        assert job.state is JobState.DONE

    def test_counts_by_state(self, store):
        scheduler = make_scheduler(store)
        fake_run(scheduler)
        scheduler.submit(JobSpec(**TINY))
        counts = scheduler.counts_by_state()
        assert counts["queued"] == 1
        scheduler.start()
        scheduler.drain(timeout=30)
        scheduler.shutdown(drain=False)
        assert scheduler.counts_by_state()["done"] == 1


class TestDedup:
    def test_resubmission_is_a_store_hit(self, store):
        scheduler = make_scheduler(store)
        calls = fake_run(scheduler)
        scheduler.start()
        first = scheduler.submit(JobSpec(**TINY))
        assert scheduler.drain(timeout=30)
        second = scheduler.submit(JobSpec(**TINY))
        scheduler.shutdown(drain=False)
        assert first.state is JobState.DONE and not first.deduplicated
        # The twin is born DONE without ever touching the queue or
        # re-running the sweep.
        assert second.state is JobState.DONE and second.deduplicated
        assert calls["n"] == 1
        assert scheduler.metrics.dedup_hits.value == 1

    def test_twin_queued_behind_its_leader_coalesces(self, store):
        # A duplicate queued while its twin is still queued follows it
        # and is not simulated again.
        scheduler = make_scheduler(store, workers=1)
        calls = fake_run(scheduler, delay_s=0.2)
        a = scheduler.submit(JobSpec(**TINY))
        b = scheduler.submit(JobSpec(**TINY))
        scheduler.start()
        assert scheduler.drain(timeout=30)
        scheduler.shutdown(drain=False)
        assert a.state is JobState.DONE
        assert b.state is JobState.DONE
        assert calls["n"] == 1
        assert b.deduplicated


class TestSingleFlight:
    """One execution per digest: a twin follows the queued or running one."""

    def test_twins_submitted_while_the_leader_runs_execute_once(self, store):
        scheduler = make_scheduler(store, workers=2)
        calls = fake_run(scheduler, delay_s=0.2)
        scheduler.start()
        leader = scheduler.submit(JobSpec(**TINY))
        wait_for(lambda: leader.state is JobState.RUNNING)
        twins = [scheduler.submit(JobSpec(**TINY)) for _ in range(3)]
        # Followers show QUEUED and hold no queue slot.
        assert [t.state for t in twins] == [JobState.QUEUED] * 3
        assert scheduler.queue_depth() == 0
        assert scheduler.drain(timeout=30)
        scheduler.shutdown(drain=False)
        assert calls["n"] == 1
        assert leader.state is JobState.DONE and not leader.deduplicated
        for twin in twins:
            assert twin.state is JobState.DONE and twin.deduplicated
            assert twin.attempts == 0 and twin.started_at is None
            assert store.get_job(twin.id).state is JobState.DONE
        assert scheduler.metrics.jobs_coalesced.value == 3
        assert scheduler.metrics.dedup_hits.value == 0
        assert scheduler.metrics.jobs_completed.value == 4

    def test_followers_wait_through_a_retry(self, store):
        scheduler = make_scheduler(store, workers=2, retry_backoff_s=0.2)
        calls = fake_run(scheduler, fail_times=1)
        leader = scheduler.submit(JobSpec(**TINY))
        follower = scheduler.submit(JobSpec(**TINY))
        scheduler.start()
        wait_for(
            lambda: leader.attempts == 1 and leader.state is JobState.QUEUED
        )
        assert follower.state is JobState.QUEUED
        assert scheduler.drain(timeout=30)
        scheduler.shutdown(drain=False)
        assert calls["n"] == 2
        assert leader.state is JobState.DONE and leader.attempts == 2
        assert follower.state is JobState.DONE and follower.deduplicated

    def test_followers_fail_with_their_leader(self, store):
        scheduler = make_scheduler(store, workers=2, max_attempts=2)
        calls = fake_run(scheduler, fail_times=99)
        leader = scheduler.submit(JobSpec(**TINY))
        follower = scheduler.submit(JobSpec(**TINY))
        scheduler.start()
        assert scheduler.drain(timeout=30)
        scheduler.shutdown(drain=False)
        assert calls["n"] == 2  # the leader's two attempts, nothing more
        assert leader.state is JobState.FAILED
        assert follower.state is JobState.FAILED
        assert follower.error == leader.error == (
            "RuntimeError: injected crash #2"
        )
        assert follower.attempts == 0 and not follower.deduplicated
        assert store.get_job(follower.id).state is JobState.FAILED
        assert scheduler.metrics.jobs_failed.value == 2

    def test_cancelled_leader_hands_its_flight_to_a_follower(self, store):
        scheduler = make_scheduler(store, workers=1)
        calls = fake_run(scheduler)
        other = scheduler.submit(
            JobSpec(caps_w=(140.0,), repetitions=1, scale=0.001), priority=1
        )
        leader = scheduler.submit(JobSpec(**TINY))
        follower = scheduler.submit(JobSpec(**TINY), priority=2)
        assert scheduler.queue_depth() == 2
        assert scheduler.cancel(leader.id)
        assert leader.state is JobState.CANCELLED
        assert follower.state is JobState.QUEUED
        assert scheduler.queue_depth() == 2
        scheduler.start()
        assert scheduler.drain(timeout=30)
        scheduler.shutdown(drain=False)
        assert calls["n"] == 2
        assert follower.state is JobState.DONE and not follower.deduplicated
        # Queued at its own priority, ahead of the priority-1 job.
        assert follower.started_at < other.started_at

    def test_cancelled_follower_leaves_its_leader_alone(self, store):
        scheduler = make_scheduler(store, workers=2)
        calls = fake_run(scheduler, delay_s=0.2)
        scheduler.start()
        leader = scheduler.submit(JobSpec(**TINY))
        wait_for(lambda: leader.state is JobState.RUNNING)
        cancelled = scheduler.submit(JobSpec(**TINY))
        kept = scheduler.submit(JobSpec(**TINY))
        assert scheduler.cancel(cancelled.id)
        assert scheduler.drain(timeout=30)
        scheduler.shutdown(drain=False)
        assert calls["n"] == 1
        assert leader.state is JobState.DONE
        assert cancelled.state is JobState.CANCELLED
        assert store.get_job(cancelled.id).state is JobState.CANCELLED
        assert kept.state is JobState.DONE and kept.deduplicated

    def test_submit_from_inside_put_result_follows(self, store):
        scheduler = make_scheduler(store, workers=2)
        calls = fake_run(scheduler)
        real_put = store.put_result
        twins = []

        def put_result(digest, doc):
            if not twins:
                # Before the commit; the idle worker gets time to take
                # the twin if it were queued.
                twins.append(scheduler.submit(JobSpec(**TINY)))
                time.sleep(0.1)
            real_put(digest, doc)

        store.put_result = put_result
        scheduler.start()
        leader = scheduler.submit(JobSpec(**TINY))
        assert scheduler.drain(timeout=30)
        scheduler.shutdown(drain=False)
        assert calls["n"] == 1
        assert leader.state is JobState.DONE
        assert twins[0].state is JobState.DONE and twins[0].deduplicated

    def test_identical_specs_run_the_engine_once(self, store, tmp_path):
        scheduler = make_scheduler(
            store, workers=2, rate_cache=tmp_path / "rates.json"
        )
        spec = JobSpec(caps_w=(150.0, 140.0), repetitions=2, scale=0.001)
        runs = process_metrics().runs
        before = runs.value
        jobs = [scheduler.submit(spec) for _ in range(4)]
        scheduler.start()
        assert scheduler.drain(timeout=120)
        scheduler.shutdown(drain=False)
        assert [j.state for j in jobs] == [JobState.DONE] * 4
        assert runs.value - before == (len(spec.caps_w) + 1) * 2

    def test_sharded_twins_dispatch_once(self, store, tmp_path):
        # Built directly, the pool starts on any host.
        pool = ShardPool(2, rate_cache=tmp_path / "rates.json")
        pool.start()
        dispatched = []
        real_run = pool.run

        def run(spec_dict):
            dispatched.append(spec_dict)
            return real_run(spec_dict)

        pool.run = run
        scheduler = make_scheduler(store, workers=2, shard_pool=pool)
        scheduler.start()
        jobs = [scheduler.submit(JobSpec(**TINY)) for _ in range(2)]
        assert scheduler.drain(timeout=120)
        scheduler.shutdown(drain=False)
        assert len(dispatched) == 1
        assert [j.state for j in jobs] == [JobState.DONE] * 2
        assert jobs[1].deduplicated


class TestTerminalStateLast:
    def test_terminal_state_lands_with_its_finished_at(
        self, store, monkeypatch
    ):
        # Snapshot each job at every assignment of a terminal state, as
        # a poll from another thread could see it.
        snapshots = []

        def recording_setattr(job, name, value):
            transition = name == "state" and "state" in job.__dict__
            object.__setattr__(job, name, value)
            if transition and value.is_terminal:
                snapshots.append(job.to_dict())

        monkeypatch.setattr(Job, "__setattr__", recording_setattr)
        good = JobSpec(**TINY)
        bad = JobSpec(caps_w=(140.0,), repetitions=1, scale=0.001)

        def run(spec):
            time.sleep(0.05)
            if spec == bad:
                raise RuntimeError("injected crash")
            return as_doc({"StereoMatching": make_result()})

        scheduler = make_scheduler(store, workers=2, max_attempts=1)
        scheduler._run_spec = run
        assert scheduler.cancel(scheduler.submit(good).id)
        for spec in (good, good, bad, bad):
            scheduler.submit(spec)
        scheduler.start()
        assert scheduler.drain(timeout=30)
        scheduler.submit(good)  # a store hit
        scheduler.shutdown(drain=False)
        assert sorted(s["state"] for s in snapshots) == [
            "cancelled", "done", "done", "done", "failed", "failed"
        ]
        for snap in snapshots:
            assert snap["finished_at"] is not None, snap
            assert (snap["error"] is not None) == (snap["state"] == "failed")
        assert sum(s["deduplicated"] for s in snapshots) == 2


class TestRetries:
    def test_transient_crash_retries_then_succeeds(self, store):
        scheduler = make_scheduler(store, max_attempts=3)
        calls = fake_run(scheduler, fail_times=2)
        scheduler.start()
        job = scheduler.submit(JobSpec(**TINY))
        assert scheduler.drain(timeout=30)
        scheduler.shutdown(drain=False)
        assert job.state is JobState.DONE
        assert job.attempts == 3
        assert calls["n"] == 3
        assert scheduler.metrics.job_retries.value == 2

    def test_retry_budget_exhaustion_fails_the_job(self, store):
        scheduler = make_scheduler(store, max_attempts=2)
        fake_run(scheduler, fail_times=99)
        scheduler.start()
        job = scheduler.submit(JobSpec(**TINY))
        assert scheduler.drain(timeout=30)
        scheduler.shutdown(drain=False)
        assert job.state is JobState.FAILED
        assert job.attempts == 2
        assert "injected crash" in job.error
        assert scheduler.metrics.jobs_failed.value == 1

    def test_deterministic_config_errors_do_not_retry(self, store):
        scheduler = make_scheduler(store, max_attempts=3)

        def _run(spec):
            raise ConfigError("always wrong")

        scheduler._run_spec = _run
        scheduler.start()
        job = scheduler.submit(JobSpec(**TINY))
        assert scheduler.drain(timeout=30)
        scheduler.shutdown(drain=False)
        assert job.state is JobState.FAILED
        assert job.attempts == 1  # retrying a deterministic error is futile


class TestCancel:
    def test_cancel_queued_job(self, store):
        scheduler = make_scheduler(store)  # not started: stays queued
        job = scheduler.submit(JobSpec(**TINY))
        assert scheduler.cancel(job.id)
        assert job.state is JobState.CANCELLED
        assert store.get_job(job.id).state is JobState.CANCELLED

    def test_cancel_done_job_refused(self, store):
        scheduler = make_scheduler(store)
        fake_run(scheduler)
        scheduler.start()
        job = scheduler.submit(JobSpec(**TINY))
        scheduler.drain(timeout=30)
        scheduler.shutdown(drain=False)
        assert not scheduler.cancel(job.id)
        assert job.state is JobState.DONE

    def test_cancel_unknown_job_refused(self, store):
        assert not make_scheduler(store).cancel("missing")


class TestRecovery:
    def test_recover_requeues_interrupted_jobs(self, store, tmp_path):
        # A first scheduler records jobs, then "crashes" before running.
        first = make_scheduler(store)
        job = first.submit(JobSpec(**TINY))
        assert job.state is JobState.QUEUED

        second = make_scheduler(store)
        fake_run(second)
        assert second.recover() == 1
        second.start()
        assert second.drain(timeout=30)
        second.shutdown(drain=False)
        assert store.get_job(job.id).state is JobState.DONE

    def test_recovered_twins_execute_once(self, store):
        for _ in range(2):
            store.record_job(Job(spec=JobSpec(**TINY)))
        scheduler = make_scheduler(store, workers=2)
        calls = fake_run(scheduler, delay_s=0.1)
        assert scheduler.recover() == 2
        assert scheduler.queue_depth() == 1
        scheduler.start()
        assert scheduler.drain(timeout=30)
        scheduler.shutdown(drain=False)
        assert calls["n"] == 1
        jobs = scheduler.jobs()
        assert [j.state for j in jobs] == [JobState.DONE] * 2
        assert sorted(j.deduplicated for j in jobs) == [False, True]
        assert store.pending_jobs() == []

    def test_recovered_job_with_a_stored_result_is_done_at_once(self, store):
        spec = JobSpec(**TINY)
        store.put_result(
            spec.digest(), as_doc({"StereoMatching": make_result()})
        )
        store.record_job(Job(spec=spec))
        scheduler = make_scheduler(store)  # never started
        calls = fake_run(scheduler)
        assert scheduler.recover() == 1
        [job] = scheduler.jobs()
        assert job.state is JobState.DONE and job.deduplicated
        assert job.finished_at is not None
        assert scheduler.queue_depth() == 0
        assert store.get_job(job.id).state is JobState.DONE
        assert calls["n"] == 0


class TestConcurrentLoad:
    def test_50_concurrent_submissions_drain_without_loss(self, store):
        scheduler = make_scheduler(store, workers=4)
        calls = fake_run(scheduler, delay_s=0.01)
        jobs = []
        jobs_lock = threading.Lock()

        def submit_batch(offset):
            for i in range(10):
                # Eight distinct specs overall -> plenty of dedup races.
                cap = 150.0 - ((offset + i) % 8)
                job = scheduler.submit(
                    JobSpec(caps_w=(cap,), repetitions=1, scale=0.001),
                    priority=i % 3,
                )
                with jobs_lock:
                    jobs.append(job)

        threads = [
            threading.Thread(target=submit_batch, args=(k,)) for k in range(5)
        ]
        switch_s = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        try:
            scheduler.start()
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            assert len(jobs) == 50
            assert scheduler.drain(timeout=60), "queue failed to drain"
        finally:
            sys.setswitchinterval(switch_s)
        scheduler.shutdown(drain=False)
        states = [j.state for j in jobs]
        assert all(s is JobState.DONE for s in states), states
        assert scheduler.metrics.jobs_completed.value == 50
        # Every distinct digest ran once and landed one stored result.
        assert calls["n"] == 8
        assert store.result_count() == 8


class TestSerializeOnce:
    """Each timeline of a fresh job is serialized once, where it ran."""

    @staticmethod
    def count_timeline_serializations(monkeypatch):
        calls = []
        real = serialize.timeline_to_dict

        def counting(timeline):
            calls.append(timeline)
            return real(timeline)

        monkeypatch.setattr(serialize, "timeline_to_dict", counting)
        return calls

    @staticmethod
    def run_one_job(scheduler):
        scheduler.start()
        job = scheduler.submit(JobSpec(**TINY))
        assert scheduler.drain(timeout=120)
        scheduler.shutdown(drain=False)
        assert job.state is JobState.DONE and not job.deduplicated
        return job

    @staticmethod
    def timelines_in(doc):
        return sum(
            "timeline" in row
            for sweep in doc.values()
            for row in [sweep["baseline"], *sweep["by_cap"].values()]
        )

    def test_in_process_job_serializes_each_timeline_once(
        self, store, monkeypatch
    ):
        scheduler = make_scheduler(store, workers=1)
        calls = self.count_timeline_serializations(monkeypatch)
        job = self.run_one_job(scheduler)
        doc = store.get_result_dict(job.spec_digest)
        assert self.timelines_in(doc) == 2  # baseline + one cap
        assert len(calls) == self.timelines_in(doc)

    def test_sharded_parent_serializes_nothing(
        self, store, tmp_path, monkeypatch
    ):
        # What ``serve --shards 2`` builds on a host with two or more
        # CPUs; built directly, the pool starts on any host.  It forks
        # before the counter goes in, so only this process's calls are
        # counted.
        pool = ShardPool(2, rate_cache=tmp_path / "rates.json")
        pool.start()
        scheduler = make_scheduler(store, workers=1, shard_pool=pool)
        calls = self.count_timeline_serializations(monkeypatch)
        job = self.run_one_job(scheduler)
        assert self.timelines_in(store.get_result_dict(job.spec_digest)) == 2
        assert calls == []
