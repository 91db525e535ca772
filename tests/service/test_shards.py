"""Partitioned worker shards: routing, fallback, byte-identity.

The acceptance property: a result produced through the sharded path is
byte-identical to the synchronous in-process path — same digests, same
stored documents.  ``REPRO_SHARD_FORCE=1`` exercises real shard
processes even on the single-core CI class of host.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

from repro.core.experiment import PowerCapExperiment
from repro.core.serialize import experiment_to_dict
from repro.errors import SimulationError
from repro.service.api import ExperimentService
from repro.service.jobs import JobSpec
from repro.service.shards import (
    ShardPool,
    ShardRing,
    effective_shard_count,
)
from repro.workloads import make_workload

SPEC = JobSpec(
    workload="stereo", caps_w=(150.0, 140.0), scale=0.001, seed=11
)


class TestShardRing:
    def test_routing_is_deterministic(self):
        ring = ShardRing(4)
        digests = [f"{k:032x}" for k in range(64)]
        first = [ring.shard_for(d) for d in digests]
        second = [ShardRing(4).shard_for(d) for d in digests]
        assert first == second

    def test_every_shard_owns_some_digests(self):
        ring = ShardRing(4)
        owners = Counter(
            ring.shard_for(f"{k:032x}") for k in range(512)
        )
        assert set(owners) == {0, 1, 2, 3}

    def test_adding_a_shard_moves_a_minority(self):
        """Consistent hashing: growing the ring remaps ~1/N, not ~all."""
        digests = [f"{k:032x}" for k in range(1024)]
        before = ShardRing(4)
        after = ShardRing(5)
        moved = sum(
            1
            for d in digests
            if before.shard_for(d) != after.shard_for(d)
        )
        assert moved < len(digests) * 0.5

    def test_rejects_zero_shards(self):
        with pytest.raises(SimulationError):
            ShardRing(0)


class TestEffectiveShardCount:
    def test_below_two_is_in_process(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARD_FORCE", raising=False)
        assert effective_shard_count(0) == 0
        assert effective_shard_count(1) == 0

    def test_single_core_falls_back(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARD_FORCE", raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: 1)
        assert effective_shard_count(4) == 0

    def test_force_overrides_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_FORCE", "1")
        monkeypatch.setattr("os.cpu_count", lambda: 1)
        assert effective_shard_count(4) == 4

    def test_capped_by_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARD_FORCE", raising=False)
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
        doc = pool.run(SPEC.digest(), SPEC.to_dict())
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

    def test_same_digest_routes_to_same_shard(self, pool):
        shard = pool.shard_for(SPEC.digest())
        assert all(
            pool.shard_for(SPEC.digest()) == shard for _ in range(8)
        )

    def test_simulation_error_crosses_the_pipe(self, pool):
        bad = dict(SPEC.to_dict())
        bad["workload"] = "no-such-workload"
        with pytest.raises(SimulationError):
            pool.run("feedfeedfeedfeed", bad)

    def test_stats_report_partitions(self, pool):
        stats = pool.stats()
        assert stats["shards"] == 2
        assert sum(stats["dispatched"]) >= 1
        assert set(stats["partition_entries"]) == {"0", "1"}

    def test_rejects_single_shard(self):
        with pytest.raises(SimulationError):
            ShardPool(1)


class TestShardedService:
    """End-to-end: the service with forced shards matches unsharded."""

    @pytest.fixture(scope="class")
    def sharded_service(self, tmp_path_factory, monkeypatch_class):
        monkeypatch_class.setenv("REPRO_SHARD_FORCE", "1")
        tmp = tmp_path_factory.mktemp("sharded")
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
        from repro.service.store import MemoryResultStore

        workload = make_workload(SPEC.workload, SPEC.scale)
        direct = PowerCapExperiment(
            [workload],
            caps_w=SPEC.caps_w,
            repetitions=SPEC.repetitions,
            seed=SPEC.seed,
        ).run_all()
        reference = MemoryResultStore()
        reference.put_result(
            SPEC.digest(),
            {name: experiment_to_dict(r) for name, r in direct.items()},
        )
        expected = reference.get_result_dict(SPEC.digest())
        for docs in (served, expected):
            for payload in docs.values():
                payload.pop("provenance")
        assert served == expected


@pytest.fixture(scope="class")
def monkeypatch_class():
    from _pytest.monkeypatch import MonkeyPatch

    mp = MonkeyPatch()
    yield mp
    mp.undo()
