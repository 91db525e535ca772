"""Admission control: token buckets, bounded queue, shed accounting."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ConfigError
from repro.service.admission import (
    Admission,
    AdmissionController,
    TokenBucket,
)
from repro.service.api import ExperimentService

SRC = Path(__file__).resolve().parents[2] / "src"


class TestTokenBucket:
    def test_burst_then_empty(self):
        bucket = TokenBucket(rate=10.0, burst=3.0)
        now = 100.0
        assert all(bucket.try_acquire(now) for _ in range(3))
        assert not bucket.try_acquire(now)

    def test_refills_from_elapsed_time(self):
        bucket = TokenBucket(rate=2.0, burst=2.0)
        now = 50.0
        bucket.try_acquire(now)
        bucket.try_acquire(now)
        assert not bucket.try_acquire(now)
        # 0.5 s at 2 tokens/s refills exactly one token.
        assert bucket.try_acquire(now + 0.5)
        assert not bucket.try_acquire(now + 0.5)

    def test_never_exceeds_burst(self):
        bucket = TokenBucket(rate=100.0, burst=2.0)
        bucket.try_acquire(10.0)
        # A long idle period cannot bank more than the burst.
        assert bucket.try_acquire(10_000.0)
        assert bucket.try_acquire(10_000.0)
        assert not bucket.try_acquire(10_000.0)

    def test_seconds_until_token(self):
        bucket = TokenBucket(rate=4.0, burst=1.0)
        now = 7.0
        bucket.try_acquire(now)
        assert bucket.seconds_until_token() == pytest.approx(0.25)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ConfigError):
            TokenBucket(rate=1.0, burst=0.5)


class TestAdmissionController:
    def test_admits_within_budget(self):
        gate = AdmissionController(rate=100.0, burst=10.0)
        decision = gate.admit("client-a")
        assert decision == Admission(True)
        assert gate.admitted_total() == 1

    def test_rate_limit_sheds_with_retry_after(self):
        gate = AdmissionController(rate=1.0, burst=2.0)
        assert gate.admit("hot").admitted
        assert gate.admit("hot").admitted
        shed = gate.admit("hot")
        assert not shed.admitted
        assert shed.reason == "rate_limit"
        assert shed.status == 429
        assert shed.retry_after_s > 0
        assert gate.shed_counts()["rate_limit"] == 1.0

    def test_rate_limits_are_per_client(self):
        gate = AdmissionController(rate=1.0, burst=1.0)
        assert gate.admit("a").admitted
        assert not gate.admit("a").admitted
        # A different client has its own bucket.
        assert gate.admit("b").admitted

    def test_queue_full_sheds_503(self):
        gate = AdmissionController(
            rate=1e9, burst=1e9, max_queue_depth=4, queue_depth=lambda: 4
        )
        shed = gate.admit("any")
        assert not shed.admitted
        assert shed.reason == "queue_full"
        assert shed.status == 503
        assert 1.0 <= shed.retry_after_s <= 60.0

    def test_queue_full_retry_after_tracks_drain_rate(self):
        depth = 100
        gate = AdmissionController(
            max_queue_depth=50, queue_depth=lambda: depth
        )
        gate.bind_drain_rate(lambda: 10.0)
        shed = gate.admit("x")
        assert shed.retry_after_s == pytest.approx(10.0)  # 100 / 10 per s

    def test_shutdown_sheds_everything(self):
        gate = AdmissionController()
        gate.begin_shutdown()
        shed = gate.admit("anyone")
        assert not shed.admitted
        assert shed.reason == "shutting_down"
        assert shed.status == 503
        assert gate.shutting_down

    def test_client_table_is_lru_bounded(self):
        gate = AdmissionController(rate=1.0, burst=1.0, max_clients=3)
        for k in range(5):
            gate.admit(f"client-{k}")
        assert gate.client_count() == 3
        # The evicted client gets a fresh bucket: it admits again even
        # though its original bucket was empty.
        assert gate.admit("client-0").admitted

    def test_shed_counts_cover_every_reason(self):
        gate = AdmissionController()
        assert set(gate.shed_counts()) == {
            "rate_limit",
            "queue_full",
            "shutting_down",
        }

    def test_rejects_bad_queue_depth(self):
        with pytest.raises(ConfigError):
            AdmissionController(max_queue_depth=0)

    def test_rejects_a_bucket_that_never_admits(self):
        # Refused at construction, not at the first submission.
        for rate, burst in ((0.0, 400.0), (200.0, 0.5)):
            with pytest.raises(ConfigError):
                AdmissionController(rate=rate, burst=burst)


class TestRefusedServiceSettings:
    def test_zero_rate_refuses_the_service(self, tmp_path):
        with pytest.raises(ConfigError, match="rate > 0"):
            ExperimentService(
                db_path=tmp_path / "svc.sqlite3", port=0, admission_rate=0
            )
        # The store opened first is closed again: a WAL database's
        # -wal file goes with its last connection.
        assert (tmp_path / "svc.sqlite3").is_file()
        assert not (tmp_path / "svc.sqlite3-wal").exists()

    def test_serve_exits_2(self, tmp_path):
        # A subprocess: a serve that starts would wait for a signal.
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0",
                "--db", str(tmp_path / "svc.sqlite3"),
                "--admission-rate", "0",
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        assert "rate > 0" in proc.stderr
