"""Observability archive: snapshots, run records, trends, retention."""

from __future__ import annotations

import sqlite3
from contextlib import closing

import pytest

from repro.errors import ConfigError, SimulationError
from repro.obs.archive import (
    DEFAULT_TREND_RULES,
    MetricsRecorder,
    ObsArchive,
    detect_trends,
    distill_experiment_doc,
    distill_fleet_doc,
    flatten_series_name,
    rule_for_series,
)


@pytest.fixture()
def archive(tmp_path):
    return ObsArchive(tmp_path / "archive.sqlite3")


def sweep_doc(runs_per_s=100.0):
    """A minimal but schema-true BENCH_sweep.json document."""
    return {
        "schema": 2,
        "benchmark": "table2-sweep",
        "machine": {"cpu_count": 4},
        "parameters": {"repetitions": 3},
        "sweep": {
            "jobs1": {"wall_s": 10.0, "runs_per_s": runs_per_s},
            "jobs1_batch": {"wall_s": 8.0, "runs_per_s": 1.2 * runs_per_s},
            "jobs4": {"wall_s": 4.0, "runs_per_s": 2.5 * runs_per_s},
            "parallel_speedup": 2.5,
            "batch_runs_per_s": 1.2 * runs_per_s,
            "chunk_overhead_ms": 1.5,
        },
        "single_run_120w": {
            "speedup": 1.3,
            "engagement": 0.9,
            "scalar_ms": 5.0,
            "block_ms": 3.8,
        },
    }


def seed_sweep_history(archive, rates):
    """One bench_sweep run per rate, with strictly increasing ts."""
    run_ids = []
    for i, rate in enumerate(rates):
        _, run_id = archive.ingest_bench(
            sweep_doc(runs_per_s=rate), ts=1000.0 + i, run_id=f"r{i}"
        )
        run_ids.append(run_id)
    return run_ids


class TestArchiveBasics:
    def test_creates_schema_and_survives_reopen(self, tmp_path):
        path = tmp_path / "a.sqlite3"
        first = ObsArchive(path)
        first.record_run("r1", "job", {"runs_per_s": 5.0})
        again = ObsArchive(path)  # reopen must not clobber
        assert again.get_run("r1")["series"]["runs_per_s"] == 5.0
        assert again.path == str(path)
        with closing(again._connect()) as conn:
            timeout_ms = conn.execute("PRAGMA busy_timeout").fetchone()[0]
        assert timeout_ms == 30000

    def test_directory_path_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            ObsArchive(tmp_path)

    def test_schema_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "a.sqlite3"
        ObsArchive(path)
        conn = sqlite3.connect(path)
        conn.execute("UPDATE meta SET value = '99' WHERE key = 'schema_version'")
        conn.commit()
        conn.close()
        with pytest.raises(ConfigError):
            ObsArchive(path)


class TestSnapshots:
    def test_record_and_read_back(self, archive):
        samples = [
            ("repro_jobs_submitted_total", {}, 3.0),
            ("repro_jobs", {"state": "done"}, 2.0),
        ]
        assert archive.record_snapshot(samples, ts=10.0, dt_s=5.0) == 2
        assert archive.snapshot_series() == [
            "repro_jobs_submitted_total",
            "repro_jobs{state=done}",
        ]
        (point,) = archive.metric_history("repro_jobs_submitted_total")
        assert (point.t_s, point.dt_s, point.mean) == (10.0, 5.0, 3.0)
        assert point.vmin == point.vmax == 3.0

    def test_empty_scrape_writes_nothing(self, archive):
        assert archive.record_snapshot([], ts=1.0) == 0
        assert archive.snapshot_count() == 0

    def test_since_and_limit_filters(self, archive):
        for i in range(10):
            archive.record_snapshot([("m", {}, float(i))], ts=float(i),
                                    dt_s=1.0)
        assert len(archive.metric_history("m", since=5.0)) == 5
        tail = archive.metric_history("m", limit=3)
        assert [p.mean for p in tail] == [7.0, 8.0, 9.0]
        assert archive.snapshot_count("m") == 10
        assert archive.snapshot_count("nope") == 0

    def test_prune_preserves_integral(self, archive):
        exact = 0.0
        for i in range(200):
            value = 100.0 + (i % 7)
            archive.record_snapshot([("m", {}, value)], ts=float(i), dt_s=1.0)
            exact += value * 1.0
        freed = archive.prune_snapshots(max_points=16)
        assert freed > 0
        points = archive.metric_history("m")
        assert len(points) <= 16
        integral = sum(p.mean * p.dt_s for p in points)
        assert integral == pytest.approx(exact, rel=1e-9)
        # Coverage stays gap-free at the coarser resolution.
        for prev, cur in zip(points, points[1:]):
            assert cur.t_s == pytest.approx(prev.t_s + prev.dt_s, rel=1e-9)

    def test_prune_skips_short_series(self, archive):
        for i in range(5):
            archive.record_snapshot([("m", {}, 1.0)], ts=float(i), dt_s=1.0)
        assert archive.prune_snapshots(max_points=16) == 0
        assert archive.snapshot_count("m") == 5

    def test_prune_retention_floor(self, archive):
        with pytest.raises(ConfigError):
            archive.prune_snapshots(max_points=4)


class TestRunRecords:
    def test_record_get_and_list(self, archive):
        archive.record_run(
            "r1", "job", {"runs_per_s": 4.0, "wall_s": 2.0},
            meta={"workloads": ["sire"]}, source="service", ts=100.0,
        )
        run = archive.get_run("r1")
        assert run["kind"] == "job" and run["source"] == "service"
        assert run["series"] == {"runs_per_s": 4.0, "wall_s": 2.0}
        assert run["meta"]["workloads"] == ["sire"]
        assert archive.get_run("missing") is None
        (listed,) = archive.runs(kind="job")
        assert listed["run_id"] == "r1" and "series" not in listed

    def test_rerecord_replaces_series(self, archive):
        archive.record_run("r1", "job", {"a": 1.0, "b": 2.0})
        archive.record_run("r1", "job", {"a": 5.0})
        assert archive.get_run("r1")["series"] == {"a": 5.0}

    def test_series_history_ordering(self, archive):
        archive.record_run("r2", "job", {"x": 2.0}, ts=20.0)
        archive.record_run("r1", "job", {"x": 1.0}, ts=10.0)
        archive.record_run("f1", "fleet", {"x": 9.0}, ts=15.0)
        assert archive.series_history("x") == [
            (10.0, "r1", 1.0), (15.0, "f1", 9.0), (20.0, "r2", 2.0),
        ]
        assert archive.series_history("x", kind="job") == [
            (10.0, "r1", 1.0), (20.0, "r2", 2.0),
        ]
        assert archive.run_series_names(kind="fleet") == ["x"]

    def test_compare_runs(self, archive):
        archive.record_run("a", "job", {"runs_per_s": 100.0, "only_a": 1.0,
                                        "zero": 0.0})
        archive.record_run("b", "job", {"runs_per_s": 75.0, "only_b": 2.0,
                                        "zero": 3.0})
        cmp = archive.compare_runs("a", "b")
        entry = cmp["series"]["runs_per_s"]
        assert entry["delta"] == pytest.approx(-25.0)
        assert entry["rel"] == pytest.approx(-0.25)
        assert cmp["series"]["only_a"] == {"a": 1.0, "b": None}
        assert cmp["series"]["only_b"] == {"a": None, "b": 2.0}
        assert "rel" not in cmp["series"]["zero"]  # zero reference
        assert cmp["a"]["run_id"] == "a" and cmp["b"]["run_id"] == "b"

    def test_compare_unknown_run_raises(self, archive):
        archive.record_run("a", "job", {"x": 1.0})
        with pytest.raises(SimulationError):
            archive.compare_runs("a", "ghost")
        with pytest.raises(SimulationError):
            archive.compare_runs("ghost", "a")


class TestHealthWindows:
    def test_sink_records_windows(self, archive):
        sink = archive.health_sink("fleet-1")
        sink(0.0, 60.0, {"headroom_w": 12.0, "capfloor_frac": 0.1,
                         "slo_debt_rate_w": 3.0, "escalation_level": 1.0})
        sink(60.0, 60.0, {"headroom_w": 10.0})
        windows = archive.health_windows("fleet-1")
        assert len(windows) == 2
        assert windows[0]["headroom_w"] == 12.0
        assert windows[0]["escalation_level"] == 1.0
        assert windows[1]["capfloor_frac"] == 0.0  # missing keys default
        assert archive.health_windows("other") == []


class TestBaselines:
    def test_set_get_replace(self, archive):
        archive.set_baseline("v1", {"runs_per_s": 100.0, "wall_s": 2.0})
        assert archive.baseline("v1")["runs_per_s"] == 100.0
        archive.set_baseline("v1", {"runs_per_s": 120.0})
        assert archive.baseline("v1") == {"runs_per_s": 120.0}
        assert archive.baseline_names() == ["v1"]
        assert archive.baseline("ghost") == {}


class TestBenchIngestion:
    def test_ingest_sweep(self, archive):
        kind, run_id = archive.ingest_bench(sweep_doc(), source="test",
                                            ts=123.0)
        assert kind == "bench_sweep"
        run = archive.get_run(run_id)
        assert run["series"]["runs_per_s"] == 100.0
        assert run["series"]["jobs4.runs_per_s"] == 250.0
        assert run["series"]["single_run.speedup"] == 1.3
        assert run["meta"]["benchmark"] == "table2-sweep"
        # Schema 3 times serial sweeps only; the series it shares with
        # schema 2 keep their names.
        doc = sweep_doc()
        doc["schema"] = 3
        for key in ("jobs4", "parallel_speedup", "chunk_overhead_ms"):
            del doc["sweep"][key]
        kind, run_id = archive.ingest_bench(doc, source="test", ts=124.0)
        assert kind == "bench_sweep"
        series = archive.get_run(run_id)["series"]
        assert series["runs_per_s"] == series["jobs1.runs_per_s"] == 100.0
        assert series["jobs1_batch.runs_per_s"] == 120.0
        assert series["batch_runs_per_s"] == 120.0
        assert series["single_run.speedup"] == 1.3
        assert not any("jobs4" in name for name in series)
        assert archive.get_run(run_id)["meta"]["schema"] == 3

    def test_ingest_rejects_unknown_document(self, archive):
        for doc in (
            {"benchmark": "nope"},
            # The retired fleet and service benchmarks' documents.
            {"benchmark": "fleet-scale", "sizes": {
                "99840": {"wall_s": 9.0, "node_steps_per_s": 1.5e6}}},
            {"benchmark": "service-load", "submit": {
                "throughput_per_s": 84.4, "p99_ms": 911.1}},
        ):
            with pytest.raises(SimulationError):
                archive.ingest_bench(doc)
        with pytest.raises(SimulationError):
            archive.ingest_bench([1, 2, 3])
        with pytest.raises(SimulationError):
            archive.ingest_bench({"benchmark": "table2-sweep", "sweep": {}})


class TestTrendEngine:
    def test_injected_regression_detected(self, archive):
        # 5 healthy runs at 100 runs/s, then 3 at 75 — a 25% drop, past
        # the 20% threshold the issue's acceptance criterion names.
        seed_sweep_history(archive, [100.0] * 5 + [75.0] * 3)
        trends = {t.series: t for t in detect_trends(archive, window=3)}
        t = trends["runs_per_s"]
        assert t.verdict == "regression" and t.is_regression
        assert t.reference == pytest.approx(100.0)
        assert t.recent == pytest.approx(75.0)
        assert t.shift == pytest.approx(-0.25)
        assert t.values == [100.0] * 5 + [75.0] * 3

    def test_stable_and_improvement(self, archive):
        seed_sweep_history(archive, [100.0] * 5 + [130.0] * 3)
        trends = {t.series: t for t in detect_trends(archive, window=3)}
        assert trends["runs_per_s"].verdict == "improvement"
        # chunk_overhead_ms never moved: stable, lower-is-better rule.
        t = trends["chunk_overhead_ms"]
        assert t.verdict == "stable" and not t.higher_is_better

    def test_lower_is_better_direction(self, archive):
        # Wall clock rising 50% is a regression even though the value grew.
        for i, wall in enumerate([10.0] * 4 + [15.0] * 3):
            doc = sweep_doc()
            doc["sweep"]["jobs1"]["wall_s"] = wall
            archive.ingest_bench(doc, ts=1000.0 + i, run_id=f"w{i}")
        trends = {t.series: t for t in detect_trends(archive, window=3)}
        assert trends["jobs1.wall_s"].verdict == "regression"

    def test_insufficient_history(self, archive):
        seed_sweep_history(archive, [100.0, 90.0])
        trends = detect_trends(archive, window=3)
        assert trends and all(t.verdict == "insufficient" for t in trends)
        assert not any(t.is_regression for t in trends)

    def test_named_baseline_reference(self, archive):
        # History alone looks flat, but against the pinned baseline the
        # whole tail is 40% down.
        seed_sweep_history(archive, [60.0] * 6)
        archive.set_baseline("golden", {"runs_per_s": 100.0})
        trends = {
            t.series: t
            for t in detect_trends(archive, window=3, baseline="golden")
        }
        t = trends["runs_per_s"]
        assert t.verdict == "regression"
        assert t.reference == 100.0
        # Series the baseline doesn't pin fall back to history medians.
        assert trends["parallel_speedup"].verdict == "stable"

    def test_explicit_series_subset(self, archive):
        seed_sweep_history(archive, [100.0] * 5 + [75.0] * 3)
        trends = detect_trends(archive, series=["runs_per_s"], window=3)
        assert [t.series for t in trends] == ["runs_per_s"]

    def test_window_floor(self, archive):
        with pytest.raises(ConfigError):
            detect_trends(archive, window=0)

    def test_to_dict_round_trips_json(self, archive):
        seed_sweep_history(archive, [100.0] * 5)
        doc = detect_trends(archive, window=2)[0].to_dict()
        assert {"series", "verdict", "shift", "values"} <= set(doc)


class TestTrendRules:
    def test_exact_match_wins(self):
        rule = rule_for_series("single_run.engagement")
        assert rule.threshold == 0.10 and rule.higher_is_better

    def test_suffix_heuristics(self):
        assert rule_for_series("jobs4.runs_per_s").higher_is_better
        assert not rule_for_series("phase.sweep_s").higher_is_better
        assert not rule_for_series("chunk_overhead_ms").higher_is_better
        assert not rule_for_series("total_energy_j").higher_is_better
        assert rule_for_series("totally_unknown").higher_is_better

    def test_default_rules_cover_headlines(self):
        names = {r.series for r in DEFAULT_TREND_RULES}
        assert {"runs_per_s", "node_steps_per_s", "parallel_speedup"} <= names


class TestFlattenSeriesName:
    def test_bare_when_unlabelled(self):
        assert flatten_series_name("m", {}) == "m"

    def test_labels_sorted(self):
        assert (
            flatten_series_name("m", {"b": "2", "a": "1"}) == "m{a=1,b=2}"
        )


class TestMetricsRecorder:
    def make(self, archive, samples, **kwargs):
        return MetricsRecorder(archive, lambda: list(samples), **kwargs)

    def test_snapshot_dt_tracks_scrape_gap(self, archive):
        rec = self.make(archive, [("m", {}, 1.0)])
        rec.snapshot_once(ts=100.0)
        rec.snapshot_once(ts=104.0)
        points = archive.metric_history("m")
        assert [p.dt_s for p in points] == [0.0, 4.0]
        assert rec.snapshots == 2 and rec.rows == 2

    def test_bucket_rows_skipped_by_default(self, archive):
        samples = [
            ("repro_sweep_seconds_bucket", {"le": "1"}, 3.0),
            ("repro_sweep_seconds_sum", {}, 2.5),
        ]
        self.make(archive, samples).snapshot_once(ts=1.0)
        assert archive.snapshot_series() == ["repro_sweep_seconds_sum"]
        rec = self.make(archive, samples, include_buckets=True)
        rec.snapshot_once(ts=2.0)
        assert len(archive.snapshot_series()) == 2

    def test_opportunistic_prune(self, archive):
        rec = self.make(archive, [("m", {}, 1.0)], retention=8,
                        prune_every=16)
        for i in range(32):
            rec.snapshot_once(ts=float(i))
        assert archive.snapshot_count("m") <= 9  # 8 kept + newest scrape

    def test_background_thread_lifecycle(self, archive):
        rec = self.make(archive, [("m", {}, 1.0)], period_s=0.01)
        rec.start()
        rec.start()  # idempotent
        try:
            import time as _time

            deadline = _time.monotonic() + 5.0
            while _time.monotonic() < deadline and rec.snapshots < 3:
                _time.sleep(0.01)
            assert rec.snapshots >= 3
        finally:
            rec.stop(final_snapshot=True)
        stopped_at = rec.snapshots
        assert archive.snapshot_count("m") == stopped_at
        assert rec._thread is None

    def test_period_must_be_positive(self, archive):
        with pytest.raises(ConfigError):
            self.make(archive, [], period_s=0.0)


class TestDistillation:
    def experiment_docs(self):
        return {
            "StereoMatching": {
                "baseline": {"execution_s": 10.0, "energy_j": 900.0,
                             "n_runs": 3},
                "by_cap": {
                    "120": {"execution_s": 14.0, "energy_j": 800.0,
                            "n_runs": 3},
                },
                "provenance": {
                    "phase_seconds": {"sweep": 2.0, "trace": 0.5},
                    "phenomena": [
                        {"phenomenon": "cap_cliff"},
                        {"phenomenon": "cap_cliff"},
                    ],
                    "rate_cache": {"hits": 9, "misses": 1},
                    "git": "abc123",
                    "package_version": "1.0.0",
                },
            },
        }

    def test_distill_experiment_doc(self):
        series, meta = distill_experiment_doc(self.experiment_docs(),
                                              wall_s=3.0)
        assert series["StereoMatching.execution_s.baseline"] == 10.0
        assert series["StereoMatching.execution_s.120"] == 14.0
        assert series["StereoMatching.energy_j.120"] == 800.0
        assert series["phase.sweep_s"] == 2.0
        assert series["phenomena.cap_cliff"] == 2.0
        assert series["rate_cache.hit_rate"] == pytest.approx(0.9)
        assert series["runs"] == 6.0
        assert series["runs_per_s"] == pytest.approx(2.0)
        assert meta["workloads"] == ["StereoMatching"]
        assert meta["git"] == "abc123"

    def test_distill_without_wall_clock(self):
        series, _ = distill_experiment_doc(self.experiment_docs())
        assert "runs_per_s" not in series and "wall_s" not in series

    def test_distill_fleet_doc(self):
        doc = {
            "ticks": 500,
            "summary": {
                "node_steps_per_s": 1.2e6,
                "health": {"headroom_w": 10.0},
                "strategy": "proportional",  # non-numeric: dropped
            },
            "rebalances": {"applied": 10, "evaluated": 100},
            "phenomena": [{"phenomenon": "thrash"}],
            "provenance": {"engine": "fleet", "budget_w": 5000.0},
            "topology": {"n_nodes": 960},
        }
        series, meta = distill_fleet_doc(doc)
        assert series["node_steps_per_s"] == 1.2e6
        assert series["health.headroom_w"] == 10.0
        assert series["ticks"] == 500.0
        assert series["rebalances.applied"] == 10.0
        assert series["phenomena.thrash"] == 1.0
        assert "strategy" not in series
        assert meta["n_nodes"] == 960 and meta["budget_w"] == 5000.0
