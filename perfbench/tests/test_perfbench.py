"""Self-tests of the benchmark's own logic: ``python3 -m pytest perfbench/tests -q``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import service  # noqa: E402
from perfbench.common import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    BenchError,
    Tally,
    end_to_end,
    percentile,
    result,
    samples_needed,
)
from perfbench.layers import REQUIRED, SELF_MS, per_layer_metrics  # noqa: E402
from perfbench.spans import Analyzed, Tracer, check_layer_sum, layer_of  # noqa: E402

#: The highest service-unique jobs/s measured on a 2-core x86 host,
#: untraced, with two clients; the benchmark's one client runs about 6.5.
MEASURED_UNIQUE_JOBS_PER_S = 12.2


def test_percentile_needs_ten_samples_beyond_it():
    with pytest.raises(BenchError):
        percentile([5.0], 90)
    with pytest.raises(BenchError):
        percentile([float(i) for i in range(99)], 90)
    assert percentile([float(i) for i in range(100)], 90) == 89.0
    assert percentile([float(i) for i in range(20)], 50) == 9.0
    assert samples_needed(50) == 20
    assert samples_needed(90) == 100
    assert samples_needed(99) == 1000


def test_self_time_subtracts_nested_children_per_thread():
    spans = [
        ("core.experiment:run_all", 0.0, 10.0, 1, {}),
        ("run", 1.0, 4.0, 1, {}),
        ("obs.timeseries:record", 2.0, 3.0, 1, {}),
        ("core.ratecache:get", 5.0, 6.0, 1, {}),
        ("service.store:has_result", 0.0, 5.0, 2, {}),
    ]
    a = Analyzed(spans)
    by_name = {s[0]: a.self_s[i] for i, s in enumerate(a.spans)}
    assert by_name == {
        "core.experiment:run_all": 6.0,
        "run": 2.0,
        "obs.timeseries:record": 1.0,
        "core.ratecache:get": 1.0,
        "service.store:has_result": 5.0,
    }
    assert a.layer_self_s() == {
        "core.experiment": 6.0,
        "core.runner": 2.0,
        "obs.timeseries": 1.0,
        "core.ratecache": 1.0,
        "service.store": 5.0,
    }
    assert layer_of("perfbench:op") == "perfbench"
    assert layer_of("sweep_batch") == "core.batchstep"


def test_layer_sum_rejects_a_double_counted_figure():
    spans = [
        ("perfbench:op", 0.0, 10.0, 1, {}),
        ("service.store:put_result", 0.5, 9.5, 1, {}),
        ("core.serialize:experiment_to_dict", 1.0, 8.0, 1, {}),
        ("store_write", 8.0, 9.0, 1, {}),
    ]
    a = Analyzed(spans)
    put = a.calls("service.store:put_result")
    to_dict = a.calls("core.serialize:experiment_to_dict")
    names = ["service.store.put_result_ms", "core.serialize.to_dict_ms"]
    # The store's own time leaves out the serializer it calls but keeps
    # the program's store_write span of the same layer.
    assert a.own_s(put) == pytest.approx(2.0)
    own = {names[0]: a.own_s(put), names[1]: a.own_s(to_dict)}
    check_layer_sum(own, names, 10.0)
    inclusive = {names[0]: a.duration_s(put), names[1]: a.duration_s(to_dict)}
    with pytest.raises(BenchError):
        check_layer_sum(inclusive, names, 10.0)


def test_metric_catalog_is_the_benchmark_file():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert END_TO_END == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert PER_LAYER == {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in REQUIRED:
        assert set(REQUIRED[workload]) <= set(PER_LAYER)
        assert set(SELF_MS[workload]) <= set(PER_LAYER)
    values = {name: 1.0 for name in REQUIRED["fleet-100k"]}
    assert list(per_layer_metrics("fleet-100k", values)) == list(PER_LAYER)
    with pytest.raises(BenchError):
        per_layer_metrics("fleet-100k", {**values, "fleet.traffic.self_ms": None})
    assert list(end_to_end({name: 1.0 for name in END_TO_END})) == list(END_TO_END)
    with pytest.raises(BenchError):
        end_to_end({name: 1.0 for name in list(END_TO_END)[1:]})


def test_unique_specs_outlast_a_tenfold_faster_service():
    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    specs = list(service.job_specs(7))
    jobs = len(specs) * (1 + 1 / service.TWIN_EVERY)
    # A phase runs at most three times --seconds.
    assert jobs >= 10 * MEASURED_UNIQUE_JOBS_PER_S * 3 * run_seconds
    keys = [json.dumps(s, sort_keys=True) for s in specs]
    warm = {json.dumps(s, sort_keys=True) for s in service.warmup_specs(7)}
    assert len(set(keys)) == len(keys) and not warm & set(keys)
    assert {s["scale"] for s in specs} == set(service.SCALES)
    assert 0.05 in service.SCALES and max(service.SCALES) in service.WARM_SCALES


def test_tracer_wraps_and_restores_and_counts_outermost_calls():
    class Base:
        def work(self):
            return 1

    class Child(Base):
        def work(self):
            return super().work() + 1

    tracer = Tracer()
    tracer.patch_method_tree(Base, "work", "core.runner:work")
    assert Child().work() == 2
    tracer.restore()
    assert Child().work() == 2
    assert len(tracer.spans) == 2  # the override and the base it calls
    assert len(Analyzed(tracer.spans).calls("core.runner:work")) == 1


def test_failed_checks_count_as_failed_operations():
    tally = Tally()
    tally.ok(3)
    tally.fail("results differ between sweeps")
    tally.fail("served_wh exceeds demand_wh", 2)
    doc = result(tally, {})
    assert (doc["attempted"], doc["failed"], doc["correct"]) == (6, 3, False)
    assert tally.reasons["served_wh exceeds demand_wh"] == 2
    clean = Tally()
    clean.ok()
    assert result(clean, {})["correct"] is True
    assert result(Tally(), {})["correct"] is False


def test_load_generator_never_exceeds_nproc(monkeypatch):
    # One client in the calling thread, one connection, one request in
    # flight: within nproc on any host, a single processor included.
    connections = []
    live, peak = [0], [0]
    callers = set()

    class FakeClient:
        def __init__(self, server, spans):
            connections.append(self)

        def close(self):
            pass

    def fake_group(client, specs, expect_done, rng):
        live[0] += 1
        peak[0] = max(peak[0], live[0])
        callers.add(threading.get_ident())
        job = service.Job(specs[0])
        live[0] -= 1
        return [job]

    class FakeServer:
        def metrics(self):
            return {}

        def peak_rss_mb(self):
            return 1.0

    class Ctx:
        seed = 3

    monkeypatch.setattr(service, "Client", FakeClient)
    monkeypatch.setattr(service, "run_group", fake_group)
    pool = [service.Job({"workload": "stereo"})]
    calib = type("Calib", (), {"sample": lambda self: None})()
    threads = threading.active_count()
    phase = service.timed_phase(Ctx(), FakeServer(), 0.05, 1, True, pool, calib)
    assert len(connections) == 1
    assert peak[0] == 1
    assert callers == {threading.get_ident()}
    assert threading.active_count() == threads
    assert phase.jobs and 0 < phase.busy_s <= phase.t_end - phase.t_start


def test_comparable_drops_only_how_a_result_ran():
    doc = {
        "StereoMatching": {
            "rows": [1, 2],
            "provenance": {"created_at": 1.0, "phase_seconds": {"run": 0.2}, "phenomena": ["knee"]},
        }
    }
    other = {
        "StereoMatching": {
            "rows": [1, 2],
            "provenance": {"created_at": 9.0, "phase_seconds": {"run": 0.7}, "phenomena": ["knee"]},
        }
    }
    assert service.comparable(doc) == service.comparable(other)
    other["StereoMatching"]["rows"] = [1, 3]
    assert service.comparable(doc) != service.comparable(other)


def test_metrics_text_sums_labelled_series():
    text = (
        "# HELP repro_admission_shed_total Shed submissions\n"
        'repro_admission_shed_total{reason="rate_limit"} 2\n'
        'repro_admission_shed_total{reason="queue_full"} 1\n'
        "repro_engine_runs_total 40\n"
    )
    assert service.parse_metrics(text) == {
        "repro_admission_shed_total": 3.0,
        "repro_engine_runs_total": 40.0,
    }


def test_run_fails_without_the_program_source(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet-100k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout == ""
