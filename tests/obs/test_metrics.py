"""The process-wide metrics registry and the service bridge."""

from __future__ import annotations

import re
from dataclasses import replace

from repro.obs.metrics import ServiceMetrics, process_metrics


class TestProcessMetrics:
    def test_singleton(self):
        assert process_metrics() is process_metrics()

    def test_exposes_at_least_six_engine_series(self):
        text = process_metrics().render()
        names = set(
            re.findall(r"^# TYPE (repro_engine_\w+)", text, re.MULTILINE)
        )
        assert len(names) >= 6, sorted(names)
        for expected in (
            "repro_engine_runs_total",
            "repro_engine_quanta_total",
            "repro_engine_traces_simulated_total",
            "repro_engine_rate_cache_hits_total",
            "repro_engine_rate_cache_misses_total",
            "repro_engine_run_seconds",
            "repro_engine_phase_seconds",
        ):
            assert expected in names

    def test_run_increments_counters(self):
        from repro.core.runner import NodeRunner
        from repro.workloads.stereo import StereoMatchingWorkload

        metrics = process_metrics()
        runs_before = metrics.runs.value
        quanta_before = metrics.quanta.value
        workload = StereoMatchingWorkload()
        workload._spec = replace(
            workload.spec,
            total_instructions=int(workload.spec.total_instructions * 0.003),
        )
        NodeRunner(slice_accesses=60_000).run(workload)
        assert metrics.runs.value == runs_before + 1
        assert metrics.quanta.value > quanta_before

    def test_service_render_includes_engine_panel(self):
        text = ServiceMetrics().render()
        assert "repro_jobs_submitted_total" in text
        assert "repro_engine_runs_total" in text


class TestBuildInfo:
    def test_labels_resolve_at_first_render(self, monkeypatch):
        """Building the registry starts no ``git``; rendering starts one."""
        from repro.obs import provenance
        from repro.obs.metrics import ProcessMetrics

        calls = []
        monkeypatch.setattr(
            provenance, "git_describe", lambda: calls.append(1) or "abc1234"
        )
        metrics = ProcessMetrics()
        assert calls == []
        assert 'git="abc1234"' in metrics.render()
        metrics.render()
        assert calls == [1]

    def test_info_convention(self):
        """``repro_build_info`` is a constant-1 gauge with id labels."""
        from repro import __version__
        ((name, labels, value),) = process_metrics().build_info.samples()
        assert name == "repro_build_info"
        assert value == 1.0
        assert labels["version"] == __version__
        assert labels["git"]  # "unknown" outside a checkout, never empty
        assert {"provenance_schema", "timeline_schema"} <= set(labels)

    def test_rendered_on_service_metrics(self):
        text = ServiceMetrics().render()
        assert "# TYPE repro_build_info gauge" in text
        assert 'repro_build_info{' in text

    def test_render_covers_every_panel(self):
        text = ServiceMetrics().render()
        names = {
            line.split("{")[0].split(" ")[0]
            for line in text.splitlines()
            if line and not line.startswith("#")
        }
        for expected in (
            "repro_build_info",
            "repro_jobs_submitted_total",
            "repro_engine_runs_total",
            "repro_telemetry_runs_total",
            "repro_stream_events_total",
        ):
            assert expected in names, sorted(names)
