"""The `top` dashboard: metrics parsing and frame rendering."""

from __future__ import annotations

from repro.obs.top import parse_metrics, render_dashboard, run_top

EXPOSITION = """\
# HELP repro_queue_depth Jobs queued and not yet running
# TYPE repro_queue_depth gauge
repro_queue_depth 3
repro_jobs{state="running"} 2
repro_jobs{state="done"} 7
repro_rate_cache_hits_total 30
repro_rate_cache_misses_total 10
repro_stream_events_total 120
repro_stream_dropped_total 5
repro_stream_subscribers 1
"""

FLEET_EXPOSITION = EXPOSITION + """\
repro_fleet_nodes 960
repro_fleet_health_headroom_w -12.5
repro_fleet_health_capfloor_frac 0.25
repro_fleet_health_slo_debt_rate_w 80.2
repro_fleet_health_escalation_level 2
repro_fleet_health_rack_headroom_w_bucket{le="0"} 10
repro_fleet_health_rack_headroom_w_bucket{le="50"} 25
repro_fleet_health_rack_headroom_w_bucket{le="+Inf"} 30
repro_telemetry_detections_total{phenomenon="budget_thrash"} 1
"""


class TestParseMetrics:
    def test_scalars_and_labels(self):
        metrics = parse_metrics(EXPOSITION)
        assert metrics["repro_queue_depth"] == [({}, 3.0)]
        assert ({"state": "running"}, 2.0) in metrics["repro_jobs"]
        assert ({"state": "done"}, 7.0) in metrics["repro_jobs"]

    def test_garbage_lines_skipped(self):
        metrics = parse_metrics(
            "not a metric line\n\n# comment\nrepro_x nan_is_fine_no 1\nok 2\n"
        )
        assert "not" not in metrics
        assert metrics["ok"] == [({}, 2.0)]
        # Malformed value column -> line dropped, not crashed.
        assert "repro_x" not in metrics

    def test_quoted_label_values(self):
        metrics = parse_metrics('m{le="+Inf",x="a b"} 4\n')
        assert metrics["m"] == [({"le": "+Inf", "x": "a b"}, 4.0)]


class TestRenderDashboard:
    def test_service_panel_contents(self):
        frame = render_dashboard(
            parse_metrics(EXPOSITION), health={"workers": 4}
        )
        assert "queue depth      3" in frame
        assert "workers   4" in frame
        assert "( 50.0% busy)" in frame
        assert "done=7  running=2" in frame
        assert "rate cache   75.0% hit (30/40)" in frame
        assert "120 events   5 dropped   1 subscribers" in frame

    def test_fleet_block_gated_on_node_count(self):
        without = render_dashboard(parse_metrics(EXPOSITION))
        assert "fleet" not in without
        with_fleet = render_dashboard(parse_metrics(FLEET_EXPOSITION))
        assert "fleet  headroom     -12.5 W" in with_fleet
        assert "cap-floor  25.0%" in with_fleet
        assert "esc L2" in with_fleet

    def test_rack_histogram_buckets(self):
        frame = render_dashboard(parse_metrics(FLEET_EXPOSITION))
        # 10 racks <= 0 W, 15 in (0, 50], 5 beyond.
        assert "racks         <= 0 W" in frame
        assert "racks        <= 50 W" in frame
        assert "racks      <= +Inf W" in frame

    def test_detections_line(self):
        frame = render_dashboard(parse_metrics(FLEET_EXPOSITION))
        assert "detections  budget_thrash=1" in frame

    def test_no_health_means_zero_workers(self):
        frame = render_dashboard(parse_metrics(EXPOSITION), health=None)
        assert "workers   0" in frame


class TestRunTop:
    def test_unreachable_url_renders_error_frame(self):
        chunks = []
        code = run_top(
            "http://127.0.0.1:1",  # reserved port: connection refused
            once=True,
            write=chunks.append,
        )
        assert code == 0
        out = "".join(chunks)
        assert "unreachable: http://127.0.0.1:1" in out
        # `once` never emits cursor-movement escapes.
        assert "\x1b[" not in out

    def test_iterations_bounds_the_loop(self):
        chunks = []
        code = run_top(
            "http://127.0.0.1:1",
            interval_s=0.0,
            iterations=3,
            write=chunks.append,
        )
        assert code == 0
        out = "".join(chunks)
        assert out.count("unreachable") == 3
        # Repaint escapes appear from the second frame on.
        assert out.count("\x1b[") == 4  # 2 frames x (cursor-up + clear)
