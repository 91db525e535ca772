"""Span tracing: nesting, exception safety, Chrome trace export."""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs.tracing import (
    TraceCollector,
    current_collector,
    current_span_stack,
    phase_totals,
    reset_phase_totals,
    set_enabled,
    span,
    start_tracing,
    stop_tracing,
    thread_phase_totals,
    tracing_enabled,
)


@pytest.fixture(autouse=True)
def clean_tracing():
    """Every test starts with no collector and an empty accumulator."""
    stop_tracing()
    reset_phase_totals()
    set_enabled(True)
    yield
    stop_tracing()
    reset_phase_totals()
    set_enabled(True)


class TestNesting:
    def test_stack_and_parent(self):
        collector = start_tracing()
        assert current_span_stack() == ()
        with span("outer"):
            assert current_span_stack() == ("outer",)
            with span("inner"):
                assert current_span_stack() == ("outer", "inner")
            assert current_span_stack() == ("outer",)
        assert current_span_stack() == ()
        by_name = {e["name"]: e for e in collector.events()}
        assert by_name["inner"]["parent"] == "outer"
        assert by_name["outer"]["parent"] is None

    def test_inner_closes_before_outer(self):
        collector = start_tracing()
        with span("outer"):
            with span("inner"):
                pass
        names = [e["name"] for e in collector.events()]
        assert names == ["inner", "outer"]

    def test_thread_local_stacks(self):
        seen = {}

        def worker():
            with span("worker_span"):
                seen["stack"] = current_span_stack()

        with span("main_span"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        # The worker thread never sees the main thread's open span.
        assert seen["stack"] == ("worker_span",)


class TestExceptionSafety:
    def test_span_closes_and_flags_error(self):
        collector = start_tracing()
        with pytest.raises(RuntimeError):
            with span("doomed"):
                raise RuntimeError("boom")
        assert current_span_stack() == ()
        (event,) = collector.events()
        assert event["error"] is True
        assert event["dur"] >= 0.0
        # The phase accumulator got the timing despite the raise.
        assert phase_totals()["doomed"]["count"] == 1

    def test_nested_raise_unwinds_all(self):
        with pytest.raises(ValueError):
            with span("a"):
                with span("b"):
                    raise ValueError
        assert current_span_stack() == ()

    def test_decorator_exception(self):
        @span("dec")
        def boom():
            raise KeyError("k")

        with pytest.raises(KeyError):
            boom()
        assert phase_totals()["dec"]["count"] == 1
        assert current_span_stack() == ()


class TestDecorator:
    def test_fresh_span_per_call(self):
        @span("work", kind="test")
        def work(x):
            return x * 2

        assert work(2) == 4
        assert work(3) == 6
        totals = phase_totals()
        assert totals["work"]["count"] == 2
        assert work.__name__ == "work"


class TestPhaseAccumulator:
    def test_accumulates_seconds_and_counts(self):
        for _ in range(3):
            with span("tick"):
                pass
        totals = phase_totals()
        assert totals["tick"]["count"] == 3
        assert totals["tick"]["seconds"] >= 0.0

    def test_reset(self):
        with span("tick"):
            pass
        reset_phase_totals()
        assert phase_totals() == {}

    def test_thread_totals_hold_only_this_threads_spans(self):
        def tick():
            with span("tick"):
                pass

        before = thread_phase_totals().get("tick", {"count": 0.0})["count"]
        worker = threading.Thread(target=tick)
        worker.start()
        worker.join()
        tick()
        assert phase_totals()["tick"]["count"] == 2
        assert thread_phase_totals()["tick"]["count"] == before + 1

    def test_disabled_is_noop(self):
        set_enabled(False)
        assert not tracing_enabled()
        collector = start_tracing()
        with span("ghost"):
            assert current_span_stack() == ()
        assert phase_totals() == {}
        assert len(collector) == 0


class TestCollector:
    def test_install_and_uninstall(self):
        assert current_collector() is None
        collector = start_tracing()
        assert current_collector() is collector
        assert stop_tracing() is collector
        assert current_collector() is None

    def test_span_totals(self):
        collector = start_tracing()
        with span("a"):
            pass
        with span("a"):
            pass
        with span("b"):
            pass
        totals = collector.span_totals()
        assert set(totals) == {"a", "b"}
        assert totals["a"] >= 0.0

    def test_chrome_trace_is_valid(self, tmp_path):
        collector = start_tracing()
        with span("sweep", workload="stereo"):
            with span("run", cap_w=120.0):
                pass
        out = tmp_path / "prof.json"
        collector.dump(out)
        trace = json.loads(out.read_text())
        assert trace["displayTimeUnit"] == "ms"
        events = trace["traceEvents"]
        assert len(events) == 2
        for event in events:
            assert event["ph"] == "X"
            assert event["cat"] == "repro"
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
        by_name = {e["name"]: e for e in events}
        assert by_name["run"]["args"]["parent"] == "sweep"
        assert by_name["run"]["args"]["cap_w"] == 120.0
        assert by_name["sweep"]["args"]["workload"] == "stereo"

    def test_chrome_trace_args_jsonable(self):
        collector = start_tracing()
        with span("s", obj=object()):
            pass
        # Must serialise even with a non-JSON attribute value.
        json.dumps(collector.chrome_trace())

    def test_nested_spans_within_parent_extent(self):
        collector = start_tracing()
        with span("outer"):
            with span("inner"):
                pass
        by_name = {e["name"]: e for e in collector.chrome_trace()["traceEvents"]}
        inner, outer = by_name["inner"], by_name["outer"]
        assert inner["ts"] >= outer["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1e-3
