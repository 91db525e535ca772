"""Telemetry timelines: bounded channels, sampler coverage, round-trips."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.experiment import PowerCapExperiment
from repro.errors import SimulationError
from repro.obs.timeseries import (
    STANDARD_CHANNELS,
    TIMELINE_SCHEMA_VERSION,
    RunTimeline,
    SeriesChannel,
    TelemetryConfig,
    TelemetrySampler,
    _sig,
    _sig_array,
    timeline_from_dict,
    timeline_to_dict,
)

from ..core.test_blockstep import SLICE_ACCESSES, _make_workload


def filled_channel(n=100, capacity=16) -> SeriesChannel:
    ch = SeriesChannel("power_w", "W", capacity)
    for i in range(n):
        ch.add(i * 0.25, 0.25, 100.0 + i)
    return ch


class TestSeriesChannel:
    def test_capacity_floor(self):
        with pytest.raises(SimulationError):
            SeriesChannel("x", capacity=4)

    def test_negative_duration_rejected(self):
        ch = SeriesChannel("x")
        with pytest.raises(SimulationError):
            ch.add(0.0, -1.0, 5.0)

    def test_bounded_by_capacity(self):
        ch = filled_channel(n=10_000, capacity=16)
        assert len(ch) <= 16
        assert ch.decimations > 0

    def test_decimation_preserves_integral_and_coverage(self):
        ch = filled_channel(n=1000, capacity=16)
        exact = sum((100.0 + i) * 0.25 for i in range(1000))
        assert ch.integral() == pytest.approx(exact, rel=1e-12)
        assert ch.duration_s() == pytest.approx(250.0, rel=1e-12)

    def test_min_max_survive_decimation(self):
        ch = SeriesChannel("x", capacity=8)
        for i in range(200):
            ch.add(i * 1.0, 1.0, 50.0)
        ch.add(200.0, 1.0, 7.0, vmin=3.0, vmax=90.0)
        for i in range(200):
            ch.add(201.0 + i, 1.0, 50.0)
        assert ch.vmin() == 3.0
        assert ch.vmax() == 90.0

    def test_coverage_is_gap_free_after_decimation(self):
        ch = filled_channel(n=500, capacity=16)
        pts = ch.points()
        for prev, cur in zip(pts, pts[1:]):
            assert cur.t_s == pytest.approx(prev.end_s, rel=1e-9)

    def test_time_weighted_mean(self):
        ch = SeriesChannel("x")
        ch.add(0.0, 1.0, 100.0)
        ch.add(1.0, 3.0, 200.0)
        assert ch.time_weighted_mean() == pytest.approx(175.0)

    def test_empty_channel_stats_raise(self):
        ch = SeriesChannel("x")
        with pytest.raises(SimulationError):
            ch.time_weighted_mean()
        with pytest.raises(SimulationError):
            ch.vmin()

    def test_resample_preserves_weighted_mean(self):
        ch = filled_channel(n=300, capacity=64)
        pts = ch.resample(10)
        total = sum(p.mean * p.dt_s for p in pts)
        assert total == pytest.approx(ch.integral(), rel=1e-6)

    def test_resample_fills_gaps_with_carry_forward(self):
        ch = SeriesChannel("x")
        ch.add(0.0, 1.0, 10.0)
        ch.add(9.0, 1.0, 20.0)  # nothing recorded for t in [1, 9)
        pts = ch.resample(10, 10.0)
        assert len(pts) == 10
        assert pts[5].mean == pytest.approx(10.0)  # carried forward
        assert pts[9].mean == pytest.approx(20.0)

    def test_merge_averages_reps(self):
        a = SeriesChannel("x")
        b = SeriesChannel("x")
        for i in range(10):
            a.add(i * 1.0, 1.0, 100.0)
            b.add(i * 1.0, 1.0, 200.0)
        merged = SeriesChannel.merge([a, b])
        assert merged.time_weighted_mean() == pytest.approx(150.0)
        assert merged.vmin() == 100.0
        assert merged.vmax() == 200.0

    def test_merge_rejects_mixed_names(self):
        other = SeriesChannel("other")
        other.add(0.0, 1.0, 5.0)
        with pytest.raises(SimulationError):
            SeriesChannel.merge([filled_channel(), other])

    def test_merge_ignores_empty_channels(self):
        merged = SeriesChannel.merge([filled_channel(), SeriesChannel("power_w")])
        assert len(merged) > 0

    def test_round_trip(self):
        ch = filled_channel(n=120, capacity=32)
        back = SeriesChannel.from_dict("power_w", ch.to_dict())
        assert back.unit == "W"
        assert len(back) == len(ch)
        assert back.integral() == pytest.approx(ch.integral(), rel=1e-7)
        assert back.decimations == ch.decimations

    def test_ragged_columns_rejected(self):
        doc = filled_channel(n=20).to_dict()
        doc["mean"] = doc["mean"][:-1]
        with pytest.raises(SimulationError):
            SeriesChannel.from_dict("power_w", doc)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.01, max_value=10.0),
                st.floats(min_value=0.0, max_value=500.0),
            ),
            min_size=1,
            max_size=200,
        )
    )
    def test_integral_invariant_under_any_capacity(self, samples):
        exact = sum(v * dt for dt, v in samples)
        ch = SeriesChannel("x", capacity=8)
        t = 0.0
        for dt, v in samples:
            ch.add(t, dt, v)
            t += dt
        assert ch.integral() == pytest.approx(exact, rel=1e-9, abs=1e-9)
        assert ch.duration_s() == pytest.approx(t, rel=1e-9)


class TestUnequalPeriodMerge:
    """Rep-merge across channels sampled at different periods.

    :meth:`RunTimeline.merge` averages repetition timelines channel by
    channel through :meth:`SeriesChannel.merge`.  Repetitions of unequal
    length decimate a different number of times, so their buckets can
    differ in width, and the decimation contract has to hold when the
    inputs were recorded at unequal sample periods — merge and decimate
    must commute up to float tolerance on the time integral.
    """

    def channel(self, period, total_s=50.0, base=100.0, capacity=256):
        ch = SeriesChannel("power_w", "W", capacity)
        t = 0.0
        i = 0
        while t < total_s - 1e-9:
            dt = min(period, total_s - t)
            ch.add(t, dt, base + (i % 7))
            t += dt
            i += 1
        return ch

    def replayed(self, ch, capacity):
        out = SeriesChannel(ch.name, ch.unit, capacity)
        out.add_block(ch.points())
        return out

    def test_merge_unequal_periods_averages_integrals(self):
        a = self.channel(period=0.1, base=100.0)
        b = self.channel(period=0.25, base=200.0)
        merged = SeriesChannel.merge([a, b])
        expected = (a.integral() + b.integral()) / 2.0
        assert merged.integral() == pytest.approx(expected, rel=1e-6)
        assert merged.duration_s() == pytest.approx(50.0, rel=1e-9)

    def test_merge_then_decimate_matches_decimate_then_merge(self):
        a = self.channel(period=0.1, base=100.0, capacity=1024)
        b = self.channel(period=0.25, base=150.0, capacity=1024)
        exact = (a.integral() + b.integral()) / 2.0

        merged_first = self.replayed(SeriesChannel.merge([a, b]), capacity=16)
        decimated_first = SeriesChannel.merge(
            [self.replayed(a, 16), self.replayed(b, 16)]
        )

        assert merged_first.integral() == pytest.approx(exact, rel=1e-6)
        assert decimated_first.integral() == pytest.approx(exact, rel=1e-6)
        assert merged_first.integral() == pytest.approx(
            decimated_first.integral(), rel=1e-6
        )
        assert merged_first.duration_s() == pytest.approx(50.0, rel=1e-6)
        assert decimated_first.duration_s() == pytest.approx(50.0, rel=1e-6)

    def test_merged_coverage_stays_gap_free(self):
        a = self.channel(period=0.1)
        b = self.channel(period=0.3)
        pts = SeriesChannel.merge([a, b]).points()
        for prev, cur in zip(pts, pts[1:]):
            assert cur.t_s == pytest.approx(prev.end_s, rel=1e-9)

    def test_min_max_envelope_spans_both_reps(self):
        a = self.channel(period=0.1, base=100.0)
        b = self.channel(period=0.25, base=200.0)
        merged = SeriesChannel.merge([a, b])
        assert merged.vmin() >= 100.0
        assert merged.vmax() <= 206.0 + 1e-9
        assert merged.vmax() > merged.vmin()


class TestRunTimeline:
    def make(self, cap=140.0) -> RunTimeline:
        tl = RunTimeline(workload="w", cap_w=cap, period_s=0.25)
        tl.channels["power_w"] = filled_channel(n=40, capacity=64)
        return tl

    def test_unknown_channel_raises(self):
        with pytest.raises(SimulationError):
            self.make().channel("nope")

    def test_cap_label(self):
        assert self.make().cap_label == "140"
        assert self.make(cap=None).cap_label == "baseline"

    def test_csv_shape(self):
        lines = self.make().to_csv().strip().splitlines()
        assert lines[0] == "workload,cap,channel,t_s,dt_s,mean,min,max"
        assert len(lines) == 41
        assert lines[1].startswith("w,140,power_w,")

    def test_merge_sums_reps(self):
        merged = RunTimeline.merge([self.make(), self.make()])
        assert merged.reps == 2
        assert merged.channel("power_w").time_weighted_mean() == pytest.approx(
            self.make().channel("power_w").time_weighted_mean()
        )

    def test_counter_samples_bounded(self):
        samples = self.make().counter_samples(max_points=8)
        assert len(samples) == 8
        assert all(name == "power_w" for name, _, _ in samples)

    def test_round_trip(self):
        tl = self.make()
        back = timeline_from_dict(timeline_to_dict(tl))
        assert back.workload == "w" and back.cap_w == 140.0
        assert back.channel("power_w").integral() == pytest.approx(
            tl.channel("power_w").integral(), rel=1e-7
        )

    def test_schema_version_enforced(self):
        doc = timeline_to_dict(self.make())
        doc["schema"] = 99
        with pytest.raises(SimulationError):
            timeline_from_dict(doc)


class TestTelemetryConfig:
    def test_defaults(self):
        cfg = TelemetryConfig()
        assert cfg.enabled and cfg.period_s == 0.25 and cfg.capacity == 256

    def test_validation(self):
        with pytest.raises(SimulationError):
            TelemetryConfig(period_s=0.0)
        with pytest.raises(SimulationError):
            TelemetryConfig(capacity=2)

    def test_resolve(self):
        assert TelemetryConfig.resolve(True) == TelemetryConfig()
        assert not TelemetryConfig.resolve(False).enabled
        custom = TelemetryConfig(period_s=2.0)
        assert TelemetryConfig.resolve(custom) is custom


class TestTelemetrySampler:
    def test_period_buckets(self):
        # 0.125 is exact in binary, so bucket boundaries are exact too.
        sampler = TelemetrySampler(TelemetryConfig(period_s=0.5))
        for _ in range(100):
            sampler.record(0.125, {"power_w": 150.0})
        tl = sampler.finish("w", None)
        ch = tl.channel("power_w")
        assert len(ch) == 25
        assert ch.duration_s() == pytest.approx(12.5)
        assert all(p.dt_s == pytest.approx(0.5) for p in ch.points())

    def test_fast_forward_slice_has_no_gap(self):
        # A steady-state fast-forward arrives as one long record();
        # coverage must remain continuous and integral-exact.
        sampler = TelemetrySampler(TelemetryConfig(period_s=0.25))
        for _ in range(8):
            sampler.record(0.05, {"power_w": 140.0})
        sampler.record(30.0, {"power_w": 120.0})  # fast-forward
        for _ in range(8):
            sampler.record(0.05, {"power_w": 130.0})
        tl = sampler.finish("w", 120.0)
        ch = tl.channel("power_w")
        pts = ch.points()
        for prev, cur in zip(pts, pts[1:]):
            assert cur.t_s == pytest.approx(prev.end_s, rel=1e-9)
        exact = 8 * 0.05 * 140.0 + 30.0 * 120.0 + 8 * 0.05 * 130.0
        assert ch.integral() == pytest.approx(exact, rel=1e-12)
        assert ch.duration_s() == pytest.approx(30.8, rel=1e-12)

    def test_bucket_min_max_envelope(self):
        sampler = TelemetrySampler(TelemetryConfig(period_s=1.0))
        sampler.record(0.4, {"power_w": 100.0})
        sampler.record(0.6, {"power_w": 200.0})
        ch = sampler.finish("w", None).channel("power_w")
        (p,) = ch.points()
        assert p.vmin == 100.0 and p.vmax == 200.0
        assert p.mean == pytest.approx(160.0)  # duration-weighted

    def test_standard_channels_registered(self):
        sampler = TelemetrySampler(TelemetryConfig())
        sampler.record(1.0, {name: 1.0 for name in STANDARD_CHANNELS})
        tl = sampler.finish("w", None)
        assert set(tl.names()) == set(STANDARD_CHANNELS)
        assert tl.channel("power_w").unit == "W"

    def test_empty_channels_omitted(self):
        sampler = TelemetrySampler(TelemetryConfig())
        sampler.record(1.0, {"power_w": 1.0})
        tl = sampler.finish("w", None)
        assert tl.names() == ["power_w"]

    def test_negative_step_rejected(self):
        sampler = TelemetrySampler(TelemetryConfig())
        with pytest.raises(SimulationError):
            sampler.record(-0.1, {"power_w": 1.0})


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def _reference_timeline_dict(timeline: RunTimeline) -> dict:
    """``timeline_to_dict`` as it was: :func:`_sig` on every element."""
    def channel(ch):
        pts = ch.points()
        return {
            "unit": ch.unit,
            "capacity": ch.capacity,
            "decimations": ch.decimations,
            "t": [_sig(p.t_s) for p in pts],
            "dt": [_sig(p.dt_s) for p in pts],
            "mean": [_sig(p.mean) for p in pts],
            "min": [_sig(p.vmin) for p in pts],
            "max": [_sig(p.vmax) for p in pts],
        }

    return {
        "schema": TIMELINE_SCHEMA_VERSION,
        "workload": timeline.workload,
        "cap_w": timeline.cap_w,
        "reps": timeline.reps,
        "period_s": _sig(timeline.period_s),
        "channels": {n: channel(c) for n, c in timeline.channels.items()},
    }


def _reference_csv(timeline: RunTimeline) -> str:
    """``RunTimeline.to_csv`` as it was: :func:`_sig` on every element."""
    lines = ["workload,cap,channel,t_s,dt_s,mean,min,max"]
    for name, ch in timeline.channels.items():
        for p in ch.points():
            lines.append(
                f"{timeline.workload},{timeline.cap_label},{name},"
                f"{_sig(p.t_s):g},{_sig(p.dt_s):g},{_sig(p.mean):g},"
                f"{_sig(p.vmin):g},{_sig(p.vmax):g}"
            )
    return "\n".join(lines) + "\n"


def _adversarial() -> np.ndarray:
    """Values at the edges of the vectorized rounding's fast path."""
    rng = np.random.default_rng(20)
    mantissas = rng.integers(10**7, 10**8, 2000) + 0.5
    ties = mantissas / 10.0 ** rng.integers(-8, 16, 2000)
    pow10 = 10.0 ** np.arange(-20.0, 25.0)
    edges = np.concatenate(
        [ties, pow10, pow10 * 9.99999995, pow10 * 0.999999995]
    )
    near = np.concatenate(
        [edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf)]
    )
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -1e-310,
               2.2250738585072014e-308, 1.7976931348623157e308]
    return np.concatenate([near, -near, special])


class TestExactRounding:
    """``_sig_array`` (and every serializer on it) equals ``_sig`` bit for bit."""

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.floats(allow_subnormal=True), max_size=40))
    def test_matches_scalar_on_any_floats(self, values):
        got = _sig_array(np.array(values, dtype=np.float64))
        assert list(_bits(got)) == list(_bits([_sig(v) for v in values]))

    def test_adversarial_array(self):
        values = _adversarial()
        got = _sig_array(values)
        want = [_sig(v) for v in values.tolist()]
        np.testing.assert_array_equal(_bits(got), _bits(want))

    def test_channel_to_dict_matches_reference(self):
        ch = SeriesChannel("x", "W", capacity=8)
        for i, v in enumerate(_adversarial()[::97]):
            ch.add(i / 3.0, 1.0 / 7.0, v, -abs(v), abs(v))
        want = _reference_timeline_dict(
            RunTimeline("w", None, 0.25, channels={"x": ch})
        )["channels"]["x"]
        assert json.dumps(ch.to_dict()) == json.dumps(want)

    @pytest.fixture(scope="class")
    def real_timelines(self):
        timelines = []
        for name in ("stereo", "sire", "stride"):
            workload = _make_workload(name)
            result = PowerCapExperiment(
                [workload],
                caps_w=(140.0, 120.0),
                repetitions=2,
                slice_accesses=SLICE_ACCESSES,
                telemetry=True,
            ).run_workload(workload)
            rows = (result.baseline, *result.by_cap.values())
            timelines += [row.timeline for row in rows]
        return timelines

    def test_real_timelines_to_dict(self, real_timelines):
        for timeline in real_timelines:
            assert len(timeline.channels) == len(STANDARD_CHANNELS)
            got = json.dumps(timeline_to_dict(timeline), sort_keys=True)
            want = json.dumps(_reference_timeline_dict(timeline), sort_keys=True)
            assert got == want, (timeline.workload, timeline.cap_w)

    def test_real_timelines_to_csv(self, real_timelines):
        for timeline in real_timelines:
            assert timeline.to_csv() == _reference_csv(timeline)
