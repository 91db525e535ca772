"""The command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.core.serialize import experiment_from_dict
from repro.errors import ConfigError
from repro.workloads import make_workload


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.workload == "stereo"
        assert args.scale == 0.05
        assert len(args.caps) == 9

    def test_sweep_custom_caps(self):
        args = build_parser().parse_args(
            ["sweep", "--workload", "sire", "--caps", "150", "130"]
        )
        assert args.caps == [150.0, 130.0]

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--workload", "linpack"])

    def test_stride_cap_optional(self):
        args = build_parser().parse_args(["stride"])
        assert args.cap is None
        args = build_parser().parse_args(["stride", "--cap", "120"])
        assert args.cap == 120.0


class TestCommands:
    def test_sweep_prints_table(self, capsys):
        code = main(
            ["--scale", "0.002", "sweep", "--workload", "stereo",
             "--caps", "150"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Table II rows for StereoMatching" in out
        assert "baseline" in out
        assert "150" in out

    def test_baseline_prints_table1(self, capsys):
        code = main(["--scale", "0.002", "baseline"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Table I" in out
        assert "StereoMatching" in out and "SIRE/RSM" in out

    def test_amenability_report(self, capsys):
        code = main(
            ["--scale", "0.002", "amenability", "--workload", "stereo",
             "--tolerance", "1.3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Amenability of StereoMatching" in out
        assert "slowdown" in out
        assert "score" in out

    def test_seed_changes_noise_not_shape(self, capsys):
        main(["--seed", "1", "--scale", "0.002", "sweep", "--caps", "150"])
        first = capsys.readouterr().out
        main(["--seed", "2", "--scale", "0.002", "sweep", "--caps", "150"])
        second = capsys.readouterr().out
        assert first != second  # noise differs
        assert first.splitlines()[0] == second.splitlines()[0]


class TestJsonFormat:
    def test_sweep_json_round_trips(self, capsys):
        code = main(
            ["--scale", "0.002", "sweep", "--caps", "150",
             "--format", "json"]
        )
        out = capsys.readouterr().out
        assert code == 0
        result = experiment_from_dict(json.loads(out))
        assert result.workload == "StereoMatching"
        assert 150.0 in result.by_cap
        assert result.baseline.execution_s > 0

    def test_baseline_json_has_both_workloads(self, capsys):
        code = main(["--scale", "0.002", "baseline", "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"StereoMatching", "SIRE/RSM"}
        for data in doc.values():
            assert experiment_from_dict(data).baseline.avg_power_w > 0

    def test_table_stays_default(self, capsys):
        main(["--scale", "0.002", "sweep", "--caps", "150"])
        out = capsys.readouterr().out
        assert "Table II" in out
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)


class TestValidation:
    def test_empty_caps_is_a_clear_error(self, capsys):
        code = main(["--scale", "0.002", "sweep", "--caps"])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err
        assert "empty" in captured.err

    def test_nonpositive_cap_is_a_clear_error(self, capsys):
        code = main(["--scale", "0.002", "sweep", "--caps", "-5"])
        captured = capsys.readouterr()
        assert code == 2
        assert "finite and > 0" in captured.err

    def test_bad_scale_is_a_clear_error(self, capsys):
        code = main(["--scale", "0", "sweep", "--caps", "150"])
        captured = capsys.readouterr()
        assert code == 2
        assert "scale" in captured.err

    def test_make_workload_rejects_bad_scale(self):
        for scale in (0, -2.5, float("inf"), float("nan")):
            with pytest.raises(ConfigError):
                make_workload("stereo", scale)

    def test_make_workload_rejects_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown workload"):
            make_workload("linpack")

    def test_make_workload_scales_budget(self):
        full = make_workload("stereo", 1.0)
        half = make_workload("stereo", 0.5)
        assert half.spec.total_instructions == pytest.approx(
            full.spec.total_instructions * 0.5
        )


class TestServeParser:
    def test_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8080
        assert args.workers == 2
        assert args.db == "repro-service.sqlite3"
        assert args.max_attempts == 3

    def test_custom(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--workers", "4", "--db", "x.sqlite3"]
        )
        assert args.port == 0
        assert args.workers == 4
        assert args.db == "x.sqlite3"

