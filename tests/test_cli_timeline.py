"""The ``timeline`` subcommand, ``inspect --format json``, telemetry flags."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def result_file(tmp_path_factory):
    """A small sweep result file produced through the real CLI."""
    import contextlib
    import io

    path = tmp_path_factory.mktemp("timeline") / "sweep.json"
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(
            ["--scale", "0.002", "sweep", "--workload", "stereo",
             "--caps", "150", "120", "--format", "json"]
        )
    assert code == 0
    path.write_text(buf.getvalue())
    return path


class TestParser:
    def test_timeline_defaults(self):
        args = build_parser().parse_args(["timeline", "r.json"])
        assert args.target == "r.json"
        assert args.channel is None
        assert args.cap is None
        assert not args.csv and not args.ascii

    def test_global_telemetry_flags(self):
        """The telemetry options are not global: they follow the
        subcommand, whose sweep reads them."""
        args = build_parser().parse_args(
            ["sweep", "--telemetry-period", "0.5"]
        )
        assert args.telemetry_period == 0.5
        args = build_parser().parse_args(["sweep", "--no-telemetry"])
        assert args.no_telemetry
        for argv in (
            ["--telemetry-period", "0.5", "sweep"],
            ["--no-telemetry", "sweep"],
        ):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(argv)
            assert exc.value.code == 2

    def test_telemetry_flags_only_where_read(self):
        for command in ("baseline", "sweep", "amenability", "figures"):
            args = build_parser().parse_args([command, "--no-telemetry"])
            assert args.no_telemetry
        for argv in (
            ["--no-telemetry", "predict"],
            ["predict", "--no-telemetry"],
            ["serve", "--port", "0", "--telemetry-period", "2"],
        ):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(argv)
            assert exc.value.code == 2

    def test_inspect_format_choices(self):
        args = build_parser().parse_args(
            ["inspect", "r.json", "--format", "json"]
        )
        assert args.format == "json"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["inspect", "r.json", "--format", "xml"])


class TestTimelineCommand:
    def test_summary_output(self, result_file, capsys):
        assert main(["timeline", str(result_file)]) == 0
        out = capsys.readouterr().out
        assert "StereoMatching @ uncapped" in out
        assert "StereoMatching @ 120 W cap" in out
        assert "power_w" in out and "freq_mhz" in out

    def test_ascii_sparklines(self, result_file, capsys):
        assert main(
            ["timeline", str(result_file), "--ascii",
             "--channel", "power_w", "--channel", "freq_mhz",
             "--cap", "120"]
        ) == 0
        out = capsys.readouterr().out
        assert "StereoMatching @ 120 W" in out
        assert "power_w |" in out and "freq_mhz |" in out
        assert "uncapped" not in out  # --cap filtered the rest away

    def test_csv_output(self, result_file, capsys):
        assert main(
            ["timeline", str(result_file), "--csv", "--channel", "power_w"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "workload,cap,channel,t_s,dt_s,mean,min,max"
        assert all(",power_w," in l for l in lines[1:])
        assert any(l.split(",")[1] == "baseline" for l in lines[1:])
        assert any(l.split(",")[1] == "120" for l in lines[1:])

    def test_baseline_cap_filter(self, result_file, capsys):
        assert main(
            ["timeline", str(result_file), "--cap", "baseline"]
        ) == 0
        out = capsys.readouterr().out
        assert "uncapped" in out and "120 W cap" not in out

    def test_unknown_channel_fails_clearly(self, result_file, capsys):
        assert main(
            ["timeline", str(result_file), "--channel", "bogus"]
        ) == 2
        assert "unknown channel" in capsys.readouterr().err

    def test_bad_cap_fails_clearly(self, result_file, capsys):
        assert main(["timeline", str(result_file), "--cap", "soon"]) == 2
        assert "baseline" in capsys.readouterr().err

    def test_unswept_cap_fails_clearly(self, result_file, capsys):
        assert main(["timeline", str(result_file), "--cap", "95"]) == 2
        assert "no matching" in capsys.readouterr().err

    def test_missing_target_fails_clearly(self, tmp_path, capsys):
        assert main(
            ["timeline", "ghost", "--db", str(tmp_path / "none.sqlite3")]
        ) == 2
        assert "not a result file" in capsys.readouterr().err


class TestInspectJson:
    def test_machine_readable_provenance_and_timelines(
        self, result_file, capsys
    ):
        assert main(["inspect", str(result_file), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        entry = doc["StereoMatching"]
        assert entry["provenance"]["caps_w"] == [150.0, 120.0]
        assert set(entry["timelines"]) == {"baseline", "150", "120"}
        summary = entry["timelines"]["120"]
        assert summary["channels"]["power_w"]["points"] > 0
        assert summary["channels"]["freq_mhz"]["unit"] == "MHz"

    def test_phenomena_annotated_in_provenance(self, result_file, capsys):
        assert main(["inspect", str(result_file), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        phenomena = doc["StereoMatching"]["provenance"]["phenomena"]
        floors = {
            d["cap_w"] for d in phenomena if d["phenomenon"] == "freq_floor"
        }
        assert 120.0 in floors
        assert 150.0 not in floors

    def test_table_stays_default(self, result_file, capsys):
        assert main(["inspect", str(result_file)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("result file")


class TestTelemetryFlags:
    def test_no_telemetry_omits_timelines_and_keeps_results_identical(
        self, result_file, capsys
    ):
        assert main(
            ["--scale", "0.002", "sweep", "--no-telemetry",
             "--workload", "stereo", "--caps", "150", "120",
             "--format", "json"]
        ) == 0
        bare = json.loads(capsys.readouterr().out)
        rich = json.loads(result_file.read_text())
        assert "timeline" not in bare["by_cap"]["120"]
        assert "timeline" in rich["by_cap"]["120"]
        # Telemetry is pure observation: stripping the timeline (and
        # run-specific provenance) must leave bit-identical results.
        for doc in (bare, rich):
            doc.pop("provenance")
            for row in [doc["baseline"], *doc["by_cap"].values()]:
                row.pop("timeline", None)
        assert bare == rich

    def test_custom_period_changes_resolution(self, capsys):
        assert main(
            ["--scale", "0.002", "sweep", "--telemetry-period", "2.0",
             "--workload", "stereo", "--caps", "120", "--format", "json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        timeline = doc["by_cap"]["120"]["timeline"]
        assert timeline["period_s"] == 2.0
