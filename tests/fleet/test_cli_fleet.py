"""The ``repro-powercap fleet`` subcommand."""

from __future__ import annotations

import json
import warnings

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["fleet"])
        assert args.rows == 2
        assert args.strategy == "proportional"
        assert args.traffic == "diurnal"
        assert not args.escalation

    def test_strategy_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet", "--strategy", "greedy"])


class TestCommand:
    def test_summary_table(self, capsys):
        code = main(
            ["fleet", "--rows", "1", "--racks-per-row", "2",
             "--nodes-per-rack", "4", "--duration", "20",
             "--traffic", "flat"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "fleet: 8 nodes / 2 racks / 1 rows" in out
        assert "SLO attainment" in out
        assert "node-steps" in out

    def test_json_document(self, capsys):
        code = main(
            ["fleet", "--rows", "1", "--racks-per-row", "1",
             "--nodes-per-rack", "4", "--duration", "10",
             "--traffic", '{"type": "flat", "utilization": 0.5}',
             "--format", "json"]
        )
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["nodes"] == 4
        assert doc["params"]["traffic"]["utilization"] == 0.5
        assert doc["provenance"]["engine"] == "repro.fleet"

    def test_parity_flag_appends_table(self, capsys):
        code = main(
            ["fleet", "--rows", "1", "--racks-per-row", "1",
             "--nodes-per-rack", "4", "--duration", "5",
             "--traffic", "flat", "--parity"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "parity: serial DCM stack vs repro.fleet" in out
        assert "OK" in out

    def test_spec_file(self, tmp_path, capsys):
        spec = tmp_path / "topo.json"
        spec.write_text(json.dumps(
            {"rows": 1, "racks_per_row": 1, "nodes_per_rack": 3}
        ))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            code = main(
                ["fleet", "--spec", str(spec), "--duration", "5",
                 "--traffic", "flat"]
            )
        out = capsys.readouterr().out
        assert code == 0
        assert "fleet: 3 nodes" in out
        # The spec file is closed once read.
        assert not [w for w in caught if w.category is ResourceWarning]

    def test_bad_spec_is_a_clean_error(self, tmp_path, capsys):
        spec = tmp_path / "broken.json"
        spec.write_text("{not json")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            code = main(["fleet", "--spec", str(spec)])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not [w for w in caught if w.category is ResourceWarning]

    def test_bad_traffic_is_a_clean_error(self, capsys):
        code = main(["fleet", "--traffic", "lognormal", "--duration", "5"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


def fleet_doc_file(tmp_path, capsys):
    """Run a tiny fleet through the CLI and save its JSON document."""
    code = main(
        ["fleet", "--rows", "1", "--racks-per-row", "2",
         "--nodes-per-rack", "2", "--duration", "15",
         "--traffic", "flat", "--format", "json"]
    )
    assert code == 0
    path = tmp_path / "fleet_run.json"
    path.write_text(capsys.readouterr().out)
    return path


class TestFleetDocInspect:
    def test_table_renders_fleet_provenance(self, tmp_path, capsys):
        path = fleet_doc_file(tmp_path, capsys)
        code = main(["inspect", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "engine" in out and "repro.fleet" in out
        assert "4 nodes / 2 racks / 1 rows" in out
        assert "rebalances" in out
        assert "health" in out
        assert "phenomena" in out

    def test_json_includes_fleet_sections(self, tmp_path, capsys):
        path = fleet_doc_file(tmp_path, capsys)
        code = main(["inspect", str(path), "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)["fleet"]
        assert doc["provenance"]["engine"] == "repro.fleet"
        assert set(doc["rebalances"]) == {
            "evaluated", "applied", "forced_by_escalation",
        }
        assert "health" in doc["summary"]
        assert "fleet_power_w" in doc["timelines"]


class TestFleetDocTimeline:
    def test_summary_lists_fleet_channels(self, tmp_path, capsys):
        path = fleet_doc_file(tmp_path, capsys)
        code = main(["timeline", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "fleet @" in out
        assert "fleet_power_w" in out
        assert "health_headroom_w" in out

    def test_channel_filter_and_ascii(self, tmp_path, capsys):
        path = fleet_doc_file(tmp_path, capsys)
        code = main(
            ["timeline", str(path),
             "--channel", "health_headroom_w", "--ascii"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "health_headroom_w" in out
        assert "fleet_power_w" not in out

    def test_csv_rows(self, tmp_path, capsys):
        path = fleet_doc_file(tmp_path, capsys)
        code = main(
            ["timeline", str(path), "--channel", "fleet_power_w", "--csv"]
        )
        out = capsys.readouterr().out
        assert code == 0
        header, *rows = out.splitlines()
        assert header == "workload,cap,channel,t_s,dt_s,mean,min,max"
        assert rows and all(r.split(",")[2] == "fleet_power_w" for r in rows)

    def test_unknown_channel_lists_available(self, tmp_path, capsys):
        path = fleet_doc_file(tmp_path, capsys)
        code = main(["timeline", str(path), "--channel", "power_w"])
        err = capsys.readouterr().err
        assert code == 2
        assert "no channel(s) ['power_w']" in err
        assert "fleet_power_w" in err
