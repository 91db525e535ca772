"""The ``trends`` and ``compare`` CLI commands."""

from __future__ import annotations

import json
import warnings

import pytest

from repro.cli import build_parser, main
from repro.obs.archive import ObsArchive


def sweep_doc(runs_per_s=100.0):
    return {
        "schema": 2,
        "benchmark": "table2-sweep",
        "machine": {"cpu_count": 4},
        "parameters": {},
        "sweep": {
            "jobs1": {"wall_s": 10.0, "runs_per_s": runs_per_s},
            "jobs4": {"wall_s": 4.0, "runs_per_s": 2.5 * runs_per_s},
            "parallel_speedup": 2.5,
        },
    }


@pytest.fixture()
def archive_path(tmp_path):
    """An archive holding an injected 25% runs/s regression."""
    path = tmp_path / "archive.sqlite3"
    archive = ObsArchive(path)
    for i, rate in enumerate([100.0] * 5 + [75.0] * 3):
        archive.ingest_bench(
            sweep_doc(runs_per_s=rate), ts=1000.0 + i, run_id=f"r{i}"
        )
    return str(path)


class TestParser:
    def test_trends_defaults(self):
        args = build_parser().parse_args(["trends"])
        assert args.archive == "repro-archive.sqlite3"
        assert args.window == 3 and not args.check
        assert args.format == "table"

    def test_compare_positional_runs(self):
        args = build_parser().parse_args(["compare", "r0", "r7"])
        assert args.a == "r0" and args.b == "r7"

    def test_serve_archive_flags(self):
        args = build_parser().parse_args(
            ["serve", "--archive", "a.sqlite3", "--archive-period", "2.5"]
        )
        assert args.archive == "a.sqlite3"
        assert args.archive_period == 2.5

    def test_fleet_archive_flag(self):
        args = build_parser().parse_args(
            ["fleet", "--archive", "a.sqlite3"]
        )
        assert args.archive == "a.sqlite3"


class TestTrendsCommand:
    def test_table_reports_regression(self, archive_path, capsys):
        code = main(["trends", "--archive", archive_path])
        out = capsys.readouterr().out
        assert code == 0
        assert "runs_per_s" in out
        assert "regression" in out
        assert "↓25.0%" in out
        assert "3 regression(s)" in out  # jobs1, jobs4, and the headline

    def test_check_exits_nonzero_on_regression(self, archive_path, capsys):
        code = main(["trends", "--archive", archive_path, "--check"])
        captured = capsys.readouterr()
        assert code == 2
        assert "regression" in captured.out  # the report still prints
        assert "regressed beyond threshold" in captured.err

    def test_check_passes_on_healthy_history(self, tmp_path, capsys):
        path = tmp_path / "healthy.sqlite3"
        archive = ObsArchive(path)
        for i in range(6):
            archive.ingest_bench(
                sweep_doc(runs_per_s=100.0), ts=1000.0 + i, run_id=f"r{i}"
            )
        code = main(["trends", "--archive", str(path), "--check"])
        assert code == 0
        assert "0 regression(s)" in capsys.readouterr().out

    def test_json_format(self, archive_path, capsys):
        code = main(
            ["trends", "--archive", archive_path, "--format", "json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["regressions"] == [
            "jobs1.runs_per_s", "jobs4.runs_per_s", "runs_per_s"
        ]
        by_series = {t["series"]: t for t in doc["trends"]}
        assert by_series["runs_per_s"]["verdict"] == "regression"
        assert by_series["runs_per_s"]["shift"] == pytest.approx(-0.25)

    def test_series_filter(self, archive_path, capsys):
        code = main(
            ["trends", "--archive", archive_path, "--series", "jobs4.runs_per_s"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "jobs4.runs_per_s" in out
        assert "parallel_speedup" not in out

    def test_ingest_creates_archive(self, tmp_path, capsys):
        bench = tmp_path / "BENCH_sweep.json"
        bench.write_text(json.dumps(sweep_doc()))
        path = tmp_path / "fresh.sqlite3"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            code = main(
                ["trends", "--archive", str(path), "--ingest", str(bench)]
            )
        assert code == 0
        assert path.is_file()
        # The ingested document is closed once read.
        assert not [w for w in caught if w.category is ResourceWarning]
        runs = ObsArchive(path).runs(kind="bench_sweep")
        assert len(runs) == 1

    def test_ingest_unreadable_file_fails(self, tmp_path, capsys):
        path = tmp_path / "fresh.sqlite3"
        code = main(
            ["trends", "--archive", str(path), "--ingest",
             str(tmp_path / "missing.json")]
        )
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_save_and_use_baseline(self, archive_path, capsys):
        code = main(
            ["trends", "--archive", archive_path, "--save-baseline",
             "golden"]
        )
        assert code == 0
        assert "baseline 'golden' saved" in capsys.readouterr().out
        code = main(
            ["trends", "--archive", archive_path, "--baseline", "golden"]
        )
        out = capsys.readouterr().out
        assert code == 0
        # The baseline pins the regressed level, so history is stable
        # against it.
        assert "0 regression(s)" in out

    def test_missing_archive_is_a_clear_error(self, tmp_path, capsys):
        code = main(["trends", "--archive", str(tmp_path / "none.sqlite3")])
        assert code == 2
        assert "no archive at" in capsys.readouterr().err


class TestCompareCommand:
    def test_table_output(self, archive_path, capsys):
        code = main(["compare", "r0", "r7", "--archive", archive_path])
        out = capsys.readouterr().out
        assert code == 0
        assert "compare r0 (bench_sweep) → r7 (bench_sweep)" in out
        assert "runs_per_s" in out
        assert "(-25.0%)" in out

    def test_json_output(self, archive_path, capsys):
        code = main(
            ["compare", "r0", "r7", "--archive", archive_path,
             "--format", "json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["series"]["runs_per_s"]["delta"] == pytest.approx(-25.0)

    def test_unknown_run_is_an_error(self, archive_path, capsys):
        code = main(["compare", "r0", "ghost", "--archive", archive_path])
        assert code == 2
        assert "no archived run" in capsys.readouterr().err
