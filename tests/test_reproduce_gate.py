"""``scripts/reproduce.py`` is a gate: a diverging criterion fails it.

CI runs the script at its canonical settings and relies on the exit
status, so a run whose report says DIVERGES must exit non-zero — and
must still write the report, which is what a reader inspects.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "reproduce.py"


def load_script():
    spec = importlib.util.spec_from_file_location("reproduce_script", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_diverging_criterion_exits_1_after_writing(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script adds src
    reproduce = load_script()
    # A report without a knee makes the amenability criterion diverge
    # whatever the model measures.
    monkeypatch.setattr(
        reproduce,
        "characterize_amenability",
        lambda sweep, limit: SimpleNamespace(knee_cap_w=None),
    )
    out = tmp_path / "EXPERIMENTS.md"
    code = reproduce.main(
        ["--scale", "0.005", "--reps", "1", "--out", str(out)]
    )
    assert code == 1
    report = out.read_text()
    line = next(l for l in report.splitlines() if "more amenable" in l)
    assert line.endswith("**DIVERGES**")
