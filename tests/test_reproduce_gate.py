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

import numpy as np

from repro.workloads.stride import StrideBenchmark, StrideResult

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


#: Uncapped 64 B-stride access times (ns) with the L2 edge erased:
#: 512K reads like 256K, as if L2 held both.
FLAT_L2_NS = {
    16 << 10: 1.5, 32 << 10: 1.5, 64 << 10: 3.5, 128 << 10: 3.5,
    256 << 10: 3.5, 512 << 10: 3.5, 4 << 20: 9.3, 16 << 20: 9.3,
    48 << 20: 46.4,
}


class FlatL2Stride(StrideBenchmark):
    """Reads :data:`FLAT_L2_NS` uncapped, three times slower capped."""

    def run(self, gating=None):
        grid = np.array([[FLAT_L2_NS[size]] for size in self.sizes])
        return StrideResult(self.sizes, self.strides, grid)

    def run_capped(self, cap_w, rng, **kwargs):
        uncapped = self.run()
        return StrideResult(
            self.sizes, self.strides, 3.0 * uncapped.access_time_ns
        )


def test_flat_l2_edge_diverges_f3(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    reproduce = load_script()
    monkeypatch.setattr(reproduce, "StrideBenchmark", FlatL2Stride)
    out = tmp_path / "EXPERIMENTS.md"
    code = reproduce.main(
        ["--scale", "0.005", "--reps", "1", "--out", str(out)]
    )
    assert code == 1
    report = out.read_text()
    line = next(l for l in report.splitlines() if "F3 capacity edges" in l)
    assert "**DIVERGES**" in line
