"""Provenance manifests: contents, round-trips, inspect rendering."""

from __future__ import annotations

import json
import threading
import time
from dataclasses import replace

import pytest

from repro.config import sandy_bridge_config
from repro.core.experiment import PowerCapExperiment
from repro.core.serialize import (
    experiment_from_dict,
    experiment_to_dict,
    load_experiment,
    save_experiment,
)
from repro.obs.provenance import (
    PROVENANCE_SCHEMA_VERSION,
    build_provenance,
    config_digest,
    render_provenance,
)
from repro.service.store import ResultStore
from repro.workloads import make_workload
from repro.workloads.stereo import StereoMatchingWorkload


def scaled(workload, factor=0.005):
    workload._spec = replace(
        workload.spec,
        total_instructions=int(workload.spec.total_instructions * factor),
    )
    return workload


@pytest.fixture(scope="module")
def swept():
    """One tiny sweep with provenance attached (module-cached)."""
    workload = scaled(StereoMatchingWorkload())
    experiment = PowerCapExperiment(
        [workload],
        caps_w=(150.0,),
        repetitions=1,
        slice_accesses=60_000,
    )
    return experiment.run_workload(workload)


class TestManifest:
    def test_required_keys(self, swept):
        manifest = swept.provenance
        assert manifest is not None
        for key in (
            "schema",
            "package_version",
            "git",
            "created_at",
            "config_digest",
            "workload",
            "seed",
            "caps_w",
            "repetitions",
            "slice_accesses",
            "rate_cache",
            "phase_seconds",
        ):
            assert key in manifest, key
        assert manifest["schema"] == PROVENANCE_SCHEMA_VERSION
        assert manifest["caps_w"] == [150.0]
        assert manifest["repetitions"] == 1
        assert manifest["slice_accesses"] == 60_000
        assert manifest["workload"]["type"] == "StereoMatchingWorkload"
        assert "total_instructions" in manifest["workload"]["spec"]

    def test_phase_seconds_cover_the_sweep(self, swept):
        phases = swept.provenance["phase_seconds"]
        # The sweep phase dominates; run and simulate_trace nest in it.
        assert phases.get("sweep", 0.0) > 0.0
        assert phases.get("run", 0.0) > 0.0
        assert phases["run"] <= phases["sweep"] + 1e-3

    def test_concurrent_sweeps_count_only_their_own_spans(self):
        barrier = threading.Barrier(2)
        walls = {}

        def sweep(name):
            workload = scaled(make_workload(name))
            experiment = PowerCapExperiment(
                [workload], caps_w=(150.0,), repetitions=1,
                slice_accesses=60_000,
            )
            barrier.wait()
            t0 = time.perf_counter()
            result = experiment.run_workload(workload)
            walls[name] = (result, time.perf_counter() - t0)

        threads = [
            threading.Thread(target=sweep, args=(name,))
            for name in ("stereo", "sire")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert set(walls) == {"stereo", "sire"}
        for name, (result, wall) in walls.items():
            sweep_s = result.provenance["phase_seconds"]["sweep"]
            assert sweep_s <= wall + 1e-3, name

    def test_config_digest_is_stable(self):
        config = sandy_bridge_config()
        assert config_digest(config) == config_digest(sandy_bridge_config())
        assert len(config_digest(config)) == 32

    def test_rate_cache_block(self, tmp_path):
        from repro.core.ratecache import RateCache

        cache = RateCache(tmp_path / "rates.json")
        manifest = build_provenance(
            config=sandy_bridge_config(),
            workload=scaled(StereoMatchingWorkload()),
            seed=7,
            caps_w=(150.0,),
            repetitions=1,
            slice_accesses=1000,
            rate_cache=cache,
        )
        block = manifest["rate_cache"]
        assert block["path"].endswith("rates.json")
        assert block["hits"] == 0
        assert block["misses"] == 0
        assert block["entries"] == 0

    def test_manifest_is_json_normalised(self):
        manifest = build_provenance(
            config=sandy_bridge_config(),
            workload=scaled(StereoMatchingWorkload()),
            seed=7,
            caps_w=(150.0, 140.0),
            repetitions=2,
            slice_accesses=1000,
        )
        # Tuples were converted up front: the dict round-trips equal.
        assert json.loads(json.dumps(manifest)) == manifest


class TestRoundTrips:
    def test_serialize_round_trip(self, swept):
        restored = experiment_from_dict(experiment_to_dict(swept))
        assert restored.provenance == swept.provenance
        assert restored == swept

    def test_file_round_trip(self, swept, tmp_path):
        path = tmp_path / "result.json"
        save_experiment(swept, path)
        assert load_experiment(path) == swept

    def test_documents_without_provenance_still_load(self, swept):
        doc = experiment_to_dict(swept)
        doc.pop("provenance")
        assert experiment_from_dict(doc).provenance is None

    def test_sqlite_store_round_trip(self, swept, tmp_path):
        store = ResultStore(tmp_path / "store.sqlite3")
        store.put_result(
            "digest-1", {swept.workload: experiment_to_dict(swept)}
        )
        restored = store.get_result("digest-1")[swept.workload]
        assert restored.provenance == swept.provenance
        assert restored == swept


class TestRendering:
    def test_render_contains_key_facts(self, swept):
        text = render_provenance(swept.provenance, title="StereoMatching:")
        assert "StereoMatching:" in text
        assert "config_digest:" in text
        assert "phase_seconds:" in text
        assert "seed:" in text

    def test_render_handles_missing_manifest(self):
        text = render_provenance(None, title="x:")
        assert "(no provenance recorded)" in text


class TestInspectCommand:
    def test_inspect_result_file(self, swept, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "result.json"
        save_experiment(swept, path)
        assert main(["inspect", str(path)]) == 0
        out = capsys.readouterr().out
        assert "config_digest:" in out
        assert "phase_seconds:" in out

    def test_inspect_stored_job(self, swept, tmp_path, capsys):
        from repro.cli import main
        from repro.service.jobs import Job, JobSpec

        db = tmp_path / "svc.sqlite3"
        store = ResultStore(db)
        job = Job(spec=JobSpec(workload="stereo", caps_w=(150.0,)))
        store.record_job(job)
        store.put_result(
            job.spec_digest, {swept.workload: experiment_to_dict(swept)}
        )
        assert main(["inspect", job.id, "--db", str(db)]) == 0
        out = capsys.readouterr().out
        assert job.id in out
        assert "config_digest:" in out

    def test_inspect_unknown_target(self, tmp_path, capsys):
        from repro.cli import main

        db = tmp_path / "svc.sqlite3"
        ResultStore(db)
        assert main(["inspect", "no-such-job", "--db", str(db)]) == 2
        assert "neither a result file nor a job id" in capsys.readouterr().err

    def test_inspect_never_creates_a_store(self, tmp_path):
        from repro.cli import main

        db = tmp_path / "absent.sqlite3"
        assert main(["inspect", "whatever", "--db", str(db)]) == 2
        assert not db.exists()
