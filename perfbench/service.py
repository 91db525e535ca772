"""service-unique and service-repeat: the experiment service as users run it.

``repro-powercap --rate-cache <tmp> serve --port 0 --db <tmp>`` runs in
its own process with every other setting at its default; the front end
that served the run is read from ``/healthz`` and reported.  One client
in the load generator's own thread drives it over one keep-alive
connection, in a closed loop: submit a job, poll ``GET /jobs/<id>``
every ``POLL_S`` until it is terminal, fetch ``GET /jobs/<id>/result``,
check it, submit the next.  A caller that waits for its result fits a
closed loop; an open loop at a fixed rate near capacity would turn host
drift into unbounded queueing.  A second client made every figure
spread more from run to run (see the README): on a host of a few
processors it mostly measures how the scheduler interleaves the two.

- ``service-unique``: every job is a new spec digest over the paper's
  caps, varied by cap subset and scale, with the spec seed fixed to the
  benchmark's seed so every rate is cached in set-up.  Every fifth spec
  of the sequence is a retry twin, the same spec POSTed twice back to
  back.  Simulation, serialization and the store's write path dominate.
- ``service-repeat``: every job is one of the digests set-up stored, the
  full cap grid of each application at each warm-up scale, read in turn:
  the POST answers DONE and the client fetches the result straight away,
  so the front end, admission, submission and the store's read path do
  all the work.  These documents all exceed one loopback segment;
  documents either side of 64 KB take paths about 40 ms apart (see the
  README), and a pool that straddled the line made the median flip
  between them.

Set-up starts the server and submits the full cap grid of each
application at the warm-up scales, up to the largest scale the timed
jobs use, so no gating is left for the timed phase to simulate; it fails
the run if the timed phase still sees a rate-cache miss or a shed
submission.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, Iterator, List, Optional

from repro.config import PAPER_POWER_CAPS_W
from repro.core.experiment import PowerCapExperiment
from repro.core.ratecache import RateCache
from repro.core.serialize import experiment_from_dict, experiment_to_dict
from repro.service.jobs import JobSpec
from repro.workloads import make_workload

from .common import (
    BenchError,
    Calibration,
    Tally,
    end_to_end,
    freeze_setup_state,
    keep_going,
    percentile,
    pid_peak_rss_mb,
    result,
    samples_needed,
)
from .layers import SELF_MS, per_layer_metrics
from .paper import model_error_pct, shape_failures
from .spans import Analyzed, check_layer_sum, write_chrome_trace

POLL_S = 0.005
#: Shortest wait between two calibration-kernel samples of a timed phase.
CALIBRATE_EVERY_S = 0.25
#: The server's peak RSS is read once this many timed jobs are done, the
#: fewest a run completes (its p90 needs them), so a faster service that
#: serves more jobs in a run does not read a higher peak for it.
RSS_AFTER_JOBS = samples_needed(90)
APPS = ("stereo", "sire")
#: The name each application's result document is keyed by.
APP_NAMES = {app: make_workload(app).name for app in APPS}
#: Job scales, 0.020 to 0.050 in steps of 0.001: up to the service's
#: default (``JobSpec.scale``, 0.05), and fine-grained so that job sizes
#: spread smoothly rather than in a few clusters, which put a few dozen
#: jobs of one scale at the p90 and made it jump between runs.
SCALES = tuple(k / 1000 for k in range(20, 51))
#: Full cap grids run in set-up.  The largest job scale is among them: a
#: run reaches every gating (cache and TLB configuration) that shorter
#: runs of the same caps reach, so its rates cover the smaller scales.
#: That held for every scale above and 15 seeds tried; a rate-cache miss
#: in the timed phase would fail the run.
WARM_SCALES = (0.02, 0.035, 0.05)
#: Every fifth spec of the sequence is a retry twin.
TWIN_EVERY = 5
SETUPS = 3
#: Unique jobs re-run in-process after the timed phase and compared.
VERIFY = 3
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0
JOB_TIMEOUT_S = 60.0


def cap_subsets() -> List[List[float]]:
    """Every non-empty subset of the paper's caps, in the paper's order (511 of them)."""
    caps = [float(c) for c in PAPER_POWER_CAPS_W]
    return [
        list(subset)
        for k in range(1, len(caps) + 1)
        for subset in itertools.combinations(caps, k)
    ]


def warmup_specs(seed: int) -> List[dict]:
    """The full cap grid of each application at each warm-up scale."""
    caps = [float(c) for c in PAPER_POWER_CAPS_W]
    return [
        {"workload": app, "caps_w": caps, "scale": scale, "seed": seed}
        for app in APPS
        for scale in WARM_SCALES
    ]


def job_specs(seed: int) -> Iterator[dict]:
    """All job specs of the timed shape, none a warm-up spec.

    Each round visits every (application, cap subset) once, in one fixed
    interleaved order, at the next scale of a fixed rotation; the
    benchmark's seed is the specs' simulation seed.  Every run therefore
    submits the same sequence of job shapes, so the same mix of result
    sizes, while the seed changes the digests and the simulated noise.
    """
    warm = [json.dumps(s, sort_keys=True) for s in warmup_specs(seed)]
    strata = [(app, caps) for app in APPS for caps in cap_subsets()]
    random.Random(0).shuffle(strata)
    for round_ in range(len(SCALES)):
        for i, (app, caps) in enumerate(strata):
            scale = SCALES[(i + round_) % len(SCALES)]
            spec = {"workload": app, "caps_w": caps, "scale": scale, "seed": seed}
            if json.dumps(spec, sort_keys=True) not in warm:
                yield spec


def runs_needed(spec: dict) -> int:
    return (len(spec["caps_w"]) + 1) * JobSpec.from_dict(spec).repetitions


def comparable(results: dict) -> dict:
    """A result document minus provenance fields that record how it ran."""
    out = {}
    for name, doc in results.items():
        doc = dict(doc)
        provenance = doc.pop("provenance", None) or {}
        doc["phenomena"] = provenance.get("phenomena")
        out[name] = doc
    return out


def in_process_results(spec: dict, rate_cache_path) -> dict:
    """The same spec run by ``PowerCapExperiment`` in this process."""
    job = JobSpec.from_dict(spec)
    experiment = PowerCapExperiment(
        [make_workload(job.workload, job.scale)],
        caps_w=job.caps_w,
        repetitions=job.repetitions,
        seed=job.seed,
        rate_cache=RateCache(rate_cache_path, mode="ro"),
    )
    docs = {name: experiment_to_dict(r) for name, r in experiment.run_all().items()}
    return json.loads(json.dumps(docs, sort_keys=True))


def parse_metrics(text: str) -> Dict[str, float]:
    """Prometheus text: each metric name to the sum over its labelled series."""
    out: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name_labels, _, value = line.rpartition(" ")
        name = name_labels.split("{", 1)[0]
        try:
            out[name] = out.get(name, 0.0) + float(value)
        except ValueError:
            continue
    return out


class Server:
    """One ``repro-powercap serve`` process on an ephemeral port."""

    def __init__(self, ctx, name: str, traced: bool) -> None:
        self.dir = ctx.tmp / name
        self.dir.mkdir(parents=True)
        self.rate_cache = self.dir / "rates.json"
        self.spans_path = self.dir / "spans.json"
        args = [
            "--rate-cache", str(self.rate_cache),
            "serve", "--port", "0", "--db", str(self.dir / "results.sqlite3"),
        ]
        if traced:
            cmd = [sys.executable, str(ctx.root / "perfbench" / "serve_traced.py"),
                   "--spans-out", str(self.spans_path), "--", *args]
        else:
            cmd = [sys.executable, "-m", "repro.cli", *args]
        env = dict(os.environ)  # run.py has stripped every REPRO_* switch
        env["PYTHONPATH"] = os.pathsep.join([str(ctx.root / "src"), str(ctx.root)])
        self._out = open(self.dir / "stdout.txt", "w")
        self._err = open(self.dir / "stderr.txt", "w")
        self.proc = subprocess.Popen(
            cmd, stdout=self._out, stderr=self._err, env=env, cwd=self.dir
        )
        try:
            self.host, self.port = self._wait_for_address()
            self.frontend = json.loads(self.get("/healthz")).get("frontend")
        except BaseException:
            self.stop()
            raise

    def _wait_for_address(self):
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            for line in (self.dir / "stdout.txt").read_text().splitlines():
                if "listening on http://" in line:
                    hostport = line.split("http://", 1)[1].strip().rstrip("/")
                    host, port = hostport.rsplit(":", 1)
                    return host, int(port)
            if self.proc.poll() is not None:
                break
            time.sleep(0.02)
        tail = (self.dir / "stderr.txt").read_text()[-2000:]
        raise BenchError(f"server did not start: {tail}")

    def get(self, path: str) -> bytes:
        """One GET on a fresh connection; anything but 200 is an error."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            body = resp.read()
        finally:
            conn.close()
        if resp.status != 200:
            raise BenchError(f"GET {path} returned {resp.status}")
        return body

    def metrics(self) -> Dict[str, float]:
        return parse_metrics(self.get("/metrics").decode())

    def peak_rss_mb(self) -> float:
        return pid_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """Graceful SIGTERM shutdown; killed if it overruns. Always waits."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._out.close()
        self._err.close()


class Client:
    """One keep-alive connection; records a span per request."""

    def __init__(self, server: Server, spans: list) -> None:
        self.conn = http.client.HTTPConnection(server.host, server.port, timeout=JOB_TIMEOUT_S)
        self.spans = spans

    def request(self, method: str, path: str, route: str, body: Optional[dict] = None):
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        t0 = time.perf_counter()
        self.conn.request(method, path, body=payload, headers=headers)
        resp = self.conn.getresponse()
        data = resp.read()
        t1 = time.perf_counter()
        self.spans.append((f"client:{route}", t0, t1, threading.get_ident(), {"path": path}))
        return resp.status, data, t1 - t0

    def close(self) -> None:
        self.conn.close()


class Job:
    """One submission's record as the client saw it."""

    def __init__(self, spec: dict) -> None:
        self.spec = spec
        self.t0 = 0.0
        self.t_done = 0.0
        self.submit_s = 0.0
        self.id: Optional[str] = None
        self.digest: Optional[str] = None
        self.state: Optional[dict] = None
        self.results: Optional[dict] = None
        self.size = 0
        self.error: Optional[str] = None


def run_group(client: Client, specs: List[dict], expect_done: bool, rng: random.Random) -> List[Job]:
    """Submit ``specs`` back to back, wait for each, fetch each result."""
    jobs = [Job(spec) for spec in specs]
    for job in jobs:
        job.t0 = time.perf_counter()
        status, body, job.submit_s = client.request("POST", "/jobs", "post_jobs", job.spec)
        if status != 201:
            job.error = f"POST /jobs returned {status}"
            continue
        job.state = json.loads(body)
        job.id, job.digest = job.state["id"], job.state["spec_digest"]
        if expect_done and job.state["state"] != "done":
            job.error = "a stored digest was not answered DONE at submission"
    for job in jobs:
        deadline = time.monotonic() + JOB_TIMEOUT_S
        # The first poll waits a random share of one poll cycle (the
        # interval plus this job's submit round trip), so completion
        # times are not aliased onto the client's request cadence.
        pause = rng.random() * (POLL_S + job.submit_s)
        while job.error is None and job.state["state"] in ("queued", "running"):
            if time.monotonic() > deadline:
                job.error = "job did not finish in time"
                break
            time.sleep(pause)
            pause = POLL_S
            status, body, _ = client.request("GET", f"/jobs/{job.id}", "get_job")
            if status != 200:
                job.error = f"GET /jobs/<id> returned {status}"
            else:
                job.state = json.loads(body)
        if job.error is None and job.state["state"] != "done":
            job.error = f"job ended {job.state['state']}: {job.state.get('error')}"
    for job in jobs:
        if job.error is not None:
            continue
        status, body, _ = client.request("GET", f"/jobs/{job.id}/result", "get_result")
        job.t_done = time.perf_counter()
        if status != 200:
            job.error = f"GET /jobs/<id>/result returned {status}"
            continue
        job.size = len(body)
        job.results = json.loads(body)["results"]
        if set(job.results) != {APP_NAMES[job.spec["workload"]]}:
            job.error = "result document holds the wrong application"
    if len(jobs) == 2 and jobs[0].spec == jobs[1].spec and all(j.error is None for j in jobs):
        a, b = (json.dumps(j.results, sort_keys=True) for j in jobs)
        if a != b:
            jobs[1].error = "retry twins returned different results"
    return jobs


def complete_each(server: Server, specs: List[dict]) -> List[Job]:
    """Set-up helper: run each spec to completion, one after another."""
    client = Client(server, [])
    try:
        jobs = []
        for spec in specs:
            jobs.extend(run_group(client, [spec], False, random.Random(0)))
    finally:
        client.close()
    bad = [j.error for j in jobs if j.error]
    if bad:
        raise BenchError(f"set-up job failed: {bad[0]}")
    return jobs


class Phase:
    """One timed phase against one server."""

    def __init__(self, server: Server) -> None:
        self.server = server
        self.jobs: List[Job] = []
        self.spans: list = []
        self.t_start = self.t_end = 0.0
        #: Seconds spent on jobs: the phase minus the calibration kernel.
        self.busy_s = 0.0
        #: The server's peak RSS after set-up and ``RSS_AFTER_JOBS`` jobs.
        self.rss_mb: Optional[float] = None
        self.metrics0: Dict[str, float] = {}
        self.metrics1: Dict[str, float] = {}

    def delta(self, name: str) -> float:
        return self.metrics1.get(name, 0.0) - self.metrics0.get(name, 0.0)


def set_up(ctx, name: str, traced: bool):
    """Start a server and warm it; returns (server, stored jobs, seconds)."""
    t0 = time.perf_counter()
    server = Server(ctx, name, traced)
    try:
        stored = complete_each(server, warmup_specs(ctx.seed))
    except BaseException:
        server.stop()
        raise
    return server, stored, time.perf_counter() - t0


def timed_phase(ctx, server: Server, seconds: float, needed: int, repeat: bool,
                pool: List[Job], calib: Calibration) -> Phase:
    """One client in this thread, one keep-alive connection, a closed loop.

    The calibration kernel runs between jobs, at most every
    ``CALIBRATE_EVERY_S``, never beside a request; the phase's busy time
    leaves it out.
    """
    phase = Phase(server)
    rng = random.Random(ctx.seed)
    # Repeat jobs cycle through the pool in a seeded order, so every
    # stored document is read equally often in every run.
    picks = rng.sample(range(len(pool)), len(pool))
    # Twins sit at fixed places in the spec sequence.
    unique = enumerate(job_specs(ctx.seed))
    phase.metrics0 = server.metrics()
    freeze_setup_state()
    client = Client(server, phase.spans)
    try:
        phase.t_start = calibrated = time.perf_counter()
        while keep_going(phase.t_start, seconds, len(phase.jobs), needed):
            if repeat:
                specs = [pool[picks[len(phase.jobs) % len(pool)]].spec]
            else:
                index, spec = next(unique, (None, None))
                if spec is None:
                    raise BenchError("ran out of distinct job specs")
                specs = [spec, spec] if index % TWIN_EVERY == TWIN_EVERY - 1 else [spec]
            t0 = time.perf_counter()
            phase.jobs.extend(run_group(client, specs, repeat, rng))
            t1 = time.perf_counter()
            phase.busy_s += t1 - t0
            if phase.rss_mb is None and len(phase.jobs) >= RSS_AFTER_JOBS:
                phase.rss_mb = server.peak_rss_mb()
            if t1 - calibrated >= CALIBRATE_EVERY_S:
                calib.sample()
                calibrated = time.perf_counter()
        phase.t_end = time.perf_counter()
    finally:
        client.close()
    phase.metrics1 = server.metrics()
    misses = phase.delta("repro_engine_rate_cache_misses_total")
    sheds = phase.delta("repro_admission_shed_total")
    if misses or sheds:
        raise BenchError(
            f"timed phase saw {misses:g} rate-cache misses and {sheds:g} shed submissions"
        )
    return phase


def tally_jobs(tally: Tally, phase: Phase, pool: List[Job]) -> None:
    stored = {j.digest: json.dumps(j.results, sort_keys=True) for j in pool}
    for job in phase.jobs:
        if job.error is None and stored and json.dumps(job.results, sort_keys=True) != stored[job.digest]:
            job.error = "stored result changed between reads"
        if job.error is None:
            tally.ok()
        else:
            tally.fail(job.error)


def paper_check(tally: Tally, stored: List[Job]) -> float:
    """Table II's shape on the stored full grids at the largest scale; the model error.

    Set-up stored the uncapped baseline plus the nine caps for both paper
    applications, the shape of the paper's Table II.  A shape criterion
    that fails is a failed operation.
    """
    sweeps = {
        name: experiment_from_dict(doc)
        for job in stored
        if job.spec["scale"] == max(WARM_SCALES)
        for name, doc in job.results.items()
    }
    for failure in shape_failures(sweeps):
        tally.fail(failure)
    return model_error_pct(sweeps)


def verify_sample(ctx, tally: Tally, phase: Phase) -> int:
    """Re-run a seeded sample of fresh jobs in-process; a mismatch is a failed job."""
    fresh = [j for j in phase.jobs if j.error is None and not j.state.get("deduplicated")]
    sample = random.Random(ctx.seed).sample(fresh, min(VERIFY, len(fresh)))
    for job in sample:
        expected = in_process_results(job.spec, phase.server.rate_cache)
        if comparable(expected) != comparable(job.results):
            tally.fail_counted("result differs from an in-process run of the same spec")
    return len(sample)


def _latency(phase: Phase) -> List[float]:
    return [j.t_done - j.t0 for j in phase.jobs if j.error is None]


def run(ctx) -> dict:
    repeat = ctx.workload == "service-repeat"
    tally, calib = Tally(), Calibration()
    if ctx.trace:
        return run_traced(ctx, repeat, tally, calib)

    setups = []
    server = None
    try:
        for i in range(SETUPS):
            if server is not None:
                server.stop()
            server, stored, seconds = set_up(ctx, f"setup{i}", False)
            setups.append(seconds)
        pool = stored if repeat else []
        phase = timed_phase(ctx, server, ctx.seconds, samples_needed(90), repeat, pool, calib)
    finally:
        if server is not None:
            server.stop()
    error_pct = paper_check(tally, stored)
    tally_jobs(tally, phase, pool)
    verified = 0 if repeat else verify_sample(ctx, tally, phase)
    latency = _latency(phase)
    submits = [j.submit_s for j in phase.jobs]
    ctx.summary.update(
        ops=len(phase.jobs),
        frontend=server.frontend,
        setup_samples_s=setups,
        submit_p50_ms=percentile(submits, 50) * 1e3,
        submit_p90_ms=percentile(submits, 90) * 1e3,
        verified_in_process=verified,
        model_error_pct=error_pct,
        engine_runs_per_job=phase.delta("repro_engine_runs_total") / len(phase.jobs),
        calibration=calib.summary(),
        failures=dict(tally.reasons),
    )
    return result(
        tally,
        end_to_end(
            {
                "throughput_per_s": len(latency) / phase.busy_s,
                "latency_p50_ms": percentile(latency, 50) * 1e3,
                "latency_p90_ms": percentile(latency, 90) * 1e3,
                "setup_s": statistics.median(setups),
                "peak_rss_mb": phase.rss_mb,
            }
        ),
    )


def run_traced(ctx, repeat: bool, tally: Tally, calib: Calibration) -> dict:
    """Half the time on a plain server, half on a traced one; per-layer metrics."""
    half = ctx.seconds / 2
    phases = {}
    pools = {}
    for traced in (False, True):
        server, stored, _ = set_up(ctx, f"traced{int(traced)}", traced)
        pools[traced] = stored if repeat else []
        if traced:
            error_pct = paper_check(tally, stored)
        try:
            phases[traced] = timed_phase(
                ctx, server, half, samples_needed(90), repeat, pools[traced], calib
            )
        finally:
            server.stop()
        tally_jobs(tally, phases[traced], pools[traced])
    plain, traced = phases[False], phases[True]
    with open(traced.server.spans_path) as fh:
        dumped = json.load(fh)
    server_spans = [tuple(s) for s in dumped["spans"]]
    analyzed = Analyzed(server_spans)
    window = (traced.t_start, traced.t_end)
    setup_window = (float("-inf"), traced.t_start)
    ok_jobs = [j for j in traced.jobs if j.error is None]
    n = len(ok_jobs)
    layer = analyzed.layer_self_s(window)

    def spans_of(name, win=window):
        return [analyzed.spans[i] for i in analyzed.calls(name, win)]

    def mean_ms(spans):
        return statistics.fmean(s[2] - s[1] for s in spans) * 1e3 if spans else None

    def own_per_job_ms(name):
        """Per job, the time spent in ``name``'s layer inside its calls."""
        calls = analyzed.calls(name, window)
        return analyzed.own_s(calls) * 1e3 / n if calls else None

    def self_per_job_ms(layer_name):
        return layer[layer_name] * 1e3 / n if layer_name in layer else None

    # Engine counters of the server, per job.
    engine = {
        name: traced.delta(f"repro_engine_{name}_total") / n
        for name in ("quanta", "fast_forward", "block_quanta", "batch_quanta")
    }
    dispatch = [s for s in spans_of("service.routes:dispatch") if s[4].get("route") != "other"]
    by_route = {r: [s for s in dispatch if s[4]["route"] == r] for r in ("post_jobs", "get_job", "get_result")}
    client_requests = [s for s in traced.spans if s[0] in ("client:post_jobs", "client:get_job", "client:get_result")]
    client_s = sum(s[2] - s[1] for s in client_requests)
    server_s = sum(s[2] - s[1] for s in dispatch)
    gets = [s[4].get("hit") for s in spans_of("core.ratecache:get")]
    runs_needed_total = sum(
        runs_needed(spec) for spec in {j.digest: j.spec for j in ok_jobs}.values()
    )
    fresh = [j for j in ok_jobs if j.state.get("started_at") is not None and not j.state.get("deduplicated")]
    store = {m: spans_of(f"service.store:{m}") for m in ("has_result", "record_job", "put_result", "get_result_dict")}
    store_ms = {m: own_per_job_ms(f"service.store:{m}") for m in store}
    setup_layer = analyzed.layer_self_s(setup_window)
    submits = [j.submit_s for j in plain.jobs]
    values = {
        "core.experiment.run_all_ms": mean_ms(spans_of("core.experiment:run_all")),
        "core.serialize.to_dict_ms": own_per_job_ms("core.serialize:experiment_to_dict"),
        "core.serialize.result_kb": statistics.fmean(j.size for j in ok_jobs) / 1024.0 if ok_jobs else None,
        "core.ratecache.self_ms": self_per_job_ms("core.ratecache"),
        "core.ratecache.hit_ratio": sum(bool(h) for h in gets) / len(gets) if gets else None,
        "core.runner.self_ms": self_per_job_ms("core.runner"),
        "core.runner.quanta": engine["quanta"],
        "core.runner.fast_forwards": engine["fast_forward"],
        "core.blockstep.block_quanta": engine["block_quanta"],
        "core.blockstep.engagement": (
            engine["block_quanta"] / engine["quanta"] if engine["quanta"] else None
        ),
        "core.batchstep.self_ms": self_per_job_ms("core.batchstep"),
        "core.batchstep.batch_quanta": engine["batch_quanta"],
        "obs.timeseries.self_ms": self_per_job_ms("obs.timeseries"),
        "obs.timeseries.samples": (
            len(spans_of("obs.timeseries:record")) + len(spans_of("obs.timeseries:commit_block"))
        ) / n or None,
        "obs.detect.self_ms": self_per_job_ms("obs.detect"),
        "obs.provenance.self_ms": self_per_job_ms("obs.provenance"),
        "core.experiment.model_error_pct": error_pct,
        "mem.fastsim.self_ms": setup_layer["mem.fastsim"] * 1e3 if "mem.fastsim" in setup_layer else None,
        "mem.fastsim.traces": len(analyzed.calls("simulate_trace", setup_window)) or None,
        "workloads.build_slice_ms": analyzed.duration_s(analyzed.calls("workloads:build_slice", setup_window)) * 1e3 or None,
        "service.frontend.overhead_ms": (client_s - server_s) * 1e3 / len(dispatch) if dispatch else None,
        "service.submit.p50_ms": percentile(submits, 50) * 1e3,
        "service.submit.p90_ms": percentile(submits, 90) * 1e3,
        "service.routes.post_jobs_ms": mean_ms(by_route["post_jobs"]),
        "service.routes.get_job_ms": mean_ms(by_route["get_job"]),
        "service.routes.get_result_ms": mean_ms(by_route["get_result"]),
        "service.routes.requests_per_job": len(dispatch) / n if dispatch else None,
        "service.admission.admit_us": (mean_ms(spans_of("service.admission:admit")) or 0) * 1e3 or None,
        "service.admission.shed": traced.delta("repro_admission_shed_total"),
        "service.scheduler.submit_ms": mean_ms(spans_of("service.scheduler:submit")),
        "service.scheduler.queue_wait_ms": statistics.fmean(
            (j.state["started_at"] - j.state["created_at"]) * 1e3 for j in fresh) if fresh else None,
        "service.scheduler.run_ms": statistics.fmean(
            (j.state["finished_at"] - j.state["started_at"]) * 1e3 for j in fresh) if fresh else None,
        "service.scheduler.sims_per_digest": (
            traced.delta("repro_engine_runs_total") / runs_needed_total if fresh else None
        ),
        # The store's own time: put_result without the experiment_to_dict it calls.
        "service.store.has_result_ms": store_ms["has_result"],
        "service.store.record_job_ms": store_ms["record_job"],
        "service.store.put_result_ms": store_ms["put_result"],
        "service.store.get_result_ms": store_ms["get_result_dict"],
        "service.store.has_result.calls": len(store["has_result"]) / n or None,
        "service.store.record_job.calls": len(store["record_job"]) / n or None,
        "service.store.put_result.calls": len(store["put_result"]) / n or None,
        "service.store.get_result.calls": len(store["get_result_dict"]) / n or None,
        "trace.overhead_pct": (
            statistics.median(_latency(traced)) / statistics.median(_latency(plain)) - 1.0
        ) * 100.0,
    }
    check_layer_sum(values, SELF_MS[ctx.workload], statistics.fmean(_latency(traced)) * 1e3)
    write_chrome_trace(
        ctx.trace_dir / f"{ctx.workload}-seed{ctx.seed}.json",
        [
            (os.getpid(), "perfbench load generator", traced.spans),
            (dumped["pid"], "repro-powercap serve", server_spans),
        ],
    )
    ctx.summary.update(
        ops=len(plain.jobs) + len(traced.jobs),
        frontend=traced.server.frontend,
        calibration=calib.summary(),
        failures=dict(tally.reasons),
    )
    return result(tally, per_layer_metrics(ctx.workload, values))
