"""Persistent observability archive: metrics history and run records.

Every observability surface built so far is ephemeral — ``/metrics``
is a point-in-time scrape, timelines live inside one result document,
and the sweep benchmark's ``BENCH_sweep.json`` is overwritten in place.
The paper's core claim is a *relationship over time* (how per-core
performance degrades as DCM tightens the cap), and tuning the
reproduction at scale needs the same longitudinal view of itself:
throughput across commits, phase latencies across runs, fleet health
across configurations.  This module is that durable substrate — a
stdlib-SQLite warehouse the service, the CLI, the fleet engine, and
the sweep benchmark all write into:

- **metric snapshots** — :class:`MetricsRecorder` scrapes the live
  registries on a background thread and lands each series as a
  duration-weighted interval sample, so history survives restarts and
  retention can decimate 2× with the exact-integral contract of
  :class:`~repro.obs.timeseries.SeriesChannel`;
- **run records** — one distilled row set per completed run (service
  jobs at the scheduler's completion hook, ``fleet --archive`` runs,
  ingested ``BENCH_sweep.json`` documents):
  scalar series like ``runs_per_s``, ``phase.<name>_s``, per-cap
  execution seconds, detector counts;
- **fleet-health windows** — :meth:`health_sink` plugs into
  :class:`~repro.fleet.health.FleetHealth`'s window flushes so rack
  rollups accumulate across runs;
- **named baselines + a trend engine** — :func:`detect_trends` flags
  median-shift drift per series against a named baseline (or the
  history head), with direction-aware thresholds, powering
  ``repro-powercap trends --check`` and ``GET /metrics/history`` /
  ``GET /runs/compare`` on the service API.

Connections are opened per call with a busy timeout, so one archive
file is safe to share between the recorder thread, scheduler workers,
and HTTP handler threads.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigError, SimulationError
from .logging import get_logger
from .timeseries import SeriesChannel, SeriesPoint

__all__ = [
    "ARCHIVE_SCHEMA_VERSION",
    "DEFAULT_SNAPSHOT_PERIOD_S",
    "DEFAULT_SNAPSHOT_RETENTION",
    "ObsArchive",
    "MetricsRecorder",
    "TrendRule",
    "Trend",
    "DEFAULT_TREND_RULES",
    "rule_for_series",
    "detect_trends",
    "distill_experiment_doc",
    "distill_fleet_doc",
]

ARCHIVE_SCHEMA_VERSION = 1

#: Default seconds between background metric snapshots.
DEFAULT_SNAPSHOT_PERIOD_S = 5.0

#: Per-series snapshot rows kept before retention decimates 2×.
DEFAULT_SNAPSHOT_RETENTION = 512

_log = get_logger("obs.archive")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);

CREATE TABLE IF NOT EXISTS metric_history (
    series TEXT NOT NULL,
    t_s    REAL NOT NULL,
    dt_s   REAL NOT NULL,
    mean   REAL NOT NULL,
    vmin   REAL NOT NULL,
    vmax   REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_metric_history
    ON metric_history (series, t_s);

CREATE TABLE IF NOT EXISTS runs (
    run_id    TEXT PRIMARY KEY,
    kind      TEXT NOT NULL,
    ts        REAL NOT NULL,
    source    TEXT,
    meta_json TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_runs_kind ON runs (kind, ts);

CREATE TABLE IF NOT EXISTS run_series (
    run_id TEXT NOT NULL,
    series TEXT NOT NULL,
    value  REAL NOT NULL,
    PRIMARY KEY (run_id, series)
);
CREATE INDEX IF NOT EXISTS idx_run_series ON run_series (series);

CREATE TABLE IF NOT EXISTS health_windows (
    run_id           TEXT NOT NULL,
    t_s              REAL NOT NULL,
    dt_s             REAL NOT NULL,
    headroom_w       REAL NOT NULL,
    capfloor_frac    REAL NOT NULL,
    slo_debt_rate_w  REAL NOT NULL,
    escalation_level REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_health_windows
    ON health_windows (run_id, t_s);

CREATE TABLE IF NOT EXISTS baselines (
    name   TEXT NOT NULL,
    series TEXT NOT NULL,
    value  REAL NOT NULL,
    ts     REAL NOT NULL,
    PRIMARY KEY (name, series)
);
"""


class ObsArchive:
    """SQLite-backed warehouse for longitudinal observability data."""

    def __init__(self, path: "str | os.PathLike") -> None:
        self._path = str(path)
        if Path(self._path).is_dir():
            raise ConfigError(f"archive path is a directory: {self._path}")
        with self._connect() as conn:
            conn.executescript(_SCHEMA)
            row = conn.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
            if row is None:
                conn.execute(
                    "INSERT INTO meta (key, value) VALUES (?, ?)",
                    ("schema_version", str(ARCHIVE_SCHEMA_VERSION)),
                )
            elif int(row["value"]) != ARCHIVE_SCHEMA_VERSION:
                raise ConfigError(
                    f"archive {self._path} has schema {row['value']}, "
                    f"this build writes {ARCHIVE_SCHEMA_VERSION}"
                )

    @property
    def path(self) -> str:
        """Location of the archive database file."""
        return self._path

    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(self._path, timeout=30.0)
        conn.row_factory = sqlite3.Row
        return conn

    # ------------------------------------------------------------------
    # Metric snapshots
    # ------------------------------------------------------------------

    def record_snapshot(
        self,
        samples: "Sequence[Tuple[str, Dict[str, str], float]]",
        ts: Optional[float] = None,
        dt_s: float = 0.0,
    ) -> int:
        """Land one scrape as interval samples; returns rows written.

        ``samples`` is the ``(name, labels, value)`` shape the metric
        registries emit; labelled samples flatten into one series per
        label combination (``repro_jobs{state=done}``).  ``dt_s`` is
        the time this scrape covers (the recorder passes the gap since
        its previous scrape), so series integrate exactly like
        telemetry channels and retention can decimate without losing
        the integral.
        """
        now = time.time() if ts is None else float(ts)
        rows = [
            (flatten_series_name(name, labels), now, float(dt_s),
             float(value), float(value), float(value))
            for name, labels, value in samples
        ]
        if not rows:
            return 0
        with self._connect() as conn:
            conn.executemany(
                "INSERT INTO metric_history "
                "(series, t_s, dt_s, mean, vmin, vmax) "
                "VALUES (?, ?, ?, ?, ?, ?)",
                rows,
            )
        return len(rows)

    def snapshot_series(self) -> List[str]:
        """All series names with recorded history, sorted."""
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT DISTINCT series FROM metric_history ORDER BY series"
            ).fetchall()
        return [r["series"] for r in rows]

    def metric_history(
        self,
        series: str,
        since: Optional[float] = None,
        limit: Optional[int] = None,
    ) -> List[SeriesPoint]:
        """One series' interval samples, oldest first."""
        query = (
            "SELECT t_s, dt_s, mean, vmin, vmax FROM metric_history "
            "WHERE series = ?"
        )
        params: list = [series]
        if since is not None:
            query += " AND t_s >= ?"
            params.append(float(since))
        query += " ORDER BY t_s"
        with self._connect() as conn:
            rows = conn.execute(query, params).fetchall()
        points = [
            SeriesPoint(r["t_s"], r["dt_s"], r["mean"], r["vmin"], r["vmax"])
            for r in rows
        ]
        if limit is not None and len(points) > limit:
            points = points[-int(limit):]
        return points

    def snapshot_count(self, series: Optional[str] = None) -> int:
        """Stored snapshot rows (for one series, or in total)."""
        with self._connect() as conn:
            if series is None:
                row = conn.execute(
                    "SELECT COUNT(*) AS n FROM metric_history"
                ).fetchone()
            else:
                row = conn.execute(
                    "SELECT COUNT(*) AS n FROM metric_history "
                    "WHERE series = ?",
                    (series,),
                ).fetchone()
        return int(row["n"])

    def prune_snapshots(
        self, max_points: int = DEFAULT_SNAPSHOT_RETENTION
    ) -> int:
        """Retention: decimate over-long series 2×; returns rows freed.

        Each over-budget series is replayed through a
        :class:`SeriesChannel` sized to ``max_points``, so adjacent
        intervals merge duration-weighted with min/max envelopes —
        exactly the telemetry ring's decimation contract.  The series'
        time integral is preserved (up to float associativity) and
        coverage stays gap-free at steadily coarser resolution.
        """
        if max_points < 8:
            raise ConfigError("snapshot retention must keep at least 8 rows")
        freed = 0
        for series in self.snapshot_series():
            points = self.metric_history(series)
            if len(points) <= max_points:
                continue
            channel = SeriesChannel(series, capacity=int(max_points))
            channel.add_block(points)
            kept = channel.points()
            with self._connect() as conn:
                conn.execute(
                    "DELETE FROM metric_history WHERE series = ?", (series,)
                )
                conn.executemany(
                    "INSERT INTO metric_history "
                    "(series, t_s, dt_s, mean, vmin, vmax) "
                    "VALUES (?, ?, ?, ?, ?, ?)",
                    [
                        (series, p.t_s, p.dt_s, p.mean, p.vmin, p.vmax)
                        for p in kept
                    ],
                )
            freed += len(points) - len(kept)
        if freed:
            _log.debug("snapshots_pruned", rows=freed, keep=max_points)
        return freed

    # ------------------------------------------------------------------
    # Run records
    # ------------------------------------------------------------------

    def record_run(
        self,
        run_id: str,
        kind: str,
        series: Dict[str, float],
        meta: Optional[dict] = None,
        source: Optional[str] = None,
        ts: Optional[float] = None,
    ) -> None:
        """Persist one distilled run record (idempotent per run id)."""
        now = time.time() if ts is None else float(ts)
        with self._connect() as conn:
            conn.execute(
                "INSERT OR REPLACE INTO runs "
                "(run_id, kind, ts, source, meta_json) VALUES (?, ?, ?, ?, ?)",
                (
                    run_id,
                    kind,
                    now,
                    source,
                    json.dumps(meta or {}, sort_keys=True, default=str),
                ),
            )
            conn.execute(
                "DELETE FROM run_series WHERE run_id = ?", (run_id,)
            )
            conn.executemany(
                "INSERT INTO run_series (run_id, series, value) "
                "VALUES (?, ?, ?)",
                [
                    (run_id, name, float(value))
                    for name, value in series.items()
                ],
            )
        _log.debug(
            "run_recorded", run_id=run_id, kind=kind, series=len(series)
        )

    def runs(
        self, kind: Optional[str] = None, limit: int = 50
    ) -> List[dict]:
        """Recent run records (newest first), without their series."""
        query = "SELECT run_id, kind, ts, source, meta_json FROM runs"
        params: list = []
        if kind is not None:
            query += " WHERE kind = ?"
            params.append(kind)
        query += " ORDER BY ts DESC LIMIT ?"
        params.append(int(limit))
        with self._connect() as conn:
            rows = conn.execute(query, params).fetchall()
        return [
            {
                "run_id": r["run_id"],
                "kind": r["kind"],
                "ts": r["ts"],
                "source": r["source"],
                "meta": json.loads(r["meta_json"]),
            }
            for r in rows
        ]

    def get_run(self, run_id: str) -> Optional[dict]:
        """One run record with its series, or None."""
        with self._connect() as conn:
            row = conn.execute(
                "SELECT run_id, kind, ts, source, meta_json FROM runs "
                "WHERE run_id = ?",
                (run_id,),
            ).fetchone()
            if row is None:
                return None
            series_rows = conn.execute(
                "SELECT series, value FROM run_series WHERE run_id = ? "
                "ORDER BY series",
                (run_id,),
            ).fetchall()
        return {
            "run_id": row["run_id"],
            "kind": row["kind"],
            "ts": row["ts"],
            "source": row["source"],
            "meta": json.loads(row["meta_json"]),
            "series": {r["series"]: r["value"] for r in series_rows},
        }

    def run_series_names(self, kind: Optional[str] = None) -> List[str]:
        """Distinct series names across run records, sorted."""
        with self._connect() as conn:
            if kind is None:
                rows = conn.execute(
                    "SELECT DISTINCT series FROM run_series ORDER BY series"
                ).fetchall()
            else:
                rows = conn.execute(
                    "SELECT DISTINCT rs.series FROM run_series rs "
                    "JOIN runs r ON r.run_id = rs.run_id "
                    "WHERE r.kind = ? ORDER BY rs.series",
                    (kind,),
                ).fetchall()
        return [r["series"] for r in rows]

    def series_history(
        self, series: str, kind: Optional[str] = None
    ) -> List[Tuple[float, str, float]]:
        """``(ts, run_id, value)`` for one series, oldest first."""
        query = (
            "SELECT r.ts, r.run_id, rs.value FROM run_series rs "
            "JOIN runs r ON r.run_id = rs.run_id WHERE rs.series = ?"
        )
        params: list = [series]
        if kind is not None:
            query += " AND r.kind = ?"
            params.append(kind)
        query += " ORDER BY r.ts, r.run_id"
        with self._connect() as conn:
            rows = conn.execute(query, params).fetchall()
        return [(r["ts"], r["run_id"], r["value"]) for r in rows]

    def compare_runs(self, a: str, b: str) -> dict:
        """Per-series deltas between two archived runs.

        Series carried by only one side are still listed (the other
        side is None); relative deltas are omitted when ``a`` is zero.
        """
        run_a = self.get_run(a)
        run_b = self.get_run(b)
        if run_a is None:
            raise SimulationError(f"no archived run {a!r}")
        if run_b is None:
            raise SimulationError(f"no archived run {b!r}")
        names = sorted(set(run_a["series"]) | set(run_b["series"]))
        series: Dict[str, dict] = {}
        for name in names:
            va = run_a["series"].get(name)
            vb = run_b["series"].get(name)
            entry: dict = {"a": va, "b": vb}
            if va is not None and vb is not None:
                entry["delta"] = vb - va
                if va != 0:
                    entry["rel"] = (vb - va) / abs(va)
            series[name] = entry
        return {
            "a": {k: run_a[k] for k in ("run_id", "kind", "ts", "source",
                                        "meta")},
            "b": {k: run_b[k] for k in ("run_id", "kind", "ts", "source",
                                        "meta")},
            "series": series,
        }

    # ------------------------------------------------------------------
    # Fleet health windows
    # ------------------------------------------------------------------

    def record_health_window(
        self, run_id: str, t_s: float, dt_s: float, rollup: Dict[str, float]
    ) -> None:
        """Persist one flushed fleet-health window."""
        with self._connect() as conn:
            conn.execute(
                "INSERT INTO health_windows (run_id, t_s, dt_s, headroom_w, "
                "capfloor_frac, slo_debt_rate_w, escalation_level) "
                "VALUES (?, ?, ?, ?, ?, ?, ?)",
                (
                    run_id,
                    float(t_s),
                    float(dt_s),
                    float(rollup.get("headroom_w", 0.0)),
                    float(rollup.get("capfloor_frac", 0.0)),
                    float(rollup.get("slo_debt_rate_w", 0.0)),
                    float(rollup.get("escalation_level", 0.0)),
                ),
            )

    def health_windows(
        self, run_id: Optional[str] = None, limit: int = 1000
    ) -> List[dict]:
        """Stored health windows, oldest first."""
        query = (
            "SELECT run_id, t_s, dt_s, headroom_w, capfloor_frac, "
            "slo_debt_rate_w, escalation_level FROM health_windows"
        )
        params: list = []
        if run_id is not None:
            query += " WHERE run_id = ?"
            params.append(run_id)
        query += " ORDER BY t_s LIMIT ?"
        params.append(int(limit))
        with self._connect() as conn:
            rows = conn.execute(query, params).fetchall()
        return [dict(r) for r in rows]

    def health_sink(self, run_id: str) -> Callable[[float, float, dict], None]:
        """A :class:`~repro.fleet.health.FleetHealth` flush hook.

        The returned callable lands each flushed window under
        ``run_id``; exceptions are contained (a full disk must not
        kill a fleet run mid-flight).
        """

        def sink(t_s: float, dt_s: float, rollup: dict) -> None:
            try:
                self.record_health_window(run_id, t_s, dt_s, rollup)
            except sqlite3.Error as exc:  # pragma: no cover — disk faults
                _log.warning(
                    "health_window_dropped", run_id=run_id, error=str(exc)
                )

        return sink

    # ------------------------------------------------------------------
    # Named baselines
    # ------------------------------------------------------------------

    def set_baseline(
        self,
        name: str,
        series: Dict[str, float],
        ts: Optional[float] = None,
    ) -> None:
        """Store (or replace) one named baseline's per-series values."""
        now = time.time() if ts is None else float(ts)
        with self._connect() as conn:
            conn.execute("DELETE FROM baselines WHERE name = ?", (name,))
            conn.executemany(
                "INSERT INTO baselines (name, series, value, ts) "
                "VALUES (?, ?, ?, ?)",
                [(name, s, float(v), now) for s, v in series.items()],
            )

    def baseline(self, name: str) -> Dict[str, float]:
        """One named baseline's ``{series: value}`` (empty if unknown)."""
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT series, value FROM baselines WHERE name = ?",
                (name,),
            ).fetchall()
        return {r["series"]: r["value"] for r in rows}

    def baseline_names(self) -> List[str]:
        """All stored baseline names, sorted."""
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT DISTINCT name FROM baselines ORDER BY name"
            ).fetchall()
        return [r["name"] for r in rows]

    # ------------------------------------------------------------------
    # Bench-document ingestion
    # ------------------------------------------------------------------

    def ingest_bench(
        self,
        doc: dict,
        source: Optional[str] = None,
        ts: Optional[float] = None,
        run_id: Optional[str] = None,
    ) -> Tuple[str, str]:
        """Append one ``BENCH_sweep.json`` document; returns (kind, run_id).

        The document must carry ``benchmark: table2-sweep``; it lands as
        a ``bench_sweep`` run record, and each ingestion is a new one,
        so the bench trajectory accumulates instead of overwriting
        itself.
        """
        if not isinstance(doc, dict):
            raise SimulationError("bench document must be a JSON object")
        bench = doc.get("benchmark")
        now = time.time() if ts is None else float(ts)
        if bench != "table2-sweep":
            raise SimulationError(
                f"unrecognised bench document (benchmark={bench!r}); "
                "expected table2-sweep"
            )
        kind = "bench_sweep"
        series = _distill_bench_sweep(doc)
        if run_id is None:
            run_id = f"{kind}-{now:.3f}"
        meta = {
            "benchmark": bench,
            "schema": doc.get("schema"),
            "machine": doc.get("machine"),
            "parameters": doc.get("parameters"),
        }
        self.record_run(
            run_id, kind, series, meta=meta, source=source, ts=now
        )
        return kind, run_id


def flatten_series_name(name: str, labels: Dict[str, str]) -> str:
    """``name{k=v,...}`` with sorted labels (bare name when unlabelled)."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return f"{name}{{{inner}}}"


def _distill_bench_sweep(doc: dict) -> Dict[str, float]:
    series: Dict[str, float] = {}
    sweep = doc.get("sweep") or {}
    for key in ("parallel_speedup", "batch_runs_per_s", "chunk_overhead_ms"):
        if isinstance(sweep.get(key), (int, float)):
            series[key] = float(sweep[key])
    for name in ("jobs1", "jobs1_batch", "jobs4"):
        entry = sweep.get(name) or {}
        for key in ("wall_s", "runs_per_s"):
            if isinstance(entry.get(key), (int, float)):
                series[f"{name}.{key}"] = float(entry[key])
    if isinstance(sweep.get("jobs1"), dict) and isinstance(
        sweep["jobs1"].get("runs_per_s"), (int, float)
    ):
        series["runs_per_s"] = float(sweep["jobs1"]["runs_per_s"])
    single = doc.get("single_run_120w") or {}
    for key in ("speedup", "engagement", "scalar_ms", "block_ms"):
        if isinstance(single.get(key), (int, float)):
            series[f"single_run.{key}"] = float(single[key])
    if not series:
        raise SimulationError("bench sweep document carries no series")
    return series


# ----------------------------------------------------------------------
# Run distillation (service jobs, fleet runs)
# ----------------------------------------------------------------------


def distill_experiment_doc(
    docs: Dict[str, dict], wall_s: Optional[float] = None
) -> Tuple[Dict[str, float], dict]:
    """``(series, meta)`` distilled from ``{workload: experiment doc}``.

    Pulls the trend-relevant scalars out of each sweep document:
    per-cap execution seconds and energy, per-phase span seconds
    (prefixed ``phase.``), detector-annotation counts (prefixed
    ``phenomena.``), rate-cache hit rate, and — when the caller knows
    the wall clock — ``wall_s`` and ``runs_per_s``.
    """
    series: Dict[str, float] = {}
    meta: dict = {"workloads": sorted(docs)}
    runs = 0
    for name, doc in sorted(docs.items()):
        rows = {"baseline": doc.get("baseline") or {}}
        rows.update(doc.get("by_cap") or {})
        for label, row in rows.items():
            if isinstance(row.get("execution_s"), (int, float)):
                series[f"{name}.execution_s.{label}"] = float(
                    row["execution_s"]
                )
            if isinstance(row.get("energy_j"), (int, float)):
                series[f"{name}.energy_j.{label}"] = float(row["energy_j"])
            runs += int(row.get("n_runs") or 1)
        prov = doc.get("provenance") or {}
        for phase, seconds in (prov.get("phase_seconds") or {}).items():
            key = f"phase.{phase}_s"
            series[key] = series.get(key, 0.0) + float(seconds)
        counts: Dict[str, float] = {}
        for det in prov.get("phenomena") or []:
            phen = det.get("phenomenon", "unknown")
            counts[phen] = counts.get(phen, 0.0) + 1.0
        for phen, count in counts.items():
            key = f"phenomena.{phen}"
            series[key] = series.get(key, 0.0) + count
        cache = prov.get("rate_cache")
        if isinstance(cache, dict):
            hits = float(cache.get("hits") or 0)
            misses = float(cache.get("misses") or 0)
            if hits + misses > 0:
                series["rate_cache.hit_rate"] = hits / (hits + misses)
        execution = prov.get("execution")
        if isinstance(execution, dict):
            meta.setdefault("execution", execution)
        if prov.get("git") is not None:
            meta.setdefault("git", prov["git"])
        if prov.get("package_version") is not None:
            meta.setdefault("package_version", prov["package_version"])
    series["runs"] = float(runs)
    if wall_s is not None and wall_s > 0:
        series["wall_s"] = float(wall_s)
        series["runs_per_s"] = runs / float(wall_s)
    return series, meta


def distill_fleet_doc(doc: dict) -> Tuple[Dict[str, float], dict]:
    """``(series, meta)`` distilled from a fleet run document."""
    series: Dict[str, float] = {}
    summary = doc.get("summary") or {}
    for key, value in summary.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            series[key] = float(value)
    health = summary.get("health")
    if isinstance(health, dict):
        for key, value in health.items():
            if isinstance(value, (int, float)):
                series[f"health.{key}"] = float(value)
    if isinstance(doc.get("ticks"), (int, float)):
        series["ticks"] = float(doc["ticks"])
    reb = doc.get("rebalances") or {}
    for key in ("applied", "evaluated"):
        if isinstance(reb.get(key), (int, float)):
            series[f"rebalances.{key}"] = float(reb[key])
    for det in doc.get("phenomena") or []:
        key = f"phenomena.{det.get('phenomenon', 'unknown')}"
        series[key] = series.get(key, 0.0) + 1.0
    prov = doc.get("provenance") or {}
    topo = doc.get("topology") or {}
    meta = {
        "engine": prov.get("engine"),
        "strategy": prov.get("strategy"),
        "budget_w": prov.get("budget_w"),
        "n_nodes": topo.get("n_nodes"),
        "git": prov.get("git"),
        "package_version": prov.get("package_version"),
    }
    return series, meta


# ----------------------------------------------------------------------
# Trend engine
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TrendRule:
    """Drift rule for one series (or a suffix family of series)."""

    series: str
    #: Whether larger values are good (throughput) or bad (latency).
    higher_is_better: bool = True
    #: Relative median shift in the bad direction that flags drift.
    threshold: float = 0.20


#: Explicit rules for the headline series; anything not listed falls
#: back to :func:`rule_for_series`'s suffix heuristics.
DEFAULT_TREND_RULES: Tuple[TrendRule, ...] = (
    TrendRule("runs_per_s", higher_is_better=True, threshold=0.20),
    TrendRule("batch_runs_per_s", higher_is_better=True, threshold=0.20),
    TrendRule("node_steps_per_s", higher_is_better=True, threshold=0.20),
    TrendRule("parallel_speedup", higher_is_better=True, threshold=0.20),
    TrendRule("single_run.speedup", higher_is_better=True, threshold=0.20),
    TrendRule("single_run.engagement", higher_is_better=True, threshold=0.10),
    TrendRule("rate_cache.hit_rate", higher_is_better=True, threshold=0.25),
)

#: Suffixes treated as "lower is better" (latencies, wall clocks).
_LOWER_BETTER_SUFFIXES = ("_s", "_ms", ".wall_s", "_j")
#: Suffixes treated as "higher is better" (rates, ratios).
_HIGHER_BETTER_SUFFIXES = ("_per_s", ".speedup", ".engagement", ".hit_rate")


def rule_for_series(
    series: str, rules: Sequence[TrendRule] = DEFAULT_TREND_RULES
) -> TrendRule:
    """The governing rule for one series name.

    Exact matches win, then prefix matches on the rule name (so
    ``runs_per_s`` also governs ``jobs4.runs_per_s`` via the suffix
    heuristics below), then direction is inferred from the name's
    suffix; the default is higher-is-better with a 20% threshold.
    """
    for rule in rules:
        if rule.series == series:
            return rule
    for suffix in _HIGHER_BETTER_SUFFIXES:
        if series.endswith(suffix):
            return TrendRule(series, higher_is_better=True, threshold=0.20)
    for suffix in _LOWER_BETTER_SUFFIXES:
        if series.endswith(suffix):
            return TrendRule(series, higher_is_better=False, threshold=0.20)
    return TrendRule(series, higher_is_better=True, threshold=0.20)


@dataclass
class Trend:
    """One series' drift verdict against its reference."""

    series: str
    kind: Optional[str]
    n: int
    reference: Optional[float]
    recent: Optional[float]
    shift: Optional[float]
    #: ``regression`` | ``improvement`` | ``stable`` | ``insufficient``
    verdict: str
    higher_is_better: bool
    threshold: float
    values: List[float] = field(default_factory=list)

    @property
    def is_regression(self) -> bool:
        """Whether this series drifted in the bad direction."""
        return self.verdict == "regression"

    def to_dict(self) -> dict:
        """JSON-ready representation (for ``--format json``)."""
        return {
            "series": self.series,
            "kind": self.kind,
            "n": self.n,
            "reference": self.reference,
            "recent": self.recent,
            "shift": self.shift,
            "verdict": self.verdict,
            "higher_is_better": self.higher_is_better,
            "threshold": self.threshold,
            "values": self.values,
        }


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def detect_trends(
    archive: ObsArchive,
    series: Optional[Sequence[str]] = None,
    kind: Optional[str] = None,
    window: int = 3,
    baseline: Optional[str] = None,
    rules: Sequence[TrendRule] = DEFAULT_TREND_RULES,
) -> List[Trend]:
    """Median-shift drift verdicts across archived run series.

    For each series the *recent* level is the median of the last
    ``window`` run values; the *reference* is the named baseline's
    value when ``baseline`` is given and holds the series, otherwise
    the median of everything before the window.  A relative shift
    beyond the rule's threshold in the bad direction is a
    ``regression``; beyond it in the good direction an
    ``improvement``; too little history (or a zero reference) is
    ``insufficient`` and never fails a ``--check``.
    """
    if window < 1:
        raise ConfigError("trend window must be at least 1")
    names = list(series) if series else archive.run_series_names(kind)
    base_values = archive.baseline(baseline) if baseline else {}
    trends: List[Trend] = []
    for name in names:
        history = archive.series_history(name, kind=kind)
        values = [v for _, _, v in history]
        rule = rule_for_series(name, rules)
        n = len(values)
        recent_window = values[-window:]
        reference: Optional[float] = None
        if name in base_values:
            reference = base_values[name]
        elif n > len(recent_window):
            reference = _median(values[: n - len(recent_window)])
        if not recent_window or reference is None or reference == 0:
            trends.append(
                Trend(
                    series=name,
                    kind=kind,
                    n=n,
                    reference=reference,
                    recent=_median(recent_window) if recent_window else None,
                    shift=None,
                    verdict="insufficient",
                    higher_is_better=rule.higher_is_better,
                    threshold=rule.threshold,
                    values=values,
                )
            )
            continue
        recent = _median(recent_window)
        shift = (recent - reference) / abs(reference)
        bad = -shift if rule.higher_is_better else shift
        if bad >= rule.threshold:
            verdict = "regression"
        elif -bad >= rule.threshold:
            verdict = "improvement"
        else:
            verdict = "stable"
        trends.append(
            Trend(
                series=name,
                kind=kind,
                n=n,
                reference=reference,
                recent=recent,
                shift=shift,
                verdict=verdict,
                higher_is_better=rule.higher_is_better,
                threshold=rule.threshold,
                values=values,
            )
        )
    return trends


# ----------------------------------------------------------------------
# Background metrics recorder
# ----------------------------------------------------------------------


class MetricsRecorder:
    """Background thread landing periodic metric scrapes in an archive.

    ``sample()`` is the callable returning the ``(name, labels,
    value)`` sample list (typically
    :meth:`~repro.obs.metrics.ServiceMetrics.sample_all`).  Histogram
    bucket rows are skipped by default — the ``_sum`` / ``_count``
    pair already carries the longitudinal story at a fraction of the
    rows.  Retention runs opportunistically every
    ``prune_every`` scrapes so no series outgrows
    ``retention`` rows by more than one period's worth.
    """

    def __init__(
        self,
        archive: ObsArchive,
        sample: Callable[[], "List[Tuple[str, Dict[str, str], float]]"],
        period_s: float = DEFAULT_SNAPSHOT_PERIOD_S,
        retention: int = DEFAULT_SNAPSHOT_RETENTION,
        include_buckets: bool = False,
        prune_every: int = 64,
    ) -> None:
        if period_s <= 0:
            raise ConfigError("snapshot period must be positive")
        self._archive = archive
        self._sample = sample
        self.period_s = float(period_s)
        self._retention = int(retention)
        self._include_buckets = bool(include_buckets)
        self._prune_every = max(1, int(prune_every))
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._last_ts: Optional[float] = None
        self.snapshots = 0
        self.rows = 0

    def snapshot_once(self, ts: Optional[float] = None) -> int:
        """Take one scrape now; returns rows written (also used by tests)."""
        now = time.time() if ts is None else float(ts)
        dt = 0.0 if self._last_ts is None else max(0.0, now - self._last_ts)
        samples = self._sample()
        if not self._include_buckets:
            samples = [
                s for s in samples if not s[0].endswith("_bucket")
            ]
        rows = self._archive.record_snapshot(samples, ts=now, dt_s=dt)
        self._last_ts = now
        self.snapshots += 1
        self.rows += rows
        if self.snapshots % self._prune_every == 0:
            self._archive.prune_snapshots(self._retention)
        return rows

    def _loop(self) -> None:
        while not self._stop.wait(self.period_s):
            try:
                self.snapshot_once()
            except sqlite3.Error as exc:  # pragma: no cover — disk faults
                _log.warning("snapshot_failed", error=str(exc))

    def start(self) -> "MetricsRecorder":
        """Begin periodic scraping on a daemon thread (idempotent)."""
        if self._thread is None:
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._loop, name="repro-obs-recorder", daemon=True
            )
            self._thread.start()
            _log.info(
                "recorder_started",
                archive=self._archive.path,
                period_s=self.period_s,
            )
        return self

    def stop(self, final_snapshot: bool = True) -> None:
        """Stop the thread (taking one last scrape by default)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        if final_snapshot:
            try:
                self.snapshot_once()
            except sqlite3.Error:  # pragma: no cover — disk faults
                pass
