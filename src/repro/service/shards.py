"""Worker shards: simulation in a pool of long-lived processes.

The scheduler's thread workers are fine for orchestration — lifecycle
transitions, store writes, retries — but the simulation itself is CPU
bound, and Python threads serialize it behind the GIL.  This module
moves the simulation into a pool of long-lived **shard processes**:

- a job goes to **any idle shard**: the pool keeps one queue of idle
  shards, a job takes the first one whose process is alive (waiting
  while all are busy) and puts it back at the end of the queue after
  the reply.  A shard that died is never handed out again, so a job
  that met a dying shard succeeds on its retry while any shard lives;
- each shard owns a private :class:`~repro.core.ratecache.RateCache`
  file (``<rate_cache>.shard<k>``) opened read-write in the shard
  process only.  A rate's key omits the spec's caps, scale and
  repetitions, so every shard's file converges on the same entries;
- a shard runs each job through the same
  :func:`~repro.service.jobs.run_spec` as the in-process path and
  returns its **result document** (``{workload name:
  experiment_to_dict(...)}``); the parent stores that document as is,
  so the sharded path stores byte-identical documents to the
  in-process path and serializes nothing itself.

Fan-out falls back to in-process execution where it cannot help: a
single-core host, or a requested shard count below 2.  The fallback is
recorded — ``effective_shards`` is 0 and a warning is logged.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from collections import deque
from typing import Deque, List, Optional

import multiprocessing as mp

from ..errors import ReproError, SimulationError
from ..obs.logging import get_logger

__all__ = ["ShardPool", "effective_shard_count"]

_log = get_logger("service.shards")


def effective_shard_count(requested: int) -> int:
    """Shard count after the single-core fallback (0 = in-process).

    Process fan-out on a single-core host only adds dispatch overhead,
    so fall back to in-process execution with a logged warning, and
    never start more shards than there are CPUs.
    """
    requested = max(0, int(requested))
    if requested < 2:
        return 0
    cpus = os.cpu_count() or 1
    if cpus < 2:
        _log.warning(
            "shard_fallback",
            reason="single_core",
            cpu_count=cpus,
            requested_shards=requested,
        )
        return 0
    return min(requested, cpus)


def _shard_main(
    req_q,
    resp_q,
    rate_cache_path: Optional[str],
    batch: "bool | None",
) -> None:
    """One shard process: warm runner state, serve until sentinel.

    Imports are deferred so a ``spawn`` start method only pays them in
    the child; the shard's rate-cache file is opened read-write here
    and nowhere else.
    """
    from ..core.ratecache import RateCache
    from .jobs import JobSpec, run_spec

    cache = (
        RateCache(rate_cache_path) if rate_cache_path is not None else None
    )
    hits0 = misses0 = 0
    while True:
        msg = req_q.get()
        if msg is None:
            break
        try:
            doc = run_spec(
                JobSpec.from_dict(msg["spec"]), rate_cache=cache, batch=batch
            )
            if cache is not None:
                cache.save()
                hits, misses = cache.hits, cache.misses
            else:
                hits = misses = 0
            resp_q.put(
                {
                    "ok": True,
                    "doc": doc,
                    "cache_hits": hits - hits0,
                    "cache_misses": misses - misses0,
                }
            )
            hits0, misses0 = hits, misses
        except Exception as exc:  # noqa: BLE001 — crosses the pipe as data
            resp_q.put(
                {
                    "ok": False,
                    "error": f"{type(exc).__name__}: {exc}",
                    "repro_error": isinstance(exc, ReproError),
                }
            )
    if cache is not None:
        cache.close()


class ShardPool:
    """N shard processes behind one queue of idle shards.

    One in-flight job per shard (a shard is a single simulation loop;
    queueing more would only hide latency from the scheduler's retry
    accounting).  Thread-safe: a scheduler worker takes the first idle
    live shard, waits while every live shard is busy, and blocks on
    that shard's private response queue.
    """

    def __init__(
        self,
        shards: int,
        rate_cache: "str | os.PathLike | None" = None,
        batch: "bool | None" = None,
    ) -> None:
        if shards < 2:
            raise SimulationError(
                f"a shard pool needs >= 2 shards, got {shards} "
                "(use in-process execution below that)"
            )
        self.shards = int(shards)
        self._rate_cache_base = (
            str(rate_cache) if rate_cache is not None else None
        )
        self._batch = batch
        self._procs: List[mp.Process] = []
        self._req_qs: List = []
        self._resp_qs: List = []
        #: Guards the idle queue, the busy count and the cache counters.
        self._cond = threading.Condition()
        self._idle: Deque[int] = deque()
        self._busy = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self._started = False
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def partition_path(self, shard: int) -> Optional[str]:
        """The rate-cache file shard ``shard`` owns."""
        if self._rate_cache_base is None:
            return None
        return f"{self._rate_cache_base}.shard{shard}"

    def start(self) -> None:
        """Spawn the shard processes (idempotent)."""
        if self._started:
            return
        ctx = mp.get_context()
        for shard in range(self.shards):
            req_q = ctx.Queue()
            resp_q = ctx.Queue()
            proc = ctx.Process(
                target=_shard_main,
                name=f"repro-shard-{shard}",
                args=(
                    req_q,
                    resp_q,
                    self.partition_path(shard),
                    self._batch,
                ),
                daemon=True,
            )
            proc.start()
            self._procs.append(proc)
            self._req_qs.append(req_q)
            self._resp_qs.append(resp_q)
            self._idle.append(shard)
        self._started = True
        _log.info(
            "shard_pool_started",
            shards=self.shards,
            rate_cache=self._rate_cache_base or "off",
        )

    def shutdown(self, timeout: float = 30.0) -> None:
        """Drain-stop every shard: sentinel, join, terminate stragglers.

        Each shard flushes its rate-cache file before exiting, so a
        graceful shutdown loses no memoized rates.
        """
        with self._cond:
            already = not self._started or self._closed
            self._closed = True
            self._cond.notify_all()
        if already:
            return
        for req_q in self._req_qs:
            try:
                req_q.put(None)
            except (OSError, ValueError):
                pass
        deadline = time.monotonic() + float(timeout)
        for proc in self._procs:
            proc.join(timeout=max(0.1, deadline - time.monotonic()))
        for proc in self._procs:
            if proc.is_alive():
                _log.warning(
                    "shard_terminated", shard=proc.name, graceful=False
                )
                proc.terminate()
                proc.join(timeout=5.0)
        _log.info("shard_pool_stopped", shards=self.shards)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, spec_dict: dict) -> dict:
        """Run one spec on the first idle shard; returns its document.

        Raises :class:`SimulationError` for deterministic simulation
        failures (no point retrying) and :class:`RuntimeError` for
        shard crashes and for a pool with no live shard left (the
        scheduler's retry path treats those as transient).
        """
        shard = self._take()
        reply = None
        try:
            self._req_qs[shard].put({"spec": spec_dict})
            reply = self._await_reply(shard)
        finally:
            with self._cond:
                self._busy -= 1
                if self._procs[shard].is_alive():
                    self._idle.append(shard)
                if reply is not None:
                    self.cache_hits += int(reply.get("cache_hits", 0))
                    self.cache_misses += int(reply.get("cache_misses", 0))
                self._cond.notify_all()
        if reply["ok"]:
            return reply["doc"]
        if reply.get("repro_error"):
            raise SimulationError(f"shard {shard}: {reply['error']}")
        raise RuntimeError(f"shard {shard}: {reply['error']}")

    def _take(self) -> int:
        """The first idle live shard, waiting while all live ones are busy.

        Dead shards are dropped from the idle queue as they are met;
        when none is idle and none is busy, no live shard is left.
        """
        with self._cond:
            while True:
                if not self._started or self._closed:
                    raise RuntimeError("shard pool is not running")
                while self._idle:
                    shard = self._idle.popleft()
                    if self._procs[shard].is_alive():
                        self._busy += 1
                        return shard
                    _log.warning(
                        "shard_dead",
                        shard=shard,
                        exitcode=self._procs[shard].exitcode,
                    )
                if self._busy == 0:
                    raise RuntimeError("no live shard left in the pool")
                self._cond.wait()

    def _await_reply(self, shard: int) -> dict:
        """Block for the shard's reply, noticing a dead process."""
        while True:
            try:
                return self._resp_qs[shard].get(timeout=1.0)
            except queue.Empty:
                if self._closed:
                    raise RuntimeError(
                        f"shard pool shut down mid-job (shard {shard})"
                    )
                if not self._procs[shard].is_alive():
                    raise RuntimeError(
                        f"shard {shard} process died "
                        f"(exitcode {self._procs[shard].exitcode})"
                    )
