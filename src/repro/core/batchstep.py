"""Multi-run batch stepping: march many stable runs as one numpy batch.

A cap sweep is dozens of near-identical runs, and PR 5's block-step
kernel made each one so cheap that the *per-run* Python loop became the
sweep's dominant cost.  This module adds the missing axis: once several
runs are simultaneously parked in their *pinned long-step march* — a
non-dithering command (``fi == si``, alpha exactly 1.0), the 10x stable
step engaged, every telemetry quantum flushing its own bucket — their
per-quantum recurrences are identical scalar chains, so the whole
cohort advances as numpy vectors with **one axis per run**.

The exactness contract is the repo's established one, per run:

- elementwise float64 numpy arithmetic is IEEE-identical to the scalar
  chain, so evolving ``R`` runs' states as length-``R`` vectors (one
  op per quantum) is bitwise equal to evolving each run alone;
- each lane's sensor noise comes from its *own* RNG stream in chunks
  (``Generator.normal(size=n)`` consumes exactly what ``n`` scalar
  draws would) and the stream is rewound to the quanta that committed;
- all sequential folds (energy, meter cursor, telemetry bucket clock,
  the time axis) are evolved **in the march** as vectors — never
  reassociated, never ``cumsum``-ed — and committed through the same
  ``*_block`` methods the per-run kernel uses;
- a lane drops out of the batch one quantum *before* anything the
  march does not model — a bracket flip, an escalation or de-escalation
  patience expiry, a duty-throttle step, the final partial quantum, a
  steady-state fast-forward opportunity — and replays that boundary
  through the per-run kernel/scalar path from identical state.

Dithering caps (a command pair straddling the cap, alpha < 1) never
pin and therefore never batch: they stay on the per-run kernel, which
already handles them optimally.  The batch axis pays off on the pinned
majority of a sweep grid — the uncapped baselines, the loose caps
parked at P0, and the floor caps marching at a pinned duty.

``tests/core/test_blockstep.py`` extends the scalar-vs-block matrix
with a batched axis: batch-of-N results serialize byte-equal to the
same runs executed serially.  ``--no-batch`` / ``batch=False`` keep
the per-run path selectable at runtime.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.logging import get_logger
from ..obs.metrics import process_metrics
from ..obs.timeseries import SeriesPoint
from ..obs.tracing import span
from ..workloads.base import Workload
from .metrics import RunResult
from .runner import NodeRunner, RunState, export_counter_tracks

__all__ = ["march", "run_sweep", "batch_enabled"]

_log = get_logger("core.batchstep")

#: Correctness floor: a batch needs at least two lanes to be a batch.
_MIN_LANES = 2
#: Efficiency floor: below this width the scalar kernel retires quanta
#: cheaper than ~50 small-vector numpy ops per step, so the march exits
#: and the per-run path takes the tail.  Tests narrow it to exercise
#: small cohorts.
_MIN_WIDTH = 6
#: Sensor-noise chunk schedule (mirrors blockstep; any schedule is
#: correct because lanes rewind to their committed count).
_CHUNK0 = 16
_CHUNK_MAX = 4096


def batch_enabled(flag: "bool | None" = None) -> bool:
    """Resolve the batch-engine switch (``None`` means on)."""
    return True if flag is None else bool(flag)


def _structural_key(kernel) -> tuple:
    """Constants that must agree for lanes to share one march."""
    return (
        kernel._q,
        kernel._q10,
        kernel._decay_q10,
        kernel._m_period,
        kernel._nref_leak,
        kernel._leak_coeff,
        kernel._leak_ref_t,
        kernel._ambient,
        kernel._r_th,
        kernel._duty_min,
        kernel._duty_step,
        kernel._n_states,
    )


def march(
    states: "Sequence[RunState]", min_width: int = _MIN_WIDTH
) -> int:
    """Advance a cohort of batch-eligible runs as one numpy batch.

    Every state should currently satisfy :meth:`RunState.batch_eligible`
    (lanes that fail the cheap re-screen here are simply left
    untouched).  Each lane marches until it hits a boundary the batch
    does not model, at which point its folds, history, and RNG streams
    are committed through the same ``*_block`` substrate methods the
    per-run kernel uses, bit-identically.  The march ends when fewer
    than ``min_width`` lanes remain (the survivors are finalized at the
    current step and handed back to the per-run path).  Returns the
    total quanta retired across all lanes.
    """
    min_width = max(int(min_width), _MIN_LANES)
    lanes: List[RunState] = []
    snaps: List[tuple] = []
    consts: List[tuple] = []
    ref = None
    for st in states:
        kern = st.kernel
        if kern is None or kern.disabled:
            continue
        pk = st.prev_cmd_key
        if pk is None or kern._n_states < 2:
            continue
        if st.sampler is not None and st.mpki_by_gating.get(st.key) is None:
            continue
        key = _structural_key(kern)
        if ref is None:
            ref = key
        elif key != ref:
            continue
        snap = st.controller.block_state()
        if pk[3] != snap[5] or pk[4] != snap[6]:
            continue
        capped = st.cap_w is not None
        table = st.model.power_table(
            st.node.pstates,
            duty=snap[5],
            activity=1.0,
            gating_saving_w=snap[8],
            dram_traffic_bps=0.0,
            busy_cores=snap[11],
        )
        ok, tc = kern._table_constants(
            table, st.thermal.temperature_c, capped
        )
        if not ok:
            continue
        lanes.append(st)
        snaps.append(snap)
        consts.append(tc)
    R = len(lanes)
    if R < min_width:
        return 0

    k0 = lanes[0].kernel
    q = k0._q
    dt = k0._q10
    decay = k0._decay_q10
    m_period = k0._m_period
    nref = k0._nref_leak
    coeff = k0._leak_coeff
    ref_t = k0._leak_ref_t
    ambient = k0._ambient
    r_th = k0._r_th
    duty_min = k0._duty_min
    duty_step = k0._duty_step
    n_last = k0._n_states - 1

    arr = lambda vals: np.array(vals, dtype=np.float64)

    ki = np.array([st.prev_cmd_key[0] for st in lanes], dtype=np.int64)
    K0 = ki == 0
    KFLOOR = ki == n_last
    CAPPED = np.array([st.cap_w is not None for st in lanes], dtype=bool)
    cap_or0 = [st.cap_w if st.cap_w is not None else 0.0 for st in lanes]
    TARGET = arr([c - st.kernel._target_margin
                  for c, st in zip(cap_or0, lanes)])
    CAP_HYST = arr([c + st.kernel._hyst for c, st in zip(cap_or0, lanes)])
    CAP_MHYST = arr([c - st.kernel._hyst for c, st in zip(cap_or0, lanes)])
    CAP_MDEESC = arr([c - st.kernel._deesc_margin
                      for c, st in zip(cap_or0, lanes)])
    PB = arr([tc[0] for tc in consts])
    UNC = arr([tc[1] for tc in consts])
    DYNK = arr([tc[3][k] for tc, k in zip(consts, ki)])
    GATEK = arr([tc[4][k] for tc, k in zip(consts, ki)])
    DUTY = arr([st.prev_cmd_key[3] for st in lanes])
    LEVEL = np.array([st.prev_cmd_key[4] for st in lanes], dtype=np.int64)
    OVERLOG = np.array([s[4] for s in snaps], dtype=bool)
    FLOORLOG = np.array([s[3] for s in snaps], dtype=bool)
    AT_TOP = np.array([s[7] for s in snaps], dtype=bool)
    ESC_PAT = np.array([s[9] for s in snaps], dtype=np.int64)
    DEESC_PAT = np.array([s[10] for s in snaps], dtype=np.int64)
    S_ALPHA = arr([st.sensor.smoothing for st in lanes])
    BAND = arr([st.kernel._band for st in lanes])
    IDLE = arr([st.kernel._idle_w for st in lanes])
    SPI = arr([st.spi for st in lanes])
    FREQ = arr([st.freq for st in lanes])
    TRW = arr([st.traffic_w for st in lanes])
    TOTAL = arr([st.total_instr for st in lanes])
    MAXSIM = arr([st.kernel._max_sim for st in lanes])
    FFON = np.array([st.kernel._ff for st in lanes], dtype=bool)
    EPS = arr([st.kernel._eps_pinned for st in lanes])
    # A duty-throttle step is a drop for the whole march; whether the
    # ladder can still step is a per-lane constant (duty never changes
    # in-batch), as is the pure-bookkeeping alternative.
    dn = DUTY - duty_step
    dn = np.where(dn < duty_min, duty_min, dn)
    CAN_STEP = dn < DUTY
    # Per-quantum per-lane constants of the pinned march.
    INSTR_Q = dt / SPI
    FD = FREQ * dt
    CYQ = FD * DUTY

    TELEM = np.array([st.sampler is not None for st in lanes], dtype=bool)
    SERIES = np.array([st.record_series for st in lanes], dtype=bool)
    any_telem = bool(TELEM.any())
    any_series = bool(SERIES.any())

    # ---- fold vectors (elementwise == the scalar sequential folds) ---
    POWER = arr([st.power for st in lanes])
    T = arr([st.t for st in lanes])
    DONE = arr([st.done for st in lanes])
    FT = arr([st.freq_time for st in lanes])
    CY = arr([st.cycles for st in lanes])
    STBL = np.array([st.stable_quanta for st in lanes], dtype=np.int64)
    FILT = arr([st.sensor.reading_w for st in lanes])
    TEMP = arr([st.thermal.temperature_c for st in lanes])
    CTIME = arr([s[0] for s in snaps])
    OC = np.array([s[1] for s in snaps], dtype=np.int64)
    UC = np.array([s[2] for s in snaps], dtype=np.int64)
    SEG = arr([st.instr_by_gating.get(st.key, 0.0) for st in lanes])
    EJ = arr([st.energy.energy_j for st in lanes])
    ELS = arr([st.energy.elapsed_s for st in lanes])
    MEJ = arr([st.meter.energy_j for st in lanes])
    NEXTS = arr([st.meter.next_sample_s for st in lanes])
    BT0 = arr([
        st.sampler.block_state()[0] if st.sampler is not None else 0.0
        for st in lanes
    ])
    # An uncapped lane's counters are controller constants; the capped
    # reset targets are therefore per-lane constants too.
    ZOC = np.where(CAPPED, 0, OC)
    ZUC = np.where(CAPPED, 0, UC)

    state0 = [st.sensor.rng_state() for st in lanes]
    # Histories keep every original lane's column for the whole march
    # (only the *fold vectors* are compressed when lanes drop), so a
    # drop event costs ~40 small-vector copies, never a history copy.
    cols = np.arange(R)
    DRAWN = np.zeros(R, dtype=np.int64)

    rows = 512
    hist_pw = np.empty((rows, R))
    hist_mt = np.empty((rows, R))
    hist_t = np.empty((rows, R)) if any_series else None
    hist_bt0 = np.empty((rows, R)) if any_telem else None
    hist_tmp = np.empty((rows, R)) if any_telem else None
    noise = np.empty((0, R))
    extras: Dict[int, List[Tuple[int, float, float]]] = {}

    def _finalize(slot: int, n: int) -> None:
        """Commit lane ``cols[slot]``'s ``n`` marched quanta."""
        li = int(cols[slot])
        st = lanes[li]
        if int(DRAWN[li]) != n:
            st.sensor.rewind(state0[li], n)
        if n == 0:
            return
        st.sensor.commit_block(float(FILT[slot]))
        st.controller.commit_block(
            float(CTIME[slot]), int(OC[slot]), int(UC[slot]),
            float(DUTY[slot]),
        )
        st.thermal.set_temperature(float(TEMP[slot]))
        pw_col = hist_pw[:n, li]
        pw_list = pw_col.tolist()
        mt_col = hist_mt[:n, li]
        exl = extras.get(li)
        if exl:
            by_row: Dict[int, List[float]] = {}
            for r, ts, _pv in exl:
                by_row.setdefault(r, []).append(ts)
            samples = []
            for r in range(n):
                mt = mt_col[r]
                if not math.isnan(mt):
                    samples.append((float(mt), pw_list[r]))
                for ts in by_row.get(r, ()):
                    samples.append((ts, pw_list[r]))
        else:
            mask = ~np.isnan(mt_col)
            samples = list(zip(mt_col[mask].tolist(), pw_col[mask].tolist()))
        st.meter.advance_block(samples, float(NEXTS[slot]), float(MEJ[slot]))
        st.energy.add_block(
            list(zip(pw_list, [dt] * n)), float(EJ[slot]), float(ELS[slot])
        )
        if st.sampler is not None:
            # Every batch quantum is a fused single-quantum bucket:
            # same seed-fold-flush arithmetic as the kernel's drain().
            kern = st.kernel
            SP = SeriesPoint
            sp = tuple.__new__
            el_b = 0.0 + dt
            bt = hist_bt0[:n, li].tolist()
            tc_col = hist_tmp[:n, li]
            fmv = float(FREQ[slot] / 1e6)
            psv = 1.0 * int(ki[slot]) + 0.0 * int(ki[slot])
            dv = float(DUTY[slot])
            m1, m2, m3, m4, m5 = st.mpki_by_gating[st.key]
            pw_mean = ((pw_col * dt) / el_b).tolist()
            tc_mean = ((tc_col * dt) / el_b).tolist()
            tc_list = tc_col.tolist()
            fm_mean = (fmv * dt) / el_b
            ps_mean = (psv * dt) / el_b
            d_mean = (dv * dt) / el_b
            mm1 = (m1 * dt) / el_b
            mm2 = (m2 * dt) / el_b
            mm3 = (m3 * dt) / el_b
            mm4 = (m4 * dt) / el_b
            mm5 = (m5 * dt) / el_b
            pts = (
                [sp(SP, (b, el_b, m, v, v))
                 for b, m, v in zip(bt, pw_mean, pw_list)],
                [sp(SP, (b, el_b, fm_mean, fmv, fmv)) for b in bt],
                [sp(SP, (b, el_b, ps_mean, psv, psv)) for b in bt],
                [sp(SP, (b, el_b, d_mean, dv, dv)) for b in bt],
                [sp(SP, (b, el_b, d_mean, dv, dv)) for b in bt],
                [sp(SP, (b, el_b, m, v, v))
                 for b, m, v in zip(bt, tc_mean, tc_list)],
                [sp(SP, (b, el_b, mm1, m1, m1)) for b in bt],
                [sp(SP, (b, el_b, mm2, m2, m2)) for b in bt],
                [sp(SP, (b, el_b, mm3, m3, m3)) for b in bt],
                [sp(SP, (b, el_b, mm4, m4, m4)) for b in bt],
                [sp(SP, (b, el_b, mm5, m5, m5)) for b in bt],
            )
            for ch, p in zip(kern._channels, pts):
                ch.add_block(p)
            st.sampler.commit_block(n, float(BT0[slot]), 0.0, {})
        if st.record_series:
            fmv = float(FREQ[slot] / 1e6)
            dv = float(DUTY[slot])
            st.series.extend(
                (tv, pv, fmv, dv)
                for tv, pv in zip(hist_t[:n, li].tolist(), pw_list)
            )
        st.power = float(POWER[slot])
        st.t = float(T[slot])
        st.done = float(DONE[slot])
        st.freq_time = float(FT[slot])
        st.cycles = float(CY[slot])
        st.stable_quanta = int(STBL[slot])
        st.quanta += n
        st.batch_steps += 1
        st.batch_quanta += n
        st.instr_by_gating[st.key] = float(SEG[slot])
        # Force one scalar quantum before the kernel/batch re-engages —
        # the same memo-validity invariant the kernel's exit preserves.
        st.block_after = st.quanta + 1

    j = 0
    drawn = 0
    chunk = _CHUNK0
    total_quanta = 0
    while True:
        if j == drawn:
            if drawn and chunk < _CHUNK_MAX:
                chunk *= 4
            grown = np.empty((drawn + chunk, noise.shape[1]))
            grown[:drawn] = noise[:drawn]
            for li in cols:
                grown[drawn:, li] = lanes[int(li)].sensor.noise_block(chunk)
            noise = grown
            DRAWN[cols] += chunk
            drawn += chunk
        if j == rows:
            rows *= 2

            def _grow(a):
                if a is None:
                    return None
                new = np.empty((rows, a.shape[1]))
                new[: a.shape[0]] = a
                return new

            hist_pw = _grow(hist_pw)
            hist_mt = _grow(hist_mt)
            hist_t = _grow(hist_t)
            hist_bt0 = _grow(hist_bt0)
            hist_tmp = _grow(hist_tmp)

        # ---- controller.update, replayed tentatively (vectorized) ----
        noisy = POWER + noise[j, cols]
        filt_new = FILT + S_ALPHA * (noisy - FILT)
        scale = 1.0 + coeff * (TEMP - ref_t)
        scale = np.where(scale < 0.4, 0.4, scale)
        base = PB + (nref * scale) + UNC
        s = base + DYNK
        pk_w = s - GATEK
        # A pinned bracket holds only while target >= p0 (top lanes) /
        # target <= p_last (floor lanes); a flip is a boundary.
        flip = CAPPED & np.where(K0, TARGET < pk_w, TARGET > pk_w)

        over = CAPPED & (filt_new > CAP_HYST)
        oc_n = np.where(over, OC + 1, ZOC)
        can_raise = (DUTY < 1.0) & (filt_new < CAP_MHYST)
        can_deesc = (LEVEL > 0) & (~KFLOOR | (filt_new < CAP_MDEESC))
        under_cnt = CAPPED & ~over & (can_raise | can_deesc)
        uc_n = np.where(over, 0, np.where(under_cnt, UC + 1, ZUC))
        d1 = over & ~OVERLOG & (oc_n >= ESC_PAT)
        esc_hit = over & KFLOOR & (oc_n >= ESC_PAT) & ~d1
        d2 = esc_hit & ~AT_TOP
        book = esc_hit & AT_TOP
        d3 = book & CAN_STEP
        oc_n = np.where(book & ~CAN_STEP, 0, oc_n)
        d4 = under_cnt & (uc_n >= DEESC_PAT)

        pw = (s + TRW) - GATEK
        d5 = ~(pw >= 0.0)
        ex = pw - IDLE
        ex = np.where(ex < 0.0, 0.0, ex)
        ss = ambient + r_th * ex
        remaining = (TOTAL - DONE) * SPI
        d6 = remaining <= dt
        t_new = T + dt
        d8 = t_new > MAXSIM
        # Fast-forward screen: a converged quiescent lane must replay
        # its next quantum scalar so the closed-form skip can engage.
        ffm = FFON & (T + remaining <= MAXSIM) & (np.abs(TEMP - ss) <= EPS)
        drop = flip | d1 | d2 | d3 | d4 | d5 | d6 | d8
        if ffm.any():
            lo = pw - BAND
            hi = pw + BAND
            lo = np.where(filt_new < lo, filt_new, lo)
            hi = np.where(filt_new > hi, filt_new, hi)
            quiet = ~(KFLOOR & ~FLOORLOG)
            c_hi = hi > CAP_HYST
            quiet &= ~(c_hi & ~OVERLOG)
            quiet &= ~(
                c_hi & OVERLOG & KFLOOR & (~AT_TOP | (DUTY > duty_min))
            )
            c_lo = lo <= CAP_HYST
            quiet &= ~(
                c_lo
                & (
                    ((DUTY < 1.0) & (lo < CAP_MHYST))
                    | ((LEVEL > 0) & (~KFLOOR | (lo < CAP_MDEESC)))
                )
            )
            drop = drop | (ffm & (quiet | ~CAPPED))
        dropping = bool(drop.any())
        if dropping:
            for slot in np.nonzero(drop)[0]:
                _finalize(int(slot), j)
            total_quanta += j * int(drop.sum())

        # ---- every break check passed: commit the quantum ------------
        CTIME = CTIME + q
        OC = oc_n
        UC = uc_n
        FILT = filt_new
        STBL = STBL + 1
        DONE = DONE + INSTR_Q
        SEG = SEG + INSTR_Q
        FT = FT + FD
        CY = CY + CYQ
        pd = pw * dt
        EJ = EJ + pd
        MEJ = MEJ + pd
        ELS = ELS + dt
        hist_pw[j, cols] = pw
        adv = NEXTS < t_new
        rec = adv & (NEXTS >= T)
        hist_mt[j, cols] = np.where(rec, NEXTS, np.nan)
        NEXTS = np.where(adv, NEXTS + m_period, NEXTS)
        if (NEXTS < t_new).any():
            # Sampling period shorter than the long step: walk the
            # remaining grid instants lane by lane (none in the shipped
            # configs, where the meter period exceeds the 10x quantum).
            for slot in np.nonzero(NEXTS < t_new)[0]:
                while NEXTS[slot] < t_new[slot]:
                    if NEXTS[slot] >= T[slot]:
                        extras.setdefault(int(cols[slot]), []).append(
                            (j, float(NEXTS[slot]), float(pw[slot]))
                        )
                    NEXTS[slot] += m_period
        if any_telem:
            hist_bt0[j, cols] = BT0
            hist_tmp[j, cols] = TEMP
            BT0 = BT0 + dt
        if any_series:
            hist_t[j, cols] = t_new
        TEMP = ss + (TEMP - ss) * decay
        T = t_new
        POWER = pw
        j += 1

        if dropping:
            keep = ~drop
            R = int(keep.sum())
            (POWER, T, DONE, FT, CY, FILT, TEMP, CTIME, SEG, EJ, ELS,
             MEJ, NEXTS, BT0, TARGET, CAP_HYST, CAP_MHYST, CAP_MDEESC,
             PB, UNC, DYNK, GATEK, DUTY, S_ALPHA, BAND, IDLE, SPI, FREQ,
             TRW, TOTAL, MAXSIM, EPS, INSTR_Q, FD, CYQ) = (
                v[keep]
                for v in (
                    POWER, T, DONE, FT, CY, FILT, TEMP, CTIME, SEG, EJ,
                    ELS, MEJ, NEXTS, BT0, TARGET, CAP_HYST, CAP_MHYST,
                    CAP_MDEESC, PB, UNC, DYNK, GATEK, DUTY, S_ALPHA,
                    BAND, IDLE, SPI, FREQ, TRW, TOTAL, MAXSIM, EPS,
                    INSTR_Q, FD, CYQ,
                )
            )
            (STBL, OC, UC, LEVEL, ESC_PAT, DEESC_PAT, ki, ZOC, ZUC,
             cols) = (
                v[keep]
                for v in (STBL, OC, UC, LEVEL, ESC_PAT, DEESC_PAT, ki,
                          ZOC, ZUC, cols)
            )
            (CAPPED, K0, KFLOOR, OVERLOG, FLOORLOG, AT_TOP, CAN_STEP,
             FFON, TELEM, SERIES) = (
                v[keep]
                for v in (CAPPED, K0, KFLOOR, OVERLOG, FLOORLOG, AT_TOP,
                          CAN_STEP, FFON, TELEM, SERIES)
            )
            any_telem = bool(TELEM.any())
            any_series = bool(SERIES.any())
            if R < min_width:
                break

    for slot in range(len(cols)):
        _finalize(slot, j)
    total_quanta += j * len(cols)
    return total_quanta


def _finish_run(st: RunState) -> RunResult:
    """``RunState.finish`` plus the per-run metrics/logging bookkeeping."""
    result, quanta, ffed, bsteps, bquanta = st.finish()
    export_counter_tracks(
        result, st.wall0, time.perf_counter() - st.wall0
    )
    metrics = process_metrics()
    metrics.runs.inc()
    metrics.quanta.inc(quanta)
    if ffed:
        metrics.fast_forwards.inc()
    if bsteps:
        metrics.block_steps.inc(bsteps)
        metrics.block_quanta.inc(bquanta)
    if st.batch_quanta:
        metrics.batch_runs.inc()
        metrics.batch_quanta.inc(st.batch_quanta)
    _log.info(
        "run_done",
        workload=st.workload.name,
        cap_w=st.cap_w,
        rep=st.rep,
        sim_s=round(result.execution_s, 6),
        avg_power_w=round(result.avg_power_w, 3),
        quanta=quanta,
        fast_forwarded=ffed,
        block_steps=bsteps,
        block_quanta=bquanta,
        batch_steps=st.batch_steps,
        batch_quanta=st.batch_quanta,
    )
    return result


def run_sweep(
    runner: NodeRunner,
    tasks: "Sequence[Tuple[Workload, Optional[float], int]]",
    *,
    batch: "bool | None" = None,
    min_width: int = _MIN_WIDTH,
) -> List[RunResult]:
    """Execute a task list, batching stable segments across runs.

    Results are returned in task order and are bit-identical to
    ``[runner.run(w, c, rep=r) for w, c, r in tasks]`` — the batch
    engine only takes segments whose per-run evolution it reproduces
    exactly, and every run draws from its own named RNG streams.  With
    ``batch`` false (or fewer than two tasks) this *is* that serial
    loop.
    """
    if (
        not batch_enabled(batch)
        or not runner.block_step
        or len(tasks) < _MIN_LANES
    ):
        return [runner.run(w, cap, rep=rep) for (w, cap, rep) in tasks]
    results: List[Optional[RunResult]] = [None] * len(tasks)
    with span("sweep_batch", runs=len(tasks)):
        states = [
            RunState(runner, w, cap, rep) for (w, cap, rep) in tasks
        ]
        pending = list(range(len(states)))
        while pending:
            parked: List[int] = []
            for i in pending:
                st = states[i]
                # Advance to the next park point (always >= 1 quantum
                # of progress, so drop-outs cannot loop in place).
                # The scalar-driven stretch is a "run" phase segment;
                # the lockstep march accrues under "sweep_batch".
                with span("run", workload=st.workload.name, cap_w=st.cap_w):
                    while not st.finished:
                        st.try_kernel(stop_batchable=True)
                        if st.finished:
                            break
                        st.step_quantum()
                        if st.batch_eligible():
                            break
                if st.finished:
                    results[i] = _finish_run(st)
                else:
                    parked.append(i)
            if len(parked) >= max(min_width, _MIN_LANES):
                retired = march(
                    [states[i] for i in parked], min_width=min_width
                )
                if retired:
                    pending = parked
                    continue
            # Too narrow for the batch to pay off (or no lane passed
            # the cohort screen): the per-run kernel takes the tails.
            for i in parked:
                st = states[i]
                with span("run", workload=st.workload.name, cap_w=st.cap_w):
                    while not st.finished:
                        st.try_kernel()
                        if not st.finished:
                            st.step_quantum()
                results[i] = _finish_run(st)
            pending = []
    if runner.rate_cache is not None:
        runner.rate_cache.save()
    return results  # type: ignore[return-value]
