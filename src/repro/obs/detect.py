"""Phenomenon detectors: scan telemetry timelines for the paper's story.

The paper's headline observations are *shapes in time series*, not
single numbers: average frequency pins to the 1,200 MHz floor once the
cap drops to 130 W; the DCM control loop overshoots a freshly applied
cap and settles; total energy turns upward (the "knee") once capping
slows the run more than it saves power.  These detectors read the
:class:`~repro.obs.timeseries.RunTimeline` channels recorded during a
sweep and turn those shapes into structured :class:`Detection` records
— logged as ``phenomenon_detected`` events, counted in the
``repro_telemetry_detections_total`` metric, and attached to the
result's provenance manifest under ``phenomena``.

Thresholds default to values tuned against the reproduction's own
default sweep (caps 160..120 W): the frequency-floor detector flags
every cap ≤ 130 W and no cap ≥ 145 W, matching Table II.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from .logging import get_logger
from .metrics import process_metrics

__all__ = [
    "Detection",
    "detect_frequency_floor",
    "detect_cap_overshoot",
    "detect_energy_knee",
    "scan_timeline",
    "scan_experiment",
]

_log = get_logger("obs.detect")

#: Frequencies within this many MHz of the floor count as pinned: the
#: 16-entry P-state table spaces states ~100 MHz apart, so this is the
#: dither band of the bottom two or three states — DVFS exhausted, the
#: controller grinding against the floor.  On the default sweep this
#: flags caps ≤ 130 W (means 1,393–1,427 MHz) and not 135 W (≥ 1,747).
FREQ_FLOOR_TOL_MHZ = 250.0
#: Fraction of covered time that must sit at the floor to flag pinning.
FREQ_FLOOR_MIN_FRACTION = 0.60
#: Watts above the cap that count as overshoot (above meter noise).
CAP_OVERSHOOT_TOL_W = 1.0
#: Energy rise over the sweep minimum that marks the knee onset.
ENERGY_KNEE_RISE_FRACTION = 0.02


@dataclass(frozen=True)
class Detection:
    """One detected phenomenon in one timeline (or across a sweep)."""

    phenomenon: str
    workload: str
    cap_w: Optional[float]
    detail: Dict[str, float]

    def to_dict(self) -> dict:
        """JSON-ready representation (provenance annotation)."""
        return {
            "phenomenon": self.phenomenon,
            "workload": self.workload,
            "cap_w": self.cap_w,
            "detail": dict(self.detail),
        }


def detect_frequency_floor(
    timeline,
    floor_mhz: float,
    tol_mhz: float = FREQ_FLOOR_TOL_MHZ,
    min_fraction: float = FREQ_FLOOR_MIN_FRACTION,
) -> Optional[Detection]:
    """Flag a run whose frequency sat pinned at the P-state floor.

    Pinned means the ``freq_mhz`` channel's mean stayed within
    ``tol_mhz`` of ``floor_mhz`` for at least ``min_fraction`` of the
    covered time.  The paper reports exactly this at caps ≤ 130 W
    (Table II's 1,200 MHz rows).
    """
    if timeline is None or "freq_mhz" not in timeline.channels:
        return None
    channel = timeline.channels["freq_mhz"]
    total = channel.duration_s()
    if total <= 0:
        return None
    pinned = sum(
        p.dt_s for p in channel.points() if p.mean <= floor_mhz + tol_mhz
    )
    fraction = pinned / total
    if fraction < min_fraction:
        return None
    return Detection(
        phenomenon="freq_floor",
        workload=timeline.workload,
        cap_w=timeline.cap_w,
        detail={
            "floor_mhz": float(floor_mhz),
            "tol_mhz": float(tol_mhz),
            "pinned_fraction": round(fraction, 4),
            "pinned_s": round(pinned, 3),
        },
    )


def detect_cap_overshoot(
    timeline,
    tol_w: float = CAP_OVERSHOOT_TOL_W,
) -> Optional[Detection]:
    """Flag the DCM control loop's overshoot of a fresh cap.

    Every capped run starts at P0 (uncapped power), so true node power
    exceeds the cap until the escalation ladder bites; the detection
    reports the peak excess and the settling time — the earliest
    instant after which the ``power_w`` channel's bucket means never
    exceed ``cap + tol_w`` again.
    """
    if timeline is None or timeline.cap_w is None:
        return None
    if "power_w" not in timeline.channels:
        return None
    cap = timeline.cap_w
    points = timeline.channels["power_w"].points()
    over = [p for p in points if p.mean > cap + tol_w]
    if not over:
        return None
    peak = max(p.vmax for p in over)
    settling_s = max(p.end_s for p in over)
    return Detection(
        phenomenon="cap_overshoot",
        workload=timeline.workload,
        cap_w=cap,
        detail={
            "peak_w": round(peak, 3),
            "overshoot_w": round(peak - cap, 3),
            "settling_s": round(settling_s, 3),
            "tol_w": float(tol_w),
        },
    )


def detect_energy_knee(
    workload: str,
    energy_by_cap: Dict[float, float],
    rise_fraction: float = ENERGY_KNEE_RISE_FRACTION,
) -> Optional[Detection]:
    """Find the sweep's energy-knee onset cap.

    Walking the caps from highest to lowest, the knee is the highest
    cap whose energy exceeds the sweep's minimum by more than
    ``rise_fraction`` *and* below which energy never recovers — the
    point where capping starts costing energy instead of saving it
    (the paper places it below 135 W).
    """
    if len(energy_by_cap) < 3:
        return None
    e_min = min(energy_by_cap.values())
    if e_min <= 0:
        return None
    caps = sorted(energy_by_cap, reverse=True)
    knee = None
    for i, cap in enumerate(caps):
        rise = energy_by_cap[cap] / e_min - 1.0
        below = caps[i:]
        if rise > rise_fraction and all(
            energy_by_cap[c] / e_min - 1.0 > rise_fraction / 2 for c in below
        ):
            knee = cap
            break
    if knee is None:
        return None
    return Detection(
        phenomenon="energy_knee",
        workload=workload,
        cap_w=knee,
        detail={
            "knee_cap_w": float(knee),
            "min_energy_j": round(e_min, 3),
            "rise_fraction": round(energy_by_cap[knee] / e_min - 1.0, 4),
            "threshold": float(rise_fraction),
        },
    )


def scan_timeline(
    timeline, floor_mhz: float
) -> List[Detection]:
    """All per-run detections for one timeline."""
    detections = []
    for det in (
        detect_frequency_floor(timeline, floor_mhz),
        detect_cap_overshoot(timeline),
    ):
        if det is not None:
            detections.append(det)
    return detections


def scan_experiment(result, floor_mhz: float) -> List[Detection]:
    """Scan a whole sweep: per-cap timelines plus the energy knee.

    Every detection is logged as a ``phenomenon_detected`` event and
    counted in ``repro_telemetry_detections_total``; the caller usually
    also attaches ``[d.to_dict() for d in detections]`` to provenance.
    """
    detections: List[Detection] = []
    rows = [result.baseline] + [
        result.by_cap[c] for c in sorted(result.by_cap, reverse=True)
    ]
    for row in rows:
        detections.extend(scan_timeline(row.timeline, floor_mhz))
    energy_by_cap = {
        cap: row.energy_j for cap, row in result.by_cap.items()
    }
    knee = detect_energy_knee(result.workload, energy_by_cap)
    if knee is not None:
        detections.append(knee)
    for det in detections:
        _log.info(
            "phenomenon_detected",
            phenomenon=det.phenomenon,
            workload=det.workload,
            cap_w=det.cap_w,
            **det.detail,
        )
    if detections:
        process_metrics().observe_detections(
            [d.phenomenon for d in detections]
        )
    return detections
