"""Contact detection on top of the heat-flow estimate.

A contact is declared when the estimate magnitude stays above the threshold
for at least ``min_hold`` seconds.  Samples close after a pump toggle are
ignored: the pump switching is known, and its transients are the dominant
source of false positives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scenario import DetectionConfig
from .trace import SimTrace


@dataclass(frozen=True)
class DetectionReport:
    intervals: tuple          # ((t_start, t_end), ...) detected contacts
    true_positives: int
    false_positives: int
    misses: int
    peak_per_event: tuple     # max |q_i_hat| near each truth window, W
    config: DetectionConfig


def _runs(mask: np.ndarray):
    """(start_index, end_index_exclusive) for each run of True."""
    if mask.size == 0:
        return []
    padded = np.concatenate(([False], mask, [False]))
    edges = np.flatnonzero(np.diff(padded.astype(np.int8)))
    return list(zip(edges[::2], edges[1::2]))


def gate_mask(pump_on: np.ndarray, t_s: float, switch_gate: float) -> np.ndarray:
    """True for samples to ignore because a known event just happened.

    Gated events are pump toggles and the start of the run (the observer
    needs a moment to spin up from its initial state).
    """
    n = len(pump_on)
    mask = np.zeros(n, dtype=bool)
    if n == 0 or switch_gate <= 0.0:
        return mask
    # a gate past the end of the run covers the rest of it
    width = int(min(np.ceil(switch_gate / t_s), n))
    toggles = np.flatnonzero(np.diff(pump_on.astype(np.int8))) + 1
    for idx in [0, *toggles]:
        mask[idx:idx + width + 1] = True
    return mask


def detect_contacts(trace: SimTrace, cfg: DetectionConfig) -> DetectionReport:
    if len(trace) == 0:
        return DetectionReport((), 0, 0, 0, (), cfg)
    t = trace.t
    if len(t) > 1:
        t_s = float(t[1] - t[0])
    else:
        t_s = 1.0

    q = np.abs(trace.q_i_hat)
    gated = gate_mask(trace.pump_on, t_s, cfg.switch_gate)
    above = (q > cfg.threshold) & ~gated

    # a hold longer than the run admits no detection
    min_samples = max(1, int(min(np.ceil(cfg.min_hold / t_s), len(t) + 1)))
    intervals = []
    for i0, i1 in _runs(above):
        if i1 - i0 >= min_samples:
            intervals.append((float(t[i0]), float(t[i1 - 1])))

    truth = [(float(t[i0]), float(t[i1 - 1]))
             for i0, i1 in _runs(trace.contact_flag.astype(bool))]

    # overlap matching; the detector may lag the physical window, so truth
    # windows are widened by the gate length for matching and peak lookup
    pad = max(cfg.switch_gate, 10.0)
    tp = 0
    matched = np.zeros(len(intervals), dtype=bool)
    misses = 0
    peaks = []
    for w0, w1 in truth:
        hit = False
        for j, (d0, d1) in enumerate(intervals):
            if d0 <= w1 + pad and d1 >= w0:
                matched[j] = True
                hit = True
        if hit:
            tp += 1
        else:
            misses += 1
        sel = (t >= w0) & (t <= w1 + pad)
        peaks.append(float(np.max(q[sel])) if np.any(sel) else 0.0)
    fp = int(np.count_nonzero(~matched))

    return DetectionReport(
        intervals=tuple(intervals),
        true_positives=tp,
        false_positives=fp,
        misses=misses,
        peak_per_event=tuple(peaks),
        config=cfg,
    )

