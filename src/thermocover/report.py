"""Per-segment tracking analysis and the plain-text run report.

The report is human-readable but keeps a stable ``key: value`` section so
other tools (and the acceptance suite) can parse it back without guessing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detect import DetectionReport
from .scenario import ScenarioSpec
from .trace import SimTrace


@dataclass(frozen=True)
class SegmentStats:
    start: float
    end: float
    setpoint: float
    settle_time: float | None      # s after segment start; None if never
    steady_state_error: float      # K, error at the settle point (see below)
    mean_abs_error_tail: float     # K, mean |error| over the final 10%
    rise_time_90: float | None     # s to cover 90% of the commanded change
    max_command: float
    min_command: float
    pump_off_at_settle: bool | None


def analyze_segments(trace: SimTrace, spec: ScenarioSpec) -> list:
    """Tracking statistics for every setpoint segment.

    Steady-state error is read at the last pump switch-off inside the
    segment: that is the moment the loop declares the response settled and
    stops the water, matching how the rig behaves.  If the pump never
    switches off, the tail-mean error is used instead.
    """
    y = trace.column(spec.target.node)
    out = []
    for start, end, setpoint in spec.segments():
        sel = (trace.t >= start) & (trace.t < end)
        idx = np.flatnonzero(sel)
        if idx.size == 0:
            continue
        err = y[idx] - setpoint
        tail_error = float(np.mean(np.abs(err[-max(1, idx.size // 10):])))
        band = spec.pump.off_band

        settle_time = None
        settled = np.flatnonzero(np.abs(err) < band)
        if settled.size:
            settle_time = float(trace.t[idx[settled[0]]] - start)

        pump = trace.pump_on[idx]
        switch_off = np.flatnonzero(pump[:-1] & ~pump[1:]) + 1
        if switch_off.size:
            j = switch_off[-1]
            sse = float(abs(err[j]))
            pump_off = not bool(pump[j])
        elif settled.size and not pump[settled[0]]:
            # settled passively, pump already off the whole way
            j = settled[0]
            sse = float(abs(err[j]))
            pump_off = True
        else:
            sse = tail_error
            pump_off = None

        y0 = float(y[idx[0]])
        rise = None
        if abs(setpoint - y0) > 1e-9:
            level = y0 + 0.9 * (setpoint - y0)
            if setpoint >= y0:
                crossed = np.flatnonzero(y[idx] >= level)
            else:
                crossed = np.flatnonzero(y[idx] <= level)
            if crossed.size:
                rise = float(trace.t[idx[crossed[0]]] - start)

        out.append(SegmentStats(
            start=start, end=end, setpoint=setpoint,
            settle_time=settle_time,
            steady_state_error=sse,
            mean_abs_error_tail=tail_error,
            rise_time_90=rise,
            max_command=float(np.max(trace.T_p_cmd[idx])),
            min_command=float(np.min(trace.T_p_cmd[idx])),
            pump_off_at_settle=pump_off,
        ))
    return out


def mode_switch_times(trace: SimTrace) -> list:
    """Times of the samples whose controller mode differs from the sample
    before; the trace must carry its ``mode`` record."""
    mode = trace.mode
    return trace.t[1:][mode[1:] != mode[:-1]].tolist()


def _fmt(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def render_report(spec: ScenarioSpec, segments, detection: DetectionReport,
                  mode_switches, overrides=()) -> str:
    """The report text; ``mode_switches`` are the times
    ``mode_switch_times`` returns."""
    lines = [f"# run report: {spec.name}"]
    for entry in overrides:
        lines.append(f"# override: {entry}")
    lines.append("")
    lines.append(f"scenario: {spec.name}")
    lines.append(f"target: {spec.target.value}")
    lines.append(f"duration: {_fmt(spec.duration)}")
    lines.append(f"segments: {len(segments)}")
    for i, seg in enumerate(segments):
        p = f"segment.{i}"
        lines.append(f"{p}.setpoint: {_fmt(seg.setpoint)}")
        lines.append(f"{p}.settle_time: {_fmt(seg.settle_time)}")
        lines.append(f"{p}.steady_state_error: {_fmt(seg.steady_state_error)}")
        lines.append(f"{p}.mean_abs_error_tail: "
                     f"{_fmt(seg.mean_abs_error_tail)}")
        lines.append(f"{p}.rise_time_90: {_fmt(seg.rise_time_90)}")
        lines.append(f"{p}.max_command: {_fmt(seg.max_command)}")
        lines.append(f"{p}.min_command: {_fmt(seg.min_command)}")
        lines.append(f"{p}.pump_off_at_settle: {_fmt(seg.pump_off_at_settle)}")
    lines.append(f"mpc.mode_switches: {len(mode_switches)}")
    for i, t in enumerate(mode_switches):
        lines.append(f"mpc.mode_switch.{i}.time: {_fmt(t)}")
    lines.append(f"detection.threshold: {_fmt(detection.config.threshold)}")
    lines.append(f"detection.count: {len(detection.intervals)}")
    for i, (d0, d1) in enumerate(detection.intervals):
        lines.append(f"detection.{i}.start: {_fmt(d0)}")
        lines.append(f"detection.{i}.end: {_fmt(d1)}")
    lines.append(f"detection.true_positives: {detection.true_positives}")
    lines.append(f"detection.false_positives: {detection.false_positives}")
    lines.append(f"detection.misses: {detection.misses}")
    for i, peak in enumerate(detection.peak_per_event):
        lines.append(f"detection.event.{i}.peak_q_hat: {_fmt(peak)}")
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> dict:
    """Read back the ``key: value`` section of a report."""
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#") or ":" not in line:
            continue
        key, _, value = line.partition(":")
        out[key.strip()] = value.strip()
    return out
