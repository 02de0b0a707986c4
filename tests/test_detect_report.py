"""Contact detection gating/matching and the run-report text format."""

from dataclasses import replace

import numpy as np
import pytest

from thermocover.detect import detect_contacts, gate_mask
from thermocover.plant import ContactEvent, ContactKind
from thermocover.report import parse_report, render_report
from thermocover.scenario import DetectionConfig, builtin_scenarios
from thermocover.simulate import simulate
from thermocover.errors import ConfigError
from thermocover.trace import SimTrace


def _trace(q_hat, pump=None, contact=None, t_s=1.0):
    n = len(q_hat)
    pump = np.zeros(n, dtype=bool) if pump is None else np.asarray(pump)
    contact = np.zeros(n, dtype=bool) if contact is None \
        else np.asarray(contact)
    z = np.zeros(n)
    return SimTrace(t=t_s * np.arange(n), T_p_cmd=z, T_p=z, T_co=z, T_w=z,
                    T_c=z, pump_on=pump, q_w=z, q_i_true=z,
                    q_i_hat=np.asarray(q_hat, dtype=float),
                    contact_flag=contact)


def test_zero_estimate_no_detections():
    report = detect_contacts(_trace(np.zeros(100)), DetectionConfig())
    assert report.intervals == ()
    assert report.false_positives == 0


def test_threshold_above_peak_misses():
    q = np.zeros(100)
    q[40:50] = 0.5
    contact = np.zeros(100, dtype=bool)
    contact[40:45] = True
    report = detect_contacts(_trace(q, contact=contact),
                             DetectionConfig(threshold=1.0))
    assert report.intervals == ()
    assert report.misses == 1
    assert report.true_positives == 0
    # the peak is still reported for the missed event
    assert report.peak_per_event[0] == pytest.approx(0.5)


def test_detection_with_hold_requirement():
    q = np.zeros(200)
    q[100:108] = 1.0      # 8 s burst
    q[150] = 1.0          # single-sample spike, must be rejected
    contact = np.zeros(200, dtype=bool)
    contact[100:105] = True
    cfg = DetectionConfig(threshold=0.12, min_hold=3.0, switch_gate=6.0)
    report = detect_contacts(_trace(q, contact=contact), cfg)
    assert len(report.intervals) == 1
    assert report.true_positives == 1
    assert report.false_positives == 0


def test_gate_covers_pump_toggles_and_start():
    pump = np.zeros(60, dtype=bool)
    pump[30:40] = True
    mask = gate_mask(pump, t_s=1.0, switch_gate=5.0)
    assert mask[:6].all()          # run start
    assert mask[30:36].all()       # off -> on
    assert mask[40:46].all()       # on -> off
    assert not mask[20]
    assert not mask[50]
    assert not gate_mask(pump, 1.0, 0.0).any()


def test_gated_burst_not_detected():
    q = np.zeros(100)
    q[50:60] = 5.0
    pump = np.zeros(100, dtype=bool)
    pump[50:] = True       # toggle right where the burst starts
    cfg = DetectionConfig(threshold=0.12, min_hold=1.0, switch_gate=20.0)
    report = detect_contacts(_trace(q, pump=pump), cfg)
    assert report.intervals == ()


def test_detection_config_validation():
    nan, inf = float("nan"), float("inf")
    for bad in ({"threshold": 0.0}, {"threshold": nan}, {"threshold": inf},
                {"min_hold": -1.0}, {"min_hold": nan}, {"min_hold": inf},
                {"switch_gate": nan}, {"switch_gate": inf}):
        with pytest.raises(ConfigError):
            DetectionConfig(**bad)


def test_report_round_trip():
    spec = builtin_scenarios()["exp2_nocontact"]
    detection = detect_contacts(_trace(np.zeros(10)), spec.detection)
    text = render_report(spec, [], detection, [],
                         overrides=["detection.threshold=0.2"])
    assert "# override: detection.threshold=0.2" in text
    items = parse_report(text)
    assert items["scenario"] == "exp2_nocontact"
    assert items["detection.count"] == "0"
    assert items["detection.false_positives"] == "0"
    assert items["mpc.mode_switches"] == "0"
    items = parse_report(render_report(spec, [], detection, [435.0, 477.0]))
    assert items["mpc.mode_switches"] == "2"
    assert items["mpc.mode_switch.1.time"] == "477"


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: mode switches change the plant's constants mid-run, "
    "and pump-toggle tails outlast the gate; with one observer per mode the "
    "three staircases raise 7, 1 and 3 false contacts, and |q_hat| outside "
    "the gate peaks at 4.60, 0.31 and 0.37 W"))
def test_exp1_staircases_raise_no_false_contact():
    scenarios = builtin_scenarios()
    counts = {}
    for name in ("exp1_heat", "exp1_cool", "exp1_heat_after_cool"):
        spec = scenarios[name]
        counts[name] = len(detect_contacts(simulate(spec),
                                           spec.detection).intervals)
    assert counts == {name: 0 for name in counts}


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: the grasp lifts the small cover by about 11 K in one "
    "sample, the controller of T_c turns the pump on at the next, and the "
    "6 s pump gate covers the whole contact window: with one observer per "
    "mode still 0 found, 1 missed and 1 false contact, peak 0.73 W"))
def test_grasp_during_cool_staircase_detected():
    spec = builtin_scenarios()["exp1_cool"]
    spec = replace(spec, contacts=(
        ContactEvent.preset(ContactKind.GRASP, start=900.0),))
    report = detect_contacts(simulate(spec), spec.detection)
    assert (report.true_positives, report.misses) == (1, 0)
