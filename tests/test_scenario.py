"""Built-in protocols, scenario validation, and key-value round-trips."""

from dataclasses import replace

import numpy as np
import pytest

from thermocover.errors import ConfigError
from thermocover.mpc import PumpHysteresis
from thermocover.params import Target
from thermocover.plant import ContactEvent, ContactKind
from thermocover.scenario import (ScenarioSpec, apply_overrides,
                                  builtin_scenarios, load_scenario,
                                  save_scenario, scenario_from_kv,
                                  scenario_to_kv)


def test_builtin_set_complete():
    names = set(builtin_scenarios())
    assert names == {"exp1_heat", "exp1_cool", "exp1_heat_after_cool",
                     "exp2_grasp", "exp2_softtouch", "exp2_nocontact"}


def test_exp1_protocols():
    s = builtin_scenarios()
    assert [v for v, _ in s["exp1_heat"].setpoints] == [23.0, 25.0, 27.0]
    assert [v for v, _ in s["exp1_cool"].setpoints] == [21.5, 21.0, 20.0]
    assert s["exp1_heat"].target is Target.COVER
    assert all(hold == 600.0 for _, hold in s["exp1_heat"].setpoints)


def test_exp2_protocols():
    s = builtin_scenarios()
    for name in ("exp2_grasp", "exp2_softtouch", "exp2_nocontact"):
        spec = s[name]
        assert spec.target is Target.PIPE
        assert [v for v, _ in spec.setpoints] == [23.0, 24.0, 25.0]
        assert all(hold == 90.0 for _, hold in spec.setpoints)
    grasp = s["exp2_grasp"].contacts[0]
    touch = s["exp2_softtouch"].contacts[0]
    assert grasp.duration == 5.0 and touch.duration == 5.0
    assert grasp.kind is ContactKind.GRASP
    assert grasp.contact_conductance > touch.contact_conductance
    assert not s["exp2_nocontact"].contacts


def test_setpoint_schedule():
    spec = builtin_scenarios()["exp1_heat"]
    assert spec.duration == 1800.0
    assert spec.setpoint_at(0.0) == 23.0
    assert spec.setpoint_at(599.9) == 23.0
    assert spec.setpoint_at(600.0) == 25.0
    assert spec.setpoint_at(5000.0) == 27.0
    assert spec.segments() == [(0.0, 600.0, 23.0), (600.0, 1200.0, 25.0),
                               (1200.0, 1800.0, 27.0)]


def test_preview_holds_current_setpoint():
    # the operator's future setpoint changes are not known to the controller
    spec = builtin_scenarios()["exp1_heat"]
    preview = spec.setpoint_preview(595.0, 30)
    assert np.all(preview == 23.0)


def test_contact_outside_run_rejected():
    with pytest.raises(ConfigError):
        ScenarioSpec(name="bad", setpoints=((23.0, 10.0),),
                     contacts=(ContactEvent.preset(ContactKind.GRASP,
                                                   start=20.0),))


def test_substep_granularity_enforced():
    with pytest.raises(ConfigError):
        ScenarioSpec(name="bad", setpoints=((23.0, 10.0),), t_s=1.0, dt=0.3)
    with pytest.raises(ConfigError):
        ScenarioSpec(name="bad", setpoints=((23.0, 10.0),), t_s=1.0, dt=0.5)


def test_lag_power_observer_and_duration_ranges_enforced():
    for bad in ({"peltier_lag": -1.0}, {"peltier_power": 0.0},
                {"peltier_power": float("nan")}, {"observer_tc": -0.5},
                {"total_duration": -1.0}, {"total_duration": float("inf")},
                {"total_duration": 1e7}):
        with pytest.raises(ConfigError):
            ScenarioSpec(name="bad", setpoints=((23.0, 10.0),), **bad)
    # an infinite power limit means "no limit" and stays allowed
    ScenarioSpec(name="ok", setpoints=((23.0, 10.0),),
                 peltier_power=float("inf"))


def test_kv_round_trip_every_builtin():
    for spec in builtin_scenarios().values():
        assert scenario_from_kv(scenario_to_kv(spec)) == spec


def test_latched_pump_rejected():
    # the latch is the controller's run-time state, and the key-value form
    # has no key for it, so a spec holding it could not round-trip
    spec = builtin_scenarios()["exp1_heat"]
    with pytest.raises(ConfigError):
        replace(spec, pump=PumpHysteresis(state=True))


def test_file_round_trip(tmp_path):
    spec = builtin_scenarios()["exp2_grasp"]
    path = tmp_path / "scenario.txt"
    save_scenario(spec, path)
    assert load_scenario(path) == spec


def test_unknown_key_rejected():
    items = scenario_to_kv(builtin_scenarios()["exp1_heat"])
    items["mystery"] = 1.0
    with pytest.raises(ConfigError):
        scenario_from_kv(items)


def test_overrides():
    spec = builtin_scenarios()["exp2_nocontact"]
    out = apply_overrides(spec, ["detection.threshold=0.05",
                                 "pump.on_band=0.05",
                                 "pump.off_band=0.02"])
    assert out.detection.threshold == 0.05
    assert out.pump.on_band == 0.05
    with pytest.raises(ConfigError):
        apply_overrides(spec, ["not-an-assignment"])
