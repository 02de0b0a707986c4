"""Built-in protocols, scenario validation, and key-value round-trips."""

from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

from thermocover.errors import ConfigError
from thermocover.mpc import PumpHysteresis
from thermocover.params import ABSOLUTE_ZERO, MAX_ABS_TEMPERATURE, Target
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


def test_plant_stability_margin_enforced():
    staircase = builtin_scenarios()["exp1_cool"]
    # the plate lag sets no bound on dt = 0.1 s, however short
    for lag in (0.0, 0.01, 0.19, 0.2, 2.0):
        replace(staircase, peltier_lag=lag)

    def grasps(*starts):
        return tuple(ContactEvent.preset(ContactKind.GRASP, start=s)
                     for s in starts)

    # one grasp, g dt / C_c = 0.8 in cool mode, and two a sample apart
    replace(staircase, contacts=grasps(100.0))
    replace(staircase, contacts=grasps(100.0, 106.5))
    # two that can be open in one sample: 1.6 W/K against 0.97 W/K
    for starts in ((100.0, 102.0), (100.0, 105.5)):
        with pytest.raises(ConfigError, match="stability margin"):
            replace(staircase, contacts=grasps(*starts))


def _with(path, value):
    """exp2_grasp, which holds a contact and an initial temperature, with
    the float field at ``path`` set to ``value``."""
    spec = builtin_scenarios()["exp2_grasp"]
    owner, _, attr = path.rpartition(".")
    if not owner:
        return replace(spec, **{attr: value})
    if owner == "setpoints":
        first = (value, 90.0) if attr == "value" else (23.0, value)
        return replace(spec, setpoints=(first,) + spec.setpoints[1:])
    if owner == "contact":
        return replace(spec, contacts=(replace(spec.contacts[0],
                                               **{attr: value}),))
    return replace(spec, **{owner: replace(getattr(spec, owner),
                                           **{attr: value})})


_FLOAT_FIELDS = (
    "t_s", "dt", "total_duration", "initial_temp", "peltier_lag",
    "peltier_power", "observer_tc", "setpoints.value", "setpoints.hold",
    "ambient.T_amb", "controller.W1", "controller.W2", "controller.T_min_th",
    "controller.T_max_th", "controller.t_s", "pump.on_band",
    "pump.off_band", "detection.threshold", "detection.min_hold",
    "detection.switch_gate", "contact.start", "contact.duration",
    "contact.contact_conductance", "contact.T_skin",
)


def test_float_field_list_complete():
    spec = builtin_scenarios()["exp2_grasp"]
    owners = {"": spec, "contact.": spec.contacts[0],
              **{f"{f.name}.": getattr(spec, f.name) for f in fields(spec)
                 if is_dataclass(getattr(spec, f.name))}}
    found = {prefix + f.name for prefix, obj in owners.items()
             for f in fields(obj) if isinstance(getattr(obj, f.name), float)}
    assert found <= set(_FLOAT_FIELDS)
    assert len(found) == len(_FLOAT_FIELDS) - 3   # + total_duration, setpoints


@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   float("-inf")])
@pytest.mark.parametrize("path", _FLOAT_FIELDS)
def test_non_finite_float_fields_rejected(path, value):
    if path == "peltier_power" and value == float("inf"):
        # an infinite power limit means "no limit"
        assert _with(path, value).peltier_power == value
        return
    with pytest.raises(ConfigError):
        _with(path, value)


def test_kv_round_trip_every_builtin():
    for spec in builtin_scenarios().values():
        assert scenario_from_kv(scenario_to_kv(spec)) == spec


@pytest.mark.parametrize("kind", [None, "grasp", "soft_touch"])
def test_absent_contact_keys_take_the_kinds_preset(kind):
    # a contact given by its start (and kind) alone is the kind's preset:
    # a soft touch without a conductance is 0.2 W/K, not the grasp's 0.8
    items = scenario_to_kv(builtin_scenarios()["exp2_nocontact"])
    items["contact.0.start"] = "100.0"
    if kind is not None:
        items["contact.0.kind"] = kind
    (contact,) = scenario_from_kv(items).contacts
    want = ContactKind(kind or "grasp")
    assert contact == ContactEvent.preset(want, start=100.0)
    assert contact.contact_conductance \
        == {"grasp": 0.8, "soft_touch": 0.2}[want.value]


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


@pytest.mark.parametrize("path, key", [
    ("setpoints.value", "setpoints"),
    ("initial_temp", "initial_temp"),
    ("ambient.T_amb", "ambient.t_amb"),
    ("controller.T_min_th", "controller.T_min_th"),
    ("controller.T_max_th", "controller.T_max_th"),
    ("contact.T_skin", "contact.0.t_skin"),
])
def test_temperature_below_absolute_zero_rejected(path, key):
    if path != "controller.T_max_th":   # which must exceed T_min_th
        _with(path, ABSOLUTE_ZERO)
    # the same rule puts a ceiling on every temperature field
    cold = ABSOLUTE_ZERO - 0.01
    hot = 2.0 * MAX_ABS_TEMPERATURE
    for bad, message in ((cold, "at least -273.15"), (hot, r"at most 1e\+06")):
        with pytest.raises(ConfigError, match=message):
            _with(path, bad)
        text = f"{bad!r}:90 24:90 25:90" if key == "setpoints" else repr(bad)
        with pytest.raises(ConfigError, match=message):
            apply_overrides(builtin_scenarios()["exp2_grasp"],
                            [f"{key}={text}"])
