"""Fixed-step plant integration: equilibria, flows, stability, convergence."""

import math

import numpy as np
import pytest

from thermocover.errors import ConfigError, NumericError
from thermocover.params import MAX_ABS_TEMPERATURE, AmbientConfig
from thermocover.plant import (ContactEvent, ContactKind,
                               DEFAULT_CONDUCTANCE, PlantState,
                               contact_heat_flow, estimate_q_aw, pump_flow,
                               step_plant)


AMBIENT = AmbientConfig()


def test_global_equilibrium_is_fixed(heat_params):
    state = PlantState.uniform(AMBIENT.T_amb)
    out = step_plant(state, AMBIENT.T_amb, True, 0.0, heat_params, AMBIENT,
                     0.1)
    for name in ("T_p", "T_co", "T_w", "T_c"):
        assert getattr(out, name) == pytest.approx(AMBIENT.T_amb, abs=1e-12)


def test_pump_flow_value(heat_params):
    assert pump_flow(30.0, 25.0, True, heat_params) == \
        pytest.approx(5.0 / 6.00, rel=1e-12)
    assert pump_flow(30.0, 25.0, False, heat_params) == 0.0


def test_pump_off_decouples_tank(heat_params):
    # with the pump stopped the tank relaxes toward the commanded plate
    # while the pipe/cover pair drifts toward ambient
    state = PlantState(T_p=40.0, T_co=40.0, T_w=30.0, T_c=30.0)
    for _ in range(5000):
        state = step_plant(state, 40.0, False, 0.0, heat_params, AMBIENT,
                           1.0, peltier_power=float("inf"))
    assert state.T_co == pytest.approx(40.0, abs=1e-6)
    assert state.T_w == pytest.approx(AMBIENT.T_amb, abs=0.01)


def test_unstable_dt_rejected(heat_params):
    state = PlantState.uniform(21.0)
    with pytest.raises(ConfigError):
        step_plant(state, 21.0, False, 0.0, heat_params, AMBIENT, 1e5)
    with pytest.raises(ConfigError):
        step_plant(state, 21.0, False, 0.0, heat_params, AMBIENT, 0.0)


def test_rk4_convergence(heat_params):
    # halving the substep changes the trajectory by far less than a microkelvin
    def run(dt):
        state = PlantState.uniform(21.0)
        n = round(60.0 / dt)
        for _ in range(n):
            state = step_plant(state, 40.0, True, 0.0, heat_params, AMBIENT,
                               dt, peltier_power=float("inf"))
        return np.array([state.T_p, state.T_co, state.T_w, state.T_c])

    assert np.max(np.abs(run(0.1) - run(0.05))) < 1e-6


def test_contact_heat_flow_window():
    event = ContactEvent.preset(ContactKind.GRASP, start=10.0)
    assert contact_heat_flow(event, 25.0, 5.0) == 0.0
    assert contact_heat_flow(event, 25.0, 16.0) == 0.0
    assert contact_heat_flow(event, event.T_skin, 12.0) == 0.0
    assert contact_heat_flow(event, 25.0, 12.0) == \
        pytest.approx(0.8 * (33.0 - 25.0), rel=1e-12)


def test_contact_kind_ordering():
    grasp = DEFAULT_CONDUCTANCE[ContactKind.GRASP]
    touch = DEFAULT_CONDUCTANCE[ContactKind.SOFT_TOUCH]
    assert grasp > touch > 0.0


def test_contact_event_validation():
    nan, inf = float("nan"), float("inf")
    args = dict(start=0.0, duration=5.0, kind=ContactKind.GRASP,
                contact_conductance=0.8)
    ContactEvent(**args)
    # NaN fails every comparison, so each field needs its own finite check
    for bad in ({"duration": 0.0}, {"contact_conductance": -0.1},
                {"start": nan}, {"start": inf},
                {"duration": nan}, {"duration": inf},
                {"contact_conductance": nan}, {"contact_conductance": inf},
                {"T_skin": inf}, {"T_skin": nan}):
        with pytest.raises(ConfigError):
            ContactEvent(**{**args, **bad})


def test_peltier_power_cap_limits_tank_rate(heat_params):
    # with a large command step the capped actuator heats the tank at
    # peltier_power / C_co at most; the ideal actuator is much faster
    state = PlantState.uniform(21.0)
    capped = step_plant(state, 60.0, False, 0.0, heat_params, AMBIENT, 0.1,
                        peltier_lag=0.0, peltier_power=60.0)
    ideal = step_plant(state, 60.0, False, 0.0, heat_params, AMBIENT, 0.1,
                       peltier_lag=0.0, peltier_power=float("inf"))
    max_rise = 60.0 / heat_params.C_co * 0.1
    assert capped.T_co - 21.0 <= max_rise * (1.0 + 1e-9)
    assert ideal.T_co - 21.0 > 5.0 * (capped.T_co - 21.0)


@pytest.mark.parametrize("name, value", [
    ("dt", float("nan")),
    ("dt", -0.1),
    ("peltier_lag", -1.0),
    ("peltier_lag", float("nan")),
    ("peltier_power", float("nan")),
    ("peltier_power", -5.0),
    ("peltier_power", 0.0),
    ("n_sub", 0),
])
def test_bad_arguments_rejected(heat_params, name, value):
    args = dict(dt=0.1, peltier_lag=2.0, peltier_power=60.0)
    args[name] = value
    with pytest.raises(ConfigError):
        step_plant(PlantState.uniform(21.0), 40.0, True, 0.0, heat_params,
                   AMBIENT, **args)


# The tuple-based RK4 that step_plant replaced, kept verbatim as the
# reference its traces must match bit for bit.

def _reference_derivs(T_p, T_co, T_w, T_c, T_p_cmd, pump_on, q_i, params,
                      ambient, peltier_lag, peltier_power):
    if peltier_lag > 0.0:
        dT_p = (T_p_cmd - T_p) / peltier_lag
    else:
        dT_p = 0.0
    q_w = pump_flow(T_co, T_w, pump_on, params)
    q_aw = estimate_q_aw(T_w, ambient.T_amb, params.R_aw)
    # actuator limit: the plate can hold at most peltier_power across R_co
    q_p = (T_p - T_co) / params.R_co
    if math.isfinite(peltier_power):
        q_p = max(-peltier_power, min(peltier_power, q_p))
    dT_co = (q_p - q_w) / params.C_co
    dT_w = (q_w + q_aw - (T_w - T_c) / params.R_c) / params.C_w
    dT_c = ((T_w - T_c) / params.R_c + q_i) / params.C_c
    return dT_p, dT_co, dT_w, dT_c


def _reference_step(state, T_p_cmd, pump_on, q_i, params, ambient, dt,
                    peltier_lag, peltier_power):
    T_p0 = state.T_p if peltier_lag > 0.0 else T_p_cmd
    y = (T_p0, state.T_co, state.T_w, state.T_c)

    def f(v):
        return _reference_derivs(*v, T_p_cmd, pump_on, q_i, params, ambient,
                                 peltier_lag, peltier_power)

    k1 = f(y)
    k2 = f(tuple(yi + 0.5 * dt * ki for yi, ki in zip(y, k1)))
    k3 = f(tuple(yi + 0.5 * dt * ki for yi, ki in zip(y, k2)))
    k4 = f(tuple(yi + dt * ki for yi, ki in zip(y, k3)))
    new = tuple(
        yi + dt * (a + 2.0 * b + 2.0 * c + d) / 6.0
        for yi, a, b, c, d in zip(y, k1, k2, k3, k4)
    )
    return PlantState(T_p=new[0], T_co=new[1], T_w=new[2], T_c=new[3])


@pytest.mark.parametrize("pump_on", [True, False])
@pytest.mark.parametrize("peltier_lag", [0.0, 2.0])
@pytest.mark.parametrize("peltier_power", [float("inf"), 60.0, 0.5])
@pytest.mark.parametrize("q_i", [0.0, 3.0])
@pytest.mark.parametrize("dt", [0.1, 1.0])
@pytest.mark.parametrize("start", [
    PlantState(T_p=-0.5, T_co=-0.03, T_w=-0.02, T_c=-0.01),
    PlantState(T_p=70.0, T_co=-5.0, T_w=0.01, T_c=-0.01),
])
def test_step_bit_equal_to_reference(heat_params, pump_on, peltier_lag,
                                     peltier_power, q_i, dt, start):
    # Nodes that start near 0 deg C and cross it have small ulps next to
    # their increments, so a reordered or reciprocal operation shows within
    # 20 steps; near room temperature it mostly rounds away.  0.5 W makes
    # the actuator cap bind.
    new = ref = start
    for k in range(20):
        cmd = 45.0 if k < 10 else -10.0
        new = step_plant(new, cmd, pump_on, q_i, heat_params, AMBIENT, dt,
                         peltier_lag=peltier_lag, peltier_power=peltier_power)
        ref = _reference_step(ref, cmd, pump_on, q_i, heat_params, AMBIENT,
                              dt, peltier_lag, peltier_power)
        assert new == ref


@pytest.mark.parametrize("pump_on", [True, False])
@pytest.mark.parametrize("peltier_lag", [0.0, 2.0])
# no cap, a cap that never binds, and one that always does
@pytest.mark.parametrize("peltier_power", [float("inf"), 1e4, 0.5])
@pytest.mark.parametrize("q_i", [0.0, 3.0])
@pytest.mark.parametrize("contacts", [
    (),
    # one window opens and closes inside the second sample, the other
    # closes in the middle of it
    (ContactEvent(start=1.35, duration=0.3, kind=ContactKind.GRASP,
                  contact_conductance=0.8, T_skin=33.0),
     ContactEvent.preset(ContactKind.SOFT_TOUCH, start=0.0, duration=1.55,
                         T_skin=-5.0)),
], ids=["no-contact", "contacts"])
def test_sample_call_bit_equal_to_substep_calls(heat_params, pump_on,
                                               peltier_lag, peltier_power,
                                               q_i, contacts):
    # one call over a whole sample against its ten substeps one call each,
    # the contact flow re-evaluated before every substep
    dt, n_sub = 0.1, 10
    kw = dict(peltier_lag=peltier_lag, peltier_power=peltier_power)
    sample = sub = PlantState(T_p=-0.5, T_co=-0.03, T_w=-0.02, T_c=-0.01)
    for k in range(4):
        t = k * 1.0
        cmd = 45.0 if k < 2 else -10.0
        sample = step_plant(sample, cmd, pump_on, q_i, heat_params, AMBIENT,
                            dt, n_sub=n_sub, contacts=contacts, t=t, **kw)
        for j in range(n_sub):
            flow = q_i
            for c in contacts:
                flow += contact_heat_flow(c, sub.T_c, t + j * dt)
            sub = step_plant(sub, cmd, pump_on, flow, heat_params, AMBIENT,
                             dt, **kw)
        assert sample == sub


def test_non_finite_substep_raises(heat_params):
    # a sample call raises on a non-finite state as a substep call does
    hot = ContactEvent(start=0.0, duration=1.0, kind=ContactKind.GRASP,
                       contact_conductance=1e300,
                       T_skin=MAX_ABS_TEMPERATURE)
    with pytest.raises(NumericError):
        step_plant(PlantState.uniform(21.0), 21.0, True, 0.0, heat_params,
                   AMBIENT, 0.1, n_sub=10, contacts=(hot,))
