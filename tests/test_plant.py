"""Fixed-step plant integration: equilibria, flows, stability, convergence,
the exact per-sample maps and their RK4 fallback."""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from thermocover.errors import ConfigError, NumericError
from thermocover.params import MAX_ABS_TEMPERATURE, AmbientConfig
from thermocover.plant import (ContactEvent, ContactKind,
                               DEFAULT_CONDUCTANCE, PlantState,
                               _MAX_MAP_SUBSTEPS, _rk4,
                               contact_heat_flow, estimate_q_aw,
                               max_stable_dt, network_matrices, pump_flow,
                               step_plant)
from thermocover.scenario import builtin_scenarios
from thermocover.simulate import simulate
from thermocover.sysid import _plant_matrices


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


# The tuple-based RK4 that the float RK4 replaced, kept verbatim as the
# reference the RK4 fallback must match bit for bit.

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
        new = _rk4(new, cmd, pump_on, q_i, heat_params, AMBIENT, dt,
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
        sample = _rk4(sample, cmd, pump_on, q_i, heat_params, AMBIENT,
                      dt, n_sub=n_sub, contacts=contacts, t=t, **kw)
        for j in range(n_sub):
            flow = q_i
            for c in contacts:
                flow += contact_heat_flow(c, sub.T_c, t + j * dt)
            sub = _rk4(sub, cmd, pump_on, flow, heat_params, AMBIENT,
                       dt, **kw)
        assert sample == sub


def test_non_finite_substep_raises(heat_params):
    # a sample call raises on a non-finite state as a substep call does
    hot = ContactEvent(start=0.0, duration=1.0, kind=ContactKind.GRASP,
                       contact_conductance=1e300,
                       T_skin=MAX_ABS_TEMPERATURE)
    with pytest.raises(NumericError):
        _rk4(PlantState.uniform(21.0), 21.0, True, 0.0, heat_params,
             AMBIENT, 0.1, n_sub=10, contacts=(hot,))


def test_stability_margin_covers_lag_and_contact(heat_params, cool_params):
    state = PlantState.uniform(21.0)
    # RK4 diverges on a plate lag far below dt
    with pytest.raises(ConfigError, match="stability margin"):
        step_plant(state, 40.0, True, 0.0, heat_params, AMBIENT, 0.1,
                   peltier_lag=0.01, n_sub=10)
    # a held contact flow with g dt / C_c = 2.5 overshoots the skin
    strong = ContactEvent(start=0.0, duration=5.0, kind=ContactKind.GRASP,
                          contact_conductance=20.0)
    with pytest.raises(ConfigError, match="stability margin"):
        step_plant(state, 21.0, True, 0.0, heat_params, AMBIENT, 0.05,
                   n_sub=10, contacts=(strong,))
    # and where the window opens inside the call, on the RK4 path too
    with pytest.raises(ConfigError, match="stability margin"):
        step_plant(state, 21.0, True, 0.0, heat_params, AMBIENT, 0.05,
                   n_sub=10, contacts=(strong,), t=-0.2)
    # a hot contact of any conductance is caught before it overflows
    hot = replace(strong, contact_conductance=1e300)
    with pytest.raises(ConfigError):
        step_plant(state, 21.0, True, 0.0, heat_params, AMBIENT, 0.1,
                   n_sub=10, contacts=(hot,))
    # the defaults and a grasp in cool mode at the staircase's dt stay
    grasp = ContactEvent.preset(ContactKind.GRASP, start=0.0)
    assert max_stable_dt(cool_params, 2.0, 0.8) >= 0.1
    step_plant(state, 21.0, True, 0.0, cool_params, AMBIENT, 0.1, n_sub=10,
               contacts=(grasp,))


def test_non_finite_result_raises_without_warning(heat_params):
    # pytest turns a numpy RuntimeWarning into a failure
    with pytest.raises(NumericError):
        step_plant(PlantState.uniform(21.0), 21.0, True, 1e308, heat_params,
                   AMBIENT, 0.1, n_sub=10)
    with pytest.raises(NumericError):
        step_plant(PlantState.uniform(21.0), 21.0, True, 0.0,
                   replace(heat_params, R_w=1e-300), AMBIENT, 0.1)


def test_sysid_takes_the_shared_network(heat_params):
    p = heat_params
    for pump_on in (True, False):
        A, B = network_matrices(p.R_w, p.C_w, p.R_c, p.C_c, p.R_aw, p.C_co,
                                p.R_co, pump_on)
        A3, B3 = _plant_matrices(p.R_w, p.C_w, p.R_c, p.C_c, p.R_aw,
                                 p.C_co, p.R_co, pump_on)
        assert np.array_equal(A3, A[1:, 1:])
        assert np.array_equal(B3[:, 0], A[1:, 0])
        assert np.array_equal(B3[:, 1], B[1:, 1])


@pytest.mark.parametrize("peltier_lag, peltier_power, cmd", [
    (0.0, float("inf"), 40.0),
    (2.0, 60.0, 23.0),      # the cap slack throughout
    (2.0, 60.0, 70.0),      # held at +cap throughout
    (0.0, 0.5, -10.0),      # held at -cap throughout
])
@pytest.mark.parametrize("contacts", [
    (),
    (ContactEvent.preset(ContactKind.GRASP, start=0.0, duration=10.0),
     ContactEvent.preset(ContactKind.SOFT_TOUCH, start=0.5, duration=3.0,
                         T_skin=-5.0)),
], ids=["no-contact", "contacts"])
def test_sample_call_matches_substep_calls(heat_params, peltier_lag,
                                           peltier_power, cmd, contacts):
    # the chained map of a sample against its substeps one call each
    dt, n_sub = 0.1, 10
    kw = dict(peltier_lag=peltier_lag, peltier_power=peltier_power,
              contacts=contacts)
    sample = sub = PlantState(T_p=cmd, T_co=25.0, T_w=24.0, T_c=23.0)
    for k in range(4):
        t = 1.0 + k
        sample = step_plant(sample, cmd, True, 0.3, heat_params, AMBIENT,
                            dt, n_sub=n_sub, t=t, **kw)
        for j in range(n_sub):
            sub = step_plant(sub, cmd, True, 0.3, heat_params, AMBIENT, dt,
                             t=t + j * dt, **kw)
        assert np.allclose(_vector(sample), _vector(sub), rtol=0.0,
                           atol=1e-12)


def test_cap_excursion_inside_sample_falls_back(heat_params):
    # a fast tank: the plate flow rises past the cap and falls back under
    # it within one sample, so both ends of the call show the slack status
    params = replace(heat_params, C_co=1.0)
    args = (PlantState.uniform(21.0), 40.0, True, 0.0, params, AMBIENT, 0.04)
    kw = dict(peltier_lag=0.2, n_sub=10)
    power = 45.0
    state, statuses = args[0], []
    for _ in range(10):
        state = _rk4(state, *args[1:], peltier_lag=0.2, peltier_power=power)
        statuses.append((state.T_p - state.T_co) / params.R_co > power)
    assert statuses[0] is False and statuses[-1] is False and any(statuses)
    assert step_plant(*args, peltier_power=power, **kw) \
        == _rk4(*args, peltier_power=power, **kw)
    # without the cap the same call takes the exact map
    inf = float("inf")
    assert step_plant(*args, peltier_power=inf, **kw) \
        != _rk4(*args, peltier_power=inf, **kw)


@pytest.mark.parametrize("start", [1.35, 0.0])
def test_contact_edge_inside_sample_falls_back(heat_params, start):
    # a window that opens, or closes, inside the sample [1, 2)
    edge = ContactEvent(start=start, duration=1.55 - start,
                        kind=ContactKind.GRASP, contact_conductance=0.8)
    args = (PlantState(T_p=30.0, T_co=25.0, T_w=24.0, T_c=23.0), 25.0, True,
            0.0, heat_params, AMBIENT, 0.1)
    kw = dict(n_sub=10, contacts=(edge,), t=1.0)
    assert step_plant(*args, **kw) == _rk4(*args, **kw)


def test_call_longer_than_map_limit_runs_rk4(heat_params):
    # a map keeps one slack row per substep, so long calls keep RK4's
    # constant memory
    args = (PlantState(T_p=30.0, T_co=25.0, T_w=24.0, T_c=23.0), 25.0, True,
            0.0, heat_params, AMBIENT, 0.01)
    for n_sub in (_MAX_MAP_SUBSTEPS, _MAX_MAP_SUBSTEPS + 1):
        assert (step_plant(*args, n_sub=n_sub) == _rk4(*args, n_sub=n_sub)) \
            is (n_sub > _MAX_MAP_SUBSTEPS)


def _vector(state):
    return np.array([state.T_p, state.T_co, state.T_w, state.T_c])


def _recorded_builtin_calls(monkeypatch):
    """Each built-in's step_plant calls, as (args, kwargs) lists."""
    calls = {}
    sim = sys.modules["thermocover.simulate"]
    real = sim.step_plant

    def record(*args, **kwargs):
        calls[name].append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(sim, "step_plant", record)
    for name, spec in builtin_scenarios().items():
        calls[name] = []
        simulate(spec)
    monkeypatch.undo()
    return calls


def _fine_rk4(calls, refine):
    """RK4 at dt / refine over each recorded call, vectorized across the
    calls of one scenario, the contact flow held over each original dt."""
    (_, _, _, q_i, _, ambient, dt), kw = calls[0]
    lag, power = kw["peltier_lag"], kw["peltier_power"]
    args = [a for a, _ in calls]
    y = np.array([_vector(a[0]) for a in args]).T
    cmd = np.array([a[1] for a in args])
    if lag == 0.0:
        y[0] = cmd

    def column(name):
        return np.array([getattr(a[4], name) for a in args])

    gw = np.array([1.0 / a[4].R_w if a[2] else 0.0 for a in args])
    R_co, R_c, R_aw = column("R_co"), column("R_c"), column("R_aw")
    C_co, C_w, C_c = column("C_co"), column("C_w"), column("C_c")
    t0 = np.array([k["t"] for _, k in calls])

    def f(y, q):
        T_p, T_co, T_w, T_c = y
        q_p = np.clip((T_p - T_co) / R_co, -power, power)
        q_w = gw * (T_co - T_w)
        q_c = (T_w - T_c) / R_c
        dT_p = (cmd - T_p) / lag if lag > 0.0 else np.zeros_like(T_p)
        return np.array([dT_p, (q_p - q_w) / C_co,
                         (q_w + (ambient.T_amb - T_w) / R_aw - q_c) / C_w,
                         (q_c + q) / C_c])

    h = dt / refine
    for j in range(kw["n_sub"]):
        t = t0 + j * dt
        q = q_i + sum(np.where((c.start <= t) & (t <= c.start + c.duration),
                               c.contact_conductance * (c.T_skin - y[3]),
                               0.0)
                      for c in kw["contacts"])
        for _ in range(refine):
            k1 = f(y, q)
            k2 = f(y + 0.5 * h * k1, q)
            k3 = f(y + 0.5 * h * k2, q)
            k4 = f(y + h * k3, q)
            y = y + h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
    return y.T


def test_exact_path_closer_than_rk4_to_fine_reference_on_builtins(
        monkeypatch):
    # every sample of the six built-ins, replayed from its recorded call
    err_exact, err_rk4, worst_exact, fallbacks, n = 0.0, 0.0, 0.0, 0, 0
    for calls in _recorded_builtin_calls(monkeypatch).values():
        ref = _fine_rk4(calls, refine=100)
        exact = np.array([_vector(step_plant(*a, **k)) for a, k in calls])
        rk4 = np.array([_vector(_rk4(*a, **k)) for a, k in calls])
        err_exact += np.sum(np.abs(exact - ref), axis=0)
        err_rk4 += np.sum(np.abs(rk4 - ref), axis=0)
        fell_back = np.all(exact == rk4, axis=1)
        worst_exact = max(worst_exact,
                          np.max(np.abs(exact - ref)[~fell_back]))
        fallbacks += int(np.sum(fell_back))
        n += len(calls)
    assert np.all(err_exact < err_rk4), (err_exact, err_rk4)
    # where the map applies it is exact to rounding; RK4 is 5e-7 K off
    assert worst_exact < 1e-11
    # and the RK4 fallback stays the exception (143 of 6 870 samples)
    assert fallbacks < 0.05 * n
