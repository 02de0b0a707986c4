"""Fixed-step plant integration: equilibria, flows, stability, convergence,
the exact per-sample maps and the substep walk where the regime changes."""

import math
import operator
import sys
from dataclasses import replace

import numpy as np
import pytest

from conftest import decline_steady
from thermocover import plant
from thermocover.errors import ConfigError, NumericError
from thermocover.params import AmbientConfig
from thermocover.plant import (ContactEvent, ContactKind,
                               DEFAULT_CONDUCTANCE, PlantState,
                               _MAX_MAP_SUBSTEPS, cap_bounds, cap_status,
                               contact_heat_flow, max_stable_dt,
                               network_matrices, pump_flow, sample_map,
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


@pytest.mark.parametrize("peltier_lag", [0.0, 2.0])
@pytest.mark.parametrize("walk", [False, True], ids=["map", "walk"])
def test_plant_state_contract(heat_params, peltier_lag, walk):
    # a read-only named tuple of the four nodes in the network's order,
    # which every path of step_plant returns
    assert PlantState._fields == ("T_p", "T_co", "T_w", "T_c")
    assert PlantState.uniform(21.5) == PlantState(21.5, 21.5, 21.5, 21.5)
    state = PlantState(T_p=30.0, T_co=25.0, T_w=24.0, T_c=23.0)
    assert tuple(state) == (30.0, 25.0, 24.0, 23.0)
    with pytest.raises(AttributeError):
        state.T_w = 0.0
    # a contact window that closes inside the call makes it walk
    contacts = (ContactEvent.preset(ContactKind.GRASP, start=0.0,
                                    duration=0.55),) if walk else ()
    out = step_plant(state, 40.0, True, 0.0, heat_params, AMBIENT, 0.1,
                     peltier_lag=peltier_lag, n_sub=10, contacts=contacts)
    assert type(out) is PlantState
    assert out != state


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


def test_halving_dt_converges(heat_params):
    # the chained maps are exact in dt: halving the substep changes the
    # trajectory by rounding only
    def run(dt):
        state = PlantState.uniform(21.0)
        n = round(60.0 / dt)
        for _ in range(n):
            state = step_plant(state, 40.0, True, 0.0, heat_params, AMBIENT,
                               dt, peltier_power=float("inf"))
        return np.array([state.T_p, state.T_co, state.T_w, state.T_c])

    assert np.max(np.abs(run(0.1) - run(0.05))) < 1e-9


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
    ("n_sub", 2.5),
    ("n_sub", 10.0),
])
def test_bad_arguments_rejected(heat_params, name, value):
    args = dict(dt=0.1, peltier_lag=2.0, peltier_power=60.0, n_sub=10)
    # with the valid call's map cached, n_sub = 10.0 must still fail; the
    # cap stays slack, so the call takes that map
    step_plant(PlantState.uniform(21.0), 25.0, True, 0.0, heat_params,
               AMBIENT, **args)
    args[name] = value
    with pytest.raises(ConfigError):
        step_plant(PlantState.uniform(21.0), 25.0, True, 0.0, heat_params,
                   AMBIENT, **args)


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
    # A call longer than the map limit walks its substeps; the reference is
    # its substeps one call each, re-run in parts where the cap engages.
    # Nodes that start near 0 deg C and cross it have small ulps next to
    # their increments, so a reordered operation shows.  0.5 W makes the
    # actuator cap bind.
    n_sub = _MAX_MAP_SUBSTEPS + 1
    kw = dict(peltier_lag=peltier_lag, peltier_power=peltier_power)
    new = ref = start
    for cmd in (45.0, -10.0):
        new = step_plant(new, cmd, pump_on, q_i, heat_params, AMBIENT, dt,
                         n_sub=n_sub, **kw)
        for _ in range(n_sub):
            ref = step_plant(ref, cmd, pump_on, q_i, heat_params, AMBIENT,
                             dt, **kw)
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
    # the contact flow re-evaluated before every substep, equal to rounding
    dt, n_sub = 0.1, 10
    kw = dict(peltier_lag=peltier_lag, peltier_power=peltier_power)
    sample = sub = PlantState(T_p=-0.5, T_co=-0.03, T_w=-0.02, T_c=-0.01)
    for k in range(4):
        t = k * 1.0
        cmd = 45.0 if k < 2 else -10.0
        sample = step_plant(sample, cmd, pump_on, q_i, heat_params, AMBIENT,
                            dt, n_sub=n_sub, contacts=contacts, t=t, **kw)
        sub = _substep_calls(sub, cmd, pump_on, q_i, heat_params, dt, n_sub,
                             contacts, t, **kw)
        assert np.allclose(_vector(sample), _vector(sub), rtol=0.0,
                           atol=1e-12)


def _substep_calls(state, cmd, pump_on, q_i, params, dt, n_sub, contacts, t,
                   **kw):
    """``n_sub`` one-substep calls, each with its contact flow evaluated
    at its start."""
    for j in range(n_sub):
        flow = q_i
        for c in contacts:
            flow += contact_heat_flow(c, state.T_c, t + j * dt)
        state = step_plant(state, cmd, pump_on, flow, params, AMBIENT, dt,
                           **kw)
    return state


def test_non_finite_substep_raises(heat_params):
    # a call that walks its substeps raises on a non-finite state as a map
    # call does
    with pytest.raises(NumericError):
        step_plant(PlantState.uniform(21.0), 21.0, True, 1e308, heat_params,
                   AMBIENT, 0.1, n_sub=_MAX_MAP_SUBSTEPS + 1)


def test_stability_margin_covers_lag_and_contact(heat_params, cool_params):
    state = PlantState.uniform(21.0)
    # a plate lag far below dt sets no bound: the plate settles on its
    # command within the call
    fast = step_plant(state, 40.0, True, 0.0, heat_params, AMBIENT, 0.1,
                      peltier_lag=0.01, n_sub=10)
    assert fast.T_p == pytest.approx(40.0, abs=1e-9)
    # a held contact flow with g dt / C_c = 2.5 overshoots the skin
    strong = ContactEvent(start=0.0, duration=5.0, kind=ContactKind.GRASP,
                          contact_conductance=20.0)
    with pytest.raises(ConfigError, match="stability margin"):
        step_plant(state, 21.0, True, 0.0, heat_params, AMBIENT, 0.05,
                   n_sub=10, contacts=(strong,))
    # and where the window opens inside the call, on the walk too
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
    assert max_stable_dt(cool_params, 0.8) >= 0.1
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
    power = 45.0
    kw = dict(peltier_lag=0.2, peltier_power=power)
    sub, statuses = args[0], []
    for _ in range(10):
        sub = step_plant(sub, *args[1:], **kw)
        statuses.append((sub.T_p - sub.T_co) / params.R_co > power)
    assert statuses[0] is False and statuses[-1] is False and any(statuses)
    # the call walks its substeps, and this stiff tank is closer to a fine
    # reference on every node than RK4 at dt
    sample = step_plant(*args, n_sub=10, **kw)
    assert sample == sub
    call = [(args, dict(kw, n_sub=10, contacts=(), t=0.0))]
    ref = _fine_rk4(call, refine=100)
    assert np.all(np.abs(_vector(sample) - ref[0])
                  < np.abs(_fine_rk4(call, refine=1)[0] - ref[0]))


@pytest.mark.parametrize("start", [1.35, 0.0])
def test_contact_edge_inside_sample_falls_back(heat_params, start):
    # a window that opens, or closes, inside the sample [1, 2): the call
    # walks its substeps
    edge = ContactEvent(start=start, duration=1.55 - start,
                        kind=ContactKind.GRASP, contact_conductance=0.8)
    state = PlantState(T_p=30.0, T_co=25.0, T_w=24.0, T_c=23.0)
    assert step_plant(state, 25.0, True, 0.0, heat_params, AMBIENT, 0.1,
                      n_sub=10, contacts=(edge,), t=1.0) \
        == _substep_calls(state, 25.0, True, 0.0, heat_params, 0.1, 10,
                          (edge,), 1.0)


def test_call_longer_than_map_limit_walks_substeps(heat_params):
    # a map keeps one slack row per substep, so a longer call walks its
    # substeps: bit-equal to them one call each, where a map is equal to
    # rounding
    args = (PlantState(T_p=30.0, T_co=25.0, T_w=24.0, T_c=23.0), 25.0, True,
            0.0, heat_params, AMBIENT, 0.01)
    for n_sub in (_MAX_MAP_SUBSTEPS, _MAX_MAP_SUBSTEPS + 1):
        sample = step_plant(*args, n_sub=n_sub)
        sub = _substep_calls(args[0], *args[1:5], 0.01, n_sub, (), 0.0)
        assert (sample == sub) is (n_sub > _MAX_MAP_SUBSTEPS)
        assert np.allclose(_vector(sample), _vector(sub), rtol=0.0,
                           atol=1e-12)


def _vector(state):
    return np.array([state.T_p, state.T_co, state.T_w, state.T_c])


def _recorded_builtin_calls(monkeypatch):
    """Each built-in's step_plant calls, one per sample, as (args, kwargs)
    lists."""
    calls = {}
    sim = sys.modules["thermocover.simulate"]
    real = sim.step_plant

    def record(*args, **kwargs):
        calls[name].append((args, kwargs))
        return real(*args, **kwargs)

    decline_steady(monkeypatch)
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
    # every sample of the six built-ins, replayed from its recorded call,
    # against RK4 at dt / 100 and RK4 at dt
    plant = sys.modules["thermocover.plant"]
    walk, walked = plant._walk, []

    def record(*args):
        walked[-1] = True
        return walk(*args)

    err_exact, err_rk4, worst_exact, worst_map, n = 0.0, 0.0, 0.0, 0.0, 0
    for calls in _recorded_builtin_calls(monkeypatch).values():
        ref = _fine_rk4(calls, refine=100)
        rk4 = _fine_rk4(calls, refine=1)
        monkeypatch.setattr(plant, "_walk", record)
        exact = []
        for a, k in calls:
            walked.append(False)
            exact.append(_vector(step_plant(*a, **k)))
        monkeypatch.undo()
        err = np.abs(np.array(exact) - ref)
        err_exact += np.sum(err, axis=0)
        err_rk4 += np.sum(np.abs(rk4 - ref), axis=0)
        worst_exact = max(worst_exact, np.max(err))
        worst_map = max(worst_map, np.max(err[~np.array(walked[n:])]))
        n += len(calls)
    assert np.all(err_exact < err_rk4), (err_exact, err_rk4)
    # where one map covers the sample it is exact to rounding; RK4 at dt
    # is 5e-7 K off there
    assert worst_map < 1e-11
    # where the cap engages inside a substep, that substep is re-run in
    # parts (RK4 at dt: up to 2.5e-5 K off)
    assert worst_exact <= 5e-6
    # and the walk stays the exception (143 of 6 870 samples)
    assert 0 < sum(walked) < 0.05 * n


def test_builtins_rerun_from_cached_maps():
    # a second round of the six built-ins builds no map: the walk's
    # one-substep maps and parts fit the cache next to the sample maps
    specs = builtin_scenarios().values()
    for spec in specs:
        simulate(spec)
    misses = sample_map.cache_info().misses
    for spec in specs:
        simulate(spec)
    assert sample_map.cache_info().misses == misses


def _flows(slack, z):
    """Each slack row at z = (T_p, T_co, T_w, T_c, T_p_cmd, T_amb, q, 1),
    summed in ``_advance``'s order."""
    return [sum(map(operator.mul, row, z))
            for row in np.asarray(slack).tolist()]


def _steady_verdict(call, z):
    """Whether every slack row of the ``SampleMap`` at z lies within its
    bounds."""
    lo, hi = call.bounds
    return all(lo <= flow <= hi for flow in _flows(call.slack, z))


def _advance_verdict(x, T_p_cmd, T_amb, q, regime, dt, n_sub, cap):
    """Whether a contact-free ``step_plant`` call from state x applies the
    map of cap status ``cap``: the plate starts there, at its command
    without a lag, and ``_advance`` keeps it there."""
    params, _, lag, power = regime
    if not lag > 0.0:
        x = (T_p_cmd, *x[1:])
    return (cap_status(x[0], x[1], params.R_co, power) == cap
            and plant._advance(x, T_p_cmd, T_amb, q, regime, dt, n_sub,
                               0.0) is not None)


def test_slack_rows_give_advance_verdict_on_builtin_calls(monkeypatch):
    # every contact-free built-in call that one map serves, replayed at
    # the cap status of its state, as simulate keys its composed maps: the
    # steady call's slack rows and bounds accept it exactly where the
    # plant does, and the plant turns down 1 to 4 % of them, near the cap
    verdicts = []
    for calls in _recorded_builtin_calls(monkeypatch).values():
        for (x, cmd, pump_on, q, params, ambient, dt), kw in calls:
            n_sub, t = kw["n_sub"], kw["t"]
            if any(c.touches(t, t + (n_sub - 1) * dt)
                   for c in kw["contacts"]):
                continue
            lag, power = kw["peltier_lag"], kw["peltier_power"]
            cap = cap_status(x.T_p, x.T_co, params.R_co, power)
            call = sample_map(params, pump_on, cap, lag, power, dt, n_sub,
                              0.0)
            steady = _steady_verdict(call, (*x, cmd, ambient.T_amb, q, 1.0))
            assert steady == _advance_verdict(
                x, cmd, ambient.T_amb, q, (params, pump_on, lag, power), dt,
                n_sub, cap)
            verdicts.append(steady)
    assert 0 < len(verdicts) - sum(verdicts) < 0.05 * len(verdicts)


#: Maps the random-state tests of the slack rows cover: both modes'
#: constants, a plate without lag, and a tank fast next to the substep.
_CAP_CASES = pytest.mark.parametrize("mode, C_co, dt, peltier_lag", [
    ("heat", None, 0.1, 2.0), ("cool", None, 0.1, 2.0),
    ("heat", None, 0.05, 0.0), ("heat", 1.0, 0.04, 0.2)],
    ids=["heat", "cool", "no-lag", "fast-tank"])


def _case_params(mode, C_co, heat_params, cool_params):
    params = heat_params if mode == "heat" else cool_params
    return params if C_co is None else replace(params, C_co=C_co)


@_CAP_CASES
def test_cap_proof_sound_on_random_states(heat_params, cool_params, mode,
                                          C_co, dt, peltier_lag):
    # a composed sample proves its cap status with its steady call's slack
    # rows within their bounds.  States whose plate flow starts within 1 %
    # of the cap, so that the slack rows cross it often, in both pump
    # states, under a held contact flow; without a lag the command lies
    # near the plate, so that the start row decides too.  Wherever no row
    # lies within rounding of the cap, the steady call's rows and bounds
    # give the plant's verdict, and its rows the plant's state
    params = _case_params(mode, C_co, heat_params, cool_params)
    rng = np.random.default_rng(30)
    counts = [0, 0]
    for _ in range(600):
        # plain floats, as step_plant receives them
        power = float(rng.choice([6.0, 45.0]))
        T_co, flow, dw, dc, dcmd, T_amb, q = rng.uniform(
            [5.0, 0.99, -10.0, -5.0, -10.0, 10.0, -30.0],
            [45.0, 1.01, 10.0, 5.0, 10.0, 30.0, 30.0]).tolist()
        T_p = T_co + float(rng.choice([-1.0, 1.0])) * flow * power \
            * params.R_co
        T_w = T_co + dw
        x = (T_p, T_co, T_w, T_w + dc)
        T_p_cmd = T_p + (dcmd if peltier_lag > 0.0 else 0.01 * dcmd)
        n_sub = int(rng.choice([3, 10]))
        regime = (params, bool(rng.integers(2)), peltier_lag, power)
        cap = cap_status(T_p, T_co, params.R_co, power)
        call = sample_map(*regime[:2], cap, *regime[2:], dt, n_sub, 0.0)
        z = (*x, T_p_cmd, T_amb, q, 1.0)
        if any(abs(abs(flow) - power) <= 1e-9
               for flow in _flows(call.slack, z)):
            continue
        steady = _steady_verdict(call, z)
        assert steady == _advance_verdict(x, T_p_cmd, T_amb, q, regime, dt,
                                          n_sub, cap)
        counts[steady] += 1
        if steady:
            x0 = x if peltier_lag > 0.0 else (T_p_cmd, *x[1:])
            new = plant._advance(x0, T_p_cmd, T_amb, q, regime, dt, n_sub,
                                 0.0)
            assert np.max(np.abs(call.rows @ z - new)) <= 1e-9
    assert min(counts) >= 50, counts


@_CAP_CASES
def test_cap_proof_rejects_a_cap_just_inside_the_slack(
        heat_params, cool_params, mode, C_co, dt, peltier_lag):
    # a call that starts slack, with the cap at its largest plate flow and
    # one ulp inside it: a flow equal to the cap is slack, so the steady
    # call's rows and the plant accept the first and reject the second,
    # each at its own largest flow.  Half the states are of one
    # temperature, whose flows come from the held contact flow alone
    params = _case_params(mode, C_co, heat_params, cool_params)
    rng = np.random.default_rng(31)
    tried = 0
    for k in range(200):
        T_co, dp, dw, dc, dcmd, q = rng.uniform(
            [-40.0, -20.0, -10.0, -5.0, -40.0, -30.0],
            [80.0, 20.0, 10.0, 5.0, 40.0, 30.0]).tolist()
        if k % 2:
            dp = dw = dc = dcmd = 0.0
        T_p, T_w = T_co + dp, T_co + dw
        T_p_cmd = T_p + dcmd if peltier_lag > 0.0 else T_p
        x, T_amb = (T_p, T_co, T_w, T_w + dc), T_co + dw
        n_sub = int(rng.choice([3, 10]))
        z = (*x, T_p_cmd, T_amb, q, 1.0)
        # the cap-0 maps are those of any cap
        largest = max(map(abs, _flows(sample_map(
            params, True, 0, peltier_lag, 1e300, dt, n_sub, 0.0).slack, z)))
        sides = [
            (largest,
             lambda power: _steady_verdict(sample_map(
                 params, True, 0, peltier_lag, power, dt, n_sub, 0.0), z)),
            (largest,
             lambda power: _advance_verdict(
                 x, T_p_cmd, T_amb, q, (params, True, peltier_lag, power),
                 dt, n_sub, 0))]
        start = abs(T_p - T_co) / params.R_co
        if not all(start < largest for largest, _ in sides):
            continue
        tried += 1
        for largest, verdict in sides:
            assert verdict(largest)
            assert not verdict(float(np.nextafter(largest, 0.0)))
    assert tried >= 80, tried


def test_cap_bounds_follow_cap_status():
    # a flow lies within its cap status's bounds exactly where cap_status
    # gives that status: a flow equal to the cap is slack
    for power in (1e-300, 6.0, 60.0, 1e300):
        flows = [0.0, -0.0, math.inf, -math.inf]
        for edge in (power, -power, 2.0 * power, -2.0 * power):
            flows += [edge, float(np.nextafter(edge, math.inf)),
                      float(np.nextafter(edge, -math.inf))]
        for flow in flows:
            status = (flow > power) - (flow < -power)
            for cap in (-1, 0, 1):
                lo, hi = cap_bounds(cap, power)
                assert (lo <= flow <= hi) == (status == cap), (power, flow)
