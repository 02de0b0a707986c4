"""Closed-loop simulation wiring: determinism, trace shape, contact truth."""

import copy
import importlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import decline_steady, observer_realization, run_realization
from thermocover import mpc
from thermocover.detect import detect_contacts
from thermocover.errors import (ConfigError, ConvergenceError, NumericError,
                                ThermocoverError)
from thermocover.mpc import (MpcConfig, PenaltyForm, PumpHysteresis,
                             ThermalController)
from thermocover.observer import build_observer, observer_step
from thermocover.params import AmbientConfig, Mode, preset_params
from thermocover.plant import (ContactEvent, ContactKind, PlantState,
                               cap_status, estimate_q_aw, sample_map,
                               step_plant)
from thermocover.scenario import (ScenarioSpec, apply_overrides,
                                  builtin_scenarios)
from thermocover.simulate import simulate
from thermocover.trace import COLUMNS, SimTrace


def _short_scenario(**kw):
    base = dict(name="short", setpoints=((23.0, 60.0),), t_s=1.0, dt=0.1)
    base.update(kw)
    return ScenarioSpec(**base)


def test_zero_length_scenario():
    spec = _short_scenario(total_duration=0.0)
    trace = simulate(spec)
    assert len(trace) == 0


def test_time_grid_and_columns():
    trace = simulate(_short_scenario())
    assert len(trace) == 60
    assert np.allclose(np.diff(trace.t), 1.0)
    assert np.all(np.isfinite(trace.T_c))
    assert np.all(trace.T_p_cmd >= 5.0) and np.all(trace.T_p_cmd <= 60.0)


def test_determinism():
    spec = _short_scenario()
    a = simulate(spec).to_csv_text()
    b = simulate(spec).to_csv_text()
    assert a == b


def test_trace_does_not_depend_on_region_cache():
    # a run that builds every region map writes what one served from the
    # warm cache writes, as a benchmark's cold and warm passes compare
    spec = builtin_scenarios()["exp1_heat"]
    mpc._region_map.cache_clear()
    cold = simulate(spec).to_csv_text()
    built = mpc._region_map.cache_info()
    assert built.currsize > 0
    assert simulate(spec).to_csv_text() == cold
    assert mpc._region_map.cache_info().currsize == built.currsize


@pytest.mark.parametrize("spec", [
    builtin_scenarios()["exp1_heat"],
    # holds that are not whole numbers of samples, and one value held over
    # two consecutive segments
    ScenarioSpec(name="holds", setpoints=((30.0, 0.3), (30.0, 1.7),
                                          (25.0, 1.3), (28.0, 2.2)),
                 t_s=0.5, dt=0.05),
], ids=["exp1_heat", "holds"])
def test_one_preview_per_setpoint_change(monkeypatch, spec):
    # each sample's controller sees the setpoint at its own time, read once
    # where the setpoint changes
    seen, made = [], []
    step, preview = ThermalController.step, ScenarioSpec.setpoint_preview

    def recording_step(ctrl, measurement, T_w, setpoint):
        seen.append(setpoint)
        return step(ctrl, measurement, T_w, setpoint)

    def counting_preview(self, t, n):
        made.append(t)
        return preview(self, t, n)

    decline_steady(monkeypatch)
    monkeypatch.setattr(ThermalController, "step", recording_step)
    monkeypatch.setattr(ScenarioSpec, "setpoint_preview", counting_preview)
    simulate(spec)
    values = [spec.setpoint_at(k * spec.t_s) for k in range(len(seen))]
    assert len(seen) == round(spec.duration / spec.t_s)
    assert seen == values
    changes = 1 + sum(a != b for a, b in zip(values, values[1:]))
    assert 1 <= len(made) <= changes
    assert len(set(values)) > 1


def test_contact_truth_confined_to_window():
    event = ContactEvent.preset(ContactKind.GRASP, start=20.0)
    trace = simulate(_short_scenario(contacts=(event,)))
    inside = (trace.t >= 20.0) & (trace.t <= 25.0)
    assert np.all(trace.q_i_true[~inside] == 0.0)
    assert np.any(trace.q_i_true[inside] != 0.0)
    assert np.all(trace.contact_flag == inside)


def test_cover_heats_toward_setpoint():
    trace = simulate(_short_scenario(setpoints=((24.0, 300.0),)))
    assert trace.T_c[-1] > trace.T_c[0] + 1.0


def test_controller_failure_names_scenario_and_time(monkeypatch):
    step = mpc.ThermalController.step
    samples, failed_at = [], []

    def counting_step(ctrl, *args):
        samples.append(None)
        return step(ctrl, *args)

    def failing_solve(*args, **kwargs):
        failed_at.append(len(samples) - 1)
        raise ConvergenceError("active-set updates hit 10000 before the "
                               "KKT test passed", residual=0.25)

    decline_steady(monkeypatch)
    monkeypatch.setattr(mpc.ThermalController, "step", counting_step)
    monkeypatch.setattr(mpc, "solve_mpc", failing_solve)
    spec = _short_scenario()
    with pytest.raises(ConvergenceError) as info:
        simulate(spec)
    # the time of the sample whose solve failed
    (k,) = failed_at
    assert str(info.value).startswith(
        f"short: at t = {k * spec.t_s:.6g} s: active-set updates")
    assert info.value.residual == 0.25


def test_observer_failure_names_scenario_and_time(monkeypatch):
    def failing_observer(observer, *args):
        raise NumericError("observer diverged")

    # the package exports the function `simulate` under the module's name
    module = importlib.import_module("thermocover.simulate")
    monkeypatch.setattr(module, "observer_step", failing_observer)
    with pytest.raises(NumericError, match="^short: at t = 0 s: observer"):
        simulate(_short_scenario())


def test_observer_replays_grasp_run_from_its_inputs():
    # exp2_grasp heats throughout, so one observer sees the whole run: fed
    # the trace's T_w and q_w + q_aw it reproduces q_i_hat bit for bit
    spec = builtin_scenarios()["exp2_grasp"]
    trace = simulate(spec)
    params = preset_params(Mode.HEAT, spec.target)
    q = trace.q_w + estimate_q_aw(trace.T_w, spec.ambient.T_amb, params.R_aw)
    tc = spec.observer_tc
    assert tc > 0.0
    replay = observer_step(build_observer(params, spec.t_s, (tc, tc)),
                           trace.T_w, q)
    assert np.array_equal(replay, trace.q_i_hat)


@pytest.mark.parametrize("name, builds", [("exp1_heat", 2),
                                          ("exp2_grasp", 1)])
def test_one_observer_per_visited_mode(monkeypatch, name, builds):
    module = importlib.import_module("thermocover.simulate")
    build = module.build_observer
    calls = []

    def counting_build(params, *args):
        calls.append(params.mode)
        return build(params, *args)

    monkeypatch.setattr(module, "build_observer", counting_build)
    trace = simulate(builtin_scenarios()[name])
    assert len(calls) == builds
    assert set(calls) == set(trace.mode)


def test_each_sample_takes_its_own_modes_filter():
    # exp1_heat visits both modes; each mode's observer runs over the whole
    # record from the fixed point of sample 0's inputs, and a sample takes
    # the estimate of its own mode's observer.  The reference is the
    # realization's matrix recursion, one sample at a time, with the
    # detection filter and with the natural constants (observer_tc = 0)
    base = builtin_scenarios()["exp1_heat"]
    assert base.observer_tc > 0.0
    for spec in (base, replace(base, observer_tc=0.0)):
        trace = simulate(spec)
        tc = spec.observer_tc
        assert len(set(trace.mode)) == 2
        for mode in Mode:
            params = preset_params(mode, spec.target)
            q_w = np.where(trace.pump_on,
                           (trace.T_co - trace.T_w) / params.R_w, 0.0)
            q = q_w + (spec.ambient.T_amb - trace.T_w) / params.R_aw
            ref = run_realization(
                observer_realization(params, spec.t_s,
                                     None if tc <= 0.0 else (tc, tc)),
                trace.T_w, q)
            at = trace.mode == mode
            assert np.array_equal(trace.q_w[at], q_w[at])
            assert np.max(np.abs(trace.q_i_hat[at] - ref[at])) <= 1e-9


def test_observer_failure_in_second_mode_names_its_first_sample(monkeypatch):
    spec = builtin_scenarios()["exp1_heat"]
    mode = simulate(spec).mode
    first = np.flatnonzero(mode != mode[0])[0]
    module = importlib.import_module("thermocover.simulate")
    step = module.observer_step
    calls = []

    def failing_second(observer, *args):
        calls.append(None)
        if len(calls) == 2:
            raise NumericError("observer diverged")
        return step(observer, *args)

    monkeypatch.setattr(module, "observer_step", failing_second)
    with pytest.raises(NumericError, match=(
            f"^exp1_heat: at t = {first * spec.t_s:.6g} s: observer")):
        simulate(spec)


def test_written_trace_keeps_the_eleven_columns(tmp_path):
    # the mode record is a side array, never a CSV column
    trace = simulate(builtin_scenarios()["exp1_heat"])
    assert len(trace.mode) == len(trace)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(COLUMNS)
    assert len(COLUMNS) == 11
    assert all(line.count(",") == 10 for line in lines)
    assert SimTrace.from_csv(path).mode is None


def _held_patterns(monkeypatch, spec):
    """simulate(spec), and the controller's held pattern after each sample
    that the run shows: a sample of ``step``, or the last of a stretch of
    composed maps."""
    step, load = ThermalController.step, ThermalController.load_steady
    held, count = {}, [0]

    def recording_step(ctrl, *args):
        out = step(ctrl, *args)
        held[count[0]] = ctrl.held
        count[0] += 1
        return out

    def recording_load(ctrl, values, samples, pattern):
        count[0] += samples
        held[count[0] - 1] = pattern
        return load(ctrl, values, samples, pattern)

    with monkeypatch.context() as m:
        m.setattr(ThermalController, "step", recording_step)
        m.setattr(ThermalController, "load_steady", recording_load)
        trace = simulate(spec)
    assert count[0] == len(trace)
    return trace, held


_BUILTINS = builtin_scenarios()

_GRASP_AT_900 = ["contact.0.start=900", "contact.0.duration=5",
                 "contact.0.kind=grasp", "contact.0.conductance=0.8",
                 "contact.0.t_skin=33"]


@pytest.mark.parametrize("name, overrides", [
    *((name, []) for name in builtin_scenarios()),
    ("exp1_heat", ["controller.penalty_form=increment"]),
    ("exp2_grasp", ["observer_tc=0"]),
    ("exp1_heat", ["peltier_lag=0.01"]),
    ("exp1_heat", ["peltier_power=6"]),
    ("exp1_cool", _GRASP_AT_900),
    ("exp2_grasp", ["controller.penalty_form=increment"]),
    ("exp1_heat", ["peltier_lag=0"]),
    ("exp1_heat", ["peltier_lag=0", "peltier_power=6"]),
    # a box so tight that the solver takes several updates per solve
    ("exp1_cool", ["controller.W2=1e-6", "controller.T_min_th=15",
                   "controller.T_max_th=30"]),
    # setpoint changes between samples, one value held over two segments,
    # and two mode switches
    ("exp1_heat", ["setpoints=26:200.3 26:100.7 21:300.3 24:250.2"]),
], ids=[*builtin_scenarios(), "increment", "natural-observer", "lag-0.01",
        "power-6", "cool-grasp-at-900", "touch-increment", "lag-0",
        "lag-0-power-6", "tight-box", "off-grid-holds"])
def test_composed_maps_keep_every_decision(monkeypatch, name, overrides):
    # the same run with composed maps and with every sample through step
    # and step_plant: the same pump, mode, contact and held-pattern
    # decisions and detections, the values apart by rounding only
    spec = apply_overrides(builtin_scenarios()[name], overrides)
    fused, fused_held = _held_patterns(monkeypatch, spec)
    with monkeypatch.context() as m:
        decline_steady(m)
        plain, plain_held = _held_patterns(monkeypatch, spec)
    _assert_same_decisions(spec, (fused, fused_held), (plain, plain_held))


def _assert_same_decisions(spec, composed, per_sample):
    """The (trace, held patterns) of a run with composed maps and of one
    through step and step_plant alone keep every decision, and their values
    agree to rounding."""
    (fused, fused_held), (plain, plain_held) = composed, per_sample
    assert len(plain_held) == len(plain)
    assert np.array_equal(fused.pump_on, plain.pump_on)
    assert np.array_equal(fused.contact_flag, plain.contact_flag)
    assert np.array_equal(fused.mode, plain.mode)
    assert all(plain_held[k] == pattern for k, pattern in fused_held.items())
    for c in ("T_p_cmd", "T_p", "T_co", "T_w", "T_c"):
        assert np.max(np.abs(getattr(fused, c) - getattr(plain, c))) <= 1e-9
    for c in ("q_w", "q_i_true", "q_i_hat"):
        assert np.max(np.abs(getattr(fused, c) - getattr(plain, c))) <= 1e-6
    a, b = (detect_contacts(t, spec.detection) for t in (fused, plain))
    assert (a.intervals, a.true_positives, a.false_positives, a.misses) == \
        (b.intervals, b.true_positives, b.false_positives, b.misses)
    assert np.allclose(a.peak_per_event, b.peak_per_event, rtol=0.0,
                       atol=1e-6)


@st.composite
def _random_scenarios(draw):
    """A built-in with random valid settings, or None where the draw is not
    a valid scenario: penalty form, horizon, weights, command box, pump
    bands, plate lag and power, room, start and setpoints, sampling time
    and substeps, up to two contacts and a short run."""
    base = _BUILTINS[draw(st.sampled_from(sorted(_BUILTINS)))]
    duration = draw(st.floats(60.0, 400.0))
    lo = draw(st.floats(5.0, 40.0))
    off = draw(st.floats(0.0, 0.5))
    t_s = draw(st.floats(0.25, 2.0))
    try:
        controller = MpcConfig(
            H=draw(st.integers(1, 80)), W1=10.0 ** draw(st.floats(-2.0, 3.0)),
            W2=10.0 ** draw(st.floats(-3.0, 2.0)), T_min_th=lo,
            T_max_th=lo + draw(st.floats(1.0, 40.0)),
            penalty_form=draw(st.sampled_from(list(PenaltyForm))))
        contacts = tuple(
            ContactEvent.preset(draw(st.sampled_from(list(ContactKind))),
                                start=draw(st.floats(0.0, duration - 5.0)))
            for _ in range(draw(st.integers(0, 2))))
        return replace(
            base, controller=controller, contacts=contacts,
            pump=PumpHysteresis(on_band=off + draw(st.floats(0.0, 1.0)),
                                off_band=off),
            peltier_lag=draw(st.sampled_from([0.0, 0.01, 0.5, 2.0, 10.0])),
            peltier_power=draw(st.sampled_from([3.0, 6.0, 10.0, 20.0,
                                                math.inf])),
            ambient=AmbientConfig(T_amb=draw(st.floats(15.0, 30.0))),
            initial_temp=draw(st.floats(15.0, 40.0)),
            setpoints=tuple((draw(st.floats(10.0, 45.0)),
                             draw(st.floats(20.0, 200.0)))
                            for _ in range(draw(st.integers(1, 4)))),
            t_s=t_s, dt=t_s / draw(st.integers(10, 20)),
            total_duration=duration)
    except ConfigError:
        return None


def _run_or_error(monkeypatch, spec):
    """(trace, held patterns, samples through step) of the run, or the
    type and message of the error it raised."""
    step, steps = ThermalController.step, []

    def counting_step(ctrl, *args):
        steps.append(None)
        return step(ctrl, *args)

    try:
        with monkeypatch.context() as m:
            m.setattr(ThermalController, "step", counting_step)
            return (*_held_patterns(monkeypatch, spec), len(steps))
    except ThermocoverError as exc:
        return type(exc), str(exc)


def test_random_scenarios_keep_every_decision(monkeypatch):
    # random valid scenarios run with composed maps and with every sample
    # through step and step_plant keep every decision, as the fixed cases
    # above do; where one path raises, the other raises the same error.
    # Most samples go through composed maps, so the comparison shows.
    samples, stepped = [0], [0]

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(_random_scenarios())
    def check(spec):
        assume(spec is not None)
        composed = _run_or_error(monkeypatch, spec)
        with monkeypatch.context() as m:
            decline_steady(m)
            per_sample = _run_or_error(monkeypatch, spec)
        if len(composed) == 2 or len(per_sample) == 2:
            assert composed == per_sample
            return
        _assert_same_decisions(spec, composed[:2], per_sample[:2])
        samples[0] += len(composed[0])
        stepped[0] += composed[2]

    check()
    assert stepped[0] < 0.2 * samples[0]


@pytest.mark.parametrize("name, most", [("exp1_heat", 180),
                                        ("exp2_nocontact", 15)],
                         ids=["exp1_heat", "exp2_nocontact"])
def test_composed_maps_advance_most_samples(monkeypatch, name, most):
    # a gate that always declines would pass the tests above; on exp2 the
    # maps start at the first applied command, not after d = 90 of them
    step, calls = ThermalController.step, []

    def counting_step(ctrl, *args):
        calls.append(None)
        return step(ctrl, *args)

    monkeypatch.setattr(ThermalController, "step", counting_step)
    simulate(builtin_scenarios()[name])
    assert len(calls) <= most


@pytest.mark.parametrize("applied", [1, 60])
@pytest.mark.parametrize("pump_on", [True, False], ids=["pump-on",
                                                        "pump-off"])
@pytest.mark.parametrize("form", ["magnitude", "increment"])
def test_composed_sample_before_d_commands_matches_step(applied, pump_on,
                                                        form):
    # with fewer than d commands applied, step pads the oldest past
    # commands with the measurement; a composed map with the measurement in
    # those history entries gives the same command, x_hat, p_hat and nodes
    module = importlib.import_module("thermocover.simulate")
    spec = apply_overrides(builtin_scenarios()["exp2_nocontact"],
                           [f"controller.penalty_form={form}"])
    # bands that keep the pump's state for every measurement
    pump = (PumpHysteresis(on_band=0.3, off_band=0.0, state=True) if pump_on
            else PumpHysteresis(on_band=1e3, off_band=0.1))
    ctrl = ThermalController(cfg=spec.controller, ambient=spec.ambient,
                             target=spec.target, hysteresis=pump)
    node = PlantState._fields.index(spec.target.node)
    setpoint = spec.setpoint_at(0.0)
    n_sub = round(spec.t_s / spec.dt)
    plant = (spec.ambient, spec.dt, spec.peltier_lag, spec.peltier_power)
    state = PlantState.uniform(spec.start_temp)
    for _ in range(applied):
        cmd, on = ctrl.step(state[node], state.T_w, setpoint)
        params = preset_params(ctrl.mode)
        state = step_plant(state, cmd, on, 0.0, params, *plant, n_sub=n_sub)
    step = ctrl.steady_step(setpoint)
    d = step.d
    assert on is pump_on and 1 <= ctrl.applied == applied < d

    size = len(ctrl.steady_state()) - 2
    s = np.array([*ctrl.steady_state(), *state, 1.0])
    s[size - d:size - applied] = state[node]
    base = module._compose(step, params,
                           cap_status(state.T_p, state.T_co, params.R_co,
                                      spec.peltier_power),
                           node, spec.ambient.T_amb, spec.peltier_lag,
                           spec.peltier_power, spec.dt, n_sub)
    after = copy.deepcopy(ctrl)
    cmd, on = after.step(state[node], state.T_w, setpoint)
    assert on is pump_on and after.mode is ctrl.mode
    v = module._held_map(ctrl, base, after.held, node).G @ s
    # v: the checks, the command, x_hat, p_hat, the nodes, 1, the plate
    # flow after each substep
    m = 2 * spec.controller.H
    assert v[:m].min() >= 0.0
    expected = [cmd, *after.steady_state()[-2:],
                *step_plant(state, cmd, on, 0.0, params, *plant,
                            n_sub=n_sub), 1.0]
    assert np.max(np.abs(v[m:m + 8] - expected)) <= 1e-12
    flows = base.call.slack @ [*state, cmd, spec.ambient.T_amb, 0.0, 1.0]
    assert len(flows) == n_sub
    # the nodes' bound, in W
    assert np.max(np.abs(v[m + 8:] - flows)) <= 1e-12 / params.R_co


@pytest.mark.parametrize("peltier_lag", [2.0, 0.0], ids=["lag-2", "lag-0"])
def test_composed_maps_and_step_plant_read_one_cached_map(peltier_lag):
    # one cache serves both paths: each base's plant map is the object that
    # sample_map returns for a contact-free call, and step_plant reads it
    # without a build.  A snapped plate's map starts the plate at its
    # command: its T_p column is zero, its plate row is T_p_cmd's, and the
    # plate flow there leads the slack rows
    module = importlib.import_module("thermocover.simulate")
    spec = apply_overrides(builtin_scenarios()["exp1_heat"],
                           [f"peltier_lag={peltier_lag}"])
    ctrl = ThermalController(cfg=spec.controller, ambient=spec.ambient,
                             target=spec.target)
    setpoint = spec.setpoint_at(0.0)
    state = PlantState.uniform(spec.start_temp)
    node = PlantState._fields.index(spec.target.node)
    _, on = ctrl.step(state[node], state.T_w, setpoint)
    step, params = ctrl.steady_step(setpoint), preset_params(ctrl.mode)
    n_sub = round(spec.t_s / spec.dt)
    regime = (spec.peltier_lag, spec.peltier_power, spec.dt, n_sub)
    e = np.eye(8)
    for cap in (-1, 0, 1):
        base = module._compose(step, params, cap, node, spec.ambient.T_amb,
                               *regime)
        call = sample_map(params, on, cap, *regime, 0.0)
        assert base.call is call
        assert call.rows.shape == (4, 8)
        if peltier_lag:
            assert len(call.slack) == n_sub
        else:
            assert len(call.slack) == n_sub + 1
            assert not call.rows[:, 0].any() and not call.slack[:, 0].any()
            assert call.rows[0].tolist() == e[4].tolist()
            assert call.slack[0].tolist() == \
                ((e[4] - e[1]) / params.R_co).tolist()
    # a call whose plate flow stays far within the cap
    built = sample_map.cache_info()
    step_plant(state, state.T_p, on, 0.0, params, spec.ambient, spec.dt,
               spec.peltier_lag, spec.peltier_power, n_sub=n_sub)
    assert sample_map.cache_info().misses == built.misses
    assert sample_map.cache_info().hits == built.hits + 1


def _poisoned(monkeypatch):
    """Give every composed map a plant row that is not finite, so that
    each sample it would advance falls back to step and step_plant."""
    module = importlib.import_module("thermocover.simulate")
    real = module.sample_map

    def poisoned(*args):
        call = real(*args)
        if call is None:
            return None
        rows = call.rows.copy()
        rows[-1, -1] = np.nan
        return call._replace(rows=rows)

    monkeypatch.setattr(module, "sample_map", poisoned)


def test_non_finite_composed_result_reruns_the_sample(monkeypatch):
    spec = builtin_scenarios()["exp1_heat"]
    with monkeypatch.context() as m:
        decline_steady(m)
        plain = simulate(spec).to_csv_text()
    _poisoned(monkeypatch)
    assert simulate(spec).to_csv_text() == plain


@pytest.mark.parametrize("fault", ["solve", "state"])
def test_fallen_back_sample_reports_as_without_composed_maps(monkeypatch,
                                                             fault):
    # a composed result that is not finite sends each sample of a steady
    # stretch back to step and step_plant; an error there keeps its type
    # and message, and names the scenario and time it names without
    # composed maps: a solve that fails, and a plant state that is not
    # finite, injected after 300 s inside a stretch of the unpoisoned run
    spec = builtin_scenarios()["exp1_heat"]
    module = importlib.import_module("thermocover.simulate")
    _, held = _held_patterns(monkeypatch, spec)
    inside = next(k for k in range(300, 1800)
                  if not {k - 1, k, k + 1} & held.keys())
    errors = []
    for decline in (True, False):
        with monkeypatch.context() as m:
            if decline:
                decline_steady(m)
            else:
                _poisoned(m)
            if fault == "solve":
                solve, solves = mpc.solve_mpc, []

                def failing_solve(*args, **kwargs):
                    solves.append(None)
                    if len(solves) == 3:
                        raise ConvergenceError("active-set updates hit "
                                               "10000", residual=0.5)
                    return solve(*args, **kwargs)

                m.setattr(mpc, "solve_mpc", failing_solve)
            else:
                step_plant = module.step_plant

                def injecting(*args, t, **kwargs):
                    new = step_plant(*args, t=t, **kwargs)
                    return (new._replace(T_c=np.nan)
                            if t == inside * spec.t_s else new)

                m.setattr(module, "step_plant", injecting)
            with pytest.raises((ConvergenceError, NumericError)) as info:
                simulate(spec)
            errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1]
    assert errors[0][1].startswith("exp1_heat: at t = ")
