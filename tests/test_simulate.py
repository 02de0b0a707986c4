"""Closed-loop simulation wiring: determinism, trace shape, contact truth."""

import importlib
from dataclasses import replace

import numpy as np
import pytest

from conftest import observer_realization, run_realization
from thermocover import mpc
from thermocover.errors import ConvergenceError, NumericError
from thermocover.mpc import ThermalController
from thermocover.observer import build_observer, observer_step
from thermocover.params import Mode, preset_params
from thermocover.plant import ContactEvent, ContactKind, estimate_q_aw
from thermocover.scenario import ScenarioSpec, builtin_scenarios
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
    # each sample's controller sees the setpoint at its own time over the
    # whole preview, from an array made where the setpoint changes
    previews, made = [], []
    step, preview = ThermalController.step, ScenarioSpec.setpoint_preview

    def recording_step(ctrl, measurement, T_w, setpoint_preview):
        previews.append((ctrl.preview_length, setpoint_preview.copy(),
                         setpoint_preview.flags.writeable))
        return step(ctrl, measurement, T_w, setpoint_preview)

    def counting_preview(self, t, n):
        made.append(t)
        return preview(self, t, n)

    monkeypatch.setattr(ThermalController, "step", recording_step)
    monkeypatch.setattr(ScenarioSpec, "setpoint_preview", counting_preview)
    simulate(spec)
    values = [spec.setpoint_at(k * spec.t_s) for k in range(len(previews))]
    assert len(previews) == round(spec.duration / spec.t_s)
    for (length, seen, writeable), value in zip(previews, values):
        assert np.array_equal(seen, np.full(length, value))
        assert not writeable
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
