"""Preview controller: prediction map, box-constrained solver, pump logic."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import toggled
from thermocover import mpc
from thermocover.errors import ConfigError, ConvergenceError, NumericError
from thermocover.fopdt import DiscreteFOPDT, discretize_fopdt
from thermocover.mpc import (MAX_HORIZON, MpcConfig, PenaltyForm,
                             PumpHysteresis, ThermalController,
                             _cached_hessian, build_prediction, pump_step,
                             solve_mpc, update_from_checks)
from thermocover.params import AmbientConfig, Mode, Target, preset_params
from thermocover.scenario import apply_overrides, builtin_scenarios
from thermocover.simulate import simulate


def _model(a=0.9, d=0):
    return DiscreteFOPDT(a=a, b=1.0 - a, d=d, t_s=1.0)


def test_one_step_prediction():
    qp = build_prediction(_model(a=0.9), 10.0, [], [0.0])
    # T(k+1) = a*T(k) + b*u(k)
    assert qp.free[0] == pytest.approx(9.0)
    assert qp.Phi[0, 0] == pytest.approx(0.1)


def test_constant_command_fixed_point():
    c = 25.0
    qp = build_prediction(_model(a=0.95, d=2), c, [c, c], np.full(6, c))
    pred = qp.Phi @ np.full(6, c) + qp.free
    assert np.allclose(pred, c, atol=1e-12)


def _preset_models():
    """The controller's models: both modes of both targets, at the sampling
    time of the built-in protocols for that target."""
    for target, t_s in ((Target.COVER, 1.0), (Target.PIPE, 0.5)):
        for mode in Mode:
            yield discretize_fopdt(preset_params(mode, target), t_s)


def _free_response_loop(model, T_now, past, H):
    """Reference: the free response summed one past command at a time."""
    a, b, d = model.a, model.b, model.d
    apow = a ** np.arange(H + 1)
    free = apow[1:] * T_now
    for m in range(1, d + 1):
        i = np.arange(m, H + 1)
        free[i - 1] += b * apow[i - m] * past[m - 1]
    return free


def test_free_response_bit_equal_to_loop():
    rng = np.random.default_rng(3)
    for model in _preset_models():
        H = model.d + MpcConfig().H
        for _ in range(5):
            T_now = float(rng.uniform(15.0, 35.0))
            past = rng.uniform(5.0, 60.0, size=model.d)
            qp = build_prediction(model, T_now, past, np.full(H, 25.0))
            assert np.array_equal(qp.free,
                                  _free_response_loop(model, T_now, past, H))


def test_cached_constants_are_read_only():
    model = _model(a=0.95, d=3)
    qp = build_prediction(model, 20.0, [20.0] * 3, np.zeros(8))
    assert build_prediction(model, 21.0, [21.0] * 3, np.ones(8)).Phi \
        is qp.Phi
    cached = _cached_hessian(model.a, model.b, model.d, 5, 1.0, 1e-4,
                             PenaltyForm.MAGNITUDE)
    assert _cached_hessian(model.a, model.b, model.d, 5, 1.0, 1e-4,
                           PenaltyForm.MAGNITUDE) is cached
    Hm, _, dg0 = cached
    # z = [x_hat, past (d), refs[d:] - p_hat (n), u_ref or u_prev]
    assert dg0.shape == (5, model.d + 5 + 2)
    key = (model.a, model.b, model.d, 5, 1.0, 1e-4, PenaltyForm.MAGNITUDE,
           5.0, 60.0, (0,), (2, 3))
    region = mpc._region_map(*key)
    assert mpc._region_map(*key) is region
    R, r, floor, ceil = region
    assert R.shape == dg0.shape
    assert r.shape == floor.shape == ceil.shape == (5,)
    for array in (qp.Phi, Hm, dg0, *region):
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 1.0


def test_dead_time_blocks_early_rows():
    d = 3
    qp = build_prediction(_model(d=d), 20.0, [20.0] * d, np.zeros(6))
    assert np.all(qp.Phi[:d, :] == 0.0)
    assert np.any(qp.Phi[d:, :] != 0.0)


def test_past_inputs_length_enforced():
    with pytest.raises(ConfigError):
        build_prediction(_model(d=2), 20.0, [20.0], np.zeros(4))


def test_preview_within_dead_time_rejected():
    # no command of such a preview reaches a prediction inside it
    d = 5
    for H in (3, d):
        with pytest.raises(ConfigError):
            build_prediction(_model(d=d), 25.0, [25.0] * d, np.full(H, 30.0))


def test_equilibrium_setpoint_zero_cost():
    cfg = MpcConfig(H=4, W2=0.0)
    qp = build_prediction(_model(a=0.9), 25.0, [], np.full(4, 25.0))
    sol = solve_mpc(qp, cfg)
    assert np.allclose(sol.sequence, 25.0, atol=1e-5)


def test_upper_bound_clamps():
    cfg = MpcConfig(H=3, W2=0.0, T_min_th=5.0, T_max_th=30.0)
    qp = build_prediction(_model(a=0.99), 21.0, [], np.full(3, 80.0))
    sol = solve_mpc(qp, cfg)
    assert sol.command == pytest.approx(30.0, abs=1e-9)
    assert sol.active_upper[0]
    assert np.all(sol.sequence <= 30.0 + 1e-12)


def test_kkt_residual_reported():
    cfg = MpcConfig(H=5, W2=0.01)
    qp = build_prediction(_model(a=0.95), 20.0, [], np.full(5, 24.0))
    sol = solve_mpc(qp, cfg, u_ref=21.0)
    assert sol.kkt_residual < 1e-8
    assert np.all(sol.sequence >= cfg.T_min_th)
    assert np.all(sol.sequence <= cfg.T_max_th)


def test_increment_penalty_freezes_command():
    cfg = MpcConfig(H=4, W2=1e9, penalty_form=PenaltyForm.INCREMENT)
    qp = build_prediction(_model(a=0.9), 20.0, [], np.full(4, 30.0))
    sol = solve_mpc(qp, cfg, u_prev=22.0)
    assert np.allclose(sol.sequence, 22.0, atol=1e-3)


def test_config_validation():
    nan, inf = float("nan"), float("inf")
    for bad in ({"H": 0}, {"H": 2.5}, {"H": MAX_HORIZON + 1},
                {"W1": 0.0}, {"W1": nan}, {"W1": inf},
                {"W2": -1.0}, {"W2": nan}, {"W2": inf},
                {"T_min_th": 30.0, "T_max_th": 20.0}, {"T_min_th": nan},
                {"T_min_th": -inf}, {"T_max_th": nan}, {"T_max_th": inf},
                {"t_s": nan}, {"t_s": inf}):
        with pytest.raises(ConfigError):
            MpcConfig(**bad)
    assert MpcConfig(H=MAX_HORIZON).H == MAX_HORIZON


def test_controller_rejects_too_long_preview():
    # the cover's dead time spans 4 500 samples of 0.01 s
    with pytest.raises(ConfigError):
        ThermalController(cfg=MpcConfig(t_s=0.01), ambient=AmbientConfig())


def test_controller_previews_dead_time_plus_horizon(monkeypatch):
    # t_s = 1.6 s gives the cool mode 19 samples of dead time
    built, mapped = [], []

    def recording_build(model, T_now, past_inputs, setpoints):
        built.append((model.d, len(setpoints)))
        return build_prediction(model, T_now, past_inputs, setpoints)

    def recording_hessian(a, b, d, n, *rest):
        cached = _cached_hessian(a, b, d, n, *rest)
        # the gradient offset per unit z takes x_hat, the d past commands
        # and the n previewed setpoints past the dead time, and the
        # penalty's target
        _, _, dg0 = cached
        mapped.append((d, dg0.shape[1] - 2))
        return cached

    monkeypatch.setattr(mpc, "build_prediction", recording_build)
    monkeypatch.setattr(mpc, "_cached_hessian", recording_hessian)
    for t_s, dead_times in ((1.0, {45, 30}), (0.5, {90, 60}),
                            (1.6, {28, 19})):
        built.clear()
        mapped.clear()
        # the region maps read the Hessian only when they are built
        mpc._region_map.cache_clear()
        ctrl = ThermalController(cfg=MpcConfig(H=20, t_s=t_s),
                                 ambient=AmbientConfig())
        n = ctrl.preview_length
        assert n == max(dead_times) + 20
        ctrl.step(21.0, 21.0, np.full(n, 25.0))
        ctrl.step(25.0, 25.0, np.full(n, 20.0))
        assert {d for d, _ in mapped} == dead_times
        assert all(length == d + 20 for d, length in mapped + built)


def test_pump_hysteresis():
    h = PumpHysteresis(on_band=0.3, off_band=0.1)
    h, on = pump_step(h, 23.0, 25.0)
    assert on
    held, on = pump_step(h, 24.85, 25.0)   # inside the band: hold state
    assert on and held is h
    h, on = pump_step(h, 24.95, 25.0)
    assert not on
    for bad in ({"on_band": 0.1, "off_band": 0.3},
                {"on_band": -1.0, "off_band": -2.0}, {"off_band": -0.1},
                {"on_band": float("inf")}, {"on_band": float("nan")}):
        with pytest.raises(ConfigError):
            PumpHysteresis(**bad)


def test_controller_settles_and_stops_pump():
    ctrl = ThermalController(cfg=MpcConfig(), ambient=AmbientConfig(),
                             target=Target.COVER)
    # measurement already at the setpoint: command stays bounded, pump off
    for _ in range(50):
        cmd, pump_on = ctrl.step(25.0, 25.0, np.full(30, 25.0))
        assert 5.0 <= cmd <= 60.0
        assert not pump_on


def test_controller_mode_switch_resets_offset_state():
    ctrl = ThermalController(cfg=MpcConfig(), ambient=AmbientConfig(),
                             target=Target.COVER)
    ctrl.step(21.0, 21.0, np.full(30, 25.0))
    heat_mode = ctrl.mode
    ctrl.step(25.0, 25.0, np.full(30, 20.0))
    assert ctrl.mode is not heat_mode


def test_history_array_matches_plain_list():
    # a controller stepped past its history's length gives the commands of
    # one whose history array is rebuilt before each sample from a plain
    # list of the commands, padded with the current measurement: this pins
    # the in-place shift and the startup padding
    shifted = ThermalController(cfg=MpcConfig(), ambient=AmbientConfig())
    rebuilt = ThermalController(cfg=MpcConfig(), ambient=AmbientConfig())
    size, n = shifted._history.size, shifted.preview_length
    commands, seen = [], set()
    for k in range(2 * size + 10):
        measurement = 24.0 + 0.6 * np.sin(k / 7.0)
        preview = np.full(n, 24.0 + 0.6 * np.cos(k / 11.0))
        # in place: the mode buffers hold views of the array
        rebuilt._history[:] = ([measurement] * size + commands)[-size:]
        rebuilt._count = size
        out = shifted.step(measurement, measurement, preview)
        assert rebuilt.step(measurement, measurement, preview) == out
        commands.append(out[0])
        seen.add((shifted.mode, out[1], out[0] in (5.0, 60.0)))
    # both modes, pump states, and commands at a bound and inside the box
    for i, values in enumerate((set(Mode), {False, True}, {False, True})):
        assert {key[i] for key in seen} == values
    assert shifted._history.tolist() == commands[-size:]
    assert shifted._count == size


def test_region_maps_built_once_per_mode_and_pattern(monkeypatch):
    # the region maps live in one process cache: over one run from a
    # cleared cache, _region_map misses once per (mode, held pattern) met,
    # and a later run misses none
    keys = set()
    region_map = mpc._region_map

    def recording_map(*args):
        keys.add(args)
        return region_map(*args)

    monkeypatch.setattr(mpc, "_region_map", recording_map)
    region_map.cache_clear()
    spec = builtin_scenarios()["exp1_heat"]
    trace = simulate(spec)
    built = region_map.cache_info()
    # a key's dead time tells the cover's modes apart
    met = {(args[2], args[-2:]) for args in keys}
    assert built.misses == len(keys) == len(met)
    assert {d for d, _ in met} == {45, 30}
    assert len(trace) > 10 * built.misses
    simulate(spec)
    assert region_map.cache_info().misses == built.misses
    assert region_map.cache_info().hits > built.hits


def test_builtins_build_each_region_map_once():
    # every pattern the six built-ins meet, in the controller's samples, the
    # composed samples and the solver's updates, is built once into the one
    # cache, which the budget leaves whole
    region_map = mpc._region_map
    region_map.cache_clear()
    for spec in builtin_scenarios().values():
        simulate(spec)
    info = region_map.cache_info()
    assert info.misses == info.currsize == 58
    assert info.nbytes < 0.03 * mpc._REGION_CACHE_BYTES


def test_region_cache_keeps_to_its_byte_budget(monkeypatch):
    # past its budget the cache drops the least recently used maps, and a
    # map larger than the budget is returned but not kept
    region_map = mpc._region_map
    key = (0.95, 0.05, 3, 5, 1.0, 1e-4, PenaltyForm.MAGNITUDE, 5.0, 60.0)
    patterns = [((i,), ()) for i in range(5)]
    size = sum(m.nbytes for m in region_map(*key, (), ()))
    monkeypatch.setattr(mpc, "_REGION_CACHE_BYTES", 3 * size)
    region_map.cache_clear()
    for held in patterns[:3]:
        region_map(*key, *held)
    region_map(*key, *patterns[0])
    region_map(*key, *patterns[3])
    info = region_map.cache_info()
    assert (info.hits, info.misses, info.currsize, info.nbytes) == \
        (1, 4, 3, 3 * size)
    # patterns[0], read since it was built, stayed, and patterns[1] went
    region_map(*key, *patterns[0])
    assert region_map.cache_info()[:2] == (2, 4)
    region_map(*key, *patterns[1])
    assert region_map.cache_info()[:2] == (2, 5)
    large = region_map(*key[:3], 40, *key[4:], (), ())
    assert sum(m.nbytes for m in large) > 3 * size
    assert region_map(*key[:3], 40, *key[4:], (), ()) is not large
    assert region_map.cache_info() == (2, 7, 3, 3 * size)
    region_map.cache_clear()


@pytest.mark.parametrize("measurement, setpoint", [(float("nan"), 25.0),
                                                   (21.0, float("nan"))])
def test_non_finite_input_stops_solver_at_once(measurement, setpoint):
    # NaN in the QP, whose residual cannot become finite: the solver must
    # raise at the first iteration, not spin to its cap.  The controller
    # rejects such inputs before they reach it, so the QP is built here.
    cfg = MpcConfig()
    model = discretize_fopdt(preset_params(Mode.HEAT), cfg.t_s)
    qp = build_prediction(model, measurement, np.full(model.d, 21.0),
                          np.full(model.d + cfg.H, setpoint))
    with pytest.raises(NumericError, match="at iteration 0:") as info:
        solve_mpc(qp, cfg, u_ref=AmbientConfig().T_amb, u_prev=21.0)
    assert not isinstance(info.value, ConvergenceError)


@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   float("-inf")])
@pytest.mark.parametrize("name", ["measurement", "T_w", "preview"])
@pytest.mark.parametrize("startup", [True, False], ids=["startup", "later"])
def test_step_rejects_non_finite_input_before_changing_state(name, value,
                                                             startup):
    # the input is named, and the controller goes on exactly as one that
    # never saw the bad sample
    def good(ctrl, k):
        return ctrl.step(21.0 + 0.1 * k, 20.0 + 0.1 * k,
                         np.full(ctrl.preview_length, 25.0))

    ctrl, clean = (ThermalController(cfg=MpcConfig(), ambient=AmbientConfig())
                   for _ in range(2))
    n = ctrl.preview_length
    samples = 0 if startup else 3
    for k in range(samples):
        good(ctrl, k)
        good(clean, k)
    mode = ctrl.mode
    inputs = {"measurement": 21.0, "T_w": 21.0,
              "preview": np.full(n, 25.0)}
    if name == "preview":
        inputs["preview"][n // 2] = value
    else:
        inputs[name] = value
    match = ("preview entry" if name == "preview" else name) + \
        ".* not finite"
    with pytest.raises(NumericError, match=match):
        ctrl.step(inputs["measurement"], inputs["T_w"], inputs["preview"])
    assert ctrl.mode is mode
    for k in range(samples, samples + 3):
        assert good(ctrl, k) == good(clean, k)
    assert ctrl.mode is clean.mode


def _preview_run(n):
    """(measurement, T_w, setpoint) per sample: two heat segments, a cool
    one, then back to the first, with the pump on and off in each."""
    out = []
    for k in range(n):
        setpoint = (25.0, 26.0, 16.0, 25.0)[4 * k // n]
        measurement = 21.0 + 4.0 * np.sin(k / 9.0)
        out.append((measurement, measurement - 0.5, setpoint))
    return out


def test_preview_reused_or_changed_in_place_gives_fresh_commands():
    # a writable preview changed in place between calls, and a read-only
    # one handed back while the setpoint holds, each give the commands of
    # a controller handed a fresh copy each sample
    copied, in_place, copied_frozen, reused = (
        ThermalController(cfg=MpcConfig(), ambient=AmbientConfig())
        for _ in range(4))
    n = copied.preview_length
    buffer = np.empty(n)
    setpoint = frozen = None
    pumps, modes = set(), []
    for k, (measurement, T_w, value) in enumerate(_preview_run(160)):
        if value != setpoint:
            setpoint = value
            frozen = np.full(n, value)
            frozen.flags.writeable = False
        buffer[:] = value
        buffer[k % n:] += 0.5
        out = copied.step(measurement, T_w, buffer.copy())
        assert in_place.step(measurement, T_w, buffer) == out
        out = copied_frozen.step(measurement, T_w, frozen.copy())
        assert reused.step(measurement, T_w, frozen) == out
        pumps.add(out[1])
        modes.append(reused.mode)
    assert pumps == {False, True}
    assert modes[0] is modes[-1] is Mode.HEAT and Mode.COOL in modes


def test_nan_written_into_writable_preview_raises_before_state_changes():
    # a writable preview is scanned on every call, however often it came
    ctrl, clean = (ThermalController(cfg=MpcConfig(), ambient=AmbientConfig())
                   for _ in range(2))
    n = ctrl.preview_length
    buffer = np.full(n, 25.0)
    for k in range(3):
        assert ctrl.step(21.0 + 0.1 * k, 20.0, buffer) == \
            clean.step(21.0 + 0.1 * k, 20.0, np.full(n, 25.0))
    state = (ctrl.mode, ctrl._x_hat, ctrl._p_hat, ctrl._history.tolist(),
             ctrl._count, ctrl.hysteresis)
    buffer[n - 2] = np.nan
    with pytest.raises(NumericError,
                       match=f"preview entry {n - 2} is not finite: nan"):
        ctrl.step(21.3, 20.0, buffer)
    assert (ctrl.mode, ctrl._x_hat, ctrl._p_hat, ctrl._history.tolist(),
            ctrl._count, ctrl.hysteresis) == state
    buffer[n - 2] = 25.0
    for k in range(3, 6):
        assert ctrl.step(21.0 + 0.1 * k, 20.0, buffer) == \
            clean.step(21.0 + 0.1 * k, 20.0, np.full(n, 25.0))


def _recorded_solves(monkeypatch, specs):
    """Every solution the controller's solves return over the runs, and
    the runs' traces."""
    solutions = []

    def recording_solve(*args, **kwargs):
        sol = solve_mpc(*args, **kwargs)
        solutions.append(sol)
        return sol

    monkeypatch.setattr(mpc, "solve_mpc", recording_solve)
    return solutions, [simulate(spec) for spec in specs]


def test_builtin_solves_meet_kkt_tolerance(monkeypatch):
    # each solve starts from the clipped unconstrained minimizer alone;
    # the iterative path must still finish to the KKT tolerance
    scenarios = builtin_scenarios()
    solutions, _ = _recorded_solves(monkeypatch, [scenarios["exp1_heat"],
                                                  scenarios["exp2_grasp"]])
    assert any(sol.iterations >= 1 for sol in solutions)
    assert max(sol.kkt_residual for sol in solutions) < 1e-8


def test_no_command_penalty_solves_quickly(monkeypatch):
    # W2 = 0 leaves the tracking term alone, whose Hessian in the commands
    # that reach a prediction is still positive definite
    spec = apply_overrides(builtin_scenarios()["exp1_heat"],
                           ["controller.W2=0", "total_duration=120"])
    solutions, (trace,) = _recorded_solves(monkeypatch, [spec])
    # only the samples with a bound active reach the solver
    assert len(trace) == 120
    assert 1 <= len(solutions) <= 120
    assert max(sol.iterations for sol in solutions) <= 200
    assert max(sol.kkt_residual for sol in solutions) < 1e-8


def _map_samples(monkeypatch, specs):
    """Per control sample of the runs: what the controller's command step
    saw (config, model, x_hat, p_hat, past, preview, previous command,
    reference), the command it returned, whether the past commands were
    padded at startup, and the path that gave the command: the pattern
    tried, or the solver."""
    samples, events, measured = [], [], []
    step, command = ThermalController.step, ThermalController._command
    solve = mpc.solve_mpc

    def recording_solve(*args, **kwargs):
        events.append("solve")
        return solve(*args, **kwargs)

    def recording_step(ctrl, measurement, *args):
        measured.append(measurement)
        return step(ctrl, measurement, *args)

    def recording(ctrl, model, preview):
        events.clear()
        # the history before this sample's command is appended; until d
        # commands exist the past is padded with the measurement
        history, count = ctrl._history, ctrl._count
        applied = history[history.size - count:].tolist()
        padded = [measured[-1]] * (model.d - count) + applied
        past = padded[len(padded) - model.d:]
        u_prev = applied[-1] if applied else None
        cmd = command(ctrl, model, preview)
        path = "solver" if "solve" in events else "first"
        samples.append((ctrl.cfg, model, ctrl._x_hat, ctrl._p_hat,
                        past, preview.copy(), u_prev, ctrl.ambient.T_amb,
                        cmd, count < model.d, path))
        return cmd

    monkeypatch.setattr(mpc, "solve_mpc", recording_solve)
    monkeypatch.setattr(ThermalController, "step", recording_step)
    monkeypatch.setattr(ThermalController, "_command", recording)
    for spec in specs:
        simulate(spec)
    return samples


def test_unconstrained_map_matches_solver_on_builtins(monkeypatch):
    scenarios = builtin_scenarios()
    increment = apply_overrides(scenarios["exp1_heat"],
                                ["controller.penalty_form=increment",
                                 "total_duration=600"])
    samples = _map_samples(monkeypatch, [scenarios["exp1_heat"],
                                         scenarios["exp2_grasp"], increment])
    # the last sample's pattern and the solver each give commands
    assert {sample[-1] for sample in samples} == {"first", "solver"}
    modes, splits, padded, startup = set(), set(), 0, set()
    for (cfg, model, x_hat, p_hat, past, preview, u_prev, u_ref, cmd,
         startup_pad, _) in samples:
        d, n = model.d, cfg.H
        refs = np.concatenate((preview[:d + n],
                               np.full(max(0, d + n - preview.size),
                                       preview[-1])))
        form = cfg.penalty_form
        last = u_ref if u_prev is None or form is PenaltyForm.MAGNITUDE \
            else u_prev
        z = np.concatenate(([x_hat], past, refs[d:] - p_hat, [last]))
        lo, hi = cfg.T_min_th, cfg.T_max_th
        # the critical region with no command held
        R, r, _, _ = mpc._region_map(model.a, model.b, d, n, cfg.W1, cfg.W2,
                                     form, lo, hi, (), ())
        u_map = R @ z + r

        qp = build_prediction(model, x_hat, past, refs - p_hat)
        Hm, g0 = _reduced_problem(
            qp, cfg, u_ref, u_ref if u_prev is None else u_prev)
        interior = bool(np.all(u_map >= lo) and np.all(u_map <= hi))
        u_star = np.linalg.solve(Hm, -g0)
        assert interior == bool(np.all(u_star >= lo) and np.all(u_star <= hi))
        sol = solve_mpc(qp, cfg, u_ref=u_ref, u_prev=u_prev)
        if interior:
            assert np.max(np.abs(u_map - sol.sequence[:n])) <= 1e-10
            assert cmd == u_map[0]
        else:
            assert cmd == sol.command
        modes.add((d, form))
        splits.add(interior)
        padded += startup_pad
        startup.add((form, u_prev is None))
    # both modes of the cover (d = 45/30) and the pipe's heat mode, both
    # penalty forms, both sides of the split, startup padding of the past
    # commands and the first increment solve with no previous command
    assert {d for d, _ in modes} == {45, 30, 90}
    assert {form for _, form in modes} == set(PenaltyForm)
    assert splits == {True, False}
    assert padded > 0
    assert (PenaltyForm.INCREMENT, True) in startup
    assert (PenaltyForm.INCREMENT, False) in startup


@pytest.mark.parametrize("name, duration", [("exp1_heat", 700),
                                            ("exp2_grasp", 150)])
def test_commands_do_not_depend_on_weight_scale(name, duration):
    # the minimizer depends only on W2 / W1: scaling both scales the
    # Hessian, and the stopping test in K must not follow it
    spec = apply_overrides(builtin_scenarios()[name],
                           [f"total_duration={duration}"])
    cfg = spec.controller
    base = simulate(spec).T_p_cmd
    for k in (-9, -6, -3, 3, 6, 9, 12):
        scaled = replace(spec, controller=replace(
            cfg, W1=cfg.W1 * 10.0 ** k, W2=cfg.W2 * 10.0 ** k))
        assert np.max(np.abs(simulate(scaled).T_p_cmd - base)) <= 1e-9, k


def _reference_hessian(a, b, d, H, W1, W2, form):
    """Reference: the Hessian in all H commands of the preview, those past
    the last prediction included."""
    Phi = mpc._prediction_constants(a, b, d, H)[1]
    # the penalty acts on P @ u: the commands themselves or their increments
    P = np.eye(H)
    if form is PenaltyForm.INCREMENT:
        P -= np.eye(H, k=-1)
    Hm = 2.0 * (W1 * Phi.T @ Phi + W2 * P.T @ P)
    Hm.flags.writeable = False
    return Hm, float(np.linalg.eigvalsh(Hm)[-1])


def _full_problem(qp, cfg, u_ref, u_prev):
    """Hessian and gradient offset of the QP in every preview command."""
    H = len(qp.refs)
    if cfg.penalty_form is PenaltyForm.MAGNITUDE:
        v = np.full(H, u_ref)
    else:
        v = np.zeros(H)
        v[0] = u_prev
    model = qp.model
    Hm, _ = _reference_hessian(model.a, model.b, model.d, H, cfg.W1, cfg.W2,
                               cfg.penalty_form)
    return Hm, 2.0 * (cfg.W1 * qp.Phi.T @ (qp.free - qp.refs) - cfg.W2 * v)


#: The reference's stopping test, on a unit gradient step.
_REFERENCE_KKT_TOL = 1e-8

#: The reference's iteration cap.
_REFERENCE_MAX_ITER = 10_000


def _reference_solve(qp, cfg, u_ref=0.0, u_prev=None):
    """Reference: the solver before its two line searches were merged, with
    a cost check on the Newton step, over every command of the preview."""
    H = len(qp.refs)
    if u_prev is None:
        u_prev = u_ref
    form = cfg.penalty_form
    # target of P @ u, which P.T maps onto itself in both forms
    if form is PenaltyForm.MAGNITUDE:
        v = np.full(H, u_ref)
    else:
        v = np.zeros(H)
        v[0] = u_prev
    e = qp.free - qp.refs

    model = qp.model
    Phi = qp.Phi
    Hm, eigmax = _reference_hessian(model.a, model.b, model.d, H, cfg.W1,
                                    cfg.W2, form)
    g0 = 2.0 * (cfg.W1 * Phi.T @ e - cfg.W2 * v)
    lo, hi = cfg.T_min_th, cfg.T_max_th

    def cost_of(u):
        r1 = Phi @ u + e
        Pu = u if form is PenaltyForm.MAGNITUDE else np.diff(u, prepend=0.0)
        r2 = Pu - v
        return float(cfg.W1 * r1 @ r1 + cfg.W2 * r2 @ r2)

    def grad(u):
        return Hm @ u + g0

    # Fast path: interior unconstrained minimizer already satisfies KKT.
    try:
        u_star = np.linalg.solve(Hm, -g0)
        if np.all(u_star >= lo) and np.all(u_star <= hi):
            return _reference_finish(u_star, grad, lo, hi, 0)
        u = np.clip(u_star, lo, hi)
    except np.linalg.LinAlgError:
        u = np.clip(np.full(H, u_ref), lo, hi)

    if eigmax <= 0.0:
        return _reference_finish(u, grad, lo, hi, 0)
    step = 1.0 / eigmax
    tol = 1e-9 * max(1.0, hi - lo)

    for it in range(1, _REFERENCE_MAX_ITER + 1):
        g = grad(u)
        residual = float(np.max(np.abs(u - np.clip(u - g, lo, hi))))
        if residual < _REFERENCE_KKT_TOL:
            return _reference_finish(u, grad, lo, hi, it - 1)
        # projected gradient step with exact line search settles the
        # active set ...
        trial = np.clip(u - step * g, lo, hi)
        dvec = trial - u
        curv = float(dvec @ Hm @ dvec)
        if curv <= 0.0:
            alpha = 1.0
        else:
            alpha = min(1.0, max(0.0, -float(g @ dvec) / curv))
        u = u + alpha * dvec
        # ... and a Newton step on the free variables finishes quickly even
        # when the quadratic is badly conditioned.
        g = grad(u)
        free = ~(((u <= lo + tol) & (g > 0.0))
                 | ((u >= hi - tol) & (g < 0.0)))
        if np.any(free):
            dn = np.zeros_like(u)
            try:
                dn[free] = np.linalg.solve(Hm[np.ix_(free, free)], -g[free])
            except np.linalg.LinAlgError:
                continue
            dvec = np.clip(u + dn, lo, hi) - u
            curv = float(dvec @ Hm @ dvec)
            if curv > 0.0:
                alpha = min(1.0, max(0.0, -float(g @ dvec) / curv))
                cand = u + alpha * dvec
                if cost_of(cand) < cost_of(u):
                    u = cand

    g = grad(u)
    residual = float(np.max(np.abs(u - np.clip(u - g, lo, hi))))
    raise ConvergenceError(
        f"projected gradient hit {_REFERENCE_MAX_ITER} iterations "
        f"(KKT residual {residual:.3e})",
        residual=residual,
    )


def _reference_finish(u, grad, lo, hi, iterations):
    g = grad(u)
    residual = float(np.max(np.abs(u - np.clip(u - g, lo, hi))))
    tol = 1e-9 * max(1.0, hi - lo)
    return mpc.MpcSolution(
        sequence=u,
        active_lower=u <= lo + tol,
        active_upper=u >= hi - tol,
        iterations=iterations,
        kkt_residual=residual,
    )


def _random_problems(n, seed):
    """Seeded QP inputs (model, cfg, x_hat, past, refs, u_ref, u_prev): 1..80
    unknowns, dead time 0..11, both penalty forms, four penalty weights, and
    setpoints that often lie beyond the command box."""
    rng = np.random.default_rng(seed)
    for k in range(n):
        n_free = int(rng.integers(1, 81))
        a = float(rng.uniform(0.5, 0.995))
        model = DiscreteFOPDT(a=a, b=1.0 - a, d=int(rng.integers(0, 12)),
                              t_s=1.0)
        H = model.d + n_free
        lo = float(rng.uniform(5.0, 25.0))
        cfg = MpcConfig(H=n_free, W2=(0.0, 1e-4, 1e-2, 1.0)[k % 4],
                        T_min_th=lo,
                        T_max_th=lo + float(rng.uniform(1.0, 30.0)),
                        penalty_form=list(PenaltyForm)[k // 4 % 2])
        refs = np.repeat(rng.uniform(0.0, 60.0, size=3), -(-H // 3))[:H]
        x_hat = float(rng.uniform(10.0, 40.0))
        past = rng.uniform(5.0, 60.0, size=model.d)
        yield model, cfg, x_hat, past, refs, float(rng.uniform(0.0, 40.0)), \
            float(rng.uniform(5.0, 60.0))


def _random_qps(n, seed):
    """The QPs of ``_random_problems``, built: (qp, cfg, u_ref, u_prev)."""
    for model, cfg, x_hat, past, refs, u_ref, u_prev in \
            _random_problems(n, seed):
        yield build_prediction(model, x_hat, past, refs), cfg, u_ref, u_prev


def test_solver_matches_reference_on_random_qps():
    bound = iterated = compared = 0
    for qp, cfg, u_ref, u_prev in _random_qps(300, seed=0):
        sol = solve_mpc(qp, cfg, u_ref, u_prev)
        # the KKT residual of the answer in every command of the preview
        Hm, g0 = _full_problem(qp, cfg, u_ref, u_prev)
        u, lo, hi = sol.sequence, cfg.T_min_th, cfg.T_max_th
        assert len(u) == len(qp.refs)
        assert np.max(np.abs(u - np.clip(u - (Hm @ u + g0), lo, hi))) < 1e-8
        bound += bool(np.any(sol.active_lower | sol.active_upper))
        iterated += sol.iterations > 0
        try:
            ref = _reference_solve(qp, cfg, u_ref, u_prev)
        except ConvergenceError:
            # the reference's Hessian is singular where W2 = 0
            assert cfg.W2 == 0.0
            continue
        if cfg.W2 == 0.0:
            # the commands past the last prediction are free, so the
            # minimizer is not unique
            continue
        assert np.array_equal(sol.active_lower, ref.active_lower)
        assert np.array_equal(sol.active_upper, ref.active_upper)
        assert np.max(np.abs(sol.sequence - ref.sequence)) <= 1e-6
        compared += 1
    assert compared == 225
    assert bound >= 200 and 100 <= iterated < 300


@pytest.mark.parametrize("index", [896, 1588])
def test_solver_returns_where_full_reference_stalls(index):
    # two of the 7 QPs among the first 3 000 of seed 0 on which the
    # reference, with its singular W2 = 0 Hessian, hits its iteration cap
    qp, cfg, u_ref, u_prev = next(itertools.islice(
        _random_qps(index + 1, seed=0), index, None))
    assert cfg.W2 == 0.0
    with pytest.raises(ConvergenceError):
        _reference_solve(qp, cfg, u_ref, u_prev)
    sol = solve_mpc(qp, cfg, u_ref, u_prev)
    assert sol.kkt_residual < 1e-8


def _wide_qps(n, H, seed):
    """Seeded QPs (qp, cfg, u_ref, u_prev) with H unknowns, drawn wide: a
    in [0.5, 0.9999], dead time 0..39, boxes 0.5 to 40 K wide, W2 log-uniform
    in [1e-6, 10], both penalty forms, and setpoints up to 5 K outside the
    box."""
    rng = np.random.default_rng(seed)
    for k in range(n):
        a = float(rng.uniform(0.5, 0.9999))
        model = DiscreteFOPDT(a=a, b=1.0 - a, d=int(rng.integers(0, 40)),
                              t_s=1.0)
        lo = float(rng.uniform(0.0, 30.0))
        hi = lo + float(rng.uniform(0.5, 40.0))
        cfg = MpcConfig(H=H, W2=float(10.0 ** rng.uniform(-6.0, 1.0)),
                        T_min_th=lo, T_max_th=hi,
                        penalty_form=list(PenaltyForm)[k % 2])
        n_refs = model.d + H
        refs = np.repeat(rng.uniform(lo - 5.0, hi + 5.0, size=4),
                         -(-n_refs // 4))[:n_refs]
        x_hat = float(rng.uniform(lo - 5.0, hi + 5.0))
        past = rng.uniform(lo, hi, size=model.d)
        yield (build_prediction(model, x_hat, past, refs), cfg,
               float(rng.uniform(lo - 5.0, hi + 5.0)),
               float(rng.uniform(lo, hi)))


@pytest.mark.parametrize("H, n", [(30, 400), (60, 100)])
def test_least_index_rule_ends_cycles_on_wide_qps(monkeypatch, H, n):
    # plain primal-dual active-set updates come back to a pattern on some
    # of these draws; from then on the solver changes one command per
    # update, and still ends at the minimizer
    calls, engaged = [], 0
    update_first = mpc._update_first

    def counting(*args):
        calls.append(args)
        return update_first(*args)

    monkeypatch.setattr(mpc, "_update_first", counting)
    for qp, cfg, u_ref, u_prev in _wide_qps(n, H, seed=H):
        calls.clear()
        sol = solve_mpc(qp, cfg, u_ref, u_prev)
        engaged += bool(calls)
        Hm, g0 = _full_problem(qp, cfg, u_ref, u_prev)
        u, lo, hi = sol.sequence, cfg.T_min_th, cfg.T_max_th
        assert np.max(np.abs(u - np.clip(u - (Hm @ u + g0), lo, hi))) < 1e-8
        # W2 > 0 on every draw, so the minimizer is unique
        ref = _reference_solve(qp, cfg, u_ref, u_prev)
        assert np.max(np.abs(u - ref.sequence)) <= 1e-6
    assert engaged >= 1


def test_update_cap_raises_convergence_error(monkeypatch):
    # a QP that takes several updates: a cap one below its count raises
    # ConvergenceError, and a cap at its count lets it finish
    qp, cfg, u_ref, u_prev = next(
        (qp, cfg, u_ref, u_prev)
        for qp, cfg, u_ref, u_prev in _wide_qps(100, 30, seed=30)
        if solve_mpc(qp, cfg, u_ref, u_prev).iterations >= 5)
    updates = solve_mpc(qp, cfg, u_ref, u_prev).iterations
    monkeypatch.setattr(mpc, "_MAX_UPDATES", updates - 1)
    with pytest.raises(ConvergenceError,
                       match=f"active-set updates hit {updates - 1} ") as info:
        solve_mpc(qp, cfg, u_ref, u_prev)
    assert info.value.residual > 0.0
    monkeypatch.setattr(mpc, "_MAX_UPDATES", updates)
    assert solve_mpc(qp, cfg, u_ref, u_prev).iterations == updates


def _criterion_09_qps(n, seed):
    """Seeded QPs (qp, cfg, u_ref, u_prev) drawn as criterion 09 draws
    them: three preview commands, dead time 0 or 1, a 1 K box."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        a = float(rng.uniform(0.80, 0.995))
        model = DiscreteFOPDT(a=a, b=1.0 - a, d=int(rng.integers(0, 2)),
                              t_s=1.0)
        lo = float(rng.uniform(18.0, 22.0))
        W2 = float(rng.uniform(1e-3, 0.1))
        form = list(PenaltyForm)[int(rng.integers(0, 2))]
        cfg = MpcConfig(H=3, W2=W2, T_min_th=lo, T_max_th=lo + 1.0,
                        penalty_form=form)
        qp = build_prediction(model, float(rng.uniform(lo - 0.5, lo + 1.5)),
                              rng.uniform(lo, lo + 1.0, size=model.d),
                              rng.uniform(lo - 0.5, lo + 1.5, size=3))
        yield qp, cfg, float(rng.uniform(lo, lo + 1.0)), \
            float(rng.uniform(lo, lo + 1.0))


def _passes_test(qp, cfg, u_ref, u_prev, held):
    """Whether the held pattern passes its critical region's KKT test: its
    region map at z with x_hat and the past commands at zero, and qp.free,
    their response, folded into the setpoints."""
    model, form = qp.model, cfg.penalty_form
    d, n = model.d, len(qp.refs) - model.d
    z = np.zeros(d + n + 2)
    z[d + 1:-1] = (qp.refs - qp.free)[d:]
    z[-1] = u_ref if form is PenaltyForm.MAGNITUDE else u_prev
    R, r, floor, ceil = mpc._region_map(model.a, model.b, d, n, cfg.W1,
                                        cfg.W2, form, cfg.T_min_th,
                                        cfg.T_max_th, *held)
    y = R @ z + r
    return bool(np.all((y >= floor) & (y <= ceil)))


@pytest.mark.parametrize("qps", [
    lambda: _wide_qps(60, 30, seed=30),
    lambda: _wide_qps(20, 60, seed=60),
    lambda: _criterion_09_qps(50, seed=42),
], ids=["wide30", "wide60", "criterion09"])
def test_warm_start_from_any_pattern_meets_cold_solve(monkeypatch, qps):
    # from each pattern the cold solve evaluates, and from every command
    # held at one bound, the solver ends at the cold solve's minimizer; a
    # start that fails its test takes at least one update
    region_map = mpc._region_map
    visited, starts_checked, failed_starts = [], 0, 0

    def recording(*args):
        visited.append(args[-2:])
        return region_map(*args)

    for qp, cfg, u_ref, u_prev in qps():
        n = len(qp.refs) - qp.model.d
        visited.clear()
        monkeypatch.setattr(mpc, "_region_map", recording)
        cold = solve_mpc(qp, cfg, u_ref, u_prev)
        monkeypatch.undo()
        assert len(visited) == cold.iterations + 1
        every = tuple(range(n))
        Hm, g0 = _full_problem(qp, cfg, u_ref, u_prev)
        lo, hi = cfg.T_min_th, cfg.T_max_th
        for held in dict.fromkeys([*visited, (every, ()), ((), every)]):
            sol = solve_mpc(qp, cfg, u_ref, u_prev, held=held)
            u = sol.sequence
            assert sol.kkt_residual < 1e-8
            assert np.max(np.abs(u - np.clip(u - (Hm @ u + g0), lo, hi))) \
                < 1e-8
            assert np.max(np.abs(u - cold.sequence)) <= 1e-9
            if not _passes_test(qp, cfg, u_ref, u_prev, held):
                assert sol.iterations >= 1
                failed_starts += 1
            starts_checked += 1
    assert failed_starts >= starts_checked // 2


def test_controller_solves_start_from_the_failed_pattern(monkeypatch):
    # the controller hands the solver the last pattern it tried, which
    # failed its test: each solve makes an update, takes fewer in all than
    # from no command held, and ends where that cold solve ends
    scenarios = builtin_scenarios()
    increment = apply_overrides(scenarios["exp1_heat"],
                                ["controller.penalty_form=increment"])
    calls, warm = [], []

    def recording_solve(*args, **kwargs):
        sol = solve_mpc(*args, **kwargs)
        calls.append((args, kwargs))
        warm.append(sol)
        return sol

    monkeypatch.setattr(mpc, "solve_mpc", recording_solve)
    for spec in (scenarios["exp1_heat"], scenarios["exp2_grasp"], increment):
        simulate(spec)
    monkeypatch.undo()
    assert all(sol.iterations >= 1 for sol in warm)
    cold_iterations = 0
    for (args, kwargs), sol in zip(calls, warm):
        kwargs = {k: v for k, v in kwargs.items() if k != "held"}
        cold = solve_mpc(*args, **kwargs)
        assert np.max(np.abs(sol.sequence - cold.sequence)) <= 1e-9
        cold_iterations += cold.iterations
    assert sum(sol.iterations for sol in warm) < cold_iterations


def _region_command(z, key, held):
    """The QP's minimizer in its unknowns from the region map of one held
    pattern, or None where the pattern fails the KKT test at z; and the
    pattern's update."""
    R, r, floor, ceil = mpc._region_map(*key, *held)
    y = R @ z + r
    update = mpc._update_held(held, y, floor, ceil)
    if not (np.all(y >= floor) and np.all(y <= ceil)):
        return None, update
    lo, hi = key[-2:]
    y[list(held[0])] = lo
    y[list(held[1])] = hi
    return y, update


def test_region_maps_match_solver_on_random_qps():
    # the solver's own active pattern passes the region test, and wherever
    # a pattern passes, the region map gives the solver's minimizer; a
    # pattern one command away that would give another point must fail.
    # From a random pattern the composed samples' two tries, the pattern
    # and its update, give the solver's minimizer wherever one passes, and
    # from no held command the update is the clip pattern of the
    # unconstrained minimizer.  Each start is the solver's pattern with
    # about one command's state drawn at random.
    rng = np.random.default_rng(1)
    kinds, flipped, rejected = set(), 0, 0
    tries = {"first": 0, "update": 0, "neither": 0}
    for model, cfg, x_hat, past, refs, u_ref, u_prev in \
            _random_problems(300, seed=0):
        d, n, form = model.d, cfg.H, cfg.penalty_form
        sol = solve_mpc(build_prediction(model, x_hat, past, refs), cfg,
                        u_ref, u_prev)
        z = np.concatenate(([x_hat], past, refs[d:],
                            [u_ref if form is PenaltyForm.MAGNITUDE
                             else u_prev]))
        lo, hi = cfg.T_min_th, cfg.T_max_th
        key = (model.a, model.b, d, n, cfg.W1, cfg.W2, form, lo, hi)
        lower = tuple(np.flatnonzero(sol.active_lower[:n]).tolist())
        upper = tuple(np.flatnonzero(sol.active_upper[:n]).tolist())
        u, _ = _region_command(z, key, (lower, upper))
        assert np.max(np.abs(u - sol.sequence[:n])) <= 1e-10
        held = sorted(lower + upper)
        kinds.add((form, bool(lower and upper),
                   held != list(range(len(held)))))
        for i in range(n):
            # command i freed, or held at its nearer bound
            lo_i = tuple(j for j in lower if j != i)
            up_i = tuple(j for j in upper if j != i)
            if i not in held:
                if sol.sequence[i] - lo < hi - sol.sequence[i]:
                    lo_i = tuple(sorted(lo_i + (i,)))
                else:
                    up_i = tuple(sorted(up_i + (i,)))
            u, _ = _region_command(z, key, (lo_i, up_i))
            flipped += 1
            if u is None:
                rejected += 1
            else:
                assert np.max(np.abs(u - sol.sequence[:n])) <= 1e-10

        Hm, _, dg0 = _cached_hessian(*key[:-2])
        u_star = np.linalg.solve(Hm, -(dg0 @ z))
        _, update = _region_command(z, key, ((), ()))
        assert update == (tuple(np.flatnonzero(u_star < lo).tolist()),
                          tuple(np.flatnonzero(u_star > hi).tolist()))
        side = sol.active_lower[:n] + 2 * sol.active_upper[:n]
        redrawn = rng.random(n) < 1.0 / n
        side[redrawn] = rng.integers(0, 3, size=np.count_nonzero(redrawn))
        start = (tuple(np.flatnonzero(side == 1).tolist()),
                 tuple(np.flatnonzero(side == 2).tolist()))
        u, update = _region_command(z, key, start)
        if u is None:
            u, _ = _region_command(z, key, update)
            tries["neither" if u is None else "update"] += 1
        else:
            tries["first"] += 1
        if u is not None:
            assert np.max(np.abs(u - sol.sequence[:n])) <= 1e-10
    # both penalty forms, each with patterns mixing lower and upper bounds
    # and patterns that are no prefix of the unknowns
    for form in PenaltyForm:
        assert (form, True, True) in kinds
        assert any(k[0] is form and k[2] for k in kinds)
    assert flipped > 10_000 and rejected >= 0.99 * flipped
    assert min(tries.values()) >= 25, tries


def _reduced_problem(qp, cfg, u_ref, u_prev):
    """Cached Hessian and the gradient offset of the QP in its unknowns, the
    commands that reach a prediction."""
    model = qp.model
    d, n = model.d, len(qp.refs) - model.d
    if cfg.penalty_form is PenaltyForm.MAGNITUDE:
        v = np.full(n, u_ref)
    else:
        v = np.zeros(n)
        v[0] = u_prev
    Hm, _, _ = _cached_hessian(model.a, model.b, d, n, cfg.W1, cfg.W2,
                               cfg.penalty_form)
    e = (qp.free - qp.refs)[d:]
    return Hm, 2.0 * (cfg.W1 * qp.Phi[d:, :n].T @ e - cfg.W2 * v)


def test_unconstrained_region_matches_lu_solve():
    # where W2 > 0 the minimizer is unique and the Hessian well conditioned:
    # the region map with none held must give the LU solve's unconstrained
    # minimizer, and where that lies in the box it is the answer, to the
    # KKT tolerance
    interior = 0
    for model, cfg, x_hat, past, refs, u_ref, u_prev in \
            _random_problems(300, seed=0):
        if cfg.W2 == 0.0:
            continue
        qp = build_prediction(model, x_hat, past, refs)
        Hm, g0 = _reduced_problem(qp, cfg, u_ref, u_prev)
        u_star = np.linalg.solve(Hm, -g0)
        d, n, form = model.d, cfg.H, cfg.penalty_form
        R, r, _, _ = mpc._region_map(model.a, model.b, d, n, cfg.W1, cfg.W2,
                                     form, cfg.T_min_th, cfg.T_max_th, (),
                                     ())
        z = np.concatenate(([x_hat], past, refs[d:],
                            [u_ref if form is PenaltyForm.MAGNITUDE
                             else u_prev]))
        assert np.max(np.abs(R @ z + r - u_star)) <= 1e-9
        if np.all(u_star >= cfg.T_min_th) and np.all(u_star <= cfg.T_max_th):
            sol = solve_mpc(qp, cfg, u_ref, u_prev)
            assert sol.iterations == 0
            assert np.max(np.abs(sol.sequence[:len(u_star)] - u_star)) <= 1e-9
            assert sol.kkt_residual < 1e-8
            interior += 1
    assert interior >= 5


@st.composite
def _patterns_and_checks(draw, per_command=2):
    """A held pattern of n commands, each free or held at one bound, and
    ``per_command`` * n values, 2n KKT checks by default, signed zeros, NaN
    and infinities among them."""
    n = draw(st.integers(1, 24))
    sides = draw(st.lists(st.sampled_from(["free", "lower", "upper"]),
                          min_size=n, max_size=n))
    held = tuple(tuple(i for i, side in enumerate(sides) if side == bound)
                 for bound in ("lower", "upper"))
    value = st.one_of(st.sampled_from([0.0, -0.0, float("nan"), -1e-300,
                                       1e-300]),
                      st.floats(allow_nan=True, allow_infinity=True))
    size = per_command * n
    return held, draw(st.lists(value, min_size=size, max_size=size))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_patterns_and_checks())
def test_update_from_checks_matches_toggled_form(case):
    # the active-set update that the controller, the solver and the
    # composed maps share is the toggled form of failing indices: a check
    # fails below zero, so -0.0 and NaN pass
    held, checks = case
    n = len(checks) // 2
    expected = toggled(held, [c < 0.0 for c in checks[:n]],
                       [c < 0.0 for c in checks[n:]])
    assert update_from_checks(held, checks) == expected


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_patterns_and_checks(per_command=3))
def test_update_held_matches_toggled_form(case):
    # the controller's update reads y - floor and ceil - y as its checks,
    # which fail exactly where y < floor and y > ceil, NaN and infinities
    # included
    held, values = case
    y, floor, ceil = np.array(values).reshape(3, -1)
    assert mpc._update_held(held, y, floor, ceil) == \
        toggled(held, y < floor, y > ceil)


@pytest.mark.parametrize("target", list(Target))
@pytest.mark.parametrize("mode", list(Mode))
def test_controller_dead_time_is_at_least_one_sample(mode, target):
    # the controller has no branch for a dead time of zero samples: every
    # preset has one, and a sampling time above it is refused
    params = preset_params(mode, target)
    assert params.L_d > 0.0
    for t_s in (params.L_d, 0.75 * params.L_d, 0.5 * params.L_d, 1.0, 0.05):
        assert discretize_fopdt(params, t_s).d >= 1
    with pytest.raises(ConfigError):
        discretize_fopdt(params, np.nextafter(params.L_d, math.inf))
