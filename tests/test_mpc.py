"""Preview controller: prediction map, box-constrained solver, pump logic."""

import numpy as np
import pytest

from thermocover import mpc
from thermocover.errors import ConfigError
from thermocover.fopdt import DiscreteFOPDT, discretize_fopdt
from thermocover.mpc import (MAX_HORIZON, MpcConfig, PenaltyForm,
                             PumpHysteresis, ThermalController,
                             _cached_hessian, build_prediction, pump_step,
                             solve_mpc)
from thermocover.params import AmbientConfig, Mode, Target, preset_params
from thermocover.scenario import builtin_scenarios
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
        H = MpcConfig().effective_horizon(model.d)
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
    Hm, _ = _cached_hessian(model.a, model.b, model.d, 8, 1.0, 1e-4,
                            PenaltyForm.MAGNITUDE)
    for array in (qp.Phi, Hm):
        with pytest.raises(ValueError):
            array[0, 0] = 1.0


def test_dead_time_blocks_early_rows():
    d = 3
    qp = build_prediction(_model(d=d), 20.0, [20.0] * d, np.zeros(6))
    assert np.all(qp.Phi[:d, :] == 0.0)
    assert np.any(qp.Phi[d:, :] != 0.0)


def test_past_inputs_length_enforced():
    with pytest.raises(ConfigError):
        build_prediction(_model(d=2), 20.0, [20.0], np.zeros(4))


def test_dead_time_beyond_horizon_minimizes_penalty_only():
    # commands cannot influence any prediction inside the horizon, so the
    # solver just settles the command-magnitude term within bounds
    d, H = 5, 3
    cfg = MpcConfig(H=H, W2=0.5, T_min_th=5.0, T_max_th=60.0)
    qp = build_prediction(_model(d=d), 25.0, [25.0] * d, np.full(H, 30.0))
    assert np.all(qp.Phi == 0.0)
    sol = solve_mpc(qp, cfg, u_ref=21.0)
    assert np.allclose(sol.sequence, 21.0, atol=1e-6)


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


def test_effective_horizon_covers_dead_time():
    cfg = MpcConfig(H=20)
    assert cfg.effective_horizon(0) == 20
    assert cfg.effective_horizon(19) == 20
    assert cfg.effective_horizon(45) == 65


def test_pump_hysteresis():
    h = PumpHysteresis(on_band=0.3, off_band=0.1)
    h, on = pump_step(h, 23.0, 25.0)
    assert on
    h, on = pump_step(h, 24.85, 25.0)   # inside the band: hold state
    assert on
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


def test_builtin_solves_meet_kkt_tolerance(monkeypatch):
    # each solve starts from the clipped unconstrained minimizer alone;
    # the iterative path must still finish to the KKT tolerance
    solutions = []

    def recording_solve(*args, **kwargs):
        sol = solve_mpc(*args, **kwargs)
        solutions.append(sol)
        return sol

    monkeypatch.setattr(mpc, "solve_mpc", recording_solve)
    scenarios = builtin_scenarios()
    for name in ("exp1_heat", "exp2_grasp"):
        simulate(scenarios[name])
    assert any(sol.iterations >= 1 for sol in solutions)
    assert max(sol.kkt_residual for sol in solutions) < 1e-8
