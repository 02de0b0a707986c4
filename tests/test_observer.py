"""Heat-flow observer realization: DC behavior, poles, linearity, stability."""

from dataclasses import replace

import numpy as np
import pytest

from thermocover.errors import ConfigError
from thermocover.observer import (build_observer, observer_frequency_response,
                                  observer_step, simulate_design_model)
from thermocover.params import AmbientConfig, Mode, Target, preset_params
from thermocover.plant import estimate_q_aw, pump_flow


AMBIENT = AmbientConfig()


def _fixed_point(obs, T_w, q):
    """The realization's state for constant inputs (T_w, q)."""
    return np.linalg.solve(np.eye(2) - obs.Ad, obs.Bd @ np.array([T_w, q]))


def _iterate(obs, T_w_series, q_series, x=None):
    """Drive the raw realization with explicit (T_w, q) input streams from
    state ``x``, by default the realization's own."""
    x = np.asarray(obs.x if x is None else x)
    out = np.empty(len(T_w_series))
    for k, (T_w, q) in enumerate(zip(T_w_series, q_series)):
        u = np.array([T_w, q])
        out[k] = (obs.Cd @ x + obs.Dd @ u).item()
        x = obs.Ad @ x + obs.Bd @ u
    return out


def test_ambient_exchange_estimate():
    assert estimate_q_aw(21.0, 21.0, 2.1) == 0.0
    assert estimate_q_aw(25.0, 21.0, 2.1) == pytest.approx(-1.9048, rel=1e-4)
    assert estimate_q_aw(19.0, 21.0, 2.1) > 0.0
    with pytest.raises(ConfigError):
        estimate_q_aw(21.0, 21.0, -1.0)


def test_dc_rejection(heat_params):
    # constant pipe temperature with balanced net heat produces no estimate
    obs = build_observer(heat_params, 1.0)
    out = _iterate(obs, np.full(500, 25.0), np.zeros(500),
                   _fixed_point(obs, 25.0, 0.0))
    assert np.max(np.abs(out)) < 1e-9


def test_high_frequency_gain(heat_params):
    # the pipe-temperature channel approaches 1/R_c at the band edge
    obs = build_observer(heat_params, 0.01)
    gains = observer_frequency_response(obs, np.pi / 0.01 * 0.999)
    assert abs(gains[0]) == pytest.approx(1.0 / heat_params.R_c, rel=1e-2)


def test_filter_poles(heat_params):
    # natural filter constants place the poles at the network's own rates
    obs = build_observer(heat_params, 1.0)
    g1, g2 = obs.filter_time_constants
    assert 1.0 / g1 == pytest.approx(4.217e-5, rel=1e-3)
    assert 1.0 / g2 == pytest.approx(2.081e-2, rel=1e-3)
    # and the discrete realization is strictly stable
    assert np.max(np.abs(np.linalg.eigvals(obs.Ad))) < 1.0


def test_linearity(heat_params):
    obs = build_observer(heat_params, 0.5, filter_time_constants=(5.0, 1.0))
    rng = np.random.default_rng(7)
    T1, q1 = rng.normal(size=(2, 400))
    T2, q2 = rng.normal(size=(2, 400))
    a, b = 1.7, -0.4
    mixed = _iterate(obs, a * T1 + b * T2, a * q1 + b * q2)
    split = a * _iterate(obs, T1, q1) + b * _iterate(obs, T2, q2)
    scale = np.max(np.abs(mixed)) + 1e-30
    assert np.max(np.abs(mixed - split)) / scale < 1e-9


def test_bounded_state_long_run(heat_params):
    obs = build_observer(heat_params, 1.0, filter_time_constants=(2.0, 0.5))
    rng = np.random.default_rng(3)
    out = _iterate(obs, rng.uniform(-1, 1, 100_000),
                   rng.uniform(-1, 1, 100_000))
    assert np.all(np.isfinite(out))
    # bounded by the realization's worst-case gain, no drift over 10^5 steps
    assert np.max(np.abs(out)) < 1e6


def test_observer_step_long_run_tracks_realization(heat_params):
    # the whole-record filter on the same 10^5 inputs stays bounded and
    # does not drift from the realization started at its fixed point
    obs = build_observer(heat_params, 1.0, filter_time_constants=(2.0, 0.5))
    rng = np.random.default_rng(3)
    T_w, q = rng.uniform(-1, 1, 100_000), rng.uniform(-1, 1, 100_000)
    out = observer_step(obs, T_w, q)
    assert np.all(np.isfinite(out))
    assert np.max(np.abs(out)) < 1e6
    ref = _iterate(obs, T_w, q, _fixed_point(obs, T_w[0], q[0]))
    assert np.max(np.abs(out - ref)) <= 1e-9


def test_observer_step_equilibrium(heat_params):
    # the pipe at ambient with no net heat: the estimate stays at zero
    obs = build_observer(heat_params, 1.0)
    q_hat = observer_step(obs, np.full(200, AMBIENT.T_amb), np.zeros(200))
    assert np.max(np.abs(q_hat)) < 1e-9


@pytest.mark.parametrize("tc", [1e-200, 1e-160, 1e-100, 1e-8, 1e8, 1e300])
def test_unrealizable_filter_constants_rejected(heat_params, tc):
    # the product underflows or overflows, or the trapezoidal realization
    # or its warm-start fixed point is singular to working precision
    with pytest.raises(ConfigError, match="filter time constants"):
        build_observer(heat_params, 0.5, (tc, tc))


def test_warm_start_fixed_point(heat_params):
    # the whole-record filter starts at its fixed point for the first
    # sample's inputs: constant inputs give a constant estimate from sample
    # 0, the realization's own at that fixed point
    obs = build_observer(heat_params, 1.0, filter_time_constants=(3.0, 1.0))
    out = observer_step(obs, np.full(50, 24.0), np.full(50, 1.5))
    assert np.max(np.abs(out - out[0])) < 1e-9
    ref = _iterate(obs, [24.0], [1.5], _fixed_point(obs, 24.0, 1.5))
    assert abs(out[0] - ref[0]) < 1e-9


def test_design_model_zero_contact(heat_params):
    # simulating the observer's own design model with no contact and closing
    # the loop on the same net heat yields a vanishing estimate
    t_s = 1.0
    n = 4000
    q = np.zeros(n)
    q[10:] = 0.8
    T_w = simulate_design_model(heat_params, t_s, q, np.zeros(n))
    obs = build_observer(heat_params, t_s)
    out = _iterate(obs, T_w, q)
    assert np.max(np.abs(out[100:])) < 1e-6


def _reference_observer_step(obs, T_w, q):
    """One sample of the numpy 2 x 2 recursion that the whole-record
    filter replaced, kept as its reference."""
    u = np.array([T_w, q])
    x = np.asarray(obs.x)
    q_hat = (obs.Cd @ x + obs.Dd @ u).item()
    x_next = obs.Ad @ x + obs.Bd @ u
    return replace(obs, x=(float(x_next[0]), float(x_next[1]))), q_hat


@pytest.mark.parametrize("filter_tc", [None, (0.4, 0.4), (1.0, 1.0)])
@pytest.mark.parametrize("mode", list(Mode))
def test_observer_step_matches_matrix_reference(mode, filter_tc):
    # the transfer-function filters round differently from the matrix
    # products; with the fast detection filters the state grows to ~1e6,
    # and the estimate may drift from the reference by 1e-9 W at most (the
    # trace CSV's bound)
    params = preset_params(mode, Target.PIPE)
    obs = build_observer(params, 0.5, filter_tc)
    rng = np.random.default_rng(5)
    T_w, T_co = np.empty((2, 3000))
    T = 23.0
    for k in range(3000):
        T += rng.normal(0.0, 0.02)
        T_w[k], T_co[k] = T, T + rng.normal(0.0, 1.0)
    pump_on = np.arange(3000) // 300 % 2 == 0
    q = pump_flow(T_co, T_w, pump_on, params) \
        + estimate_q_aw(T_w, AMBIENT.T_amb, params.R_aw)
    q_hat = observer_step(obs, T_w, q)
    # the reference, warm-started at the first sample's inputs
    x = _fixed_point(obs, T_w[0], q[0])
    ref = replace(obs, x=(float(x[0]), float(x[1])))
    for k in range(3000):
        ref, q_ref = _reference_observer_step(ref, T_w[k], q[k])
        assert abs(q_hat[k] - q_ref) <= 1e-9
