"""Heat-flow observer filter: DC behavior, poles, linearity, stability."""

import numpy as np
import pytest

from conftest import (observer_frequency_response, observer_realization,
                      run_realization, simulate_design_model)
from thermocover.errors import ConfigError
from thermocover.observer import build_observer, observer_step
from thermocover.params import AmbientConfig, Mode, Target, preset_params
from thermocover.plant import estimate_q_aw, pump_flow


AMBIENT = AmbientConfig()


def _from_rest(obs, T_w, q):
    """``observer_step`` started at rest: one leading sample of zero inputs
    puts the filter at its zero state."""
    return observer_step(obs, np.r_[0.0, T_w], np.r_[0.0, q])[1:]


def test_ambient_exchange_estimate():
    assert estimate_q_aw(21.0, 21.0, 2.1) == 0.0
    assert estimate_q_aw(25.0, 21.0, 2.1) == pytest.approx(-1.9048, rel=1e-4)
    assert estimate_q_aw(19.0, 21.0, 2.1) > 0.0
    with pytest.raises(ConfigError):
        estimate_q_aw(21.0, 21.0, -1.0)


def test_dc_rejection(heat_params):
    # constant pipe temperature with balanced net heat produces no estimate
    obs = build_observer(heat_params, 1.0)
    out = observer_step(obs, np.full(500, 25.0), np.zeros(500))
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
    # the filter's poles are the trapezoidal images of -1/g1 and -1/g2,
    # strictly inside the unit circle
    poles = np.sort(np.roots(obs.a).real)
    images = np.sort([(2.0 * g - 1.0) / (2.0 * g + 1.0) for g in (g1, g2)])
    assert np.all(np.roots(obs.a).imag == 0.0)
    assert poles == pytest.approx(images, rel=1e-9)
    assert np.max(np.abs(poles)) < 1.0


def test_linearity(heat_params):
    obs = build_observer(heat_params, 0.5, filter_time_constants=(5.0, 1.0))
    rng = np.random.default_rng(7)
    T1, q1 = rng.normal(size=(2, 400))
    T2, q2 = rng.normal(size=(2, 400))
    a, b = 1.7, -0.4
    mixed = _from_rest(obs, a * T1 + b * T2, a * q1 + b * q2)
    split = a * _from_rest(obs, T1, q1) + b * _from_rest(obs, T2, q2)
    scale = np.max(np.abs(mixed)) + 1e-30
    assert np.max(np.abs(mixed - split)) / scale < 1e-9


def test_observer_step_long_run_tracks_realization(heat_params):
    # the whole-record filter on 10^5 inputs stays bounded and does not
    # drift from the reference realization started at its fixed point
    tc = (2.0, 0.5)
    obs = build_observer(heat_params, 1.0, filter_time_constants=tc)
    rng = np.random.default_rng(3)
    T_w, q = rng.uniform(-1, 1, 100_000), rng.uniform(-1, 1, 100_000)
    out = observer_step(obs, T_w, q)
    assert np.all(np.isfinite(out))
    # bounded by the filter's worst-case gain, no drift over 10^5 steps
    assert np.max(np.abs(out)) < 1e6
    ref = run_realization(observer_realization(heat_params, 1.0, tc), T_w, q)
    assert np.max(np.abs(out - ref)) <= 1e-9


def test_observer_step_equilibrium(heat_params):
    # the pipe at ambient with no net heat: the estimate stays at zero
    obs = build_observer(heat_params, 1.0)
    q_hat = observer_step(obs, np.full(200, AMBIENT.T_amb), np.zeros(200))
    assert np.max(np.abs(q_hat)) < 1e-9


@pytest.mark.parametrize("tc", [1e-200, 1e-160, 1e-100, 1e-8, 1e-7, 1e6,
                                1e8, 1e300])
def test_unrealizable_filter_constants_rejected(heat_params, tc):
    # the product underflows or overflows, or the trapezoidal realization
    # or its warm-start fixed point is singular to working precision
    with pytest.raises(ConfigError, match="filter time constants"):
        build_observer(heat_params, 0.5, (tc, tc))


#: (mode, t_s) -> a, b_dT_w, b_q of the natural-constant filter, bit for bit.
_NATURAL_COEFFICIENTS = {
    (Mode.HEAT, 0.05): (
        ("0x1p+0", "-0x1.ffbbb2e5510d6p+0", "0x1.ff7765dd78bb5p-1"),
        ("0x1.10cb3b3cd47e5p-7", "-0x1.1082732191481p-7"),
        ("-0x1.1b016bee6b2a7p-20", "-0x1.2d6a084f0bdaep-30",
         "0x1.1ab6116c57678p-20")),
    (Mode.HEAT, 1.0): (
        ("0x1p+0", "-0x1.fab75089c6cfep+0", "0x1.f56ebe3908164p-1"),
        ("0x1.10cb375d782b9p-7", "-0x1.0b29da9b24552p-7"),
        ("-0x1.61bff685a136cp-16", "-0x1.d257a76749813p-22",
         "0x1.5a7697e80410cp-16")),
    (Mode.COOL, 0.05): (
        ("0x1p+0", "-0x1.fbc53c91d87c8p+0", "0x1.f78a7e2fb24bbp-1"),
        ("0x1.10cb3a933e7b3p-5", "-0x1.0c49720b06c24p-5"),
        ("-0x1.31a3d548bdcccp-18", "-0x1.430054b7bcbeap-24",
         "0x1.2c97d3f5ded9cp-18")),
    (Mode.COOL, 1.0): (
        ("0x1p+0", "-0x1.b6df86c42838fp+0", "0x1.6dc5de665f3cdp-1"),
        ("0x1.10ca52d4b26a2p-5", "-0x1.85c2cc05f1875p-6"),
        ("-0x1.7e04542aa58acp-14", "-0x1.b43783b2b4fd7p-16",
         "0x1.10f6733df84b7p-14")),
}


@pytest.mark.parametrize("mode, t_s", list(_NATURAL_COEFFICIENTS))
def test_natural_coefficients_pinned(mode, t_s):
    # the trace's q_i_hat follows from these bits; a rewrite of the build
    # that moves one of them moves the trace
    obs = build_observer(preset_params(mode), t_s)
    for got, want in zip((obs.a, obs.b_dT_w, obs.b_q),
                         _NATURAL_COEFFICIENTS[mode, t_s]):
        assert [float(v).hex() for v in got] \
            == [float.fromhex(v).hex() for v in want]


@pytest.mark.parametrize("tc", [1e-6, 1e5])
def test_realizable_range_edges_build(heat_params, tc):
    # equal filter constants at t_s = 0.5 s build from 1e-6 s to 1e5 s in
    # decades; 1e-7 s and 1e6 s are rejected above
    obs = build_observer(heat_params, 0.5, (tc, tc))
    assert obs.filter_time_constants == (tc, tc)


def test_warm_start_fixed_point(heat_params):
    # the whole-record filter starts at its fixed point for the first
    # sample's inputs: constant inputs give a constant estimate from sample
    # 0, the reference realization's own at that fixed point
    tc = (3.0, 1.0)
    obs = build_observer(heat_params, 1.0, filter_time_constants=tc)
    out = observer_step(obs, np.full(50, 24.0), np.full(50, 1.5))
    assert np.max(np.abs(out - out[0])) < 1e-9
    ref = run_realization(observer_realization(heat_params, 1.0, tc),
                          [24.0], [1.5])
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
    out = _from_rest(obs, T_w, q)
    assert np.max(np.abs(out[100:])) < 1e-6


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
    ref = run_realization(observer_realization(params, 0.5, filter_tc),
                          T_w, q)
    assert np.max(np.abs(q_hat - ref)) <= 1e-9
