"""Combined first-order-plus-dead-time model and its discretization."""

import math

import pytest

from conftest import iterate_fopdt
from thermocover.errors import ConfigError
from thermocover.fopdt import discretize_fopdt, fopdt_step_response
from thermocover.params import Mode, preset_params


def test_discretization_coefficients(heat_params):
    m = discretize_fopdt(heat_params, 1.0)
    assert m.a == pytest.approx(500.0 / 501.0, rel=1e-15)
    assert m.b == pytest.approx(1.0 / 501.0, rel=1e-15)
    assert m.d == 45


def test_unit_dc_gain_preserved(heat_params, cool_params):
    for params in (heat_params, cool_params):
        for t_s in (0.1, 0.5, 1.0, 5.0):
            m = discretize_fopdt(params, t_s)
            assert m.a + m.b == pytest.approx(1.0, abs=1e-15)


def test_continuous_limit(heat_params):
    m = discretize_fopdt(heat_params, 1e-6)
    assert m.a > 1.0 - 1e-8
    assert m.b < 1e-8


def test_bad_sampling_time_rejected(heat_params):
    with pytest.raises(ConfigError):
        discretize_fopdt(heat_params, 0.0)
    with pytest.raises(ConfigError):
        discretize_fopdt(heat_params, heat_params.L_d + 1.0)


def test_step_response_dead_time(heat_params):
    assert fopdt_step_response(heat_params, 5.0, 0.0,
                               heat_params.L_d / 2.0) == 0.0


def test_step_response_dc_gain(heat_params):
    # unit DC gain: the response approaches the step minus the surface loss
    assert fopdt_step_response(heat_params, 5.0, 1.0, 1e7) == \
        pytest.approx(4.0, rel=1e-9)


def test_step_response_one_time_constant(heat_params):
    t = heat_params.L_d + heat_params.R_com_C_com
    assert fopdt_step_response(heat_params, 1.0, 0.0, t) == \
        pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)


def test_recursion_tracks_closed_form():
    for mode in Mode:
        params = preset_params(mode)
        t_s = 0.5
        m = discretize_fopdt(params, t_s)
        series = iterate_fopdt(m, 1.0, 2000)
        worst = max(abs(series[k] - fopdt_step_response(params, 1.0, 0.0,
                                                        k * t_s))
                    for k in range(2001))
        assert worst < 0.01
