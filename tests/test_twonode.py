"""Two-node pipe/cover network realization and its transfer function."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from conftest import two_node_matrices, water_response, water_transfer_direct
from thermocover.plant import network_matrices


def test_eigenvalue_structure(heat_params):
    A, _ = two_node_matrices(heat_params)
    lam = np.sort(np.linalg.eigvals(A).real)
    assert lam[1] == pytest.approx(0.0, abs=1e-15)
    assert lam[0] < 0.0


def test_asymptotic_heating_rate(heat_params):
    # constant 1 W into the water node integrates over the total capacitance
    A, B = two_node_matrices(heat_params)
    rate = 1.0 / (heat_params.C_w + heat_params.C_c)
    assert rate == pytest.approx(0.0050557, rel=1e-4)

    def deriv(_t, x):
        return A @ x + B @ np.array([1.0, 0.0])

    sol = solve_ivp(deriv, (0.0, 5000.0), [0.0, 0.0], rtol=1e-10,
                    atol=1e-12, dense_output=True)
    dT = (sol.sol(5000.0)[0] - sol.sol(4000.0)[0]) / 1000.0
    assert dT == pytest.approx(rate, rel=1e-6)


def test_equilibrium_is_constant(heat_params):
    A, _ = two_node_matrices(heat_params)
    x = np.array([25.0, 25.0])
    assert np.allclose(A @ x, 0.0, atol=1e-15)


def test_isolated_network_conserves_heat(heat_params):
    # unequal initial temperatures relax to the capacitance-weighted mean
    A, _ = two_node_matrices(heat_params)
    x0 = np.array([30.0, 20.0])

    def deriv(_t, x):
        return A @ x

    sol = solve_ivp(deriv, (0.0, 1e6), x0, rtol=1e-11, atol=1e-12)
    mean = (heat_params.C_w * x0[0] + heat_params.C_c * x0[1]) \
        / (heat_params.C_w + heat_params.C_c)
    assert sol.y[0, -1] == pytest.approx(mean, rel=1e-8)
    assert sol.y[1, -1] == pytest.approx(mean, rel=1e-8)


def test_frequency_response_matches_rational_form(heat_params, cool_params):
    for params in (heat_params, cool_params):
        A, B = two_node_matrices(params)
        for omega in np.logspace(-4.0, 0.0, 20):
            direct = water_transfer_direct(params, 1j * omega)
            realized = water_response(A, B, 1j * omega)
            assert abs(realized - direct) / abs(direct) < 1e-9


def test_two_node_takes_the_shared_network(heat_params, cool_params):
    # the pipe/cover block of the plant's network, pump stopped and no
    # ambient leak, is the two-node network of the cover's R_c link
    for p in (heat_params, cool_params):
        A, _ = network_matrices(p.R_w, p.C_w, p.R_c, p.C_c, float("inf"),
                                p.C_co, p.R_co, False)
        w, c = 1.0 / (p.R_c * p.C_w), 1.0 / (p.R_c * p.C_c)
        np.testing.assert_allclose(A[2:, 2:], [[-w, w], [c, -c]],
                                   rtol=1e-15)
        # with the pump stopped the block takes nothing from tank or plate
        assert np.all(A[2:, :2] == 0.0)
