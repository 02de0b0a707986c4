"""Shared fixtures and synthetic-trace helpers for the test suite."""

import math
import sys

import numpy as np
import pytest
from scipy.signal import cont2discrete, lfilter

from thermocover.fopdt import fopdt_step_response
from thermocover.observer import water_channel_tf
from thermocover.params import AmbientConfig, Mode, preset_params
from thermocover.plant import PlantState, network_matrices, step_plant
from thermocover.sysid import StepTrace


@pytest.fixture(scope="session")
def heat_params():
    return preset_params(Mode.HEAT)


@pytest.fixture(scope="session")
def cool_params():
    return preset_params(Mode.COOL)


def decline_steady(monkeypatch):
    """Make ``simulate`` run every sample through the controller's ``step``
    and ``step_plant``, as a test that counts or wraps those per sample
    needs: no key gets a composed map."""
    monkeypatch.setattr(sys.modules["thermocover.simulate"], "_compose",
                        lambda *args: None)


def make_fopdt_trace(params, step=19.0, base=21.0, n=3000, t_s=1.0,
                     sigma=0.0, seed=None):
    """Synthetic single-step trace of the combined first-order model.

    The input steps from ``base`` to ``base + step`` at the second sample;
    the response follows the closed-form step response from the same time.
    """
    t = t_s * np.arange(n)
    u = np.full(n, base + step)
    u[0] = base
    y = np.array([base if k == 0
                  else base + fopdt_step_response(params, step, 0.0,
                                                  (k - 1) * t_s)
                  for k in range(n)])
    if sigma > 0.0:
        rng = np.random.default_rng(seed)
        y = y + rng.normal(0.0, sigma, size=y.shape)
    return StepTrace(t=t, u=u, y=y)


def make_plant_step_run(params, n=3000, pump_off_at=1500, base=21.0,
                        level=40.0):
    """Open-loop plant run: input step at the second sample, pump switched
    off partway through so the free-cooling dynamics are excited too.

    Returns (t, u, T_co, T_w, T_c, pump_on) as arrays sampled at 1 s.
    """
    ambient = AmbientConfig()
    state = PlantState.uniform(base)
    dt = 0.1
    t, u, y_co, y_w, y_c, pump = [], [], [], [], [], []
    for k in range(n):
        cmd = base if k == 0 else level
        on = k < pump_off_at
        t.append(float(k))
        u.append(cmd)
        y_co.append(state.T_co)
        y_w.append(state.T_w)
        y_c.append(state.T_c)
        pump.append(on)
        state = step_plant(state, cmd, on, 0.0, params, ambient, dt,
                           peltier_lag=0.0, peltier_power=float("inf"),
                           n_sub=10)
    return tuple(np.asarray(a) for a in (t, u, y_co, y_w, y_c, pump))


def observer_realization(params, t_s, filter_time_constants=None):
    """Reference for the observer's discrete filter, as (Ad, Bd, Cd, Dd):
    the inversion written out from ``params`` apart from ``build_observer``,
    realized in observer canonical form (one shared denominator, inputs
    [T_w, q]) and discretized by scipy's trapezoidal rule.
    ``filter_time_constants`` None takes the natural (R_c C_w, R_c C_c)."""
    if filter_time_constants is None:
        g1, g2 = params.R_c * params.C_w, params.R_c * params.C_c
    else:
        g1, g2 = filter_time_constants
    lead = g1 * g2
    a1, a0 = (g1 + g2) / lead, 1.0 / lead
    num_rows = [(params.R_c * params.C_w * params.C_c / lead,
                 (params.C_w + params.C_c) / lead, 0.0),
                (0.0, -params.R_c * params.C_c / lead, -1.0 / lead)]
    A = np.array([[-a1, 1.0], [-a0, 0.0]])
    C = np.array([[1.0, 0.0]])
    B = np.zeros((2, len(num_rows)))
    D = np.zeros((1, len(num_rows)))
    for j, num in enumerate(num_rows):
        D[0, j] = num[0]
        B[0, j] = num[1] - num[0] * a1
        B[1, j] = num[2] - num[0] * a0
    Ad, Bd, Cd, Dd, _ = cont2discrete((A, B, C, D), t_s, method="bilinear")
    return Ad, Bd, Cd, Dd


def run_realization(realization, T_w, q):
    """q_hat of ``observer_realization``'s recursion, one sample at a time,
    from its fixed point for the first sample's inputs (where
    ``observer_step`` starts)."""
    Ad, Bd, Cd, Dd = realization
    u = np.stack([np.asarray(T_w, float), np.asarray(q, float)], axis=1)
    x = np.linalg.solve(np.eye(2) - Ad, Bd @ u[0])
    out = np.empty(len(u))
    for k in range(len(u)):
        out[k] = (Cd @ x + Dd @ u[k]).item()
        x = Ad @ x + Bd @ u[k]
    return out


def observer_frequency_response(obs, omega):
    """Per-input complex response of the observer's discrete filter at
    omega rad/s: (1 - 1/z) b_dT_w / a on T_w and b_q / a on q."""
    w = np.exp(-1j * omega * obs.t_s)   # 1/z
    a = np.polyval(obs.a[::-1], w)
    return np.array([(1.0 - w) * np.polyval(obs.b_dT_w[::-1], w) / a,
                     np.polyval(obs.b_q[::-1], w) / a])


def iterate_fopdt(model, u, n_steps, T0=0.0):
    """Reference run of the discrete recursion T(k) = a T(k-1) +
    b u(k-1-d) for a constant input held from k = 0, zero before (the
    step-response convention); returns the list T(0..n_steps)."""
    T = [T0]
    for k in range(1, n_steps + 1):
        u_eff = u if k - 1 - model.d >= 0 else 0.0
        T.append(model.a * T[-1] + model.b * u_eff)
    return T


def two_node_matrices(params):
    """The two-node pipe/cover network as (A, B): state [T_w, T_c], inputs
    [q_w + q_aw, q_i].  A is the pipe/cover block of the plant's network
    (``network_matrices``) with the pump stopped and no ambient leak, so it
    stores heat without leaking it."""
    p = params
    A = network_matrices(p.R_w, p.C_w, p.R_c, p.C_c, math.inf, p.C_co,
                         p.R_co, False)[0][2:, 2:]
    B = np.array([[1.0 / p.C_w, 0.0], [0.0, 1.0 / p.C_c]])
    return A, B


def water_response(A, B, s):
    """q_w + q_aw -> T_w transfer of the realization (A, B) at s, via the
    resolvent."""
    return np.linalg.solve(complex(s) * np.eye(2) - A, B[:, 0])[0]


def water_transfer_direct(params, s):
    """q_w + q_aw -> T_w transfer at s from the observer's rational form,
    ``water_channel_tf``."""
    s = complex(s)
    num, den = water_channel_tf(params)
    return complex(np.polyval(num, s) / np.polyval(den, s))


def contact_channel_tf(params):
    """q_i -> T_w channel the observer design assumes, as (num, den): the
    water channel's numerator times (R_c C_w s + 1), over its
    denominator."""
    num_w, den = water_channel_tf(params)
    return np.polymul([params.R_c * params.C_w, 1.0], num_w).tolist(), den


def simulate_design_model(params, t_s, q_series, qi_series):
    """Sampled T_w of the observer's design model under the net water heat
    and the contact heat, each channel discretized by the trapezoidal rule
    the observer uses, so that feeding the result back in closes an exact
    algebraic loop."""
    q_series = np.asarray(q_series, dtype=float)
    qi_series = np.asarray(qi_series, dtype=float)
    T_w = np.zeros_like(q_series)
    for tf, u in ((water_channel_tf(params), q_series),
                  (contact_channel_tf(params), qi_series)):
        bz, az, _ = cont2discrete(tf, t_s, method="bilinear")
        T_w += lfilter(np.atleast_1d(np.squeeze(bz)), np.atleast_1d(az), u)
    return T_w
