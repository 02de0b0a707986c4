"""Shared fixtures and synthetic-trace helpers for the test suite."""

import sys

import numpy as np
import pytest
from scipy.signal import cont2discrete

from thermocover.fopdt import fopdt_step_response
from thermocover.params import AmbientConfig, Mode, preset_params
from thermocover.plant import PlantState, step_plant
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
