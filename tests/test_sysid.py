"""Step-trace validation and identification error paths.

Full accuracy round-trips (noiseless and Monte-Carlo) live in the
acceptance suite; this file covers the input checks and diagnostics.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import least_squares, minimize_scalar

from conftest import make_fopdt_trace, make_plant_step_run
from thermocover import sysid
from thermocover.errors import ConfigError, IllConditionedFitError
from thermocover.params import AmbientConfig, Mode, preset_params
from thermocover.sysid import (_SEARCH_MAP, _SEARCH_NAMES, _SIGNAL_INDEX,
                               _TWO_NODE_INIT, _TWO_NODE_NAMES, FitReport,
                               StepTrace, _confidence, _fopdt_basis,
                               _modal_systems, _plant_derivatives,
                               _plant_matrices, _recordings, _simulate,
                               _two_point_init, fit_fopdt, fit_two_node)


def test_trace_must_be_uniform():
    with pytest.raises(ConfigError):
        StepTrace(t=[0.0, 1.0, 3.0], u=[0, 1, 1], y=[0, 0, 1])


def test_trace_too_short():
    with pytest.raises(ConfigError):
        StepTrace(t=[0.0, 1.0], u=[0, 1], y=[0, 0])


@pytest.mark.parametrize("column", ["t", "u", "y"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_trace_rejects_non_finite_values(column, value):
    cols = {"t": [0.0, 1.0, 2.0, 3.0], "u": [0.0, 1.0, 1.0, 1.0],
            "y": [0.0, 0.0, 1.0, 2.0]}
    cols[column][2] = value
    name = "T_w" if column == "y" else column
    with pytest.raises(ConfigError, match=f"trace {name} is not finite"):
        StepTrace(**cols, signal="T_w")


@pytest.mark.parametrize("column", ["u", "y"])
def test_trace_rejects_values_beyond_temperature_range(column):
    cols = {"t": [0.0, 1.0, 2.0], "u": [0.0, 1.0, 1.0], "y": [0.0, 0.0, 1.0]}
    cols[column][1] = -1e300
    with pytest.raises(ConfigError, match="exceeds"):
        StepTrace(**cols)


@pytest.mark.parametrize("t", [[2.0, 1.0, 0.0], [0.0, 0.0, 0.0],
                               [-1e308, 1e308, 1e308]])
def test_trace_time_must_increase_in_finite_steps(t):
    with pytest.raises(ConfigError, match="must increase"):
        StepTrace(t=t, u=[0, 1, 1], y=[0, 0, 1])


@pytest.mark.parametrize("field", ["u", "y", "pump_on"])
def test_trace_columns_must_match_time(field):
    cols = {"t": [0.0, 1.0, 2.0], "u": [0, 1, 1], "y": [0, 0, 1],
            "pump_on": [True, True, False]}
    cols[field] = cols[field][:2]
    with pytest.raises(ConfigError, match="samples"):
        StepTrace(**cols)


def test_single_step_required():
    tr = StepTrace(t=[0.0, 1.0, 2.0, 3.0], u=[0, 1, 2, 2], y=[0, 0, 1, 2])
    with pytest.raises(ConfigError):
        tr.step_index
    tr = StepTrace(t=[0.0, 1.0, 2.0, 3.0], u=[0, 0, 0, 0], y=[0, 0, 1, 2])
    with pytest.raises(ConfigError):
        tr.step_index


def test_non_settling_trace_rejected(heat_params):
    tr = make_fopdt_trace(heat_params, n=200)    # far less than 3 tau
    with pytest.raises(IllConditionedFitError):
        fit_fopdt(tr)


def test_flat_trace_rejected(heat_params):
    n = 500
    t = np.arange(n, dtype=float)
    u = np.full(n, 21.0)
    u[0] = 20.0
    with pytest.raises(IllConditionedFitError):
        fit_fopdt(StepTrace(t=t, u=u, y=np.full(n, 21.0)))


def test_zero_delay_trace_recovers_zero_delay(heat_params):
    params = replace(heat_params, L_d=0.0)
    tr = make_fopdt_trace(params, n=3000)
    report = fit_fopdt(tr)
    assert report.parameters["L_d"] == pytest.approx(0.0, abs=0.5)
    assert report.parameters["R_com_C_com"] == \
        pytest.approx(params.R_com_C_com, rel=0.01)


def test_pump_always_off_flags_unidentifiable(heat_params):
    # free cooling only: the tank-to-pipe resistance never enters the
    # dynamics and must be reported as such
    t, u, _, y_w, _, pump = make_plant_step_run(heat_params, n=600,
                                                pump_off_at=0)
    tr = StepTrace(t=t, u=u, y=y_w, signal="T_w", pump_on=pump)
    with pytest.raises(IllConditionedFitError) as err:
        fit_two_node([tr], C_co=heat_params.C_co, R_co=heat_params.R_co)
    assert "R_w" in err.value.unidentifiable


def test_two_node_needs_a_step_or_a_pump_toggle(heat_params):
    # one recording per input level: none steps its input or toggles its
    # pump, so nothing in the data excites the network
    n = 50
    t = np.arange(n, dtype=float)
    traces = [StepTrace(t=t, u=np.full(n, level), y=np.full(n, 21.0),
                        signal="T_w", pump_on=np.full(n, on))
              for level, on in ((20.0, True), (40.0, False))]
    with pytest.raises(ConfigError, match="never steps"):
        fit_two_node(traces, C_co=heat_params.C_co, R_co=heat_params.R_co)


def test_two_node_needs_traces(heat_params):
    with pytest.raises(ConfigError):
        fit_two_node([], C_co=heat_params.C_co, R_co=heat_params.R_co)


def test_two_node_needs_the_pump_column(heat_params):
    # without it the fit would take the pump as always off
    t, u, _, _, y_c, _ = make_plant_step_run(heat_params, n=600,
                                             pump_off_at=300)
    tr = StepTrace(t=t, u=u, y=y_c, signal="T_c")
    with pytest.raises(ConfigError, match="pump_on"):
        fit_two_node([tr], C_co=heat_params.C_co, R_co=heat_params.R_co)


@pytest.mark.parametrize("name", ["C_co", "R_co"])
@pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
def test_two_node_rejects_bad_tank_constants(heat_params, name, value):
    tr = StepTrace(t=[0.0, 1.0, 2.0], u=[0, 1, 1], y=[0, 0, 1])
    known = {"C_co": heat_params.C_co, "R_co": heat_params.R_co, name: value}
    with pytest.raises(ConfigError, match=name):
        fit_two_node([tr], **known)


def test_unknown_signal_rejected(heat_params):
    tr = StepTrace(t=[0.0, 1.0, 2.0], u=[0, 1, 1], y=[0, 0, 1],
                   signal="T_x")
    with pytest.raises(ConfigError):
        fit_two_node([tr], C_co=heat_params.C_co, R_co=heat_params.R_co)


def test_fit_report_serializes(heat_params):
    tr = make_fopdt_trace(heat_params)
    report = fit_fopdt(tr)
    kv = report.to_kv()
    assert kv["R_com_C_com"] == report.parameters["R_com_C_com"]
    assert "residual_rms" in kv


def test_fit_invariant_to_offsets(heat_params):
    # shifting the clock and adding a constant temperature changes nothing
    tr = make_fopdt_trace(heat_params)
    shifted = StepTrace(t=tr.t + 1000.0, u=tr.u + 5.0, y=tr.y + 5.0)
    a = fit_fopdt(tr).parameters
    b = fit_fopdt(shifted).parameters
    assert b["R_com_C_com"] == pytest.approx(a["R_com_C_com"], rel=1e-6)
    assert b["L_d"] == pytest.approx(a["L_d"], abs=1e-3)


# ---------------------------------------------------------------------------
# FOPDT fit against the nested bounded-Brent search it replaced

def _reference_linear_fit(y, phi):
    """Best (offset, gain) for y ~ y0 + K*phi; returns (y0, K, sse)."""
    A = np.column_stack([np.ones_like(phi), phi])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    res = y - A @ coef
    return coef[0], coef[1], float(res @ res)


def _reference_fit_fopdt(trace: StepTrace) -> FitReport:
    """Fit (R_com_C_com, L_d, gain, offset) to a single step response."""
    t, y = trace.t, trace.y
    k_step = trace.step_index
    t_step = float(t[k_step])
    span = float(t[-1] - t_step)

    tau0, L0, *_ = _two_point_init(t, y, t_step)
    if span < 3.0 * tau0:
        raise IllConditionedFitError(
            f"trace covers only {span / tau0:.2f} time constants; need >= 3"
        )

    def best_tau(L_d):
        def sse(tau):
            return _reference_linear_fit(y, _fopdt_basis(t, t_step, L_d,
                                                         tau))[2]
        return minimize_scalar(sse, bounds=(tau0 / 5.0, tau0 * 5.0),
                               method="bounded",
                               options={"xatol": 1e-3 * tau0})

    L_hi = max(2.0 * L0, 0.5 * tau0, 4.0 * trace.t_s)
    L_opt = minimize_scalar(lambda L: best_tau(L).fun, bounds=(0.0, L_hi),
                            method="bounded",
                            options={"xatol": 1e-3 * max(trace.t_s, 1.0)}).x
    tau_opt = best_tau(L_opt).x
    y0, K, _ = _reference_linear_fit(y, _fopdt_basis(t, t_step, L_opt,
                                                     tau_opt))

    # Gauss-Newton polish over all four parameters
    def residual(p):
        tau, L_d, gain, off = p
        return off + gain * _fopdt_basis(t, t_step, abs(L_d), abs(tau)) - y

    sol = least_squares(residual, x0=[tau_opt, L_opt, K, y0], method="lm")
    tau_f, L_f, K_f, y0_f = abs(sol.x[0]), abs(sol.x[1]), sol.x[2], sol.x[3]
    rms = float(np.sqrt(np.mean(sol.fun ** 2)))

    u_step = float(trace.u[k_step] - trace.u[k_step - 1])
    params = {
        "R_com_C_com": tau_f,
        "L_d": L_f,
        "gain": K_f,
        "offset": y0_f,
        "q_a": u_step - K_f,
    }
    conf = _confidence(sol.jac.T @ sol.jac, rms,
                       ("R_com_C_com", "L_d", "gain", "offset"))
    return FitReport(parameters=params, residual_rms=rms, confidence=conf)


@pytest.mark.parametrize("sigma", [0.05, 0.3])
@pytest.mark.parametrize("mode", [Mode.HEAT, Mode.COOL])
def test_fopdt_fit_matches_nested_search_reference(mode, sigma):
    # Over 50 seeds per case the largest gaps were: residual_rms 4.8e-5
    # relative above the reference, R_com_C_com 5.4e-4 relative, L_d 0.84 s
    # (cool, sigma = 0.3).  L_d is compared absolutely because it can be 0.
    for seed in range(20):
        trace = make_fopdt_trace(preset_params(mode), sigma=sigma, seed=seed)
        new = fit_fopdt(trace)
        ref = _reference_fit_fopdt(trace)
        assert new.residual_rms <= ref.residual_rms * (1.0 + 1e-4), seed
        assert new.parameters["R_com_C_com"] == pytest.approx(
            ref.parameters["R_com_C_com"], rel=1e-3), seed
        assert new.parameters["L_d"] == pytest.approx(
            ref.parameters["L_d"], abs=1.0), seed


@pytest.mark.parametrize("sigma", [0.05, 0.3])
def test_fopdt_fit_at_zero_delay_never_above_reference(heat_params, sigma):
    # the best delay sits on its bound; noise may also open a second
    # minimum a few samples away, so only the residual is compared
    params = replace(heat_params, L_d=0.0)
    for seed in range(10):
        trace = make_fopdt_trace(params, sigma=sigma, seed=seed)
        new = fit_fopdt(trace)
        ref = _reference_fit_fopdt(trace)
        assert new.residual_rms <= ref.residual_rms * (1.0 + 1e-4), seed


# ---------------------------------------------------------------------------
# Two-node residual against the per-trace simulation it replaced

def _reference_segment_bounds(trace: StepTrace):
    pump = trace.pump_on if trace.pump_on is not None \
        else np.zeros(len(trace.t), dtype=bool)
    change = (np.diff(trace.u) != 0.0) | (np.diff(pump) != 0)
    cuts = np.concatenate(([0], np.flatnonzero(change) + 1, [len(trace.t)]))
    return cuts, pump


def _reference_simulate(theta, trace: StepTrace, C_co, R_co,
                        ambient: AmbientConfig, x0):
    """Piecewise-constant-input response via eigendecomposition.

    The one-trace-at-a-time simulation that ``fit_two_node`` ran before
    traces of one recording shared their segment work, kept unchanged.
    """
    R_w, C_w, R_c, C_c, R_aw = theta
    cuts, pump = _reference_segment_bounds(trace)
    t = trace.t
    x = np.array(x0, dtype=float)
    out = np.empty((len(t), 3))
    for a, b in zip(cuts[:-1], cuts[1:]):
        A, B = _plant_matrices(R_w, C_w, R_c, C_c, R_aw, C_co, R_co,
                               bool(pump[a]))
        u = np.array([trace.u[a], ambient.T_amb])
        x_ss = np.linalg.solve(A, -B @ u)
        lam, V = np.linalg.eig(A)
        c0 = np.linalg.solve(V, x - x_ss)
        dt_rel = (t[a:b] - t[a])[:, None]
        modes = np.exp(lam[None, :] * dt_rel)
        seg = np.real(modes * c0[None, :] @ V.T) + x_ss[None, :]
        out[a:b] = seg
        # continue from the segment's true endpoint, one sample past t[b-1]
        t_end = t[b - 1] - t[a] + (t[1] - t[0])
        x = np.real(V @ (c0 * np.exp(lam * t_end))) + x_ss
    return out


def _reference_residual(traces, C_co, R_co, ambient):
    """``fit_two_node``'s residual over ``_reference_simulate``."""
    x0_list = [np.full(3, float(tr.y[0])) for tr in traces]
    n_res = sum(len(tr.t) for tr in traces)

    def residual(log_theta):
        theta = np.exp(log_theta)
        parts = []
        try:
            for tr, x0 in zip(traces, x0_list):
                sim = _reference_simulate(theta, tr, C_co, R_co, ambient, x0)
                parts.append(sim[:, _SIGNAL_INDEX[tr.signal]] - tr.y)
            res = np.concatenate(parts)
        except np.linalg.LinAlgError:
            return np.full(n_res, 1e6)
        if not np.all(np.isfinite(res)):
            return np.full(n_res, 1e6)
        return res

    return residual


def _recording_traces(t, u, pump, y0s, seed):
    """One trace per (signal, starting value), all measured in one run."""
    rng = np.random.default_rng(seed)
    traces = []
    for y0 in y0s:
        for signal in _SIGNAL_INDEX:
            y = y0 + np.cumsum(rng.normal(0.0, 0.3, len(t)))
            traces.append(StepTrace(t=t, u=u, y=y, signal=signal,
                                    pump_on=pump))
    return traces


def _mixed_traces():
    n = 40
    t = np.arange(n, dtype=float)
    u = np.full(n, 40.0)
    u[0] = 21.0
    u[[7, 8, 9]] = [30.0, 35.0, 25.0]      # one-sample input segments
    u[25:] = 18.0
    pump = np.ones(n, dtype=bool)
    pump[[4, 12, 13, 30]] = False           # toggled, one-sample stretches
    pump[33:] = False
    other_u = u.copy()
    other_u[20] = 33.0
    return [
        # shared recording: several starting values and all three signals
        *_recording_traces(t, u, pump, (21.0, 35.0), seed=0),
        # the same run on a shifted clock is a recording of its own
        *_recording_traces(t + 1000.0, u, pump, (24.0,), seed=1),
        # a different input, pump always on, and two sensors with it off
        *_recording_traces(t, other_u, pump, (21.0,), seed=2),
        StepTrace(t=t, u=u, y=np.full(n, 22.0), signal="T_w",
                  pump_on=np.ones(n, dtype=bool)),
        StepTrace(t=t, u=u, y=np.full(n, 22.0), signal="T_c",
                  pump_on=np.zeros(n, dtype=bool)),
        StepTrace(t=t, u=u, y=np.full(n, 26.0), signal="T_co",
                  pump_on=np.zeros(n, dtype=bool)),
        # t_s = 0.5 s
        StepTrace(t=0.5 * t, u=u, y=np.full(n, 23.0), signal="T_w",
                  pump_on=pump),
    ]


def test_traces_of_one_run_share_a_recording():
    traces = _mixed_traces()
    recordings = _recordings(traces)
    # the shared run, the shifted clock, the other input, pump on, pump
    # off (two sensors), t_s = 0.5 s
    assert [len(rec.offsets) for rec in recordings] == [6, 3, 3, 1, 2, 1]
    offsets = [offset for rec in recordings for offset in rec.offsets]
    assert sorted(offsets) == [40 * k for k in range(len(traces))]
    for rec in recordings:
        for k, offset in enumerate(rec.offsets):
            tr = traces[offset // 40]
            assert rec.nodes[k] == _SIGNAL_INDEX[tr.signal]
            assert np.array_equal(rec.y[:, k], tr.y)


def _coinciding_modes_theta():
    """The initial values with C_c (about 1.76) chosen so that, with the
    pump off, the tank mode -1/(R_co C_co) is also a water/cover mode."""
    tank = preset_params(Mode.HEAT)
    R_w, C_w, R_c, _, R_aw = (_TWO_NODE_INIT[n] for n in _TWO_NODE_NAMES)
    mu = -1.0 / (tank.R_co * tank.C_co)
    a = -(1.0 / R_aw + 1.0 / R_c) / C_w
    b = 1.0 / (R_c * C_w)
    rate = -(a - mu) * mu / ((a - mu) + b)      # 1 / (R_c C_c)
    return [R_w, C_w, R_c, 1.0 / (R_c * rate), R_aw]


_THETAS = [
    [_TWO_NODE_INIT[n] for n in _TWO_NODE_NAMES],
    [5.9, 200.0, 460.0, 0.1, 2.08],
    [0.4, 3.0e3, 2.0, 15.0, 0.05],
    pytest.param(_coinciding_modes_theta(), id="coinciding-modes"),
]


def test_coinciding_modes_theta_has_a_double_mode(heat_params):
    A, _ = _plant_matrices(*_coinciding_modes_theta(), heat_params.C_co,
                           heat_params.R_co, pump_on=False)
    lam = np.sort(np.linalg.eigvals(A).real)
    assert np.min(np.diff(lam)) <= 1e-12 * np.max(np.abs(lam))


def _reference_modal_system(theta, C_co, R_co, pump_on):
    """Steady-state gains and real modes of one pump state's dynamics:
    (G, lam, V, V^-1), the per-state pass the stacked one replaced."""
    A, B = _plant_matrices(*theta, C_co, R_co, pump_on)
    c = np.sqrt([C_co, theta[1], theta[3]])
    lam, Q = np.linalg.eigh(A * c[:, None] / c[None, :])
    return -np.linalg.solve(A, B), lam, Q / c[:, None], Q.T * c[None, :]


def _reference_modal_derivatives(theta, C_co, pump_on, G, lam, V, V_inv):
    """(dG, E, K, close) of one pump state, with K = D o E."""
    dA, dB = _plant_derivatives(*theta, C_co, pump_on)
    dG = -((V / lam) @ V_inv) @ (dA @ G + dB)
    E = V_inv @ dA @ V
    gap = lam[:, None] - lam
    tol = sysid._CLOSE_MODES * np.max(np.abs(lam))
    D = np.divide(1.0, gap, out=np.zeros((3, 3)), where=np.abs(gap) > tol)
    close = [(i, k) for i, k in ((0, 1), (0, 2), (1, 2))
             if lam[k] - lam[i] <= tol]
    return dG, E, D * E, close


@pytest.mark.parametrize("close_modes", [sysid._CLOSE_MODES, 1.0],
                         ids=["default", "every-pair-close"])
@pytest.mark.parametrize("theta", _THETAS)
def test_stacked_modal_pass_matches_per_state_loop(heat_params, theta,
                                                   close_modes, monkeypatch):
    monkeypatch.setattr(sysid, "_CLOSE_MODES", close_modes)
    theta = np.asarray(theta, dtype=float)
    C_co, R_co = heat_params.C_co, heat_params.R_co
    modal = _modal_systems(theta, C_co, R_co)
    for s, pump_on in enumerate((False, True)):
        G, lam, V, V_inv = _reference_modal_system(theta, C_co, R_co,
                                                   pump_on)
        dG, E, K, close = _reference_modal_derivatives(theta, C_co, pump_on,
                                                       G, lam, V, V_inv)
        assert modal.lam[s] == pytest.approx(lam, rel=1e-14, abs=0.0)
        assert modal.close[s] == close
        assert np.allclose(modal.G[s], G, rtol=1e-14, atol=0.0)
        assert np.allclose(modal.dG[s], dG, rtol=1e-13,
                           atol=1e-14 * np.max(np.abs(dG)))
        # each eigenvector is fixed up to its sign, which E_ik carries
        sign = np.sign(np.sum(modal.V[s] * V, axis=0))
        for new, ref in ((modal.E[s], E), (modal.D[s] * modal.E[s], K)):
            aligned = sign[:, None] * new * sign[None, :]
            assert np.allclose(aligned, ref, rtol=1e-13,
                               atol=1e-14 * np.max(np.abs(ref)))
    if close_modes == 1.0:
        assert modal.close == ([(0, 1), (0, 2), (1, 2)],) * 2


def _kernel_rows(theta, traces, params):
    """The kernel's Gram and its materialized rows [r | J]."""
    rows = np.empty((sum(len(tr.t) for tr in traces), 6))
    gram = _simulate(np.asarray(theta, dtype=float), _recordings(traces),
                     params.C_co, params.R_co, AmbientConfig().T_amb, rows)
    return gram, rows


@pytest.mark.parametrize("theta", _THETAS)
def test_shared_residual_matches_per_trace_simulation(heat_params, theta):
    # real modal coordinates against the kept complex-eig reference: the
    # largest gap on these cases is about 6e-14 K
    traces = _mixed_traces()
    ambient = AmbientConfig()
    log_theta = np.log(theta)
    _, rows = _kernel_rows(np.exp(log_theta), traces, heat_params)
    expected = _reference_residual(traces, heat_params.C_co,
                                   heat_params.R_co, ambient)(log_theta)
    assert np.all(np.isfinite(expected))
    assert np.max(np.abs(rows[:, 0] - expected)) <= 1e-12


@pytest.mark.parametrize("close_modes", [sysid._CLOSE_MODES, 1.0],
                         ids=["default", "every-pair-close"])
@pytest.mark.parametrize("theta", _THETAS)
def test_jacobian_matches_central_differences(heat_params, theta,
                                              close_modes, monkeypatch):
    # central differences of the complex-eig reference with a step of 1e-4
    # in log theta agree to within 1e-8 of each column's largest entry
    # (9.4e-9 at the coinciding modes); the tolerance is 1e-7.  theta goes
    # in unrounded, so the coinciding modes tie exactly, where the plain
    # divided difference of the modal exponentials is 0/0.  With
    # close_modes = 1 every pair of modes takes the expm1 rows.
    monkeypatch.setattr(sysid, "_CLOSE_MODES", close_modes)
    traces = _mixed_traces()
    ambient = AmbientConfig()
    theta = np.array(theta)
    log_theta = np.log(theta)
    _, rows = _kernel_rows(theta, traces, heat_params)
    jac = rows[:, 1:]
    reference = _reference_residual(traces, heat_params.C_co,
                                    heat_params.R_co, ambient)
    h = 1e-4
    central = np.column_stack([
        (reference(log_theta + h * e) - reference(log_theta - h * e))
        / (2.0 * h) for e in np.eye(len(_TWO_NODE_NAMES))])
    assert np.all(np.isfinite(jac))
    scale = np.max(np.abs(central), axis=0)
    assert np.all(np.abs(jac - central) <= 1e-7 * scale)


@pytest.mark.parametrize("close_modes", [sysid._CLOSE_MODES, 1.0],
                         ids=["default", "every-pair-close"])
@pytest.mark.parametrize("theta", _THETAS)
def test_streamed_gram_equals_gram_of_rows(heat_params, theta, close_modes,
                                           monkeypatch):
    # the Grams of the per-segment blocks, summed, against the Gram of the
    # materialized [r | J]
    monkeypatch.setattr(sysid, "_CLOSE_MODES", close_modes)
    gram, rows = _kernel_rows(theta, _mixed_traces(), heat_params)
    expected = rows.T @ rows
    assert gram.shape == (6, 6)
    assert np.all(np.abs(gram - expected)
                  <= 1e-12 * np.max(np.abs(expected)))


@pytest.mark.parametrize("pump_on", [False, True], ids=["off", "on"])
@pytest.mark.parametrize("theta", _THETAS)
def test_recording_in_one_pump_state_matches_reference(heat_params, theta,
                                                       pump_on):
    # the stacked pass builds both states; a recording uses only one
    n = 40
    t = np.arange(n, dtype=float)
    u = np.full(n, 40.0)
    u[0] = 21.0
    u[[7, 20, 21]] = [30.0, 35.0, 25.0]
    traces = _recording_traces(t, u, np.full(n, pump_on), (21.0,), seed=3)
    ambient = AmbientConfig()
    theta = np.array(theta)
    log_theta = np.log(theta)
    gram, rows = _kernel_rows(theta, traces, heat_params)
    reference = _reference_residual(traces, heat_params.C_co,
                                    heat_params.R_co, ambient)
    assert np.max(np.abs(rows[:, 0] - reference(log_theta))) <= 1e-12
    h = 1e-4
    central = np.column_stack([
        (reference(log_theta + h * e) - reference(log_theta - h * e))
        / (2.0 * h) for e in np.eye(len(_TWO_NODE_NAMES))])
    scale = np.max(np.abs(central), axis=0)
    if not pump_on:
        # R_w never enters the dynamics
        assert np.all(rows[:, 1] == 0.0) and np.all(central[:, 0] == 0.0)
        scale[0] = 1.0
    assert np.all(np.abs(rows[:, 1:] - central) <= 1e-7 * scale)
    expected = rows.T @ rows
    assert np.all(np.abs(gram - expected)
                  <= 1e-12 * np.max(np.abs(expected)))


def _criterion_08_traces(params, order=("T_co", "T_w", "T_c")):
    """Criterion 08's noiseless recording, all three sensors."""
    t, u, *nodes, pump = make_plant_step_run(params)
    by_signal = dict(zip(("T_co", "T_w", "T_c"), nodes))
    return [StepTrace(t=t, u=u, y=by_signal[s], signal=s, pump_on=pump)
            for s in order]


def test_two_node_fit_equals_reference_least_squares(heat_params):
    # the same least-squares call over the complex-eig reference residual,
    # with finite-difference columns where the fit has the exact Jacobian,
    # searching log theta where the fit searches log tau_c.  R_c and C_c
    # differ by 1.3e-12 relative, the others by at most 1.2e-14; rel=1e-9
    # leaves room for where the 1e-12 tolerances stop along their valley
    traces = _criterion_08_traces(heat_params)
    report = fit_two_node(traces, C_co=heat_params.C_co,
                          R_co=heat_params.R_co)

    x_init = np.log([_TWO_NODE_INIT[n] for n in _TWO_NODE_NAMES])
    sol = least_squares(
        _reference_residual(traces, heat_params.C_co, heat_params.R_co,
                            AmbientConfig()),
        x0=x_init, method="trf", bounds=(x_init - 8.0, x_init + 8.0),
        x_scale="jac", xtol=1e-12, ftol=1e-12)
    for name, value in zip(_TWO_NODE_NAMES, np.exp(sol.x)):
        assert report.parameters[name] == pytest.approx(value, rel=1e-9), \
            name
    assert report.residual_rms == pytest.approx(
        float(np.sqrt(np.mean(sol.fun ** 2))), abs=1e-9)


def test_two_node_fit_independent_of_trace_order(heat_params):
    # reversing the traces reverses the members of the stacked recording
    forward = fit_two_node(_criterion_08_traces(heat_params),
                           C_co=heat_params.C_co, R_co=heat_params.R_co)
    backward = fit_two_node(
        _criterion_08_traces(heat_params, order=("T_c", "T_w", "T_co")),
        C_co=heat_params.C_co, R_co=heat_params.R_co)
    assert backward.parameters == pytest.approx(forward.parameters, rel=1e-9)


# ---------------------------------------------------------------------------
# What the data determine: tau_c, bound and half-width warnings

def test_noiseless_fit_determines_every_constant(heat_params):
    report = fit_two_node(_criterion_08_traces(heat_params),
                          C_co=heat_params.C_co, R_co=heat_params.R_co)
    assert report.warnings == ()
    assert report.parameters["tau_c"] == pytest.approx(48.05, rel=0.02)
    assert report.parameters["tau_c"] == \
        report.parameters["R_c"] * report.parameters["C_c"]
    assert set(report.confidence) == set(report.parameters)
    assert "tau_c" in report.to_kv()


def _noisy_criterion_08_fit(params, seed):
    """One of criterion 08's sigma = 0.05 K draws, fitted."""
    rng = np.random.default_rng(seed)
    traces = [replace(tr, y=tr.y + rng.normal(0.0, 0.05, tr.y.shape))
              for tr in _criterion_08_traces(params)]
    return fit_two_node(traces, C_co=params.C_co, R_co=params.R_co)


@pytest.mark.parametrize("seed,expected", [
    # R_c ends on the upper edge of its box, 60 e^8
    pytest.param(6, "R_c is at its search bound", id="at-bound"),
    # R_c about 450 with a relative half-width of about 13
    pytest.param(1, "R_c is not determined by the data", id="undetermined"),
])
def test_noisy_fit_names_what_the_data_leave_open(heat_params, seed,
                                                  expected):
    report = _noisy_criterion_08_fit(heat_params, seed)
    assert any(w.startswith(expected) for w in report.warnings), \
        report.warnings
    # only the product is pinned down
    tau_c = report.parameters["tau_c"]
    assert report.confidence["tau_c"] < 0.02 * tau_c
    assert not any(w.startswith("tau_c") for w in report.warnings)


def test_residual_rms_is_that_of_the_full_residual(heat_params):
    # the fit's cost comes from the 6-row square root of the Gram; the rms
    # of every residual row at the reported constants agrees with it to
    # about 3e-13 relative
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        traces = [replace(tr, y=tr.y + rng.normal(0.0, 0.05, tr.y.shape))
                  for tr in _criterion_08_traces(heat_params)]
        report = fit_two_node(traces, C_co=heat_params.C_co,
                              R_co=heat_params.R_co)
        theta = [report.parameters[n] for n in _TWO_NODE_NAMES]
        _, rows = _kernel_rows(theta, traces, heat_params)
        assert report.residual_rms == pytest.approx(
            float(np.sqrt(np.mean(rows[:, 0] ** 2))), rel=1e-11), seed


class _Stop(Exception):
    pass


def _search_point(theta):
    """The search coordinates w = log(R_w, C_w, tau_c, R_c, R_aw) of
    theta = (R_w, C_w, R_c, C_c, R_aw)."""
    R_w, C_w, R_c, C_c, R_aw = theta
    return np.log([R_w, C_w, R_c * C_c, R_c, R_aw])


def test_search_map_inverts_search_point():
    theta = np.array(_THETAS[1])
    assert np.exp(_SEARCH_MAP @ _search_point(theta)) == \
        pytest.approx(theta, rel=1e-14)


@pytest.mark.parametrize("theta", _THETAS)
def test_search_square_root_matches_central_differences(heat_params, theta,
                                                        monkeypatch):
    # the six-row square root R the solver sees at a search point w,
    # against M = [r | dr/dw] from fourth-order central differences (step
    # 3e-3 in w) of the complex-eig reference residual at log theta = T w:
    # R^T R = M^T M to within 1e-7 of the two columns' norms (5.1e-8 at
    # theta1).  The R_c column at fixed tau_c is small, about 1e-3 of the
    # others, so two-point differences with step 1e-4 lose it to the
    # reference's rounding.
    traces = _mixed_traces()
    w = _search_point(theta)
    seen = []

    def least_squares(fun, x0, jac, **kwargs):
        seen.append(np.column_stack([fun(w), jac(w)]))
        raise _Stop

    monkeypatch.setattr(sysid, "least_squares", least_squares)
    with pytest.raises(_Stop):
        fit_two_node(traces, C_co=heat_params.C_co, R_co=heat_params.R_co)
    (root,) = seen
    assert root.shape == (6, 6)
    reference = _reference_residual(traces, heat_params.C_co,
                                    heat_params.R_co, AmbientConfig())

    def diff(e, h):
        return (reference(_SEARCH_MAP @ (w + h * e))
                - reference(_SEARCH_MAP @ (w - h * e)))

    h = 3e-3
    M = np.column_stack([reference(_SEARCH_MAP @ w)] + [
        (8.0 * diff(e, h) - diff(e, 2.0 * h)) / (12.0 * h)
        for e in np.eye(len(_SEARCH_NAMES))])
    expected = M.T @ M
    norms = np.sqrt(np.diag(expected))
    gap = np.abs(root.T @ root - expected) / np.outer(norms, norms)
    assert np.all(gap <= 1e-7)


@pytest.mark.parametrize("failure", ["raises", "non-finite"])
def test_failed_simulation_costs_1e6_per_row(heat_params, monkeypatch,
                                             failure):
    # at one search point the kernel fails; the solver sees a residual of
    # 1e6 K in every row and a zero Jacobian there, and the usual values
    # elsewhere
    traces = _criterion_08_traces(heat_params)
    n_res = sum(len(tr.t) for tr in traces)
    x_bad = _search_point([_TWO_NODE_INIT[n] for n in _TWO_NODE_NAMES]) + 1.0
    simulate = sysid._simulate

    def failing(theta, *args):
        if np.array_equal(theta, np.exp(_SEARCH_MAP @ x_bad)):
            if failure == "raises":
                raise np.linalg.LinAlgError("singular matrix")
            return np.full((6, 6), np.inf)
        return simulate(theta, *args)

    seen = []

    def least_squares(fun, x0, jac, **kwargs):
        seen.extend((fun(x), jac(x)) for x in (x0, x_bad))
        raise _Stop

    monkeypatch.setattr(sysid, "_simulate", failing)
    monkeypatch.setattr(sysid, "least_squares", least_squares)
    with pytest.raises(_Stop):
        fit_two_node(traces, C_co=heat_params.C_co, R_co=heat_params.R_co)
    (f_ok, J_ok), (f_bad, J_bad) = seen
    assert f_bad.shape == (6,) and J_bad.shape == (6, 5)
    assert f_bad @ f_bad == pytest.approx(n_res * 1e12, rel=1e-12)
    assert np.all(J_bad == 0.0)
    assert f_ok @ f_ok < n_res and np.all(np.isfinite(J_ok)) and J_ok.any()
