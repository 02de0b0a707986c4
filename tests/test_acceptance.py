"""End-to-end acceptance criteria.

Each test carries one numbered criterion; ``pytest -v`` prints one
pass/fail line per criterion.  Simulation results are cached per module so
the scenario set is run once.
"""

import time

import numpy as np
import pytest

from conftest import (iterate_fopdt, make_fopdt_trace, make_plant_step_run,
                      simulate_design_model, two_node_matrices,
                      water_response, water_transfer_direct)
from thermocover.detect import detect_contacts
from thermocover.fopdt import (DiscreteFOPDT, discretize_fopdt,
                               fopdt_step_response)
from thermocover.mpc import (MpcConfig, PenaltyForm, build_prediction,
                             solve_mpc)
from thermocover.observer import build_observer, observer_step
from thermocover.params import Mode, preset_params
from thermocover.report import analyze_segments
from thermocover.scenario import apply_overrides, builtin_scenarios
from thermocover.simulate import simulate
from thermocover.sysid import StepTrace, fit_fopdt, fit_two_node


@pytest.fixture(scope="module")
def runs():
    """Simulate every builtin scenario once; record wall time per run."""
    out = {}
    for name, spec in builtin_scenarios().items():
        t0 = time.perf_counter()
        trace = simulate(spec)
        wall = time.perf_counter() - t0
        out[name] = (spec, trace, wall)
    return out


def test_criterion_01_model_realization_equivalence():
    """Two-node realization matches the rational transfer function."""
    t0 = time.perf_counter()
    worst = 0.0
    for mode in Mode:
        params = preset_params(mode)
        A, B = two_node_matrices(params)
        for omega in np.logspace(-4.0, 0.0, 20):
            direct = water_transfer_direct(params, 1j * omega)
            realized = water_response(A, B, 1j * omega)
            worst = max(worst, abs(realized - direct) / abs(direct))
    assert worst < 1e-9
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_discretization_consistency():
    """Discrete recursion tracks the closed-form step response, first order."""
    def max_err(params, t_s):
        m = discretize_fopdt(params, t_s)
        n = round(3000.0 / t_s)
        series = iterate_fopdt(m, 1.0, n)
        closed = [fopdt_step_response(params, 1.0, 0.0, k * t_s)
                  for k in range(n + 1)]
        return max(abs(a - b) for a, b in zip(series, closed))

    for mode in Mode:
        params = preset_params(mode)
        err = max_err(params, 0.1)
        assert err < 0.01
        assert max_err(params, 0.05) <= 0.5 * err * 1.01


def test_criterion_03_observer_recovery_on_design_model(heat_params):
    """Contact-channel step recovered within 5%; zero contact stays at zero."""
    t_s = 1.0
    n = 20000
    obs = build_observer(heat_params, t_s)

    def estimate(q, qi):
        # from rest: one leading sample of zero inputs
        T_w = simulate_design_model(heat_params, t_s, q, qi)
        return observer_step(obs, np.r_[0.0, T_w], np.r_[0.0, q])[1:]

    qi = np.full(n, 0.5)
    q_hat = estimate(np.zeros(n), qi)
    assert abs(q_hat[-1] - 0.5) < 0.05 * 0.5

    q = np.zeros(n)
    q[5:] = 1.0   # heat through the water channel only, no contact
    q_hat = estimate(q, np.zeros(n))
    assert np.max(np.abs(q_hat[200:])) < 1e-6


def test_criterion_04_tracking_both_directions(runs):
    """Staircase tracking: small settled error, bounded commands, pump off."""
    for name in ("exp1_heat", "exp1_cool"):
        spec, trace, wall = runs[name]
        assert wall < 10.0, f"{name} took {wall:.1f} s"
        cfg = spec.controller
        assert np.all(trace.T_p_cmd >= cfg.T_min_th)
        assert np.all(trace.T_p_cmd <= cfg.T_max_th)
        segments = analyze_segments(trace, spec)
        assert len(segments) == 3
        for seg in segments:
            assert seg.steady_state_error < 0.1, \
                f"{name} @ {seg.setpoint}: {seg.steady_state_error:.3f} K"
            assert seg.pump_off_at_settle is True


def test_criterion_05_heat_after_cool_is_slower(runs):
    """Reheating from a cooled tank is at least 20% slower to 90% rise."""
    _, heat_trace, _ = runs["exp1_heat"]
    heat_spec = runs["exp1_heat"][0]
    rise_heat = analyze_segments(heat_trace, heat_spec)[0].rise_time_90

    spec, trace, _ = runs["exp1_heat_after_cool"]
    segments = analyze_segments(trace, spec)
    assert segments[1].setpoint == 23.0
    rise_after = segments[1].rise_time_90

    assert rise_heat is not None and rise_after is not None
    assert rise_after >= 1.2 * rise_heat, \
        f"rise {rise_after:.0f} s vs {rise_heat:.0f} s"


def test_criterion_06_contact_contrast(runs):
    """Grasp peak at least twice the soft touch; no-contact run stays clean."""
    peaks = {}
    for name in ("exp2_grasp", "exp2_softtouch"):
        spec, trace, _ = runs[name]
        report = detect_contacts(trace, spec.detection)
        assert report.true_positives == 1
        assert report.false_positives == 0
        assert report.misses == 0
        peaks[name] = report.peak_per_event[0]
    assert peaks["exp2_grasp"] >= 2.0 * peaks["exp2_softtouch"]

    spec, trace, _ = runs["exp2_nocontact"]
    report = detect_contacts(trace, spec.detection)
    assert len(report.intervals) == 0


def test_criterion_07_chattering_reproduced_and_gated(runs):
    """Tight hysteresis without gating false-alarms; defaults do not."""
    spec = apply_overrides(builtin_scenarios()["exp2_nocontact"],
                           ["detection.switch_gate=0", "pump.on_band=0.05",
                            "pump.off_band=0.02"])
    trace = simulate(spec)
    tight = detect_contacts(trace, spec.detection)
    assert tight.false_positives >= 1

    spec_d, trace_d, _ = runs["exp2_nocontact"]
    default = detect_contacts(trace_d, spec_d.detection)
    assert default.false_positives == 0


def test_criterion_08_identification_round_trip(heat_params):
    """Noiseless fits recover the generating constants; noisy medians hold.

    With measurement noise the cover constants R_c and C_c are only jointly
    identifiable (their product, the cover pole): the cover's back-coupling
    into the pipe is below the noise floor, so the medians are checked on
    the identifiable set R_w, C_w, R_aw plus the R_c*C_c product.
    """
    # --- combined first-order model, noiseless
    report = fit_fopdt(make_fopdt_trace(heat_params))
    assert report.parameters["R_com_C_com"] == \
        pytest.approx(heat_params.R_com_C_com, rel=0.01)
    assert report.parameters["L_d"] == pytest.approx(heat_params.L_d,
                                                     rel=0.01)

    # --- combined first-order model, 100 noisy seeds
    errs_tau, errs_ld = [], []
    for seed in range(100):
        r = fit_fopdt(make_fopdt_trace(heat_params, sigma=0.05, seed=seed))
        errs_tau.append(abs(r.parameters["R_com_C_com"]
                            - heat_params.R_com_C_com)
                        / heat_params.R_com_C_com)
        errs_ld.append(abs(r.parameters["L_d"] - heat_params.L_d)
                       / heat_params.L_d)
    assert np.median(errs_tau) < 0.10
    assert np.median(errs_ld) < 0.10

    # --- RC network, noiseless (both pump phases, all three sensors)
    truth = {"R_w": heat_params.R_w, "C_w": heat_params.C_w,
             "R_c": heat_params.R_c, "C_c": heat_params.C_c,
             "R_aw": heat_params.R_aw}
    t, u, y_co, y_w, y_c, pump = make_plant_step_run(heat_params)
    traces = [StepTrace(t=t, u=u, y=y, signal=s, pump_on=pump)
              for y, s in ((y_co, "T_co"), (y_w, "T_w"), (y_c, "T_c"))]
    r = fit_two_node(traces, C_co=heat_params.C_co, R_co=heat_params.R_co)
    for name, value in truth.items():
        assert r.parameters[name] == pytest.approx(value, rel=0.02), name

    # --- RC network, 100 noisy seeds
    errs = {name: [] for name in ("R_w", "C_w", "R_aw")}
    errs_pole = []
    pole = truth["R_c"] * truth["C_c"]
    for seed in range(100):
        rng = np.random.default_rng(seed)
        noisy = [StepTrace(t=t, u=u, y=y + rng.normal(0.0, 0.05, y.shape),
                           signal=s, pump_on=pump)
                 for y, s in ((y_co, "T_co"), (y_w, "T_w"), (y_c, "T_c"))]
        r = fit_two_node(noisy, C_co=heat_params.C_co,
                         R_co=heat_params.R_co)
        for name in errs:
            errs[name].append(abs(r.parameters[name] - truth[name])
                              / truth[name])
        errs_pole.append(abs(r.parameters["R_c"] * r.parameters["C_c"]
                             - pole) / pole)
    for name, values in errs.items():
        assert np.median(values) < 0.15, name
    assert np.median(errs_pole) < 0.15


def test_criterion_09_solver_matches_grid_search():
    """Box-constrained solver agrees with exhaustive search to one cell."""
    rng = np.random.default_rng(42)
    for _ in range(50):
        a = float(rng.uniform(0.80, 0.995))
        d = int(rng.integers(0, 2))
        model = DiscreteFOPDT(a=a, b=1.0 - a, d=d, t_s=1.0)
        lo = float(rng.uniform(18.0, 22.0))
        hi = lo + 1.0
        cfg = MpcConfig(H=3, W1=1.0, W2=float(rng.uniform(1e-3, 0.1)),
                        T_min_th=lo, T_max_th=hi, t_s=1.0,
                        penalty_form=list(PenaltyForm)[
                            int(rng.integers(0, 2))])
        T_now = float(rng.uniform(lo - 0.5, hi + 0.5))
        past = list(rng.uniform(lo, hi, size=d))
        refs = rng.uniform(lo - 0.5, hi + 0.5, size=3)
        qp = build_prediction(model, T_now, past, refs)
        u_ref = float(rng.uniform(lo, hi))
        u_prev = float(rng.uniform(lo, hi))
        sol = solve_mpc(qp, cfg, u_ref=u_ref, u_prev=u_prev)

        axis = lo + 0.01 * np.arange(round((hi - lo) / 0.01) + 1)
        X = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"),
                     axis=-1).reshape(-1, 3)
        e = qp.free - qp.refs
        if cfg.penalty_form is PenaltyForm.MAGNITUDE:
            P = np.eye(3)
            v = np.full(3, u_ref)
        else:
            P = np.eye(3) - np.eye(3, k=-1)
            v = np.zeros(3)
            v[0] = u_prev
        costs = cfg.W1 * ((X @ qp.Phi.T + e) ** 2).sum(axis=1) \
            + cfg.W2 * ((X @ P.T - v) ** 2).sum(axis=1)
        u_grid = X[np.argmin(costs)]
        assert np.max(np.abs(sol.sequence - u_grid)) <= 0.01 + 1e-12


def test_criterion_10_byte_identical_reruns(runs):
    """Scenario reruns serialize to byte-identical CSV text."""
    spec, trace, _ = runs["exp2_grasp"]
    again = simulate(spec)
    assert trace.to_csv_text() == again.to_csv_text()

    spec, trace, _ = runs["exp1_cool"]
    assert trace.to_csv_text() == simulate(spec).to_csv_text()
