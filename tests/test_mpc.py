"""Preview controller: prediction map, box-constrained solver, pump logic."""

import numpy as np
import pytest

from thermocover import mpc
from thermocover.errors import ConfigError, ConvergenceError
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


def _reference_solve(qp, cfg, u_ref=0.0, u_prev=None):
    """Reference: the solver before its two line searches were merged, with
    a cost check on the Newton step."""
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
    Hm, eigmax = _cached_hessian(model.a, model.b, model.d, H, cfg.W1,
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

    for it in range(1, mpc._MAX_ITER + 1):
        g = grad(u)
        residual = float(np.max(np.abs(u - np.clip(u - g, lo, hi))))
        if residual < mpc._KKT_TOL:
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
        f"projected gradient hit {mpc._MAX_ITER} iterations "
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


def _random_qps(n, seed):
    """Seeded QPs: H 1..80, dead time 0..11, both penalty forms, four
    penalty weights, and setpoints that often lie beyond the command box."""
    rng = np.random.default_rng(seed)
    for k in range(n):
        H = int(rng.integers(1, 81))
        a = float(rng.uniform(0.5, 0.995))
        model = DiscreteFOPDT(a=a, b=1.0 - a, d=int(rng.integers(0, 12)),
                              t_s=1.0)
        lo = float(rng.uniform(5.0, 25.0))
        cfg = MpcConfig(H=H, W2=(0.0, 1e-4, 1e-2, 1.0)[k % 4], T_min_th=lo,
                        T_max_th=lo + float(rng.uniform(1.0, 30.0)),
                        penalty_form=list(PenaltyForm)[k // 4 % 2])
        refs = np.repeat(rng.uniform(0.0, 60.0, size=3), -(-H // 3))[:H]
        qp = build_prediction(model, float(rng.uniform(10.0, 40.0)),
                              rng.uniform(5.0, 60.0, size=model.d), refs)
        yield qp, cfg, float(rng.uniform(0.0, 40.0)), \
            float(rng.uniform(5.0, 60.0))


def test_solver_matches_reference_on_random_qps():
    bound = iterated = 0
    for qp, cfg, u_ref, u_prev in _random_qps(300, seed=0):
        try:
            ref = _reference_solve(qp, cfg, u_ref, u_prev)
        except ConvergenceError:
            with pytest.raises(ConvergenceError):
                solve_mpc(qp, cfg, u_ref, u_prev)
            continue
        sol = solve_mpc(qp, cfg, u_ref, u_prev)
        assert np.array_equal(sol.active_lower, ref.active_lower)
        assert np.array_equal(sol.active_upper, ref.active_upper)
        if sol.iterations == ref.iterations:
            assert np.max(np.abs(sol.sequence - ref.sequence)) <= 1e-12
        else:
            # the reference's cost check refused a Newton step that
            # rounding made look uphill, so it crept to its KKT tolerance;
            # the two answers then agree only to that tolerance
            assert sol.iterations < ref.iterations
            assert sol.kkt_residual <= ref.kkt_residual
            assert np.max(np.abs(sol.sequence - ref.sequence)) <= 1e-6
        bound += bool(np.any(ref.active_lower | ref.active_upper))
        iterated += ref.iterations > 0
    assert bound >= 200 and 100 <= iterated < 300
