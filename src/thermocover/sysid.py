"""Parameter identification from step-response traces.

Two fitters mirror how the hardware constants were derived:

* ``fit_fopdt`` recovers the combined time constant and dead time of the
  first-order-plus-dead-time approximation from a single step response.
  Dead time makes the least-squares problem nonconvex, so the classic
  fraction-of-rise two-point method seeds the search, the dead time is
  refined by a bounded Brent search with the remaining parameters solved
  inside, and a final Gauss-Newton polish runs over everything.

* ``fit_two_node`` recovers the RC-network constants (R_w, C_w, R_c, C_c,
  R_aw) from one or more traces against the three-node plant ODEs, with the
  tank constants (C_co, R_co) held known.  Traces must contain both pump-on
  and pump-off stretches or the pump resistance drops out of the dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.optimize import least_squares, minimize_scalar

from .errors import ConfigError, IllConditionedFitError
from .params import AmbientConfig
from .trace import SimTrace

# Largest |value| a trace's input level or measurement may take.  Traces are
# temperatures in degrees Celsius, so a larger value is a unit or recording
# error; near 1e154 the fits' squared residuals would also overflow.
MAX_ABS_TEMPERATURE = 1e6


@dataclass(frozen=True)
class StepTrace:
    """Uniformly sampled (time, input level, measured temperature) record."""

    t: np.ndarray
    u: np.ndarray          # commanded input level (Peltier temperature)
    y: np.ndarray          # measured temperature
    signal: str = "T_c"    # which node y was measured at
    pump_on: np.ndarray | None = None

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        if t.size < 3:
            raise ConfigError("trace too short to fit")
        u = np.asarray(self.u, dtype=float)
        y = np.asarray(self.y, dtype=float)
        for name, values in (("t", t), ("u", u), (self.signal, y)):
            if values.shape != t.shape:
                raise ConfigError(f"trace {name} has {values.size} samples, "
                                  f"t has {t.size}")
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:
                raise ConfigError(
                    f"trace {name} is not finite at sample {bad[0]}")
        for name, values in (("u", u), (self.signal, y)):
            if np.max(np.abs(values)) > MAX_ABS_TEMPERATURE:
                raise ConfigError(
                    f"trace {name} exceeds +-{MAX_ABS_TEMPERATURE:g}")
        with np.errstate(over="ignore"):
            steps = np.diff(t)
        if not 0.0 < steps[0] < np.inf:
            raise ConfigError("trace time must increase in finite steps")
        if np.max(np.abs(steps - steps[0])) > 1e-6 * max(steps[0], 1e-12):
            raise ConfigError("trace must be uniformly sampled")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "y", y)
        if self.pump_on is not None:
            pump = np.asarray(self.pump_on, dtype=bool)
            if pump.shape != t.shape:
                raise ConfigError(f"trace pump_on has {pump.size} samples, "
                                  f"t has {t.size}")
            object.__setattr__(self, "pump_on", pump)

    @property
    def t_s(self) -> float:
        return float(self.t[1] - self.t[0])

    @property
    def step_index(self) -> int:
        """Index of the single input step."""
        changes = np.flatnonzero(np.diff(self.u) != 0.0)
        if changes.size == 0:
            raise ConfigError("input never steps")
        if changes.size > 1:
            raise ConfigError("expected a single input step")
        return int(changes[0] + 1)

    @staticmethod
    def from_sim_trace(trace: SimTrace, signal: str = "T_w") -> "StepTrace":
        return StepTrace(t=trace.t, u=trace.T_p_cmd,
                         y=trace.column(signal), signal=signal,
                         pump_on=trace.pump_on)

    @staticmethod
    def from_csv(path, signal: str = "T_w") -> "StepTrace":
        return StepTrace.from_sim_trace(SimTrace.from_csv(path),
                                        signal=signal)


@dataclass(frozen=True)
class FitReport:
    parameters: dict
    residual_rms: float
    confidence: dict = field(default_factory=dict)
    warnings: tuple = ()

    def to_kv(self) -> dict:
        out = dict(self.parameters)
        out["residual_rms"] = self.residual_rms
        for name, hw in self.confidence.items():
            out[f"confidence.{name}"] = hw
        return out


# ---------------------------------------------------------------------------
# FOPDT fit

def _fopdt_basis(t, t_step, L_d, tau):
    arg = t - t_step - L_d
    phi = np.where(arg > 0.0, 1.0 - np.exp(-np.maximum(arg, 0.0) / tau), 0.0)
    return phi


def _linear_fit(y, phi):
    """Best (offset, gain) for y ~ y0 + K*phi; returns (y0, K, sse)."""
    A = np.column_stack([np.ones_like(phi), phi])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    res = y - A @ coef
    return coef[0], coef[1], float(res @ res)


def _two_point_init(t, y, t_step):
    """Fraction-of-rise initializer for (tau, L_d)."""
    y0 = float(np.mean(y[t < t_step])) if np.any(t < t_step) else float(y[0])
    y_inf = float(np.mean(y[t >= t[-1] - 0.05 * (t[-1] - t[0])]))
    rise = y_inf - y0
    if abs(rise) < 1e-12:
        raise IllConditionedFitError("trace shows no response to the step")
    frac = (y - y0) / rise
    after = t >= t_step

    def crossing(level):
        hit = np.flatnonzero(after & (frac >= level))
        if hit.size == 0:
            raise IllConditionedFitError(
                f"response never reaches {level:.0%} of its rise; "
                "trace does not settle"
            )
        return float(t[hit[0]] - t_step)

    t28 = crossing(0.283)
    t63 = crossing(0.632)
    tau = max(1.5 * (t63 - t28), 1e-6)
    L_d = max(t63 - tau, 0.0)
    return tau, L_d, y0, y_inf


def fit_fopdt(trace: StepTrace) -> FitReport:
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
            return _linear_fit(y, _fopdt_basis(t, t_step, L_d, tau))[2]
        return minimize_scalar(sse, bounds=(tau0 / 5.0, tau0 * 5.0),
                               method="bounded",
                               options={"xatol": 1e-3 * tau0})

    L_hi = max(2.0 * L0, 0.5 * tau0, 4.0 * trace.t_s)
    L_opt = minimize_scalar(lambda L: best_tau(L).fun, bounds=(0.0, L_hi),
                            method="bounded",
                            options={"xatol": 1e-3 * max(trace.t_s, 1.0)}).x
    tau_opt = best_tau(L_opt).x
    y0, K, _ = _linear_fit(y, _fopdt_basis(t, t_step, L_opt, tau_opt))

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
    conf = _confidence(sol.jac, rms, ("R_com_C_com", "L_d", "gain", "offset"))
    return FitReport(parameters=params, residual_rms=rms, confidence=conf)


def _confidence(jac, rms, names):
    try:
        cov = np.linalg.inv(jac.T @ jac)
    except np.linalg.LinAlgError:
        return {}
    hw = rms * np.sqrt(np.maximum(np.diag(cov), 0.0))
    return {name: float(h) for name, h in zip(names, hw)}


# ---------------------------------------------------------------------------
# Two-node (plus known tank) fit

_TWO_NODE_NAMES = ("R_w", "C_w", "R_c", "C_c", "R_aw")
_TWO_NODE_INIT = {"R_w": 5.0, "C_w": 150.0, "R_c": 60.0, "C_c": 0.3,
                  "R_aw": 2.0}
_SIGNAL_INDEX = {"T_co": 0, "T_w": 1, "T_c": 2}


def _plant_matrices(R_w, C_w, R_c, C_c, R_aw, C_co, R_co, pump_on):
    """State [T_co, T_w, T_c], inputs [T_p, T_amb]."""
    gw = 1.0 / R_w if pump_on else 0.0
    A = np.array([
        [-(1.0 / R_co + gw) / C_co, gw / C_co, 0.0],
        [gw / C_w, -(gw + 1.0 / R_aw + 1.0 / R_c) / C_w, 1.0 / (R_c * C_w)],
        [0.0, 1.0 / (R_c * C_c), -1.0 / (R_c * C_c)],
    ])
    B = np.array([
        [1.0 / (R_co * C_co), 0.0],
        [0.0, 1.0 / (R_aw * C_w)],
        [0.0, 0.0],
    ])
    return A, B


class _Segment(NamedTuple):
    """Stretch of a recording with one input level and one pump state."""

    a: int                 # first sample
    b: int                 # one past the last sample
    pump_on: bool
    level: float           # input level over the stretch
    dt_rel: np.ndarray     # sample times from the stretch start, as a column
    t_end: float           # time to the start of the next stretch


def _segments(t, u, pump) -> tuple:
    change = (np.diff(u) != 0.0) | (np.diff(pump) != 0)
    cuts = np.concatenate(([0], np.flatnonzero(change) + 1, [len(t)]))
    # each stretch continues from its true endpoint, one sample past t[b-1]
    return tuple(_Segment(a, b, bool(pump[a]), u[a],
                          (t[a:b] - t[a])[:, None],
                          t[b - 1] - t[a] + (t[1] - t[0]))
                 for a, b in zip(cuts[:-1], cuts[1:]))


def _recordings(traces) -> list:
    """Group traces that share t, u and pump_on into one recording each.

    Returns ``(segments, members)`` pairs; a member is ``(offset, column,
    y, x0)``, with ``offset`` the trace's first row in the stacked residual.
    """
    groups = {}
    offset = 0
    for tr in traces:
        pump = tr.pump_on if tr.pump_on is not None \
            else np.zeros(len(tr.t), dtype=bool)
        key = (tr.t.tobytes(), tr.u.tobytes(), pump.tobytes())
        if key not in groups:
            groups[key] = (_segments(tr.t, tr.u, pump), [])
        groups[key][1].append((offset, _SIGNAL_INDEX[tr.signal], tr.y,
                               np.full(3, float(tr.y[0]))))
        offset += len(tr.t)
    return list(groups.values())


def _simulate_residual(theta, recordings, C_co, R_co, T_amb, out):
    """Write each trace's modelled minus measured values into ``out``.

    Piecewise-constant-input response via eigendecomposition: one per pump
    state, then each segment's steady state and modal exponentials once per
    recording, shared by the traces measured in it.
    """
    system = {}
    for segments, members in recordings:
        xs = [x0 for *_, x0 in members]
        for seg in segments:
            if seg.pump_on not in system:
                A, B = _plant_matrices(*theta, C_co, R_co, seg.pump_on)
                system[seg.pump_on] = (A, B, *np.linalg.eig(A))
            A, B, lam, V = system[seg.pump_on]
            x_ss = np.linalg.solve(A, -B @ np.array([seg.level, T_amb]))
            modes = np.exp(lam[None, :] * seg.dt_rel)
            decay = np.exp(lam * seg.t_end)
            for k, (offset, j, y, _) in enumerate(members):
                c0 = np.linalg.solve(V, xs[k] - x_ss)
                sim = np.real(modes * c0[None, :] @ V.T)
                out[offset + seg.a:offset + seg.b] = \
                    sim[:, j] + x_ss[j] - y[seg.a:seg.b]
                xs[k] = np.real(V @ (c0 * decay)) + x_ss


def fit_two_node(traces, C_co: float, R_co: float,
                 ambient: AmbientConfig | None = None) -> FitReport:
    """Least-squares fit of the RC-network constants to one or more traces.

    Traces with equal ``t``, ``u`` and ``pump_on`` (several sensors of one
    run) are simulated together: per parameter vector, one
    eigendecomposition per pump state and one set of modal exponentials
    per segment of each recording.
    """
    if ambient is None:
        ambient = AmbientConfig()
    traces = list(traces)
    if not traces:
        raise ConfigError("need at least one trace")
    for name, value in (("C_co", C_co), ("R_co", R_co)):
        if not 0.0 < value < np.inf:
            raise ConfigError(
                f"{name} must be finite and positive, got {value!r}")
    for tr in traces:
        if tr.signal not in _SIGNAL_INDEX:
            raise ConfigError(f"unknown measured signal {tr.signal!r}")
    recordings = _recordings(traces)
    n_res = sum(len(tr.t) for tr in traces)

    def residual(log_theta):
        theta = np.exp(log_theta)
        res = np.empty(n_res)
        try:
            _simulate_residual(theta, recordings, C_co, R_co, ambient.T_amb,
                               res)
        except np.linalg.LinAlgError:
            return np.full(n_res, 1e6)
        if not np.all(np.isfinite(res)):
            return np.full(n_res, 1e6)
        return res

    # bounds keep the search in a physically generous region so degenerate
    # parameter vectors (singular dynamics, overflowing exponentials) are
    # never visited
    x_init = np.log([_TWO_NODE_INIT[n] for n in _TWO_NODE_NAMES])
    sol = least_squares(residual, x0=x_init, method="trf",
                        bounds=(x_init - 8.0, x_init + 8.0),
                        x_scale="jac", xtol=1e-12, ftol=1e-12)
    theta = np.exp(sol.x)
    rms = float(np.sqrt(np.mean(sol.fun ** 2)))

    col_norms = np.linalg.norm(sol.jac, axis=0)
    scale = max(float(np.max(col_norms)), 1e-300)
    dead = [n for n, c in zip(_TWO_NODE_NAMES, col_norms)
            if c < 1e-8 * scale]
    if dead:
        raise IllConditionedFitError(
            f"insufficient excitation: {', '.join(dead)} cannot be "
            "identified from these traces",
            unidentifiable=dead,
        )
    warnings = tuple(
        f"{n} weakly identifiable (relative sensitivity "
        f"{c / scale:.2e})"
        for n, c in zip(_TWO_NODE_NAMES, col_norms)
        if c < 1e-4 * scale
    )

    params = {n: float(v) for n, v in zip(_TWO_NODE_NAMES, theta)}
    conf = {n: float(h * v) for (n, h), v in
            zip(_confidence(sol.jac, rms, _TWO_NODE_NAMES).items(), theta)}
    return FitReport(parameters=params, residual_rms=rms, confidence=conf,
                     warnings=warnings)
