"""Parameter identification from step-response traces.

Two fitters mirror how the hardware constants were derived:

* ``fit_fopdt`` recovers the combined time constant and dead time of the
  first-order-plus-dead-time approximation from a single step response.
  Dead time makes the least-squares problem nonconvex, so the classic
  fraction-of-rise two-point method seeds all four parameters (time
  constant, dead time, gain, offset) and one bounded least-squares solve
  refines them together from there.

* ``fit_two_node`` recovers the RC-network constants (R_w, C_w, R_c, C_c,
  R_aw) from one or more traces against the three-node plant ODEs, with the
  tank constants (C_co, R_co) held known.  Every trace carries its pump
  state, and some recording must step its input or toggle its pump.
  With the pump always off the pump resistance R_w drops out of the
  dynamics; with it always on, a noiseless three-sensor step recording
  still determines all five constants.
  The network's state matrix is similar to a symmetric one, so the
  piecewise-constant-input response and its exact derivatives (the
  divided-difference form of the derivative of the matrix exponential)
  come from real modal coordinates, for both pump states in one stacked
  pass.  The solver works on the normal equations: per parameter vector
  one product per segment of more than one sample forms the residuals and
  their Jacobian for all sensors of a recording, those rows reduce to one
  6 x 6 Gram, and a 6-row square root of it stands in for every sample.
  Under noise the data determine only the product of R_c and C_c, the
  cover pole ``tau_c = R_c C_c``, so the search runs in log(R_w, C_w,
  tau_c, R_c, R_aw), where the direction they leave open is one axis.
  The report adds ``tau_c`` and warns about a search coordinate that ends
  on its bound and a constant that the data leave undetermined (relative
  confidence half-width above 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg import block_diag
from scipy.optimize import least_squares

from .errors import ConfigError, IllConditionedFitError
from .params import MAX_ABS_TEMPERATURE, AmbientConfig
from .plant import network_matrices
from .trace import SimTrace


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
    nfev: int = 0          # residual evaluations the solver made

    def to_kv(self) -> dict:
        out = dict(self.parameters)
        out["residual_rms"] = self.residual_rms
        out["nfev"] = self.nfev
        for name, hw in self.confidence.items():
            out[f"confidence.{name}"] = hw
        return out


# ---------------------------------------------------------------------------
# FOPDT fit

def _fopdt_basis(t, t_step, L_d, tau):
    return 1.0 - np.exp(-np.maximum(t - t_step - L_d, 0.0) / tau)


def _two_point_init(t, y, t_step):
    """Fraction-of-rise seed: (tau, L_d, pre-step level, final level)."""
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

    tau0, L0, y0, y_inf = _two_point_init(t, y, t_step)
    if span < 3.0 * tau0:
        raise IllConditionedFitError(
            f"trace covers only {span / tau0:.2f} time constants; need >= 3"
        )

    def residual(p):
        tau, L_d, gain, off = p
        return off + gain * _fopdt_basis(t, t_step, L_d, tau) - y

    # bounds keep tau and L_d non-negative; a zero best delay sits on its
    # bound, where folding the sign in with abs() would stall at the kink
    sol = least_squares(residual, x0=[tau0, L0, y_inf - y0, y0], method="trf",
                        bounds=([0.0, 0.0, -np.inf, -np.inf], np.inf))
    tau_f, L_f, K_f, y0_f = sol.x
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
    return FitReport(parameters=params, residual_rms=rms, confidence=conf,
                     nfev=int(sol.nfev))


def _confidence(normal, rms, names, outputs=None):
    """Half-widths ``rms * sqrt(diag(cov))`` with ``cov = normal^-1``, the
    inverse of the Jacobian's Gram ``J^T J``.

    ``outputs``, a matrix, maps the parameters linearly onto the quantities
    ``names`` lists (delta method); the default is the parameters themselves.
    """
    try:
        cov = np.linalg.inv(normal)
    except np.linalg.LinAlgError:
        return {}
    if outputs is not None:
        cov = outputs @ cov @ outputs.T
    hw = rms * np.sqrt(np.maximum(np.diag(cov), 0.0))
    return {name: float(h) for name, h in zip(names, hw)}


# ---------------------------------------------------------------------------
# Two-node (plus known tank) fit

_TWO_NODE_NAMES = ("R_w", "C_w", "R_c", "C_c", "R_aw")
_TWO_NODE_INIT = {"R_w": 5.0, "C_w": 150.0, "R_c": 60.0, "C_c": 0.3,
                  "R_aw": 2.0}
_SIGNAL_INDEX = {"T_co": 0, "T_w": 1, "T_c": 2}
# the fit searches w = log(R_w, C_w, tau_c, R_c, R_aw), log theta =
# _SEARCH_MAP @ w (log C_c = log tau_c - log R_c), each within e^+-_SEARCH_BOX
# of its initial value; tau_c's box is the product of R_c's and C_c's
_SEARCH_NAMES = ("R_w", "C_w", "tau_c", "R_c", "R_aw")
_SEARCH_MAP = np.array([[1.0, 0.0, 0.0, 0.0, 0.0],
                        [0.0, 1.0, 0.0, 0.0, 0.0],
                        [0.0, 0.0, 0.0, 1.0, 0.0],
                        [0.0, 0.0, 1.0, -1.0, 0.0],
                        [0.0, 0.0, 0.0, 0.0, 1.0]])
_SEARCH_BOX = np.array([8.0, 8.0, 16.0, 8.0, 8.0])
# [r | J] in log theta to [r | J] in w
_GRAM_MAP = block_diag(1.0, _SEARCH_MAP)
# the log-parameters, then log tau_c = log R_c + log C_c
_TWO_NODE_OUTPUTS = np.vstack([np.eye(5), [0.0, 0.0, 1.0, 1.0, 0.0]])
# the coefficients of F_b and of t F_b in Phi_ik, b over the modes:
# delta_bi - delta_bk and delta_bi delta_ik
_F_SPLIT = np.eye(3)[:, :, None] - np.eye(3)[:, None, :]
_TF_DIAG = np.eye(3)[:, :, None] * np.eye(3)[:, None, :]
# modes closer than this times the fastest rate are differentiated without
# the divided difference of their exponentials, which would cancel
_CLOSE_MODES = 1e-3


def _plant_matrices(R_w, C_w, R_c, C_c, R_aw, C_co, R_co, pump_on):
    """State [T_co, T_w, T_c], inputs [T_p, T_amb]: the plant's network
    with the plate temperature as an input."""
    A, B = network_matrices(R_w, C_w, R_c, C_c, R_aw, C_co, R_co, pump_on)
    return A[1:, 1:], np.array([A[1:, 0], B[1:, 1]]).T


def _plant_derivatives(R_w, C_w, R_c, C_c, R_aw, C_co, pump_on):
    """dA/dlog theta_p and dB/dlog theta_p, stacked over _TWO_NODE_NAMES.

    Every entry of ``_plant_matrices`` is a sum of conductance-over-
    capacitance terms, so each derivative negates the terms its constant
    divides.
    """
    gw = 1.0 / R_w if pump_on else 0.0
    gc, ga = 1.0 / R_c, 1.0 / R_aw
    dA = np.zeros((5, 3, 3))
    dB = np.zeros((5, 3, 2))
    dA[0, 0, :2] = [gw / C_co, -gw / C_co]                # R_w
    dA[0, 1, :2] = [-gw / C_w, gw / C_w]
    dA[1, 1] = [-gw / C_w, (gw + ga + gc) / C_w, -gc / C_w]   # C_w
    dB[1, 1, 1] = -ga / C_w
    dA[2, 1, 1:] = [gc / C_w, -gc / C_w]                  # R_c
    dA[2:4, 2, 1:] = [-gc / C_c, gc / C_c]                # R_c and C_c
    dA[4, 1, 1] = ga / C_w                                # R_aw
    dB[4, 1, 1] = -ga / C_w
    return dA, dB


class _Segment(NamedTuple):
    """Stretch of a recording with one input level and one pump state."""

    a: int                 # first sample
    b: int                 # one past the last sample
    pump_on: bool
    level: float           # input level over the stretch
    dt_rel: np.ndarray     # sample times from the stretch start
    t_end: float           # time to the start of the next stretch


def _segments(t, u, pump) -> tuple:
    change = (np.diff(u) != 0.0) | (np.diff(pump) != 0)
    cuts = np.concatenate(([0], np.flatnonzero(change) + 1, [len(t)]))
    # each stretch continues from its true endpoint, one sample past t[b-1]
    return tuple(_Segment(int(a), int(b), bool(pump[a]), float(u[a]),
                          t[a:b] - t[a],
                          float(t[b - 1] - t[a] + (t[1] - t[0])))
                 for a, b in zip(cuts[:-1], cuts[1:]))


class _Recording(NamedTuple):
    """Traces measured in one run: shared segments, one column each."""

    segments: tuple
    offsets: tuple         # each member's first row in the stacked residual
    nodes: np.ndarray      # each member's measured node
    y: np.ndarray          # measured values, samples x members


def _recordings(traces) -> list:
    """Group traces that share t, u and pump_on into one recording each."""
    groups = {}
    offset = 0
    for tr in traces:
        key = (tr.t.tobytes(), tr.u.tobytes(), tr.pump_on.tobytes())
        if key not in groups:
            groups[key] = (_segments(tr.t, tr.u, tr.pump_on), [])
        groups[key][1].append((offset, _SIGNAL_INDEX[tr.signal], tr.y))
        offset += len(tr.t)
    return [_Recording(segments, tuple(o for o, _, _ in members),
                       np.array([j for _, j, _ in members]),
                       np.column_stack([y for *_, y in members]))
            for segments, members in groups.values()]


class _Modal(NamedTuple):
    """Modal systems of both pump states, stacked off then on."""

    lam: np.ndarray        # 2 x 3 rates, ascending
    V: np.ndarray          # 2 x 3 x 3, A = V diag(lam) V^-1
    V_inv: np.ndarray      # 2 x 3 x 3
    G: np.ndarray          # 2 x 3 x 2, steady state G @ [T_p, T_amb]
    dG: np.ndarray         # 2 x 5 x 3 x 2, dG / dlog theta_p
    E: np.ndarray          # 2 x 5 x 3 x 3, V^-1 dA_p V
    D: np.ndarray          # 2 x 3 x 3, 1 / (lam_i - lam_k) or 0
    close: tuple           # per pump state, the close pairs (i, k), i < k


def _modal_systems(theta, C_co, R_co) -> _Modal:
    """Steady-state gains, real modes and their derivatives w.r.t. log
    theta, for both pump states in one stacked pass.

    The network is a capacitance-weighted Laplacian, A = C^-1 K with K
    symmetric, so S = C^1/2 A C^-1/2 is symmetric: S = Q diag(lam) Q^T
    gives A = V diag(lam) V^-1 with V = C^-1/2 Q and V^-1 = Q^T C^1/2.
    dG comes from A^-1 = V diag(1/lam) V^-1.  D_ik = 1/(lam_i - lam_k) for
    modes further apart than _CLOSE_MODES times the state's fastest rate,
    else 0, and such a close pair is listed instead.
    """
    A, B = map(np.array, zip(*(_plant_matrices(*theta, C_co, R_co, on)
                               for on in (False, True))))
    dA, dB = map(np.array, zip(*(_plant_derivatives(*theta, C_co, on)
                                 for on in (False, True))))
    c = np.sqrt([C_co, theta[1], theta[3]])
    lam, Q = np.linalg.eigh(A * c[:, None] / c[None, :])
    V = Q / c[:, None]
    V_inv = np.swapaxes(Q, 1, 2) * c
    G = -np.linalg.solve(A, B)
    dG = -((V / lam[:, None]) @ V_inv)[:, None] @ (dA @ G[:, None] + dB)
    gap = lam[:, :, None] - lam[:, None, :]
    far = np.abs(gap) > _CLOSE_MODES * np.abs(lam).max(axis=1)[:, None, None]
    return _Modal(lam, V, V_inv, G, dG, V_inv[:, None] @ dA @ V[:, None],
                  np.divide(1.0, gap, out=np.zeros_like(gap), where=far),
                  tuple([(i, k) for i, k in ((0, 1), (0, 2), (1, 2))
                         if not f[i][k]] for f in far.tolist()))


def _basis(lam, close, times):
    """The basis rows at ``times``: F = e^{lam t}, t F, one row per close
    pair (i, k), e^{lam_k t} expm1((lam_i - lam_k) t) / (lam_i - lam_k),
    and a constant row."""
    basis = np.empty((7 + len(close), times.size))
    F = np.exp(lam[:, None] * times, out=basis[:3])
    np.multiply(times, F, out=basis[3:6])
    for row, (i, k) in enumerate(close, start=6):
        gap = lam[i] - lam[k]
        basis[row] = F[k] * (np.expm1(gap * times) / gap if gap else times)
    basis[-1] = 1.0
    return basis


def _simulate(theta, recordings, C_co, R_co, T_amb, rows=None):
    """Normal equations of the fit: the 6 x 6 Gram M^T M of M = [r | J].

    M has one row per measured sample: r, the modelled minus measured
    value, then its derivatives w.r.t. log theta.  Per recording M is
    formed as a (samples x members) x 6 block, one product per segment of
    more than one sample, and its Gram adds into the result.  ``rows``, if
    given (one row per residual, 6 columns), receives M.

    Piecewise-constant-input response in real modal coordinates, with the
    modal systems of both pump states from one pass (``_modal_systems``);
    each member starts uniform at its first measured value.  Within a
    segment the response and its derivatives are closed form (Van Loan
    1978; Najfeld & Havel 1995):

        x(t) = x_ss + V e^{lam t} c0
        dx(t) = dx_ss + V (E_p o Phi(t)) c0 + V e^{lam t} V^-1 (dx0 - dx_ss)

    with E_p = V^-1 dA_p V, dx_ss = -A^-1 (dA_p x_ss + dB_p u),
    Phi_ik = (e^{lam_i t} - e^{lam_k t}) / (lam_i - lam_k) and
    Phi_ii = t e^{lam_i t}.  Phi(t) = sum_b f_b(t) Phi_b over the rows f of
    ``_basis``: F = e^{lam t}, t F and, for a pair of modes closer than
    _CLOSE_MODES times the fastest rate, a row of its own, where the
    difference of the two F would cancel.  So member k's derivative column
    p takes v_k^T (E_p o Phi_b) c0_k on row b, with v_k the measured row of
    V, and with the constant row for the steady state one product of the
    rows with a coefficient matrix forms all six columns of every member.
    A one-sample segment's row is its start state.  The state and its
    sensitivities, 3 x m x 6 ([:, k, 0] member k's state, [:, k, q] its
    derivative w.r.t. log theta_q-1), advance over each segment by the
    same form at its end, one pair of 3 x 3 maps per pump state and
    duration.
    """
    modal = _modal_systems(theta, C_co, R_co)
    # E_p o Phi_b over the rows F and t F of both pump states, with
    # D o E_p = K_p
    K = modal.D[:, None] * modal.E
    E_Phi = np.concatenate([_F_SPLIT[:, None] * K[:, None],
                            _TF_DIAG[:, None] * modal.E[:, None]], axis=1)
    gains = np.concatenate([modal.G[:, None], modal.dG], axis=1)
    per_state = []                      # indexed by pump state: off, on
    for s, close in enumerate(modal.close):
        # T[b, p] = E_p o Phi_b, with the close pairs' rows appended
        T = E_Phi[s]
        if close:
            pair = np.zeros((len(close), 1, 3, 3))
            for row, (i, k) in enumerate(close):
                pair[row, 0, i, k] = pair[row, 0, k, i] = 1.0
            T = np.concatenate([T, pair * modal.E[s]])
        # x_ss and dx_ss, 3 x 6: per unit input level, and the ambient's
        per_state.append((modal.lam[s], modal.V[s], modal.V_inv[s], close, T,
                          gains[s, ..., 0].T, T_amb * gains[s, ..., 1].T))
    # (pump state, duration): e^{A t} and V (E_p o Phi(t)) V^-1
    advance = {}
    gram = np.zeros((6, 6))
    for rec in recordings:
        m = len(rec.offsets)
        members = np.arange(m)
        # measured rows of V per pump state, 3 x m
        measured = [V[rec.nodes].T for V in modal.V]
        M = np.empty((len(rec.y), m, 6))
        # each member starts at a measured value, which theta does not move
        X = np.zeros((3, m, 6))
        X[:, :, 0] = rec.y[0]
        for seg in rec.segments:
            lam, V, V_inv, close, T, ss_level, ss_amb = per_state[seg.pump_on]
            ss = (seg.level * ss_level + ss_amb)[:, None]
            Z = (X - ss).reshape(3, -1)
            n = seg.b - seg.a
            if n == 1:
                M[seg.a] = X[rec.nodes, members]
            else:
                v = measured[seg.pump_on]
                C0 = (V_inv @ Z).reshape(3, m, 6)
                c0 = C0[:, :, 0]
                # coefficients of each basis row, the constant row last
                coefs = np.zeros((len(T) + 1, m, 6))
                np.multiply(v[:, :, None], C0, out=coefs[:3])
                coefs[:-1, :, 1:] += (
                    (v[:, None] * c0).reshape(9, m).T @ T.reshape(-1, 9).T
                ).reshape(m, len(T), 5).swapaxes(0, 1)
                coefs[-1] = ss[rec.nodes, 0]
                np.matmul(_basis(lam, close, seg.dt_rel).T,
                          coefs.reshape(len(coefs), -1),
                          out=M[seg.a:seg.b].reshape(n, -1))
            key = (seg.pump_on, seg.t_end)
            if key not in advance:
                end = _basis(lam, close, np.array([seg.t_end]))[:-1, 0]
                EPhi = (end @ T.reshape(len(T), -1)).reshape(5, 3, 3)
                advance[key] = (V * end[:3]) @ V_inv, V @ EPhi @ V_inv
            P, N = advance[key]
            X = (P @ Z).reshape(3, m, 6) + ss
            X[:, :, 1:] += (N @ Z[:, ::6]).transpose(1, 2, 0)
        M[:, :, 0] -= rec.y
        if rows is not None:
            for k, offset in enumerate(rec.offsets):
                rows[offset:offset + len(M)] = M[:, k]
        M = M.reshape(-1, 6)
        gram += M.T @ M
    return gram


def fit_two_node(traces, C_co: float, R_co: float,
                 ambient: AmbientConfig | None = None) -> FitReport:
    """Least-squares fit of the RC-network constants to one or more traces.

    Traces with equal ``t``, ``u`` and ``pump_on`` (several sensors of one
    run) are simulated together: per parameter vector, one stacked
    symmetric eigendecomposition for both pump states, and per segment of
    more than one sample one set of modal exponentials and one matrix
    product that forms the residuals and their exact derivatives for all
    the recording's traces (``_simulate``).  Only their 6 x 6 Gram is
    kept.

    The search runs in w = log(R_w, C_w, tau_c, R_c, R_aw) with
    ``tau_c = R_c C_c``, so that the direction noisy data leave open,
    R_c against C_c at fixed tau_c, is one axis of w rather than a
    diagonal valley.  log theta = T w for a constant T (log C_c = w_tau -
    w_Rc), so the kernel runs at exp(T w) unchanged and the Gram maps by
    the congruence S^T Gram S, S = diag(1, T).  Each of R_w, C_w, R_c and
    R_aw stays within a factor e^8 of its initial value, tau_c within e^16
    of 60 * 0.3 s, the product of the boxes R_c and C_c had when they were
    searched themselves; C_c has no box of its own.  The solver
    (``least_squares``, ``trf``) gets a square root of the mapped Gram,
    with R^T R = S^T Gram S, from a symmetric eigendecomposition with
    eigenvalues clipped at 0: its first column stands in for the residual
    and the rest for the Jacobian, both with six rows whatever the number
    of samples, and with the same cost, gradient and Gauss-Newton matrix.
    ``residual_rms`` comes from that cost.  Where the simulation fails,
    the cost is that of a 1e6 K residual in every sample.  A
    ``ConfigError`` is raised when a trace has no ``pump_on`` column, and
    when no recording steps its input or toggles its pump.

    ``parameters`` holds the five constants and ``tau_c``; ``confidence``
    holds their half-widths from the Gram in log theta, that of ``tau_c``
    by the delta method; ``nfev`` is the solver's count of residual
    evaluations.  ``warnings`` names each constant that is weakly
    sensitive or not determined by the data (relative half-width above 1),
    both judged in log theta, and each search coordinate at its search
    bound.
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
    if any(tr.pump_on is None for tr in traces):
        raise ConfigError("a two-node fit needs the pump_on column of "
                          "every trace")
    recordings = _recordings(traces)
    if all(len(rec.segments) == 1 for rec in recordings):
        raise ConfigError("input never steps and pump never toggles")
    n_res = sum(len(tr.t) for tr in traces)
    cache = {}

    def factor(w):
        """The Gram of [r | J] in log theta and R with R^T R = S^T Gram S,
        for the last point."""
        key = w.tobytes()
        if key not in cache:
            try:
                gram = _simulate(np.exp(_SEARCH_MAP @ w), recordings, C_co,
                                 R_co, ambient.T_amb)
            except np.linalg.LinAlgError:
                gram = np.full((6, 6), np.nan)
            if not np.all(np.isfinite(gram)):
                # the cost of a 1e6 K residual in every row, and no slope
                gram = np.diag([n_res * 1e12, 0.0, 0.0, 0.0, 0.0, 0.0])
            ev, Q = np.linalg.eigh(_GRAM_MAP.T @ gram @ _GRAM_MAP)
            cache.clear()
            cache[key] = gram, np.sqrt(np.maximum(ev, 0.0))[:, None] * Q.T
        return cache[key]

    # bounds keep the search in a physically generous region so degenerate
    # parameter vectors (singular dynamics, overflowing exponentials) are
    # never visited
    init = dict(_TWO_NODE_INIT,
                tau_c=_TWO_NODE_INIT["R_c"] * _TWO_NODE_INIT["C_c"])
    x_init = np.log([init[n] for n in _SEARCH_NAMES])
    lower, upper = x_init - _SEARCH_BOX, x_init + _SEARCH_BOX
    sol = least_squares(lambda x: factor(x)[1][:, 0], x0=x_init,
                        jac=lambda x: factor(x)[1][:, 1:], method="trf",
                        bounds=(lower, upper),
                        x_scale="jac", xtol=1e-12, ftol=1e-12)
    theta = np.exp(_SEARCH_MAP @ sol.x)
    rms = float(np.sqrt(2.0 * sol.cost / n_res))

    normal = factor(sol.x)[0][1:, 1:]
    col_norms = np.sqrt(np.diag(normal))
    scale = max(float(np.max(col_norms)), 1e-300)
    dead = [n for n, c in zip(_TWO_NODE_NAMES, col_norms)
            if c < 1e-8 * scale]
    if dead:
        raise IllConditionedFitError(
            f"insufficient excitation: {', '.join(dead)} cannot be "
            "identified from these traces",
            unidentifiable=dead,
        )

    params = {n: float(v) for n, v in zip(_TWO_NODE_NAMES, theta)}
    params["tau_c"] = params["R_c"] * params["C_c"]
    # a half-width in log coordinates is the relative half-width
    rel_hw = _confidence(normal, rms, tuple(params), _TWO_NODE_OUTPUTS)
    conf = {n: h * params[n] for n, h in rel_hw.items()}
    warnings = tuple(
        f"{n} weakly identifiable (relative sensitivity "
        f"{c / scale:.2e})"
        for n, c in zip(_TWO_NODE_NAMES, col_norms)
        if c < 1e-4 * scale
    ) + tuple(
        f"{n} is at its search bound "
        f"[{np.exp(lo):.6g}, {np.exp(hi):.6g}]"
        for n, x, lo, hi in zip(_SEARCH_NAMES, sol.x, lower, upper)
        if min(x - lo, hi - x) < 1e-6
    ) + tuple(
        f"{n} is not determined by the data (relative half-width "
        f"{h:.3g})"
        for n, h in rel_hw.items() if h > 1.0
    )
    return FitReport(parameters=params, residual_rms=rms, confidence=conf,
                     warnings=warnings, nfev=int(sol.nfev))
