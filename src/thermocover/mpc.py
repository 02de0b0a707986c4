"""Receding-horizon temperature control with box-bounded Peltier commands.

The predictor is the discrete first-order-plus-dead-time model; the cost
trades tracking error against a command penalty (either command magnitude
relative to a reference temperature, or command increments).  The solver
alternates a projected gradient step, which settles the active bounds, with
a Newton step on the free variables (More & Toraldo, 1991), each ending at
the least-cost point of its segment; that is plenty for the small horizons
involved.  What depends only on the model, horizon and weights (the
prediction map, the Hessian and its largest eigenvalue) is built once and
cached read-only, so a sample forms only the free response and the gradient
offset before it solves.  Pump actuation is bang-bang with hysteresis,
mirroring the stop-at-setpoint behaviour of the rig.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, ConvergenceError
from .fopdt import DiscreteFOPDT, discretize_fopdt
from .params import AmbientConfig, Mode, PlantParams, Target, preset_params


#: Largest horizon, and largest setpoint preview a controller accepts.  The QP
#: keeps a few H x H matrices per mode, 8 MB each at this size.
MAX_HORIZON = 1000


class PenaltyForm(enum.Enum):
    MAGNITUDE = "magnitude"
    INCREMENT = "increment"


@dataclass(frozen=True)
class MpcConfig:
    H: int = 20
    W1: float = 1.0
    W2: float = 1e-4
    T_min_th: float = 5.0
    T_max_th: float = 60.0
    t_s: float = 1.0
    penalty_form: PenaltyForm = PenaltyForm.MAGNITUDE

    def __post_init__(self):
        try:
            H = operator.index(self.H)
        except TypeError:
            raise ConfigError(
                f"horizon must be an integer, got {self.H!r}") from None
        if not 1 <= H <= MAX_HORIZON:
            raise ConfigError(f"horizon must lie in [1, {MAX_HORIZON}]")
        if not (0.0 < self.W1 < math.inf and 0.0 <= self.W2 < math.inf):
            raise ConfigError("need finite W1 > 0 and W2 >= 0")
        if not (math.isfinite(self.T_min_th) and math.isfinite(self.T_max_th)
                and self.T_min_th < self.T_max_th):
            raise ConfigError("command bounds must be finite with min < max")
        if not 0.0 < self.t_s < math.inf:
            raise ConfigError("sampling time must be positive and finite")

    def effective_horizon(self, d: int) -> int:
        """Horizon actually used for a model with d samples of dead time.

        Commands only influence predictions beyond the dead time, so the
        horizon is stretched to keep a fixed preview window past it.
        """
        if d < 20:
            return self.H
        return max(self.H, d + 20)


#: Entries kept by each constant-matrix cache: both modes of two scenarios.
_CACHE_SIZE = 4


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _prediction_constants(a: float, b: float, d: int, H: int):
    """Read-only (a**i for i = 1..H, Phi, G) of one model and horizon.

    G[m-1, i-1] is the weight of the past command u(k-m) in the prediction
    i samples ahead.
    """
    apow = a ** np.arange(H + 1)
    Phi = np.zeros((H, H))
    for i in range(d + 1, H + 1):
        j = np.arange(0, i - d)
        Phi[i - 1, j] = b * apow[i - 1 - d - j]
    # G[m-1, i-1] = b*a**(i-m) for i >= m and 0 before: every row is the
    # same ramp, shifted one place per row, so G is a view of one vector.
    ramp = np.concatenate((np.zeros(d), b * apow[:H]))
    G = sliding_window_view(ramp, H)[:0:-1]   # a read-only view
    apow.flags.writeable = Phi.flags.writeable = False
    return apow[1:], Phi, G


@dataclass(frozen=True)
class PredictionData:
    """Affine map from future commands to predicted temperatures."""

    free: np.ndarray   # response to current state and past commands
    refs: np.ndarray   # setpoint preview
    model: DiscreteFOPDT

    @property
    def Phi(self) -> np.ndarray:
        """H x H command map, strictly zero in the first d rows; cached, so
        shared and read-only."""
        m = self.model
        return _prediction_constants(m.a, m.b, m.d, len(self.refs))[1]


def build_prediction(model: DiscreteFOPDT, T_now: float, past_inputs,
                     setpoints) -> PredictionData:
    """Assemble the prediction map for one receding-horizon solve.

    ``past_inputs`` are the last d applied commands, oldest first; on
    startup they should be padded with the current measurement (the
    steady-state-consistent value under unit DC gain).
    """
    refs = np.asarray(setpoints, dtype=float)
    H = len(refs)
    if H < 1:
        raise ConfigError("setpoint preview must contain at least one entry")
    past = np.asarray(past_inputs, dtype=float)
    if len(past) != model.d:
        raise ConfigError(
            f"need exactly {model.d} past commands, got {len(past)}"
        )
    powers, _, G = _prediction_constants(model.a, model.b, model.d, H)
    # response to the current state plus that to each past command u(k-m),
    # m = 1..d, added in that order row by row
    free = np.add.reduce(np.vstack((powers * T_now, G * past[:, None])),
                         axis=0)
    return PredictionData(free=free, refs=refs, model=model)


@dataclass(frozen=True)
class MpcSolution:
    sequence: np.ndarray
    active_lower: np.ndarray
    active_upper: np.ndarray
    iterations: int
    kkt_residual: float

    @property
    def command(self) -> float:
        return float(self.sequence[0])


_MAX_ITER = 10_000
_KKT_TOL = 1e-8


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _cached_hessian(a: float, b: float, d: int, H: int, W1: float,
                    W2: float, form: PenaltyForm):
    """Read-only Hessian of the QP and its largest eigenvalue."""
    Phi = _prediction_constants(a, b, d, H)[1]
    # the penalty acts on P @ u: the commands themselves or their increments
    P = np.eye(H)
    if form is PenaltyForm.INCREMENT:
        P -= np.eye(H, k=-1)
    Hm = 2.0 * (W1 * Phi.T @ Phi + W2 * P.T @ P)
    Hm.flags.writeable = False
    return Hm, float(np.linalg.eigvalsh(Hm)[-1])


def solve_mpc(qp: PredictionData, cfg: MpcConfig, u_ref: float = 0.0,
              u_prev: float | None = None) -> MpcSolution:
    """Minimize the tracking-plus-penalty quadratic over the command box."""
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
    Hm, eigmax = _cached_hessian(model.a, model.b, model.d, H, cfg.W1,
                                 cfg.W2, form)
    g0 = 2.0 * (cfg.W1 * qp.Phi.T @ e - cfg.W2 * v)
    lo, hi = cfg.T_min_th, cfg.T_max_th
    tol = 1e-9 * max(1.0, hi - lo)

    def toward(u, g, target):
        """Least-cost point on the segment from u to target, both in the
        box; the quadratic is convex, so the cost cannot rise."""
        dvec = target - u
        curv = float(dvec @ Hm @ dvec)
        slope = float(g @ dvec)
        if curv > 0.0:
            alpha = min(1.0, max(0.0, -slope / curv))
        else:
            alpha = 1.0 if slope < 0.0 else 0.0
        return u + alpha * dvec

    try:
        u = np.linalg.solve(Hm, -g0)
        interior = bool(np.all(u >= lo) and np.all(u <= hi))
    except np.linalg.LinAlgError:
        u, interior = np.full(H, u_ref), False
    if not interior:
        u = np.clip(u, lo, hi)

    for it in range(_MAX_ITER + 1):
        g = Hm @ u + g0
        residual = float(np.max(np.abs(u - np.clip(u - g, lo, hi))))
        # an unconstrained minimizer inside the box is the answer as it
        # stands, and so is any start when the cost is flat
        if interior or eigmax <= 0.0 or residual < _KKT_TOL:
            return MpcSolution(sequence=u, active_lower=u <= lo + tol,
                               active_upper=u >= hi - tol, iterations=it,
                               kkt_residual=residual)
        if it == _MAX_ITER:
            break
        # a projected gradient step settles the active set ...
        step = 1.0 / eigmax
        u = toward(u, g, np.clip(u - step * g, lo, hi))
        # ... and a Newton step on the free variables finishes quickly even
        # when the quadratic is badly conditioned.
        g = Hm @ u + g0
        free = ~(((u <= lo + tol) & (g > 0.0))
                 | ((u >= hi - tol) & (g < 0.0)))
        if np.any(free):
            dn = np.zeros_like(u)
            try:
                dn[free] = np.linalg.solve(Hm[np.ix_(free, free)], -g[free])
            except np.linalg.LinAlgError:
                continue
            u = toward(u, g, np.clip(u + dn, lo, hi))

    raise ConvergenceError(
        f"projected gradient hit {_MAX_ITER} iterations "
        f"(KKT residual {residual:.3e})",
        residual=residual,
    )


# ---------------------------------------------------------------------------
# Pump hysteresis

@dataclass(frozen=True)
class PumpHysteresis:
    on_band: float = 0.3
    off_band: float = 0.1
    state: bool = False

    def __post_init__(self):
        if not (0.0 <= self.off_band < math.inf
                and 0.0 <= self.on_band < math.inf):
            raise ConfigError("pump bands must be finite and non-negative")
        if self.off_band > self.on_band:
            raise ConfigError("off_band must not exceed on_band")


def pump_step(h: PumpHysteresis, T_meas: float,
              T_cmd: float) -> tuple[PumpHysteresis, bool]:
    """Bang-bang pump logic: run while far from the setpoint, stop near it."""
    err = abs(T_meas - T_cmd)
    state = h.state
    if err > h.on_band:
        state = True
    elif err < h.off_band:
        state = False
    return replace(h, state=state), state


# ---------------------------------------------------------------------------
# Receding-horizon controller

#: Deadband on (setpoint - water temperature) for heat/cool preset switching.
MODE_DEADBAND = 0.1


@dataclass
class ThermalController:
    """Composes the preview solver, mode switching and pump hysteresis.

    One instance drives one simulation; all persistent state (command
    history, pump latch, offset estimate) lives here.
    """

    cfg: MpcConfig
    ambient: AmbientConfig
    target: Target = Target.COVER
    hysteresis: PumpHysteresis = field(default_factory=PumpHysteresis)
    mode: Mode | None = field(default=None, init=False)

    def __post_init__(self):
        self._params = {m: preset_params(m, self.target) for m in Mode}
        self._models = {
            m: discretize_fopdt(p, self.cfg.t_s)
            for m, p in self._params.items()
        }
        if self.preview_length > MAX_HORIZON:
            raise ConfigError(
                f"setpoint preview of {self.preview_length} samples exceeds "
                f"{MAX_HORIZON}: the dead time spans too many samples of "
                f"t_s = {self.cfg.t_s} s"
            )
        max_d = max(m.d for m in self._models.values())
        self._history: list[float] = []
        self._max_history = max(max_d, 1)
        self._x_hat: float | None = None
        self._p_hat = 0.0

    @property
    def params(self) -> PlantParams:
        if self.mode is None:
            raise ConfigError("controller has not stepped yet")
        return self._params[self.mode]

    @property
    def preview_length(self) -> int:
        """Longest setpoint preview any mode's horizon consumes."""
        return max(self.cfg.effective_horizon(m.d)
                   for m in self._models.values())

    def _select_mode(self, setpoint: float, T_w: float) -> Mode:
        delta = setpoint - T_w
        if self.mode is None:
            return Mode.HEAT if delta >= 0.0 else Mode.COOL
        if delta > MODE_DEADBAND:
            return Mode.HEAT
        if delta < -MODE_DEADBAND:
            return Mode.COOL
        return self.mode

    def step(self, measurement: float, T_w: float,
             setpoint_preview) -> tuple[float, bool]:
        """One control sample: returns (Peltier command, pump on)."""
        preview = np.asarray(setpoint_preview, dtype=float)
        if preview.size < 1:
            raise ConfigError("setpoint preview must not be empty")
        r_now = float(preview[0])

        new_mode = self._select_mode(r_now, T_w)
        if new_mode is not self.mode:
            self.mode = new_mode
            self._x_hat = None
            self._p_hat = 0.0
        model = self._models[new_mode]

        H = self.cfg.effective_horizon(model.d)
        refs = np.empty(H)
        n = min(H, preview.size)
        refs[:n] = preview[:n]
        refs[n:] = preview[-1]

        past = self._history[-model.d:] if model.d else []
        if len(past) < model.d:
            past = [measurement] * (model.d - len(past)) + past

        self.hysteresis, pump_on = pump_step(self.hysteresis, measurement,
                                             r_now)

        # Offset correction, the DMC output-disturbance update (Cutler &
        # Ramaker, 1980): the model state x_hat runs open loop and the whole
        # measurement mismatch goes into the output disturbance p_hat.
        # Shifting the reference by p_hat gives integral action against the
        # gain mismatch of the unit-DC model.  While the pump is off the
        # commands cannot reach the load, so x_hat is re-anchored instead and
        # the learned disturbance is kept for the next on-phase.
        if self._x_hat is None:
            self._x_hat = measurement - self._p_hat
        if pump_on:
            self._p_hat += measurement - (self._x_hat + self._p_hat)
        else:
            self._x_hat = measurement - self._p_hat

        qp = build_prediction(model, self._x_hat, past, refs - self._p_hat)
        u_prev = self._history[-1] if self._history else None
        cmd = solve_mpc(qp, self.cfg, u_ref=self.ambient.T_amb,
                        u_prev=u_prev).command
        self._history.append(cmd)
        if len(self._history) > self._max_history:
            del self._history[: len(self._history) - self._max_history]

        if pump_on:
            u_delayed = past[0] if model.d else cmd
            self._x_hat = model.a * self._x_hat + model.b * u_delayed
        return cmd, pump_on
