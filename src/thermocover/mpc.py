"""Receding-horizon temperature control with box-bounded Peltier commands.

The predictor is the discrete first-order-plus-dead-time model; the cost
trades tracking error against a command penalty (either command magnitude
relative to a reference temperature, or command increments).  With d samples
of dead time the cost starts at prediction d + 1, as in generalized
predictive control (Clarke, Mohtadi & Tuffs, 1987), so the QP's unknowns are
the H commands that reach predictions d+1 ... d+H, and its Hessian is
positive definite.  For each pattern of commands held at a bound, none
held included, the minimizer is affine in what the controller knows, the
critical regions of explicit MPC.  One algorithm moves between patterns: the
primal-dual active-set update (Hintermüller, Ito & Kunisch, 2002), which
turns into Murty's least-index rule once a pattern comes back.  A
controller sample tries the cached map of the last sample's pattern, then
of its one update, at the cost of one matrix-vector product each; only
where both fail does solve_mpc run the update to the end, starting from the
second.  What depends only on the model, horizon, weights and held pattern
is built once per process and cached read-only; what the controller knows
is written afresh each sample.  Pump actuation is bang-bang with
hysteresis, mirroring the stop-at-setpoint behaviour of the rig.  A sample
that keeps the mode, the pump state and the held pattern is affine in the
controller's state, from its first applied command on; ``steady_step``
gives the rows that no pattern changes, and ``steady_rows`` adds a
pattern's command and the checks that decide whether a sample keeps it.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, ConvergenceError, NumericError
from .fopdt import DiscreteFOPDT, discretize_fopdt
from .params import (AmbientConfig, Mode, Target, preset_params,
                     require_temperature)


#: Largest horizon, and largest setpoint preview a controller accepts.  Each
#: mode caches a square matrix of each size, 8 MB at this size.
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
        require_temperature("T_min_th", self.T_min_th)
        require_temperature("T_max_th", self.T_max_th)
        if not self.T_min_th < self.T_max_th:
            raise ConfigError("command bounds need T_min_th < T_max_th")
        if not 0.0 < self.t_s < math.inf:
            raise ConfigError("sampling time must be positive and finite")


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
    if H <= model.d:
        raise ConfigError(f"a preview of {H} samples leaves no command "
                          f"past a dead time of {model.d} samples")
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
    iterations: int       # active-set updates, 0 for an interior minimizer
    kkt_residual: float   # largest entry of the projected gradient step, K

    @property
    def command(self) -> float:
        return float(self.sequence[0])


@functools.lru_cache(maxsize=_CACHE_SIZE)
# weights near the float range overflow; the check at the end names them
@np.errstate(over="ignore", invalid="ignore")
def _cached_hessian(a: float, b: float, d: int, n: int, W1: float,
                    W2: float, form: PenaltyForm):
    """Read-only Hessian of the QP in its n unknowns, the commands that
    reach predictions d+1 ... d+n, its inverse, its largest eigenvalue and
    the gradient offset per unit z = [x_hat, past (d), refs[d:] - p_hat (n),
    u_ref or u_prev], ``dg0`` (the gradient at u is ``Hm @ u + dg0 @ z``)."""
    powers, Phi, G = _prediction_constants(a, b, d, d + n)
    Phi = Phi[d:, :n]
    # the penalty acts on P @ u: the commands themselves or their increments
    P = np.eye(n)
    if form is PenaltyForm.INCREMENT:
        P -= np.eye(n, k=-1)
    Hm = 2.0 * (W1 * Phi.T @ Phi + W2 * P.T @ P)
    Hinv = np.linalg.inv(Hm)
    # the gradient offset g0 = 2 (W1 Phi.T (free - refs)[d:] - W2 v) is
    # linear in z: free[d:] = powers[d:] x_hat + G[:, d:].T @ past, and the
    # target v of P @ u is u_ref in every entry or u_prev in the first
    dg0 = np.empty((n, d + n + 2))
    dg0[:, 0] = 2.0 * W1 * Phi.T @ powers[d:]
    dg0[:, 1:d + 1] = 2.0 * W1 * Phi.T @ G[:, d:].T
    dg0[:, d + 1:-1] = -2.0 * W1 * Phi.T
    dg0[:, -1] = -2.0 * W2 * (np.ones(n) if form is PenaltyForm.MAGNITUDE
                              else np.eye(n)[0])
    # the inverse of an overflowed Hm may well be finite; the last product
    # is the unconstrained minimizer per unit z, up to its sign
    if not all(np.all(np.isfinite(m)) for m in (Hm, Hinv, Hinv @ dg0)):
        raise ConfigError(f"controller weights W1 = {W1:.6g}, W2 = {W2:.6g} "
                          f"overflow the QP's Hessian or its inverse")
    for m in (Hm, Hinv, dg0):
        m.flags.writeable = False
    return Hm, Hinv, float(np.linalg.eigvalsh(Hm)[-1]), dg0


def _kkt_tol(lo: float, hi: float) -> float:
    """Tolerance of the KKT test on a held command's gradient step, in K."""
    return 1e-9 * max(1.0, hi - lo)


def _critical_region(Hm: np.ndarray, eigmax: float, X: np.ndarray,
                     lo: float, hi: float, lower: tuple[int, ...],
                     upper: tuple[int, ...]):
    """(Y, floor, ceil) of the QP's critical region where the unknowns
    ``lower`` are held at lo, ``upper`` at hi and the rest free.

    For the gradient ``Hm @ u + X @ w``, y = Y @ [w, 1] holds the free
    commands, where the gradient vanishes, and at the held indices the
    gradient step g/λmax in K.  The pattern passes the KKT test exactly
    where floor <= y <= ceil: every free command inside the box, and every
    held command's step below the tolerance away from the box.
    """
    n = len(Hm)
    held = np.zeros(n, dtype=bool)
    held[list(lower + upper)] = True
    free = ~held
    u_held = np.zeros(n)
    u_held[list(lower)] = lo
    u_held[list(upper)] = hi
    # the gradient with the free commands at zero, per column
    X = np.column_stack((X, Hm @ u_held))
    Y = np.empty_like(X)
    Y[free] = -np.linalg.solve(Hm[np.ix_(free, free)], X[free])
    Y[held] = (Hm[np.ix_(held, free)] @ Y[free] + X[held]) * (1.0 / eigmax)
    # a held command passes with a step below tol away from the box
    tol = np.nextafter(_kkt_tol(lo, hi), 0.0)
    floor = np.where(free, lo, -np.inf)
    ceil = np.where(free, hi, np.inf)
    floor[list(lower)] = -tol
    ceil[list(upper)] = tol
    return Y, floor, ceil


#: Held patterns kept per process, none held included, the only bound on
#: the region maps: the six built-ins need 58 over both modes.  Each
#: ``step`` reads one, or two where the first fails, and each
#: ``steady_step`` one.
_REGION_CACHE_SIZE = 128


@functools.lru_cache(maxsize=_REGION_CACHE_SIZE)
def _region_map(a: float, b: float, d: int, n: int, W1: float, W2: float,
                form: PenaltyForm, lo: float, hi: float,
                lower: tuple[int, ...], upper: tuple[int, ...]):
    """Read-only (R, r, floor, ceil) of ``_critical_region`` per unit z:
    y = R @ z + r."""
    Hm, _, eigmax, dg0 = _cached_hessian(a, b, d, n, W1, W2, form)
    Y, floor, ceil = _critical_region(Hm, eigmax, dg0, lo, hi, lower, upper)
    for m in (Y, floor, ceil):
        m.flags.writeable = False
    return Y[:, :-1], Y[:, -1], floor, ceil


def _update_held(held: tuple[tuple[int, ...], tuple[int, ...]],
                 y: np.ndarray, floor: np.ndarray, ceil: np.ndarray):
    """One primal-dual active-set update (Hintermüller, Ito & Kunisch, 2002)
    of the held pattern whose region map gave y: a free command past the
    box is held at the bound it crossed, a held command whose gradient step
    fails its bound is freed, and every other command keeps its state."""
    return _toggled(held, y < floor, y > ceil)


def _toggled(held, below, above):
    """``held`` with each command that fails its test below its floor
    toggled in the lower side, and each above its ceiling in the upper."""
    return tuple(tuple(sorted(set(side).symmetric_difference(
        np.flatnonzero(fails).tolist())))
        for side, fails in zip(held, (below, above)))


def _update_first(held: tuple[tuple[int, ...], tuple[int, ...]],
                  y: np.ndarray, floor: np.ndarray, ceil: np.ndarray):
    """``_update_held`` of the first failing command alone: Murty's
    least-index rule, which cannot cycle (Júdice & Pires, 1994)."""
    first = int(np.argmax((y < floor) | (y > ceil)))
    # every other command sits on its floor, which passes its test
    y_first = floor.copy()
    y_first[first] = y[first]
    return _update_held(held, y_first, floor, ceil)


#: Active-set updates before solve_mpc gives up: the least-index rule ends,
#: but after exponentially many updates in the worst case.
_MAX_UPDATES = 10_000


def solve_mpc(qp: PredictionData, cfg: MpcConfig, u_ref: float = 0.0,
              u_prev: float | None = None,
              held: tuple[tuple[int, ...], tuple[int, ...]] = ((), ())
              ) -> MpcSolution:
    """Minimize the tracking-plus-penalty quadratic over the command box.

    From the start pattern ``held``, the (lower, upper) unknowns held at a
    bound, none by default, ``_update_held`` runs until the pattern passes
    its critical region's KKT test.  Plain updates can cycle, so once a
    pattern comes back every later update is ``_update_first``'s.
    """
    model = qp.model
    d = model.d
    n = len(qp.refs) - d
    form = cfg.penalty_form
    Hm, Hinv, eigmax, dg0 = _cached_hessian(model.a, model.b, d, n,
                                            cfg.W1, cfg.W2, form)
    # the gradient offset dg0 @ z, where qp.free already holds the response
    # to x_hat and the past commands
    last = (u_ref if u_prev is None or form is PenaltyForm.MAGNITUDE
            else u_prev)
    g0 = dg0[:, d + 1:] @ np.append((qp.refs - qp.free)[d:], last)
    lo, hi = cfg.T_min_th, cfg.T_max_th

    def region(held):
        """y, floor and ceil of the pattern's critical region at this QP."""
        if held == ((), ()):
            # the free block is the whole Hessian, whose inverse is cached
            return Hinv @ -g0, np.full(n, lo), np.full(n, hi)
        Y, floor, ceil = _critical_region(Hm, eigmax, g0[:, None], lo, hi,
                                          *held)
        return Y[:, 0] + Y[:, 1], floor, ceil

    y, floor, ceil = region(held)
    seen, least_index, iterations = set(), False, 0
    while np.any((y < floor) | (y > ceil)):
        if iterations == _MAX_UPDATES:
            violation = float(np.max(np.maximum(floor - y, y - ceil)))
            raise ConvergenceError(
                f"active-set updates hit {_MAX_UPDATES} before the KKT "
                f"test passed (largest violation {violation:.3e} K)",
                residual=violation)
        seen.add(held)
        if not least_index:
            update = _update_held(held, y, floor, ceil)
            least_index = update in seen
        if least_index:
            update = _update_first(held, y, floor, ceil)
        held = update
        y, floor, ceil = region(held)
        iterations += 1

    u = y
    u[list(held[0])] = lo
    u[list(held[1])] = hi
    # the projected gradient step, in K: it is zero exactly at a KKT point,
    # and its scale does not follow the Hessian's
    g = Hm @ u + g0
    residual = float(np.max(np.abs(u - np.clip(u - g / eigmax, lo, hi))))
    if not math.isfinite(residual):
        # NaN in the data fails no test, and no update can make it finite
        raise NumericError(f"KKT residual {residual} K at iteration "
                           f"{iterations}: the QP's data is not finite")
    # the last d commands reach no prediction, so the penalty alone sets
    # them
    tail = float(u[-1]) if form is PenaltyForm.INCREMENT else u_ref
    u = np.concatenate((u, np.full(d, min(max(tail, lo), hi))))
    tol = _kkt_tol(lo, hi)
    return MpcSolution(sequence=u, active_lower=u <= lo + tol,
                       active_upper=u >= hi - tol, iterations=iterations,
                       kkt_residual=residual)


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
    if state == h.state:
        return h, state
    return replace(h, state=state), state


# ---------------------------------------------------------------------------
# Receding-horizon controller

#: Deadband on (setpoint - water temperature) for heat/cool preset switching.
MODE_DEADBAND = 0.1

#: Per pump state, x_hat and p_hat after the offset update (see
#: ``ThermalController.step``) over (x_hat, p_hat, measurement): with the
#: pump on p_hat takes the mismatch, with it off x_hat is re-anchored.
_OFFSET_UPDATE = {True: np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 1.0]]),
                  False: np.array([[0.0, -1.0, 1.0], [0.0, 1.0, 0.0]])}
for _m in _OFFSET_UPDATE.values():
    _m.flags.writeable = False


class SteadyStep(NamedTuple):
    """The part of one control sample that no held pattern changes, for
    samples that keep the controller's mode and pump state.

    ``rows`` take w = [*history, x_hat, p_hat, measurement, 1] to x_hat and
    p_hat after the sample, x_hat's without the command's term, which only
    a sample without dead time has; ``ThermalController.steady_rows`` adds
    a held pattern's rows.  The history after the sample is w's shifted one
    place, the command last.  The rows read the last ``d`` history entries
    as the past d commands, the measurement in those not yet applied.
    ``ahead`` is the preview block [refs[d:], 1] per unknown.  The sample
    keeps the mode where ``mode_band`` holds setpoint - T_w, and the pump
    state where ``pump_band`` holds |measurement - setpoint|, both bands
    closed.
    """

    rows: np.ndarray
    ahead: np.ndarray
    d: int
    setpoint: float
    pump_on: bool
    mode_band: tuple
    pump_band: tuple


def update_from_checks(held, checks) -> tuple:
    """The pattern of ``_update_held`` where the KKT ``checks`` of pattern
    ``held`` (y - floor, then ceil - y), evaluated, fail: below zero, a
    NaN passing."""
    n = len(checks) // 2
    below = [i for i, c in enumerate(checks[:n]) if c < 0.0]
    above = [i for i, c in enumerate(checks[n:2 * n]) if c < 0.0]
    return tuple(tuple(sorted(set(side).symmetric_difference(fails)))
                 for side, fails in zip(held, (below, above)))


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
        self._models = {
            m: discretize_fopdt(preset_params(m, self.target), self.cfg.t_s)
            for m in Mode
        }
        if self.preview_length > MAX_HORIZON:
            raise ConfigError(
                f"setpoint preview of {self.preview_length} samples exceeds "
                f"{MAX_HORIZON}: the dead time spans too many samples of "
                f"t_s = {self.cfg.t_s} s"
            )
        max_d = max(m.d for m in self._models.values())
        # the last max(max_d, 1) commands, oldest first, shifted in place;
        # only the last _count of them have been applied
        self._history = np.zeros(max(max_d, 1))
        self._count = 0
        self._x_hat: float | None = None
        self._p_hat = 0.0
        # (lower, upper) unknowns held at a bound in the last sample
        self._held: tuple[tuple[int, ...], tuple[int, ...]] = ((), ())
        # the current mode's model, set at each mode switch
        self._model: DiscreteFOPDT | None = None

    @property
    def preview_length(self) -> int:
        """Longest setpoint preview a mode consumes: its dead time in
        samples plus the H commands that reach a prediction."""
        return max(m.d for m in self._models.values()) + self.cfg.H

    @property
    def held(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The (lower, upper) unknowns held at a bound in the last
        sample."""
        return self._held

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
        """One control sample: returns (Peltier command, pump on).

        A measurement, ``T_w`` or preview entry that is not finite raises
        ``NumericError`` naming it, before any state changes.  The preview
        is scanned and read afresh on every call, so the caller may hand
        back the same array, changed in place or not.
        """
        preview = np.asarray(setpoint_preview, dtype=float)
        if preview.size < 1:
            raise ConfigError("setpoint preview must not be empty")
        if not (math.isfinite(measurement) and math.isfinite(T_w)
                and np.isfinite(preview).all()):
            for name, value in [("measurement", measurement), ("T_w", T_w),
                                *((f"setpoint preview entry {k}", v)
                                  for k, v in enumerate(preview.tolist()))]:
                if not math.isfinite(value):
                    raise NumericError(
                        f"controller {name} is not finite: {value}")
        r_now = float(preview[0])

        new_mode = self._select_mode(r_now, T_w)
        if new_mode is not self.mode:
            self.mode = new_mode
            self._x_hat = None
            self._p_hat = 0.0
            self._model = self._models[new_mode]
        model = self._model

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

        cmd = self._command(model, measurement, preview)
        if pump_on:
            d = model.d
            # the oldest of the d past commands, padded as in _command
            u_delayed = (cmd if not d else measurement if self._count < d
                         else float(self._history[-d]))
            self._x_hat = model.a * self._x_hat + model.b * u_delayed
        history = self._history
        history[:-1] = history[1:]
        history[-1] = cmd
        self._count = min(self._count + 1, history.size)
        return cmd, pump_on

    def _command(self, model: DiscreteFOPDT, measurement: float,
                 preview: np.ndarray) -> float:
        """First command of the preview QP's minimizer.

        The past d commands come from the history array; until d commands
        have been applied, the missing oldest ones are the current
        measurement.  What the controller knows, z, is written afresh each
        call, and the maps (Bemporad, Morari, Dua & Pistikopoulos, 2002) of
        the held patterns come from ``_region_map``'s cache.  Two patterns
        are tried: the last sample's, then its update by ``_update_held``.
        Where both fail the KKT test, the QP is built and solved from the
        second, and the solution's active bounds are the next sample's
        pattern.
        """
        cfg = self.cfg
        d, n = model.d, cfg.H
        history, count = self._history, self._count
        u_ref = self.ambient.T_amb
        u_prev = float(history[-1]) if count else None
        # z = [x_hat, past (d), refs[d:] - p_hat (n), u_ref or u_prev], the
        # preview held at its last value past its end
        z = np.empty(d + n + 2)
        z[0] = self._x_hat
        z_past, z_refs = z[1:d + 1], z[d + 1:-1]
        recent = history[history.size - d:]
        if count >= d:
            z_past[...] = recent
        else:
            z_past[:d - count] = measurement
            z_past[d - count:] = recent[d - count:]
        p_hat = self._p_hat
        ahead = preview[d:d + n]
        np.subtract(ahead, p_hat, z_refs[:ahead.size])
        z_refs[ahead.size:] = preview[-1] - p_hat
        z[-1] = (u_ref if u_prev is None
                 or cfg.penalty_form is PenaltyForm.MAGNITUDE else u_prev)
        lo, hi = cfg.T_min_th, cfg.T_max_th
        held = self._held
        for attempt in range(2):
            R, r, floor, ceil = self._region(held)
            y = R.dot(z) + r
            if np.count_nonzero((y >= floor) & (y <= ceil)) == n:
                self._held = held
                lower, upper = held
                return lo if 0 in lower else hi if 0 in upper else float(y[0])
            if not attempt:
                held = _update_held(held, y, floor, ceil)

        refs = np.empty(d + n)
        m = min(d + n, preview.size)
        refs[:m] = preview[:m]
        refs[m:] = preview[-1]
        qp = build_prediction(model, self._x_hat, z_past, refs - self._p_hat)
        # the solver starts from the pattern that failed last, and so
        # makes at least one update
        sol = solve_mpc(qp, cfg, u_ref=u_ref, u_prev=u_prev, held=held)
        self._held = (tuple(np.flatnonzero(sol.active_lower[:n]).tolist()),
                      tuple(np.flatnonzero(sol.active_upper[:n]).tolist()))
        return sol.command

    def _region(self, held):
        """The current mode's (R, r, floor, ceil) of pattern ``held``."""
        model, cfg = self._model, self.cfg
        return _region_map(model.a, model.b, model.d, cfg.H, cfg.W1, cfg.W2,
                           cfg.penalty_form, cfg.T_min_th, cfg.T_max_th,
                           *held)

    def steady_step(self, preview) -> SteadyStep | None:
        """The next sample's ``SteadyStep``, in the mode and pump state the
        last sample left and with its ``preview``.

        None before the first sample, which sets the mode and x_hat and
        applies the command that the increment penalty reads.  A preview
        entry that is not finite makes every check of ``steady_rows``
        fail.
        """
        model = self._model
        if model is None or self._x_hat is None or not self._count:
            return None
        preview = np.asarray(preview, dtype=float)
        d, n, size = model.d, self.cfg.H, self._history.size
        h = self.hysteresis
        pump_on = h.state
        # x_hat and p_hat after the offset update, over (x_hat, p_hat,
        # measurement); x_hat then moves on by the delayed command
        rows = np.zeros((2, size + 4))
        rows[:, size:size + 3] = _OFFSET_UPDATE[pump_on]
        if pump_on:
            rows[0] *= model.a
            if d:
                rows[0, size - d] = model.b
        # the preview held at its last value past its end
        ahead = np.ones((n, 2))
        ahead[:, 0] = preview[-1]
        ahead[:preview[d:d + n].size, 0] = preview[d:d + n]
        return SteadyStep(
            rows=rows, ahead=ahead, d=d, setpoint=float(preview[0]),
            pump_on=pump_on,
            mode_band=((-MODE_DEADBAND, math.inf) if self.mode is Mode.HEAT
                       else (-math.inf, MODE_DEADBAND)),
            pump_band=((h.off_band, math.inf) if pump_on
                       else (-math.inf, h.on_band)))

    def steady_rows(self, step: SteadyStep, held, out: np.ndarray,
                    measured: int) -> None:
        """Add pattern ``held``'s rows of ``step``'s sample to ``out``,
        whose columns are w's but for the measurement, at ``measured``, and
        the constant, last; ``step`` is of the controller's current mode.

        Rows 0 to 2n - 1 get the pattern's KKT test on its
        ``_critical_region`` vector y: y - floor, then ceil - y, a zero row
        where a bound is infinite; the sample keeps the pattern where every
        check is >= 0.  Row 2n gets the command, and without dead time and
        with the pump on, x_hat's row 2n + 1 the command's term.  The rows
        compose the offset update, z, the region map's y = R z + r and the
        command of ``step`` and ``_command``; ``out`` holds zeros where
        they go.
        """
        model, cfg = self._model, self.cfg
        d, n, size = model.d, cfg.H, self._history.size
        R, r, floor, ceil = self._region(held)
        y, above = out[:n], out[n:2 * n]
        cmd = out[2 * n]
        # y = R z + r, z = [x_hat, past (d), refs - p_hat (n), u_ref or
        # u_prev]
        to_refs, to_p_hat = (R[:, d + 1:-1] @ step.ahead).T
        y[:, size - d:size] = R[:, 1:d + 1]
        # z's x_hat and p_hat after the offset update (``_OFFSET_UPDATE``):
        # with the pump on x_hat and measurement - x_hat, with it off
        # measurement - p_hat and p_hat
        if step.pump_on:
            np.add(R[:, 0], to_p_hat, out=y[:, size])
            np.negative(to_p_hat, out=y[:, measured])
        else:
            np.negative(R[:, 0] + to_p_hat, out=y[:, size + 1])
            y[:, measured] = R[:, 0]
        y[:, -1] = to_refs + r
        if cfg.penalty_form is PenaltyForm.INCREMENT:
            y[:, size - 1] += R[:, -1]
        else:
            y[:, -1] += R[:, -1] * self.ambient.T_amb
        lower, upper = held
        if 0 in lower or 0 in upper:
            cmd[-1] = cfg.T_min_th if 0 in lower else cfg.T_max_th
        else:
            cmd[:] = y[0]
        # the checks: y - floor, then ceil - y; a command held at a bound
        # has the other one infinite
        np.negative(y, out=above)
        above[:, -1] += ceil
        y[:, -1] -= floor
        if upper:
            y[list(upper)] = 0.0
        if lower:
            above[list(lower)] = 0.0
        if step.pump_on and not d:
            out[2 * n + 1] += model.b * cmd

    @property
    def applied(self) -> int:
        """Commands applied so far, counted up to the history's length."""
        return self._count

    def steady_state(self) -> list:
        """[*history, x_hat, p_hat], the part of a ``SteadyStep``'s w
        before the measurement."""
        return [*self._history.tolist(), self._x_hat, self._p_hat]

    def load_steady(self, values, samples: int, held) -> None:
        """Take ``steady_state`` ``values`` reached by ``samples`` samples of
        ``SteadyStep`` rows, the last at pattern ``held``; those samples
        kept the mode and the pump state.  History entries not yet applied
        are never read."""
        self._history[:] = values[:-2]
        self._x_hat, self._p_hat = values[-2], values[-1]
        self._count = min(self._count + samples, self._history.size)
        self._held = held
