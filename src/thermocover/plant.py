"""Fixed-step simulation of the closed water circuit.

Three thermal nodes (copper tank, water pipe, cover) plus the Peltier
surface, which tracks its command through an optional first-order lag.
Water transport delay is deliberately absent here: the combined model's
dead time lives in the controller, not in the physical nodes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import ConfigError, NumericError
from .params import AmbientConfig, PlantParams, require_temperature

#: Default Peltier-surface lag time constant (s); 0 snaps T_p to its command.
DEFAULT_PELTIER_LAG = 2.0

#: Default Peltier pumping-power limit (W).  A thermoelectric module moves a
#: few tens of watts at most; the cap holds the plate close to the tank
#: temperature when the difference would demand more, and is what makes
#: re-heating from a deeply cooled tank measurably slower.
DEFAULT_PELTIER_POWER = 60.0


@dataclass(frozen=True)
class PlantState:
    T_p: float      # Peltier surface, deg C
    T_co: float     # copper tank
    T_w: float      # water pipe
    T_c: float      # cover

    @staticmethod
    def uniform(temp: float) -> "PlantState":
        return PlantState(T_p=temp, T_co=temp, T_w=temp, T_c=temp)


class ContactKind(enum.Enum):
    GRASP = "grasp"
    SOFT_TOUCH = "soft_touch"


#: Skin-to-cover conductances (W/K).  Only their ordering is physically
#: constrained (a grasp covers more area than a soft touch).
DEFAULT_CONDUCTANCE = {
    ContactKind.GRASP: 0.8,
    ContactKind.SOFT_TOUCH: 0.2,
}


@dataclass(frozen=True)
class ContactEvent:
    start: float
    duration: float
    kind: ContactKind
    contact_conductance: float
    T_skin: float = 33.0

    def __post_init__(self):
        if not math.isfinite(self.start):
            raise ConfigError("contact start must be finite")
        require_temperature("T_skin", self.T_skin)
        if not 0.0 < self.duration < math.inf:
            raise ConfigError("contact duration must be positive and finite")
        if not 0.0 < self.contact_conductance < math.inf:
            raise ConfigError(
                "contact conductance must be positive and finite")

    @staticmethod
    def preset(kind: ContactKind, start: float, duration: float = 5.0,
               T_skin: float = 33.0) -> "ContactEvent":
        return ContactEvent(start=start, duration=duration, kind=kind,
                            contact_conductance=DEFAULT_CONDUCTANCE[kind],
                            T_skin=T_skin)

    def active(self, t: float) -> bool:
        return self.start <= t <= self.start + self.duration


def contact_heat_flow(event: ContactEvent, T_c: float, t: float) -> float:
    """Heat flow from skin into the cover while the event window is open."""
    if not event.active(t):
        return 0.0
    return event.contact_conductance * (event.T_skin - T_c)


def pump_flow(T_co: float, T_w: float, pump_on: bool,
              params: PlantParams) -> float:
    """Convective tank-to-pipe heat flow q_w; zero with the pump stopped."""
    if not pump_on:
        return 0.0
    return (T_co - T_w) / params.R_w


def estimate_q_aw(T_w: float, T_amb: float, R_aw: float) -> float:
    """Ambient-exchange heat flow q_aw into the water pipe (negative = loss)."""
    if R_aw <= 0.0:
        raise ConfigError("R_aw must be positive")
    return (T_amb - T_w) / R_aw


def step_plant(state: PlantState, T_p_cmd: float, pump_on: bool, q_i: float,
               params: PlantParams, ambient: AmbientConfig, dt: float,
               peltier_lag: float = DEFAULT_PELTIER_LAG,
               peltier_power: float = DEFAULT_PELTIER_POWER, *,
               n_sub: int = 1, contacts: tuple = (),
               t: float = 0.0) -> PlantState:
    """Advance the plant ``n_sub`` RK4 substeps of length dt.

    The contact heat flow ``q_i`` is held constant across the call.  Each
    event in ``contacts`` adds its ``contact_heat_flow`` to it, in order,
    re-evaluated before substep j from time ``t + j * dt`` and that
    substep's T_c; so one call covers a whole control sample.
    ``peltier_lag`` = 0 snaps the plate to its command; ``peltier_power`` =
    inf removes the actuator limit.
    """
    # written as `not x > 0` so that NaN fails too
    if not dt > 0.0:
        raise ConfigError("dt must be positive")
    if not peltier_lag >= 0.0:
        raise ConfigError("peltier_lag must be non-negative")
    if not peltier_power > 0.0:
        raise ConfigError("peltier_power must be positive (inf: no limit)")
    if not n_sub >= 1:
        raise ConfigError("n_sub must be at least 1")
    R_co, R_c, R_aw = params.R_co, params.R_c, params.R_aw
    C_co, C_w, C_c = params.C_co, params.C_w, params.C_c
    limit = 0.5 * min(R_c * C_c, R_co * C_co)
    if dt > limit:
        raise ConfigError(
            f"dt = {dt} s exceeds the stability margin {limit:.3g} s"
        )
    T_amb = ambient.T_amb
    lagged = peltier_lag > 0.0
    capped = peltier_power < math.inf
    q = q_i

    def f(T_p, T_co, T_w, T_c):
        dT_p = (T_p_cmd - T_p) / peltier_lag if lagged else 0.0
        q_w = pump_flow(T_co, T_w, pump_on, params)
        q_aw = estimate_q_aw(T_w, T_amb, R_aw)
        # actuator limit: the plate can hold at most peltier_power across R_co
        q_p = (T_p - T_co) / R_co
        if capped:
            if q_p > peltier_power:
                q_p = peltier_power
            elif q_p < -peltier_power:
                q_p = -peltier_power
        q_c = (T_w - T_c) / R_c
        return (dT_p, (q_p - q_w) / C_co, (q_w + q_aw - q_c) / C_w,
                (q_c + q) / C_c)

    # RK4 on plain floats.  Keep the order of every operation (y + h * k
    # with h = dt / 2, no reciprocals): reordering changes the trace bits.
    y0 = state.T_p if lagged else T_p_cmd
    y1, y2, y3 = state.T_co, state.T_w, state.T_c
    h = 0.5 * dt
    for j in range(n_sub):
        if contacts:
            # a loop, not sum() over a generator: a closure over y3 and dt
            # would slow every RK4 stage
            t_sub = t + j * dt
            q = q_i
            for c in contacts:
                q += contact_heat_flow(c, y3, t_sub)
        a0, a1, a2, a3 = f(y0, y1, y2, y3)
        b0, b1, b2, b3 = f(y0 + h * a0, y1 + h * a1, y2 + h * a2,
                           y3 + h * a3)
        c0, c1, c2, c3 = f(y0 + h * b0, y1 + h * b1, y2 + h * b2,
                           y3 + h * b3)
        d0, d1, d2, d3 = f(y0 + dt * c0, y1 + dt * c1, y2 + dt * c2,
                           y3 + dt * c3)
        y0 = y0 + dt * (a0 + 2.0 * b0 + 2.0 * c0 + d0) / 6.0
        y1 = y1 + dt * (a1 + 2.0 * b1 + 2.0 * c1 + d1) / 6.0
        y2 = y2 + dt * (a2 + 2.0 * b2 + 2.0 * c2 + d2) / 6.0
        y3 = y3 + dt * (a3 + 2.0 * b3 + 2.0 * c3 + d3) / 6.0
        if not (math.isfinite(y0) and math.isfinite(y1)
                and math.isfinite(y2) and math.isfinite(y3)):
            raise NumericError("non-finite plant state")
    return PlantState(T_p=y0, T_co=y1, T_w=y2, T_c=y3)
