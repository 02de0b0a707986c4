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
from .params import AmbientConfig, PlantParams

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
    pump_on: bool
    t: float        # simulation clock, s

    @staticmethod
    def uniform(temp: float, t: float = 0.0) -> "PlantState":
        return PlantState(T_p=temp, T_co=temp, T_w=temp, T_c=temp,
                          pump_on=False, t=t)


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
        if self.duration <= 0.0:
            raise ConfigError("contact duration must be positive")
        if self.contact_conductance <= 0.0:
            raise ConfigError("contact conductance must be positive")

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


def _derivs(T_p, T_co, T_w, T_c, T_p_cmd, pump_on, q_i, params, ambient,
            peltier_lag, peltier_power):
    if peltier_lag > 0.0:
        dT_p = (T_p_cmd - T_p) / peltier_lag
    else:
        dT_p = 0.0
    q_w = pump_flow(T_co, T_w, pump_on, params)
    q_aw = estimate_q_aw(T_w, ambient.T_amb, params.R_aw)
    # actuator limit: the plate can hold at most peltier_power across R_co
    q_p = (T_p - T_co) / params.R_co
    if math.isfinite(peltier_power):
        q_p = max(-peltier_power, min(peltier_power, q_p))
    dT_co = (q_p - q_w) / params.C_co
    dT_w = (q_w + q_aw - (T_w - T_c) / params.R_c) / params.C_w
    dT_c = ((T_w - T_c) / params.R_c + q_i) / params.C_c
    return dT_p, dT_co, dT_w, dT_c


def step_plant(state: PlantState, T_p_cmd: float, pump_on: bool, q_i: float,
               params: PlantParams, ambient: AmbientConfig, dt: float,
               peltier_lag: float = DEFAULT_PELTIER_LAG,
               peltier_power: float = DEFAULT_PELTIER_POWER) -> PlantState:
    """Advance the plant one RK4 step of length dt.

    The contact heat flow ``q_i`` is held constant across the step; callers
    re-evaluate it at the substep rate.
    """
    if dt <= 0.0:
        raise ConfigError("dt must be positive")
    limit = 0.5 * min(params.R_c * params.C_c, params.R_co * params.C_co)
    if dt > limit:
        raise ConfigError(
            f"dt = {dt} s exceeds the stability margin {limit:.3g} s"
        )

    T_p0 = state.T_p if peltier_lag > 0.0 else T_p_cmd
    y = (T_p0, state.T_co, state.T_w, state.T_c)

    def f(v):
        return _derivs(*v, T_p_cmd, pump_on, q_i, params, ambient,
                       peltier_lag, peltier_power)

    k1 = f(y)
    k2 = f(tuple(yi + 0.5 * dt * ki for yi, ki in zip(y, k1)))
    k3 = f(tuple(yi + 0.5 * dt * ki for yi, ki in zip(y, k2)))
    k4 = f(tuple(yi + dt * ki for yi, ki in zip(y, k3)))
    new = tuple(
        yi + dt * (a + 2.0 * b + 2.0 * c + d) / 6.0
        for yi, a, b, c, d in zip(y, k1, k2, k3, k4)
    )
    if not all(math.isfinite(v) for v in new):
        raise NumericError(f"non-finite plant state at t = {state.t + dt:.6g} s")
    return PlantState(T_p=new[0], T_co=new[1], T_w=new[2], T_c=new[3],
                      pump_on=pump_on, t=state.t + dt)
