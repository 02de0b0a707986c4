"""Fixed-step simulation of the closed water circuit.

Three thermal nodes (copper tank, water pipe, cover) plus the Peltier
surface, which tracks its command through an optional first-order lag.
Water transport delay is deliberately absent here: the combined model's
dead time lives in the controller, not in the physical nodes.

``network_matrices`` writes the RC network once; ``sysid`` fits its
three-node block.  Over one substep the network is affine in [T_p, T_co,
T_w, T_c] once its regime is fixed: the pump state, the Peltier cap
status (slack, +cap or -cap) and the contact windows open.  So each
substep is one exponential of the augmented block matrix (Van Loan 1978),
with the contact flow held over the substep, and a ``step_plant`` call
applies a cached map that chains its substeps exactly.  Where the regime
changes inside the call, it walks the substeps one map each, and re-runs
a substep whose cap status changes inside it in shorter parts.

The map keeps the plate flow after each substep as one slack row, and a
call checks each row against the bounds of its start's cap status
(``cap_bounds``).  Without a plate lag the map starts the plate at its
command, and a first slack row checks the flow there.  ``sample_map``
builds and caches each map once, as arrays for the composed closed-loop
maps, which check the slack rows within their own product, and as tuples
for ``step_plant``.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import expm

from .errors import ConfigError, NumericError
from .params import AmbientConfig, PlantParams, require_temperature

#: Default Peltier-surface lag time constant (s); 0 snaps T_p to its command.
DEFAULT_PELTIER_LAG = 2.0

#: Default Peltier pumping-power limit (W).  A thermoelectric module moves a
#: few tens of watts at most; the cap holds the plate close to the tank
#: temperature when the difference would demand more, and is what makes
#: re-heating from a deeply cooled tank measurably slower.
DEFAULT_PELTIER_POWER = 60.0


class PlantState(NamedTuple):
    """The node temperatures, read-only.  A named tuple, so that
    ``step_plant`` builds each sample's state at a tuple's cost."""

    T_p: float      # Peltier surface, deg C
    T_co: float     # copper tank
    T_w: float      # water pipe
    T_c: float      # cover

    @staticmethod
    def uniform(temp: float) -> "PlantState":
        return PlantState(temp, temp, temp, temp)


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

    def touches(self, t0: float, t1: float) -> bool:
        """Whether the window is open anywhere in [t0, t1]."""
        return self.start <= t1 and t0 <= self.start + self.duration


def contact_heat_flow(event: ContactEvent, T_c: float, t: float) -> float:
    """Heat flow from skin into the cover while the event window is open."""
    if not event.active(t):
        return 0.0
    return event.contact_conductance * (event.T_skin - T_c)


def pump_flow(T_co, T_w, pump_on, params: PlantParams) -> np.ndarray:
    """Convective tank-to-pipe heat flow q_w; zero with the pump stopped.

    Takes one sample's values or equal-length records of them.
    """
    return np.where(pump_on, (T_co - T_w) / params.R_w, 0.0)


def estimate_q_aw(T_w, T_amb: float, R_aw: float):
    """Ambient-exchange heat flow q_aw into the water pipe (negative = loss).

    Takes one sample's pipe temperature or a record of them, and returns a
    float or a record to match.
    """
    if R_aw <= 0.0:
        raise ConfigError("R_aw must be positive")
    return (T_amb - T_w) / R_aw


def network_matrices(R_w, C_w, R_c, C_c, R_aw, C_co, R_co, pump_on,
                     peltier_lag=0.0, at_cap=False):
    """The network's continuous dynamics dx/dt = A x + B u, as (A, B).

    State x = [T_p, T_co, T_w, T_c].  Inputs u = [T_p_cmd, T_amb, q_c,
    q_p]: the plate command, the room, the heat flow into the cover from
    outside, and the plate's heat flow into the tank while the actuator is
    at its power cap (``at_cap``), which then replaces the R_co link.
    ``peltier_lag`` = 0 holds T_p where it starts.
    """
    gw = 1.0 / R_w if pump_on else 0.0
    gp = 0.0 if at_cap else 1.0 / R_co
    gl = 1.0 / peltier_lag if peltier_lag > 0.0 else 0.0
    A = np.array([
        [-gl, 0.0, 0.0, 0.0],
        [0.0 if at_cap else 1.0 / (R_co * C_co), -(gp + gw) / C_co,
         gw / C_co, 0.0],
        [0.0, gw / C_w, -(gw + 1.0 / R_aw + 1.0 / R_c) / C_w,
         1.0 / (R_c * C_w)],
        [0.0, 0.0, 1.0 / (R_c * C_c), -1.0 / (R_c * C_c)],
    ])
    B = np.array([
        [gl, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0 / C_co],
        [0.0, 1.0 / (R_aw * C_w), 0.0, 0.0],
        [0.0, 0.0, 1.0 / C_c, 0.0],
    ])
    return A, B


def max_stable_dt(params: PlantParams, conductance: float = 0.0) -> float:
    """Longest substep (s) ``step_plant`` accepts: the cover's time constant
    with ``conductance`` (W/K) of contact in parallel.  The contact flow is
    held over each substep, and beyond that it overshoots the skin."""
    return params.C_c / (1.0 / params.R_c + conductance)


def _check_step(params, dt, peltier_lag, peltier_power, n_sub, conductance):
    # written as `not x > 0` so that NaN fails too
    if not dt > 0.0:
        raise ConfigError("dt must be positive")
    if not peltier_lag >= 0.0:
        raise ConfigError("peltier_lag must be non-negative")
    if not peltier_power > 0.0:
        raise ConfigError("peltier_power must be positive (inf: no limit)")
    try:
        n_sub = operator.index(n_sub)
    except TypeError:
        raise ConfigError(
            f"n_sub must be an integer, got {n_sub!r}") from None
    if not n_sub >= 1:
        raise ConfigError("n_sub must be at least 1")
    limit = max_stable_dt(params, conductance)
    if dt > limit:
        raise ConfigError(
            f"dt = {dt} s exceeds the stability margin {limit:.3g} s"
        )


class SampleMap(NamedTuple):
    """A call's exact map at cap status ``cap``, as coefficients over
    (T_p, T_co, T_w, T_c, T_p_cmd, T_amb, q, 1), where the held contact
    flow is q - g T_c.  Where every ``slack`` row lies within ``bounds``,
    the call applies this map and returns ``rows``."""

    rows: np.ndarray    # 4 x 8; the plate row is T_p_cmd's without a lag
    # the plate flow after each substep, none without a cap; without a lag
    # led by the flow at the start, from the plate at its command
    slack: np.ndarray
    cap: int
    bounds: tuple       # cap_bounds(cap, peltier_power)
    # rows and slack as tuples of floats, which _advance sums one by one
    row_terms: tuple
    slack_terms: tuple


#: Maps kept: both modes and pump states of a run, each cap status, a few
#: contact loads and plate settings, and the one-substep maps of the walk;
#: the six built-ins build 41.
_MAP_CACHE_SIZE = 64

#: Longest call served from one map, which keeps one slack row per
#: substep; a longer call walks its substeps.
_MAX_MAP_SUBSTEPS = 100

#: Equal parts a substep is re-run in where the cap status at its end
#: differs from its start, each held at the status at the part's start.
_CAP_PARTS = 8


# typed, so that a float n_sub misses every int key and reaches the check
@functools.lru_cache(maxsize=_MAP_CACHE_SIZE, typed=True)
# a constant large enough to overflow is reported by the check at the end
@np.errstate(all="ignore")
def sample_map(params, pump_on, cap, peltier_lag, peltier_power, dt, n_sub,
               conductance) -> SampleMap | None:
    """The read-only ``SampleMap`` of ``n_sub`` substeps at cap status
    ``cap`` (-1, 0 or +1) with contacts of summed ``conductance`` open
    throughout; None above ``_MAX_MAP_SUBSTEPS``, where a call walks."""
    _check_step(params, dt, peltier_lag, peltier_power, n_sub, conductance)
    if n_sub > _MAX_MAP_SUBSTEPS:
        return None
    A, B = network_matrices(params.R_w, params.C_w, params.R_c, params.C_c,
                            params.R_aw, params.C_co, params.R_co, pump_on,
                            peltier_lag, at_cap=cap != 0)
    aug = np.zeros((8, 8))
    aug[:4, :4], aug[:4, 4:] = A, B
    E = expm(aug * dt)
    # one substep on z = [x, T_p_cmd, T_amb, q, 1], the contact flow
    # q - g T_c held from the substep's start and q_p at the cap
    S = np.eye(8)
    S[:4, :7] = E[:4, :7]
    S[:4, 3] -= conductance * E[:4, 6]
    S[:4, 7] = E[:4, 7] * (cap * peltier_power) if cap else 0.0
    capped = peltier_power < math.inf
    M = np.eye(8)
    slack = []
    if not peltier_lag > 0.0:
        # the plate snaps to its command, which no substep moves
        M[0] = M[4]
        if capped:
            slack.append((M[0] - M[1]) / params.R_co)
    for _ in range(n_sub):
        M = S @ M
        if capped:
            slack.append((M[0] - M[1]) / params.R_co)
    rows, slack = M[:4], np.array(slack).reshape(-1, 8)
    if not (np.all(np.isfinite(rows)) and np.all(np.isfinite(slack))):
        raise NumericError(f"the plant's map over {n_sub} substeps of "
                           f"{dt} s is not finite")
    for m in (rows, slack):
        m.flags.writeable = False
    return SampleMap(rows, slack, cap, cap_bounds(cap, peltier_power),
                     tuple(map(tuple, rows.tolist())),
                     tuple(map(tuple, slack.tolist())))


def step_plant(state: PlantState, T_p_cmd: float, pump_on: bool, q_i: float,
               params: PlantParams, ambient: AmbientConfig, dt: float,
               peltier_lag: float = DEFAULT_PELTIER_LAG,
               peltier_power: float = DEFAULT_PELTIER_POWER, *,
               n_sub: int = 1, contacts: tuple = (),
               t: float = 0.0) -> PlantState:
    """Advance the plant ``n_sub`` substeps of length dt.

    The contact heat flow ``q_i`` is held constant across the call.  Each
    event in ``contacts`` adds its ``contact_heat_flow`` to it, in order,
    re-evaluated before substep j from time ``t + j * dt`` and that
    substep's T_c, and held over the substep; so one call covers a whole
    control sample.  ``peltier_lag`` = 0 snaps the plate to its command;
    ``peltier_power`` = inf removes the actuator limit.

    The call applies its regime's cached ``sample_map`` on plain floats,
    after checking the map's slack rows against the cap status of its
    start, the plate at its command without a lag.  Where a contact window
    opens or closes inside the call, a slack row leaves that status, or
    the call is longer than ``_MAX_MAP_SUBSTEPS``, it walks the substeps
    (``_walk``) instead.
    """
    # the held contact flow is q - g T_c; g_near adds the windows that
    # open or close inside the call
    q, g, g_near, edge = q_i, 0.0, 0.0, False
    if contacts:
        last = t + (n_sub - 1) * dt
        for c in contacts:
            if c.touches(t, last):
                g_near += c.contact_conductance
                if c.start <= t and last <= c.start + c.duration:
                    g += c.contact_conductance
                    q += c.contact_conductance * c.T_skin
                else:
                    edge = True
    regime = (params, pump_on, peltier_lag, peltier_power)
    new = None
    if not edge:
        new = _advance(state, T_p_cmd, ambient.T_amb, q, regime, dt, n_sub,
                       g)
    if new is None:
        _check_step(params, dt, peltier_lag, peltier_power, n_sub, g_near)
        new = _walk(state, T_p_cmd, ambient.T_amb, q_i, regime, dt, n_sub,
                    contacts, t)
    if not all(map(math.isfinite, new)):
        raise NumericError("non-finite plant state")
    return PlantState._make(new)


def _advance(x, T_p_cmd, T_amb, q, regime, dt, n_sub, conductance,
             strict=True):
    """State ``x`` after ``n_sub`` substeps of the map of its cap status,
    taken from the plate's command without a lag; None where the call has
    no map, or where ``strict`` and a slack row leaves that status's
    ``cap_bounds``."""
    T_p, T_co, T_w, T_c = x
    params, pump_on, peltier_lag, peltier_power = regime
    cap = cap_status(T_p if peltier_lag > 0.0 else T_p_cmd, T_co,
                     params.R_co, peltier_power)
    smap = sample_map(params, pump_on, cap, peltier_lag, peltier_power, dt,
                      n_sub, conductance)
    if smap is None:
        return None
    if strict:
        lo, hi = smap.bounds
        for a0, a1, a2, a3, a4, a5, a6, a7 in smap.slack_terms:
            if not lo <= (a0 * T_p + a1 * T_co + a2 * T_w + a3 * T_c
                          + a4 * T_p_cmd + a5 * T_amb + a6 * q + a7) <= hi:
                return None
    return [a0 * T_p + a1 * T_co + a2 * T_w + a3 * T_c + a4 * T_p_cmd
            + a5 * T_amb + a6 * q + a7
            for a0, a1, a2, a3, a4, a5, a6, a7 in smap.row_terms]


def cap_status(T_p, T_co, R_co, peltier_power) -> int:
    """+1 or -1 where the plate's flow (T_p - T_co) / R_co into the tank
    passes the power cap that way, 0 within it."""
    q_p = (T_p - T_co) / R_co
    return (q_p > peltier_power) - (q_p < -peltier_power)


def cap_bounds(cap, peltier_power) -> tuple:
    """The closed range (lo, hi) of the plate flows at cap status ``cap``,
    by ``cap_status``'s comparisons: a flow equal to the cap is slack."""
    if cap > 0:
        return math.nextafter(peltier_power, math.inf), math.inf
    if cap < 0:
        return -math.inf, math.nextafter(-peltier_power, -math.inf)
    return -peltier_power, peltier_power


def _walk(x, T_p_cmd, T_amb, q_i, regime, dt, n_sub, contacts, t):
    """``step_plant`` one substep at a time, each substep's contact flow
    held from its start; a substep that leaves its start's cap status is
    re-run in ``_CAP_PARTS`` parts."""
    h = dt / _CAP_PARTS
    for j in range(n_sub):
        q = q_i
        for c in contacts:
            q += contact_heat_flow(c, x[3], t + j * dt)
        new = _advance(x, T_p_cmd, T_amb, q, regime, dt, 1, 0.0)
        if new is None:
            for _ in range(_CAP_PARTS):
                x = _advance(x, T_p_cmd, T_amb, q, regime, h, 1, 0.0,
                             strict=False)
        else:
            x = new
    return x
