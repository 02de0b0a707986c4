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

The map keeps the plate flow after each substep as one slack row, and an
interval that holds every slack row in coordinates relative to the plate
command and the tank.  A call first tries to prove its start's cap status
at every substep end from that interval, a dozen products; only where the
interval cannot does it check the slack rows one by one.
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


class _SampleMap(NamedTuple):
    """One call's exact map, as coefficients over (T_p, T_co, T_w, T_c,
    T_p_cmd, T_amb, q, 1), where the held contact flow is q - g T_c."""

    rows: tuple     # the new T_p (lagged plate only), T_co, T_w, T_c
    slack: tuple    # the plate flow (T_p - T_co) / R_co after each substep
    # the slack rows' interval over u = (T_p - T_p_cmd, T_w - T_co,
    # T_c - T_co, T_p_cmd - T_co, T_amb - T_co, q, 1): centre row, spread
    # row, then the bound on the temperature sums that multiplies |T_co|;
    # None for a call of at most _PROOF_MIN_SUBSTEPS or without a cap
    proof: tuple | None


#: Maps kept: both modes and pump states of a run, each cap status, a few
#: contact loads and plate settings, and the one-substep maps of the walk.
_MAP_CACHE_SIZE = 64

#: Longest call served from one map, which keeps one slack row per
#: substep; a longer call walks its substeps.
_MAX_MAP_SUBSTEPS = 100

#: Longest call whose slack rows are checked one by one without first
#: trying the interval proof of its cap status.
_PROOF_MIN_SUBSTEPS = 2

#: Relative padding of the proof's spread: the 8-term sums of a slack row
#: and of the proof itself round by less than 64 ulp of the sum of their
#: terms' magnitudes, far below this.
_PROOF_PAD = 2.0 ** -40

#: Equal parts a substep is re-run in where the cap status at its end
#: differs from its start, each held at the status at the part's start.
_CAP_PARTS = 8


# typed, so that a float n_sub misses every int key and reaches the check
@functools.lru_cache(maxsize=_MAP_CACHE_SIZE, typed=True)
# a constant large enough to overflow is reported by the check at the end
@np.errstate(all="ignore")
def _sample_map(params, pump_on, cap, peltier_lag, peltier_power, dt, n_sub,
                conductance) -> _SampleMap:
    """Read-only map of ``n_sub`` substeps at cap status ``cap`` (-1, 0 or
    +1) with contacts of summed ``conductance`` open throughout."""
    _check_step(params, dt, peltier_lag, peltier_power, n_sub, conductance)
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
    for _ in range(n_sub):
        M = S @ M
        if capped:
            slack.append((M[0] - M[1]) / params.R_co)
    rows = M[:4] if peltier_lag > 0.0 else M[1:4]
    if not (np.all(np.isfinite(rows)) and np.all(np.isfinite(slack))):
        raise NumericError(f"the plant's map over {n_sub} substeps of "
                           f"{dt} s is not finite")
    proof = None
    if capped and n_sub > _PROOF_MIN_SUBSTEPS:
        proof = _slack_interval(np.array(slack))
    return _SampleMap(tuple(tuple(r.tolist()) for r in rows),
                      tuple(tuple(r.tolist()) for r in slack), proof)


def _slack_interval(slack: np.ndarray) -> tuple:
    """``_SampleMap.proof`` of the slack rows a, one row per substep.

    Row j is a_j . z = c_j . u + s_j T_co, where c_j takes a_j's entries
    to u's coordinates and s_j sums its six temperature entries (zero but
    for rounding and the contact term -g T_c).  Each c_j lies within the
    centre row plus or minus the spread row, and |s_j| within the bound
    returned last.  The spread and the bound are padded by ``_PROOF_PAD``
    times the rows' magnitudes over u and over T_co, which covers how far
    the computed slack and the computed interval round from the exact.
    """
    a0, a1, a2, a3, a4, a5, a6, a7 = slack.T
    c = np.array([a0, a2, a3, a0 + a4, a5, a6, a7])
    size = np.array([abs(a0), abs(a2), abs(a3), abs(a0) + abs(a4), abs(a5),
                     abs(a6), abs(a7)]).max(axis=1)
    hi, lo = c.max(axis=1), c.min(axis=1)
    mid = 0.5 * (hi + lo)
    spread = np.maximum(hi - mid, mid - lo) + _PROOF_PAD * size
    temps = slack[:, :6]
    sums = np.max(np.abs(temps.sum(axis=1))
                  + _PROOF_PAD * np.abs(temps).sum(axis=1))
    return (*mid.tolist(), *spread.tolist(), float(sums))


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

    The call applies its regime's cached exact map on plain floats.  Where
    a contact window opens or closes inside the call, the cap status at a
    substep end differs from the start, or the call is longer than
    ``_MAX_MAP_SUBSTEPS``, it walks the substeps (``_walk``) instead.
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
    x = state if peltier_lag > 0.0 else (T_p_cmd, *state[1:])
    regime = (params, pump_on, peltier_lag, peltier_power)
    new = None
    if not edge and n_sub <= _MAX_MAP_SUBSTEPS:
        new = _advance(x, T_p_cmd, ambient.T_amb, q, regime, dt, n_sub, g)
    if new is None:
        _check_step(params, dt, peltier_lag, peltier_power, n_sub, g_near)
        new = _walk(x, T_p_cmd, ambient.T_amb, q_i, regime, dt, n_sub,
                    contacts, t)
    if not all(map(math.isfinite, new)):
        raise NumericError("non-finite plant state")
    return PlantState._make(new)


def _advance(x, T_p_cmd, T_amb, q, regime, dt, n_sub, conductance,
             strict=True):
    """State ``x`` after ``n_sub`` substeps of the map of its cap status;
    None where ``strict`` and the status at a substep end differs.

    The status is first proven at every substep end at once from the map's
    slack interval (``_proven``); where the interval straddles a cap, each
    slack row is evaluated.  The interval is padded for rounding, so it
    never shows a status that the rows would not.
    """
    T_p, T_co, T_w, T_c = x
    params, pump_on, peltier_lag, peltier_power = regime
    cap = cap_status(T_p, T_co, params.R_co, peltier_power)
    rows, slack, proof = _sample_map(params, pump_on, cap, peltier_lag,
                                     peltier_power, dt, n_sub, conductance)
    if strict and (proof is None or not _proven(
            proof, cap, peltier_power, T_p, T_co, T_w, T_c, T_p_cmd, T_amb,
            q)):
        for a0, a1, a2, a3, a4, a5, a6, a7 in slack:
            q_p = (a0 * T_p + a1 * T_co + a2 * T_w + a3 * T_c + a4 * T_p_cmd
                   + a5 * T_amb + a6 * q + a7)
            if (q_p > peltier_power) - (q_p < -peltier_power) != cap:
                return None
    new = [a0 * T_p + a1 * T_co + a2 * T_w + a3 * T_c + a4 * T_p_cmd
           + a5 * T_amb + a6 * q + a7
           for a0, a1, a2, a3, a4, a5, a6, a7 in rows]
    return new if peltier_lag > 0.0 else [T_p_cmd, *new]


def cap_status(T_p, T_co, R_co, peltier_power) -> int:
    """+1 or -1 where the plate's flow (T_p - T_co) / R_co into the tank
    passes the power cap that way, 0 within it."""
    q_p = (T_p - T_co) / R_co
    return (q_p > peltier_power) - (q_p < -peltier_power)


class SteadyCall(NamedTuple):
    """A contact-free ``step_plant`` call's exact map at one cap status:
    where ``keeps_cap`` holds, the call returns ``rows`` @ (T_p, T_co, T_w,
    T_c, T_p_cmd, T_amb, q, 1), q the held contact flow."""

    rows: np.ndarray    # 4 x 8; the plate row is T_p_cmd's without a lag
    cap: int
    lagged: bool
    power: float
    R_co: float
    proof: tuple | None   # None without a cap


#: Steady calls kept: both modes and pump states of a run at each cap
#: status, 256 bytes of rows each.
_STEADY_CACHE_SIZE = 16


@functools.lru_cache(maxsize=_STEADY_CACHE_SIZE, typed=True)
def steady_call(params, pump_on, cap, peltier_lag, peltier_power, dt,
                n_sub) -> SteadyCall | None:
    """The read-only ``SteadyCall`` of a contact-free call at cap status
    ``cap``; None where ``step_plant`` walks such a call, or checks its
    slack rows one by one."""
    if n_sub > _MAX_MAP_SUBSTEPS:
        return None
    rows, slack, proof = _sample_map(params, pump_on, cap, peltier_lag,
                                     peltier_power, dt, n_sub, 0.0)
    if slack and proof is None:
        return None
    rows = np.array(rows)
    lagged = peltier_lag > 0.0
    if not lagged:
        # the plate snaps to its command, before the substeps and after
        rows[:, 4] += rows[:, 0]
        rows[:, 0] = 0.0
        rows = np.vstack((np.eye(8)[4], rows))
    rows.flags.writeable = False
    return SteadyCall(rows, cap, lagged, peltier_power, params.R_co, proof)


def keeps_cap(call: SteadyCall, T_p, T_co, T_w, T_c, T_p_cmd, T_amb) -> bool:
    """Whether ``step_plant`` from this state and command, with no contact,
    applies ``call``'s map, where T_p is at its cap status: the plate at
    its command is too, and ``call``'s interval proves that every substep
    end stays there."""
    cap, power = call.cap, call.power
    if not call.lagged:
        T_p = T_p_cmd
        if cap_status(T_p, T_co, call.R_co, power) != cap:
            return False
    return call.proof is None or _proven(call.proof, cap, power, T_p, T_co,
                                         T_w, T_c, T_p_cmd, T_amb, 0.0)


def _proven(proof, cap, power, T_p, T_co, T_w, T_c, T_p_cmd, T_amb, q):
    """Whether ``proof`` shows every slack row at cap status ``cap``."""
    m0, m1, m2, m3, m4, m5, m6, r0, r1, r2, r3, r4, r5, r6, sums = proof
    u0, u1, u2 = T_p - T_p_cmd, T_w - T_co, T_c - T_co
    u3, u4 = T_p_cmd - T_co, T_amb - T_co
    mid = m0 * u0 + m1 * u1 + m2 * u2 + m3 * u3 + m4 * u4 + m5 * q + m6
    rad = (r0 * abs(u0) + r1 * abs(u1) + r2 * abs(u2) + r3 * abs(u3)
           + r4 * abs(u4) + r5 * abs(q) + r6 + sums * abs(T_co))
    if cap > 0:
        return mid - rad > power
    if cap < 0:
        return mid + rad < -power
    return -power <= mid - rad and mid + rad <= power


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
