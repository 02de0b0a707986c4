"""Closed-loop simulation: controller and plant in lockstep, then the
contact observer, which nothing in the loop reads, over the whole record.

The controller runs at the sample rate t_s; the plant steps at the substep
rate dt, in one ``step_plant`` call per sample: one cached exact map of the
sample's regime, or one such map per substep where the Peltier cap status
or a contact window changes inside the sample.  Everything is
deterministic: the same scenario always produces a bit-identical trace.

Most samples keep what the one before decided: the controller's mode, pump
state and held pattern, the plant's cap status, and the setpoint.  Such a
sample is affine in s = [*history, x_hat, p_hat, T_p, T_co, T_w, T_c, 1],
so the controller's rows and the plant's ``sample_map`` rows multiply
into one matrix G per such key, and a sample is one product v = G @ s:
the held pattern's KKT checks, the command and the rest of the next s,
whose history is s's shifted one place, and the plant's slack rows, the
plate flow after each substep.  ``_compose`` builds, once per mode, pump
state and cap status, a base of every row that no held pattern changes,
from the controller's ``steady_step``; a pattern's G is a copy of it, to
which the controller's ``steady_rows`` adds the checks and the command,
and ``_held_map`` the command's terms in the plant's rows.  Until the
controller has applied d commands, the history entries not yet applied
hold the sample's measurement, as ``step`` pads them.  The sample checks
its mode and pump bands on floats, the KKT checks, and its plate flows
against the bounds of the cap status (``SampleMap.bounds``); where the
KKT checks fail, it tries the pattern's one update, the solver's first
from that pattern.  The first sample, a sample that fails a check or
whose result is not finite, and one that a contact window or a setpoint
change reaches run the controller's ``step`` and ``step_plant`` instead,
from the state loaded back out of s.  The decisions are those of the
per-sample path; the values differ from it by rounding.

The setpoint changes where a sample's time reaches the end of its segment
(``ScenarioSpec.segments``).  A new preview is made there and kept
read-only until the next change, because both paths share it: the
setpoint's composed maps are built from it and dropped only at the
change, and the controller's ``step`` reads it on every sample it runs.
The plant constants are looked up where the controller switches mode, and
a scenario without contacts skips the contact sums.
"""

from __future__ import annotations

import copy
import math
from typing import NamedTuple

import numpy as np

from .errors import ThermocoverError
from .mpc import SteadyStep, ThermalController, update_from_checks
from .observer import build_observer, observer_step
from .params import Mode, preset_params
from .plant import (PlantState, SampleMap, cap_status, contact_heat_flow,
                    estimate_q_aw, pump_flow, sample_map, step_plant)
from .scenario import ScenarioSpec
from .trace import SimTrace

#: Composed maps and their bases a run keeps per setpoint, counted
#: together, oldest dropped first.  Each is (2 H + 8 + n_sub) x (d + 7)
#: floats for the largest dead time d, one row more without a plate lag:
#: 24 KB on the staircases (d = 45, H = 20, n_sub = 10) and 45 KB on the
#: touch protocols (d = 90), so at most 0.10 and 0.18 MB.
#: With 8, the three staircases would build 235 maps and 68 bases, not 251
#: and 103: about 0.7 ms of builds, 1 % of their run time.
_MAX_COMPOSED = 4


def simulate(scenario: ScenarioSpec) -> SimTrace:
    """Run a scenario to completion and return the sampled trace."""
    t_s = scenario.t_s
    n_samples = round(scenario.duration / t_s)
    n_sub = round(t_s / scenario.dt)
    ambient = scenario.ambient

    controller = ThermalController(
        cfg=scenario.controller,
        ambient=ambient,
        target=scenario.target,
        hysteresis=scenario.pump,
    )
    # the plant constants of each controller mode
    presets = {m: preset_params(m, scenario.target) for m in Mode}
    preview_len = controller.preview_length
    node = scenario.target.node
    node_index = PlantState._fields.index(node)
    tc = scenario.observer_tc
    observer_filter = None if tc <= 0.0 else (tc, tc)
    dt, lag, power = scenario.dt, scenario.peltier_lag, scenario.peltier_power
    contacts = scenario.contacts
    # samples a contact window may reach, widened by one on each side
    tail = (n_sub - 1) * dt
    near = sorted((math.floor((c.start - tail) / t_s) - 1,
                   math.ceil((c.start + c.duration) / t_s) + 1)
                  for c in contacts)
    # the setpoint segments' values and ends, in order
    segments = scenario.segments()
    ends = [end for _, end, _ in segments] + [math.inf]
    values = [value for _, _, value in segments]
    values.append(values[-1] if values else scenario.start_temp)

    state = PlantState.uniform(scenario.start_temp)

    # the controller's mode per sample, and the modes visited, in order
    rows, modes, visited = [], [], {}
    # the setpoint and its preview, and the controller's mode and its
    # plant constants, as of the last change
    setpoint = preview = mode = params = None
    # the composed maps of this setpoint, keyed on (mode, pump state, held
    # pattern, cap status), and their bases, on (mode, pump state, cap
    # status); None where a key has none
    composed = {}

    def keep(key, entry):
        if len(composed) == _MAX_COMPOSED:
            del composed[next(iter(composed))]
        composed[key] = entry

    def lookup(held, cap):
        pump_on = controller.hysteresis.state
        key = (mode, pump_on, held, cap)
        if key in composed:
            return composed[key]
        base_key = (mode, pump_on, cap)
        try:
            if base_key not in composed:
                step = controller.steady_step(preview)
                if step is None:
                    # not yet: the controller's state, not the key, decides
                    return None
                keep(base_key, _compose(step, params, cap, node_index,
                                        ambient.T_amb, lag, power, dt,
                                        n_sub))
            base = composed[base_key]
            entry = (None if base is None
                     else _held_map(controller, base, held, node_index))
        except ThermocoverError:
            # the sample's own step or step_plant raises it, or not, as the
            # loop reaches it
            entry = None
        keep(key, entry)
        return entry

    segment, k = 0, 0
    try:
        while k < n_samples:
            t = k * t_s
            while not t < ends[segment]:
                segment += 1
            if values[segment] != setpoint:
                setpoint = values[segment]
                preview = scenario.setpoint_preview(t, preview_len)
                preview.flags.writeable = False
                composed.clear()
            while near and near[0][1] < k:
                near.pop(0)
            entry = None
            if mode is not None and not (near and near[0][0] <= k):
                entry = lookup(controller.held,
                               cap_status(state.T_p, state.T_co, params.R_co,
                                          power))
            if entry is not None:
                s = np.array([*controller.steady_state(), *state, 1.0])
                k0, stop = k, near[0][0] if near else n_samples
                if np.isfinite(s).all():
                    k, s, held = _steady_run(entry, lookup, s, k, stop,
                                             ends[segment], t_s, node_index,
                                             controller.applied, rows)
                if k > k0:
                    modes.extend([mode] * (k - k0))
                    # s = [*history, x_hat, p_hat, *state, 1]
                    controller.load_steady(s[:-5].tolist(), k - k0, held)
                    state = PlantState._make(s[-5:-1].tolist())
                    t = k * t_s
                    # a bound may bring a new setpoint or a contact; a
                    # failed check sends sample k to step
                    if k == stop or not t < ends[segment]:
                        continue

            cmd, pump_on = controller.step(getattr(state, node), state.T_w,
                                           preview)
            if controller.mode is not mode:
                mode = controller.mode
                params = presets[mode]
                visited.setdefault(mode)
            modes.append(mode)
            if contacts:
                q_i_true = sum(contact_heat_flow(c, state.T_c, t)
                               for c in contacts)
                in_contact = any(c.active(t) for c in contacts)
            else:
                q_i_true, in_contact = 0, False
            # q_w and q_i_hat are filled in per mode after the loop
            rows.append((t, cmd, *state, pump_on, 0.0, q_i_true, 0.0,
                         in_contact))

            state = step_plant(state, cmd, pump_on, 0.0, params, ambient, dt,
                               peltier_lag=lag, peltier_power=power,
                               n_sub=n_sub, contacts=contacts, t=t)
            k += 1

        trace = SimTrace.from_rows(rows)
        trace.mode = np.array(modes, dtype=object)
        # one observer per visited mode runs over the whole record on that
        # mode's constants; each sample takes q_w and q_hat from its own
        # mode's, and a failure names the mode's first sample
        for mode in visited:
            at = trace.mode == mode
            t = trace.t[at][0]
            params = presets[mode]
            q_w = pump_flow(trace.T_co, trace.T_w, trace.pump_on, params)
            q_hat = observer_step(
                build_observer(params, t_s, observer_filter), trace.T_w,
                q_w + estimate_q_aw(trace.T_w, ambient.T_amb, params.R_aw))
            trace.q_w[at] = q_w[at]
            trace.q_i_hat[at] = q_hat[at]
    except ThermocoverError as exc:
        raise _in_context(exc, f"{scenario.name}: at t = {t:.6g} s") from exc
    return trace


class _Composed(NamedTuple):
    """One key's composed map over s = [*history, x_hat, p_hat, T_p, T_co,
    T_w, T_c, 1]: v = G @ s is the controller's checks of pattern ``held``,
    then the command and the rest of the next s, whose history is the last
    one's shifted one place, then the plant's slack rows.  A base has
    ``held`` None, and zeros in the checks, the command and the terms in
    it."""

    G: np.ndarray
    held: tuple | None
    step: SteadyStep
    call: SampleMap


def _compose(step, params, cap, node_index, T_amb, lag, power, dt,
             n_sub) -> _Composed | None:
    """The base of the composed maps of the controller's ``step`` and the
    plant's contact-free call at cap status ``cap``; None where the plant
    walks such a call."""
    call = sample_map(params, step.pump_on, cap, lag, power, dt, n_sub, 0.0)
    if call is None:
        return None
    K = step.rows
    n, size = len(step.ahead), K.shape[1] - 4
    G = np.zeros((2 * n + 8 + len(call.slack), size + 7))
    # x_hat and p_hat after the sample, w = [*s[:size + 2], s[size + 2 +
    # node], 1], under the checks and the command
    updates = G[2 * n + 1:2 * n + 3]
    updates[:, :size + 2] = K[:, :size + 2]
    updates[:, size + 2 + node_index] = K[:, -2]
    updates[:, -1] = K[:, -1]
    # the plant's nodes after the call and its slack rows: the call's rows
    # over (T_p, T_co, T_w, T_c, T_p_cmd, T_amb, q, 1), but the command's
    for out, M in ((G[2 * n + 3:2 * n + 7], call.rows),
                   (G[2 * n + 8:], call.slack)):
        out[:, size + 2:size + 6] = M[:, :4]
        out[:, -1] = M[:, 5] * T_amb + M[:, 7]
    G[2 * n + 7, -1] = 1.0
    return _Composed(G, None, step, call)


def _held_map(controller, base, held, node_index) -> _Composed:
    """Pattern ``held``'s composed map, from its key's ``base``: the
    controller's checks and command, and the command's terms in the
    plant's nodes and slack rows."""
    G, _, step, call = base
    G = G.copy()
    controller.steady_rows(step, held, G, G.shape[1] - 5 + node_index)
    m = 2 * len(step.ahead)
    G[m + 3:m + 7] += call.rows[:, 4:5] * G[m]
    G[m + 8:] += call.slack[:, 4:5] * G[m]
    return _Composed(G, held, step, call)


#: Samples a stretch advances in one buffer before it moves its window
#: back to the buffer's start.
_WINDOWS = 256


def _steady_run(entry, lookup, s, k, stop, end, t_s, node_index, applied,
                rows):
    """Advance samples k, k + 1, ... before ``stop`` and before time
    ``end`` by composed maps, from ``entry``, until one fails a check;
    returns the first sample not advanced, s there, and the held pattern
    of the last one advanced.  ``applied`` commands have been applied
    before sample k.

    The sample from window i of the buffer writes the 8 entries of v after
    the checks over the history it shifts out, so window i + 1 is the next
    s.  Its start's cap status is the one the sample before checked at its
    last substep end.
    """
    G, pattern, step, call = entry
    held = pattern
    d = step.d
    r, pump_on = step.setpoint, step.pump_on
    lo, hi = call.bounds
    mode_lo, mode_hi = step.mode_band
    pump_lo, pump_hi = step.pump_band
    D = len(s)
    size = D - 7
    m = 2 * len(step.ahead)
    room = min(stop - k, _WINDOWS)
    buf = np.empty(D + room)
    buf[:D] = s
    T_p, T_co, T_w, T_c = x = s[-5:-1].tolist()
    meas = x[node_index]
    i = 0
    while k < stop:
        t = k * t_s
        if not (t < end and mode_lo <= r - T_w <= mode_hi
                and pump_lo <= abs(meas - r) <= pump_hi):
            break
        if i == room:
            buf[:D] = buf[i:]
            i = 0
        if applied < d:
            # the past commands not yet applied read as the measurement
            buf[i + size - d:i + size - applied] = meas
            applied += 1
        v = G.dot(buf[i:i + D])
        new = v.tolist()
        if not min(new[:m]) >= 0.0:
            # the pattern's one update, as the solver would make it
            update = update_from_checks(pattern, new[:m])
            entry = lookup(update, call.cap) if update != pattern else None
            if entry is None:
                break
            G, pattern, step, call = entry
            v = G.dot(buf[i:i + D])
            new = v.tolist()
            if not min(new[:m]) >= 0.0:
                break
        cmd, _, _, T_p1, T_co1, T_w1, T_c1, _ = new[m:m + 8]
        # no slack rows without a cap
        plate = new[m + 8:]
        if not (math.isfinite(sum(new)) and (
                not plate or lo <= min(plate) and max(plate) <= hi)):
            break
        rows.append((t, cmd, T_p, T_co, T_w, T_c, pump_on, 0.0, 0.0, 0.0,
                     False))
        buf[i + size:i + D + 1] = v[m:m + 8]
        held = pattern
        T_p, T_co, T_w, T_c = x = T_p1, T_co1, T_w1, T_c1
        meas = x[node_index]
        i += 1
        k += 1
    return k, buf[i:i + D], held


def _in_context(exc: ThermocoverError, where: str) -> ThermocoverError:
    """A copy of ``exc``, same type and attributes, its message prefixed."""
    new = copy.copy(exc)
    new.args = (f"{where}: {exc}",)
    return new
