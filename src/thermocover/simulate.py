"""Closed-loop simulation: controller and plant in lockstep, then the
contact observer, which nothing in the loop reads, over the whole record.

The controller runs at the sample rate t_s; the plant steps at the substep
rate dt, in one ``step_plant`` call per sample: one cached exact map of the
sample's regime, or one such map per substep where the Peltier cap status
or a contact window changes inside the sample.  Everything is
deterministic: the same scenario always produces a bit-identical trace.

A sample does only the work whose result can change from one sample to
the next.  The setpoint preview is made where ``setpoint_at`` changes value
and handed to the controller, read-only, until the next change; the plant
constants are looked up where the controller switches mode; and a scenario
without contacts skips the contact sums.
"""

from __future__ import annotations

import copy

import numpy as np

from .errors import ThermocoverError
from .mpc import ThermalController
from .observer import build_observer, observer_step
from .params import Mode, preset_params
from .plant import (PlantState, contact_heat_flow, estimate_q_aw, pump_flow,
                    step_plant)
from .scenario import ScenarioSpec
from .trace import SimTrace


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
    tc = scenario.observer_tc
    observer_filter = None if tc <= 0.0 else (tc, tc)
    dt, lag, power = scenario.dt, scenario.peltier_lag, scenario.peltier_power
    contacts = scenario.contacts

    state = PlantState.uniform(scenario.start_temp)

    # the controller's mode per sample, and the modes visited, in order
    rows, modes, visited = [], [], {}
    # the setpoint and its preview, and the controller's mode and its
    # plant constants, as of the last change
    setpoint = preview = mode = params = None
    try:
        for k in range(n_samples):
            t = k * t_s
            value = scenario.setpoint_at(t)
            if value != setpoint:
                setpoint = value
                preview = scenario.setpoint_preview(t, preview_len)
                preview.flags.writeable = False
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


def _in_context(exc: ThermocoverError, where: str) -> ThermocoverError:
    """A copy of ``exc``, same type and attributes, its message prefixed."""
    new = copy.copy(exc)
    new.args = (f"{where}: {exc}",)
    return new
