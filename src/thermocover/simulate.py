"""Closed-loop simulation: controller, observer and plant in lockstep.

Controller and observer run at the sample rate t_s; the plant steps at the
substep rate dt, in one ``step_plant`` call per sample: one cached exact map
of the sample's regime, or one such map per substep where the Peltier cap
status or a contact window changes inside the sample.  Everything is
deterministic: the same scenario always produces a bit-identical trace.
"""

from __future__ import annotations

import copy

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

    state = PlantState.uniform(scenario.start_temp)
    observer = None
    observer_mode: Mode | None = None

    rows = []
    for k in range(n_samples):
        t = k * t_s
        try:
            preview = scenario.setpoint_preview(t, preview_len)
            cmd, pump_on = controller.step(getattr(state, node), state.T_w,
                                           preview)
            params = presets[controller.mode]
            q_w = pump_flow(state.T_co, state.T_w, pump_on, params)
            # the observer's net-heat input, q_w + q_aw
            q = q_w + estimate_q_aw(state.T_w, ambient.T_amb, params.R_aw)

            if observer is None or controller.mode is not observer_mode:
                observer = build_observer(params, t_s, observer_filter) \
                    .warm_start(state.T_w, q)
                observer_mode = controller.mode

            observer, q_hat = observer_step(observer, state.T_w, q)

            q_i_true = sum(contact_heat_flow(c, state.T_c, t)
                           for c in scenario.contacts)
            in_contact = any(c.active(t) for c in scenario.contacts)
            rows.append((t, cmd, state.T_p, state.T_co, state.T_w, state.T_c,
                         pump_on, q_w, q_i_true, q_hat, in_contact))

            state = step_plant(state, cmd, pump_on, 0.0, params, ambient,
                               scenario.dt, peltier_lag=scenario.peltier_lag,
                               peltier_power=scenario.peltier_power,
                               n_sub=n_sub, contacts=scenario.contacts, t=t)
        except ThermocoverError as exc:
            raise _in_context(exc, f"{scenario.name}: at t = {t:.6g} s") \
                from exc

    return SimTrace.from_rows(rows)


def _in_context(exc: ThermocoverError, where: str) -> ThermocoverError:
    """A copy of ``exc``, same type and attributes, its message prefixed."""
    new = copy.copy(exc)
    new.args = (f"{where}: {exc}",)
    return new
