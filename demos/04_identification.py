"""Identification round-trip: simulate, add noise, refit the constants.

Generates synthetic step responses from the known parameter sets, fits
both the combined first-order model and the RC network back, and prints
recovered vs. true values with and without measurement noise, with the RC
fit's half-widths, its cover pole tau_c = R_c C_c and its warnings.
"""

import numpy as np

from thermocover import AmbientConfig, Mode, PlantState, preset_params
from thermocover.fopdt import fopdt_step_response
from thermocover.plant import step_plant
from thermocover.sysid import StepTrace, fit_fopdt, fit_two_node


def fopdt_trace(params, sigma=0.0, seed=0):
    base, step, n = 21.0, 19.0, 3000
    t = np.arange(n, dtype=float)
    u = np.full(n, base + step)
    u[0] = base
    y = np.array([base if k == 0
                  else base + fopdt_step_response(params, step, 0.0, k - 1.0)
                  for k in range(n)])
    if sigma > 0.0:
        y = y + np.random.default_rng(seed).normal(0.0, sigma, n)
    return StepTrace(t=t, u=u, y=y)


def plant_traces(params, sigma=0.0, seed=0):
    ambient = AmbientConfig()
    state = PlantState.uniform(21.0)
    n, rows = 3000, []
    for k in range(n):
        cmd = 21.0 if k == 0 else 40.0
        on = k < 1500   # heat with the pump on, then free-cool
        rows.append((float(k), cmd, state.T_co, state.T_w, state.T_c, on))
        state = step_plant(state, cmd, on, 0.0, params, ambient, 0.1,
                           peltier_lag=0.0, peltier_power=float("inf"),
                           n_sub=10)
    t, u, y_co, y_w, y_c, pump = map(np.asarray, zip(*rows))
    rng = np.random.default_rng(seed)
    out = []
    for y, signal in ((y_co, "T_co"), (y_w, "T_w"), (y_c, "T_c")):
        noisy = y + rng.normal(0.0, sigma, n) if sigma > 0.0 else y
        out.append(StepTrace(t=t, u=u, y=noisy, signal=signal, pump_on=pump))
    return out


def main():
    params = preset_params(Mode.HEAT)

    print("combined first-order model (time constant 500 s, delay 45 s):")
    for sigma in (0.0, 0.05):
        r = fit_fopdt(fopdt_trace(params, sigma=sigma))
        print(f"  noise {sigma:4.2f} K -> "
              f"time constant {r.parameters['R_com_C_com']:7.2f} s, "
              f"delay {r.parameters['L_d']:6.2f} s")

    truth = {"R_w": params.R_w, "C_w": params.C_w, "R_c": params.R_c,
             "C_c": params.C_c, "R_aw": params.R_aw,
             "tau_c": params.R_c * params.C_c}
    print("\nRC network (tank constants held known; +- is the fit's own")
    print("linearized half-width, relative):")
    for sigma in (0.0, 0.05):
        r = fit_two_node(plant_traces(params, sigma=sigma),
                         C_co=params.C_co, R_co=params.R_co)
        print(f"  noise {sigma:4.2f} K:")
        for name, value in truth.items():
            fitted = r.parameters[name]
            print(f"    {name:5s} true {value:8.2f}  "
                  f"fitted {fitted:10.2f}  "
                  f"({100.0 * abs(fitted - value) / value:7.2f}% off, "
                  f"+- {100.0 * r.confidence[name] / fitted:6.2f}%)")
        print(f"    warnings: {'; '.join(r.warnings) or 'none'}")


if __name__ == "__main__":
    main()
