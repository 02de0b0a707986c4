"""Open-loop step response of the plant vs. the combined first-order model.

Drives the full four-node plant with a constant Peltier command and the
pump running, and prints the cover temperature next to the closed-form
first-order-plus-dead-time approximation the controller predicts with.
The two differ by a large static gain: the simple model assumes the cover
eventually reaches the commanded plate temperature, while the physical
network divides the rise across the tank, ambient-loss, and cover paths.
"""

from thermocover import AmbientConfig, Mode, PlantState, preset_params
from thermocover.fopdt import fopdt_step_response
from thermocover.plant import step_plant


def main():
    params = preset_params(Mode.HEAT)
    ambient = AmbientConfig()
    step = 10.0
    cmd = ambient.T_amb + step

    state = PlantState.uniform(ambient.T_amb)
    dt = 0.1
    print(f"Peltier command: {cmd:.1f} C (a +{step:.0f} K step), pump on")
    print(f"{'t [s]':>7} {'T_co':>8} {'T_w':>8} {'T_c':>8} {'model T_c':>10}")
    for k in range(3001):
        t = k * dt * 10
        if k % 250 == 0:
            model = ambient.T_amb + fopdt_step_response(params, step, 0.0, t)
            print(f"{t:7.0f} {state.T_co:8.3f} {state.T_w:8.3f} "
                  f"{state.T_c:8.3f} {model:10.3f}")
        state = step_plant(state, cmd, True, 0.0, params, ambient, dt,
                           peltier_power=float("inf"), n_sub=10)

    rise_plant = state.T_c - ambient.T_amb
    print(f"\nOpen-loop static gain: plant {rise_plant / step:.2f} "
          f"vs model 1.00.")
    print("The shapes agree (one dominant pole plus dead time) but the")
    print("gains do not, which is why the closed-loop controller carries an")
    print("offset observer: it absorbs the gain mismatch as a measured")
    print("output disturbance instead of trusting the model's DC value.")


if __name__ == "__main__":
    main()
