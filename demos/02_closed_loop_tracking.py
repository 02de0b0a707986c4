"""Closed-loop staircase tracking, heating and cooling.

Runs the built-in heating and cooling protocols end to end
(receding-horizon controller, pump hysteresis, full plant) and prints the per-segment
tracking summary, including the stop-the-water-at-setpoint behavior.
"""

from thermocover import builtin_scenarios, simulate
from thermocover.report import analyze_segments


def show(name):
    spec = builtin_scenarios()[name]
    trace = simulate(spec)
    print(f"\n== {name} (target: {spec.target.value}) ==")
    print(f"{'setpoint':>9} {'settle':>8} {'error':>8} {'rise90':>8} "
          f"{'pump off':>9}")
    for seg in analyze_segments(trace, spec):
        settle = "-" if seg.settle_time is None else f"{seg.settle_time:.0f}"
        rise = "-" if seg.rise_time_90 is None else f"{seg.rise_time_90:.0f}"
        print(f"{seg.setpoint:9.1f} {settle:>8} "
              f"{seg.steady_state_error:8.3f} {rise:>8} "
              f"{str(seg.pump_off_at_settle):>9}")
    return trace


def main():
    show("exp1_heat")
    show("exp1_cool")
    trace = show("exp1_heat_after_cool")
    print("\nThe third run first cools the tank, then reheats; with the")
    print("power-limited Peltier the 23 C climb is measurably slower than")
    print("the same climb from a warm start.")
    print(f"(final cover temperature: {trace.T_c[-1]:.2f} C)")


if __name__ == "__main__":
    main()
