"""Per-layer timing for the traced run, taken from outside the library.

Each wrapper replaces a public function or method where its caller looks it
up: a global of the calling module (``sys.modules["thermocover.mpc"]`` and
friends, because the package ``__init__`` shadows the ``simulate`` module
with the function of the same name), or a class attribute for methods.
``Tracer.installed()`` puts every wrapper in place and restores the
originals on exit, so untraced passes run the library untouched.

Spans nest: a span's self time is its duration minus the time of the
wrapped calls made inside it.  Totals are aggregated per span name rather
than kept per call, except for the controller step, whose per-call
durations give the step-latency percentiles.
"""

from __future__ import annotations

import inspect
import os
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.total = defaultdict(float)    # inclusive seconds per span
        self.self_s = defaultdict(float)   # seconds minus wrapped children
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(float)
        self.step_durations = []
        self._stack = []                   # child seconds of each open span

    def wrap(self, name, fn, after=None, durations=None):
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                child = stack.pop()
                self.total[name] += dur
                self.self_s[name] += dur - child
                self.calls[name] += 1
                if stack:
                    stack[-1] += dur
                if durations is not None:
                    durations.append(dur)
            if after is not None:
                after(self, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Install every wrapper for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, after in _targets():
                raw = inspect.getattr_static(owner, attr)
                is_static = isinstance(raw, staticmethod)
                fn = raw.__func__ if is_static else raw
                durations = None
                if name == "mpc.step":
                    fn = _counting_mode_switches(self, fn)
                    durations = self.step_durations
                wrapped = self.wrap(name, fn, after, durations)
                setattr(owner, attr,
                        staticmethod(wrapped) if is_static else wrapped)
                saved.append((owner, attr, raw))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)


def _counting_mode_switches(tracer, step):
    def step_and_count(controller, *args, **kwargs):
        before = controller.mode
        out = step(controller, *args, **kwargs)
        if before is not None and controller.mode is not before:
            tracer.counts["mpc.mode_switches"] += 1
        return out
    return step_and_count


def _after_solve(tracer, _args, sol):
    tracer.counts["mpc.iterations"] += sol.iterations
    if sol.iterations == 0:
        tracer.counts["mpc.fast_path"] += 1
    tracer.maxima["mpc.kkt_residual_max"] = max(
        tracer.maxima["mpc.kkt_residual_max"], sol.kkt_residual)


def _after_pump(tracer, args, result):
    if result[1] != args[0].state:
        tracer.counts["mpc.pump_toggles"] += 1


def _after_write(tracer, args, _result):
    tracer.counts["trace.bytes_written"] += os.path.getsize(args[1])


def _after_read(tracer, args, _result):
    tracer.counts["trace.bytes_read"] += os.path.getsize(args[0])


def _after_least_squares(tracer, _args, sol):
    tracer.counts["sysid.nfev"] += int(sol.nfev)


def _targets():
    """(owner, attribute, span name, after-hook) for every wrapped call."""
    m = sys.modules
    cli = m["thermocover.cli"]
    kvio = m["thermocover.kvio"]
    mpc = m["thermocover.mpc"]
    plant = m["thermocover.plant"]
    scenario = m["thermocover.scenario"]
    sim = m["thermocover.simulate"]
    sysid = m["thermocover.sysid"]
    trace = m["thermocover.trace"]
    return [
        # scenario resolution inside `thermocover run`, and the benchmark's
        # own set-up round trip through the scenario key-value text
        (cli, "builtin_scenarios", "scenario.load", None),
        (scenario, "builtin_scenarios", "scenario.load", None),
        (scenario, "scenario_to_kv", "scenario.load", None),
        (scenario, "scenario_from_kv", "scenario.load", None),
        (kvio, "dumps", "scenario.load", None),
        (kvio, "loads", "scenario.load", None),
        # what `thermocover run` calls
        (cli, "simulate", "simulate", None),
        (cli, "detect_contacts", "detect", None),
        (cli, "analyze_segments", "report", None),
        (cli, "render_report", "report", None),
        (trace.SimTrace, "to_csv", "trace.write", _after_write),
        # what the closed loop calls, sample by sample
        (scenario.ScenarioSpec, "setpoint_preview", "simulate.preview", None),
        (mpc.ThermalController, "step", "mpc.step", None),
        (mpc, "build_prediction", "mpc.build", None),
        (mpc, "solve_mpc", "mpc.solve", _after_solve),
        (mpc, "pump_step", "mpc.pump", _after_pump),
        (sim, "build_observer", "observer.build", None),
        (sim, "observer_step", "observer.step", None),
        (sim, "pump_flow", "simulate.pump_flow", None),
        (sim, "contact_heat_flow", "plant.contact", None),
        (sim, "step_plant", "plant.step", None),
        (trace.SimTrace, "from_rows", "trace.from_rows", None),
        # identification: the benchmark's recording generator and fits
        (plant, "step_plant", "plant.step", None),
        (trace.SimTrace, "from_csv", "trace.read", _after_read),
        (sysid, "fit_fopdt", "sysid.fopdt", None),
        (sysid, "fit_two_node", "sysid.two_node", None),
        (sysid, "least_squares", "sysid.least_squares",
         _after_least_squares),
    ]


def span_names():
    return sorted({name for _, _, name, _ in _targets()})


def _percentile(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer values of one traced repetition, keyed by metric name."""
    solves = tr.calls["mpc.solve"]
    return {
        "mpc.step_s": tr.total["mpc.step"],
        "mpc.step_p50_ms": 1e3 * _percentile(tr.step_durations, 0.50),
        "mpc.step_p99_ms": 1e3 * _percentile(tr.step_durations, 0.99),
        "mpc.build_s": tr.total["mpc.build"],
        "mpc.solve_s": tr.total["mpc.solve"],
        "mpc.pump_s": tr.total["mpc.pump"],
        "mpc.solves": solves,
        "mpc.fast_path_ratio":
            tr.counts["mpc.fast_path"] / solves if solves else 0.0,
        "mpc.iterations": tr.counts["mpc.iterations"],
        "mpc.kkt_residual_max": tr.maxima["mpc.kkt_residual_max"],
        "mpc.mode_switches": tr.counts["mpc.mode_switches"],
        "mpc.pump_toggles": tr.counts["mpc.pump_toggles"],
        "plant.step_s": tr.total["plant.step"],
        "plant.steps": tr.calls["plant.step"],
        "plant.contact_s": tr.total["plant.contact"],
        "plant.contact_calls": tr.calls["plant.contact"],
        "observer.step_s": tr.total["observer.step"],
        "observer.steps": tr.calls["observer.step"],
        "observer.build_s": tr.total["observer.build"],
        "observer.builds": tr.calls["observer.build"],
        "simulate.self_s": tr.self_s["simulate"],
        "simulate.preview_s": tr.total["simulate.preview"],
        "simulate.pump_flow_s": tr.total["simulate.pump_flow"],
        "detect.s": tr.total["detect"],
        "report.s": tr.total["report"],
        "trace.write_s": tr.total["trace.write"],
        "trace.bytes_written": tr.counts["trace.bytes_written"],
        "trace.read_s": tr.total["trace.read"],
        "trace.bytes_read": tr.counts["trace.bytes_read"],
        "trace.from_rows_s": tr.total["trace.from_rows"],
        "sysid.fopdt_s": tr.total["sysid.fopdt"],
        "sysid.fopdt_fits": tr.calls["sysid.fopdt"],
        "sysid.two_node_s": tr.total["sysid.two_node"],
        "sysid.two_node_fits": tr.calls["sysid.two_node"],
        "sysid.nfev": tr.counts["sysid.nfev"],
        "scenario.load_s": tr.total["scenario.load"],
    }
