"""The three benchmark workloads: set-up, one timed pass, and output checks.

Every call into the library goes through a module attribute looked up at
call time (``sys.modules[...]``), so the traced run's wrappers see it.

* ``staircase``: ``thermocover run`` on the three cover-temperature
  staircases.  Mode switches, pump toggles and the iterative QP path show,
  and the plant has its largest share of the time.
* ``touch``: ``thermocover run`` on the three pipe-side sensing protocols.
  Fewer, larger QPs with no mode switching; contact flow at every substep;
  detection graded against ground truth.
* ``identify``: ``fit_fopdt`` and three-signal ``fit_two_node`` on seeded
  noisy step recordings read back from trace CSVs.  No controller, no closed
  loop.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import statistics
import sys
from functools import partial
from pathlib import Path

import numpy as np


class CheckFailed(Exception):
    """An output of the library is wrong."""


def _mod(name):
    return sys.modules["thermocover." + name]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# Closed loop: `thermocover run`

class ClosedLoop:
    """Built-in protocols run through the `thermocover run` code path.

    The protocols are fixed, so these workloads ignore the seed.
    """

    seed_used = False
    setups_per_round = 10
    scenarios: tuple = ()

    def __init__(self, work_dir: Path, seed: int):
        self.out_dir = work_dir / "out"
        self.samples_per_pass = 0
        self.texts = {}

    def setup(self):
        """Resolve the protocols and round-trip each through the key-value
        text that `print-config` writes and `run` reads back."""
        scenario = _mod("scenario")
        kvio = _mod("kvio")
        self.out_dir.mkdir(parents=True, exist_ok=True)
        specs = scenario.builtin_scenarios()
        samples = 0
        for name in self.scenarios:
            text = kvio.dumps(scenario.scenario_to_kv(specs[name]))
            if scenario.scenario_from_kv(kvio.loads(text)) != specs[name]:
                raise CheckFailed(f"{name}: scenario text does not round-trip")
            self.texts[name] = text
            samples += round(specs[name].duration / specs[name].t_s)
        self.samples_per_pass = samples

    def setup_outputs(self) -> dict:
        return {f"{name}.kv": hashlib.sha256(text.encode()).hexdigest()
                for name, text in self.texts.items()}

    def calls(self) -> list:
        """One `thermocover run` per protocol, as (name, call) pairs.

        A call returns True when the library reports success.
        """
        cli = _mod("cli")

        def run(name):
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(["run", name, "--out-dir",
                                 str(self.out_dir)]) == 0

        return [(name, partial(run, name)) for name in self.scenarios]

    def outputs(self) -> dict:
        out = {}
        for name in self.scenarios:
            for suffix in ("_trace.csv", "_report.txt"):
                out[name + suffix] = _sha256(self.out_dir / (name + suffix))
        return out

    def _report(self, name) -> dict:
        report = _mod("report")
        text = (self.out_dir / f"{name}_report.txt").read_text("utf-8")
        return report.parse_report(text)

    def check(self) -> tuple[list, dict]:
        """Checks on the last pass's files; returns (failures, quality)."""
        scenario = _mod("scenario")
        specs = scenario.builtin_scenarios()
        failures = []
        reports = {}
        for name in self.scenarios:
            spec = specs[name]
            data = np.loadtxt(self.out_dir / f"{name}_trace.csv",
                              delimiter=",", skiprows=1, ndmin=2)
            n = round(spec.duration / spec.t_s)
            if data.shape != (n, 11):
                failures.append(f"{name}: trace shape {data.shape}, "
                                f"expected ({n}, 11)")
            cmd = data[:, 1]
            cfg = spec.controller
            if np.any(cmd < cfg.T_min_th) or np.any(cmd > cfg.T_max_th):
                failures.append(f"{name}: command leaves its bounds")
            reports[name] = self._report(name)
        failures += self.criteria(reports)
        settled = [float(v) for r in reports.values() for k, v in r.items()
                  if k.endswith(".steady_state_error")]
        detect_errors = sum(int(r["detection.false_positives"])
                            + int(r["detection.misses"])
                            for r in reports.values())
        return failures, {
            "result_err_K": max(settled),
            "report.track_err_max_K": max(settled),
            "detect.errors": detect_errors,
            "sysid.fit_err_median": 0.0,
        }

    def criteria(self, reports) -> list:
        return []


class Staircase(ClosedLoop):
    scenarios = ("exp1_heat", "exp1_cool", "exp1_heat_after_cool")

    def criteria(self, reports) -> list:
        failures = []
        # criterion 04: settled tracking within 0.1 K, pump off at settle
        for name in ("exp1_heat", "exp1_cool"):
            r = reports[name]
            if r["segments"] != "3":
                failures.append(f"{name}: {r['segments']} segments, not 3")
            for i in range(int(r["segments"])):
                err = float(r[f"segment.{i}.steady_state_error"])
                if not err < 0.1:
                    failures.append(f"{name} segment {i}: settled error "
                                    f"{err:.4f} K >= 0.1 K")
                if r[f"segment.{i}.pump_off_at_settle"] != "true":
                    failures.append(f"{name} segment {i}: pump on at settle")
        # criterion 05: reheating after deep cooling is >= 20 % slower
        rise_heat = reports["exp1_heat"]["segment.0.rise_time_90"]
        rise_after = reports["exp1_heat_after_cool"]["segment.1.rise_time_90"]
        if "none" in (rise_heat, rise_after) \
                or not float(rise_after) >= 1.2 * float(rise_heat):
            failures.append(f"reheat rise {rise_after} s is not 1.2 x "
                            f"{rise_heat} s")
        return failures


class Touch(ClosedLoop):
    scenarios = ("exp2_grasp", "exp2_softtouch", "exp2_nocontact")

    def criteria(self, reports) -> list:
        # criterion 06: each touch found once and nothing else; a grasp
        # peaks at least twice as high as a soft touch; no-contact is clean
        failures = []
        for name in ("exp2_grasp", "exp2_softtouch"):
            r = reports[name]
            got = (r["detection.true_positives"],
                   r["detection.false_positives"], r["detection.misses"])
            if got != ("1", "0", "0"):
                failures.append(f"{name}: (tp, fp, misses) = {got}")
        grasp = float(reports["exp2_grasp"].get(
            "detection.event.0.peak_q_hat", "nan"))
        soft = float(reports["exp2_softtouch"].get(
            "detection.event.0.peak_q_hat", "nan"))
        if not grasp >= 2.0 * soft:
            failures.append(f"grasp peak {grasp} W < 2 x soft peak {soft} W")
        if reports["exp2_nocontact"]["detection.count"] != "0":
            failures.append("exp2_nocontact: detections without contact")
        return failures


# ---------------------------------------------------------------------------
# Identification: `fit_fopdt` and `fit_two_node` on recorded step responses

N_SAMPLES = 3000        # 1 s sampling, as in criterion 08
BASE, LEVEL = 21.0, 40.0
PUMP_OFF_AT = 1500
SIGMA = 0.05            # K, measurement noise of criterion 08
TWO_NODE_SIGNALS = ("T_co", "T_w", "T_c")


class Identify:
    """Seeded noisy recordings written in set-up, fitted in each pass.

    The recordings follow criterion 08: the closed-form first-order step
    response for ``fit_fopdt``, and an open-loop run of the plant with the
    pump stopped halfway for ``fit_two_node``.  The seed draws the noise.
    """

    seed_used = True
    setups_per_round = 1
    n_fopdt = 8
    n_two_node = 8

    def __init__(self, work_dir: Path, seed: int):
        self.seed = seed
        self.rec_dir = work_dir / "recordings"
        self.fopdt_paths = [self.rec_dir / f"fopdt_{i}.csv"
                            for i in range(self.n_fopdt)]
        self.two_node_paths = [self.rec_dir / f"two_node_{i}.csv"
                               for i in range(self.n_two_node)]
        self.samples_per_pass = N_SAMPLES * (
            self.n_fopdt + len(TWO_NODE_SIGNALS) * self.n_two_node)
        self.params = None
        self.fopdt_fits = []
        self.two_node_fits = []

    def setup(self):
        params = _mod("params")
        fopdt = _mod("fopdt")
        self.params = hp = params.preset_params(params.Mode.HEAT)
        self.rec_dir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(self.seed)
        t = np.arange(N_SAMPLES, dtype=float)
        u = np.full(N_SAMPLES, LEVEL)
        u[0] = BASE
        on = np.ones(N_SAMPLES, dtype=bool)

        y = np.array([BASE] + [
            BASE + fopdt.fopdt_step_response(hp, LEVEL - BASE, 0.0, k - 1.0)
            for k in range(1, N_SAMPLES)])
        for path in self.fopdt_paths:
            noisy = y + rng.normal(0.0, SIGMA, N_SAMPLES)
            # one measured signal, written into every node column
            _write_recording(path, t, u, noisy, noisy, noisy, on)

        nodes, pump = _open_loop_step_run(hp)
        for path in self.two_node_paths:
            noisy = [v + rng.normal(0.0, SIGMA, N_SAMPLES) for v in nodes]
            _write_recording(path, t, u, *noisy, pump)

    def setup_outputs(self) -> dict:
        return {p.name: _sha256(p)
                for p in self.fopdt_paths + self.two_node_paths}

    def calls(self) -> list:
        """One read-back and fit per recording, as (name, call) pairs."""
        sysid = _mod("sysid")
        hp = self.params
        self.fopdt_fits, self.two_node_fits = [], []

        def fopdt(path):
            trace = sysid.StepTrace.from_csv(path, signal="T_c")
            self.fopdt_fits.append(sysid.fit_fopdt(trace))
            return True

        def two_node(path):
            traces = [sysid.StepTrace.from_csv(path, signal=s)
                      for s in TWO_NODE_SIGNALS]
            self.two_node_fits.append(sysid.fit_two_node(
                traces, C_co=hp.C_co, R_co=hp.R_co))
            return True

        return [(p.name, partial(fopdt, p)) for p in self.fopdt_paths] \
            + [(p.name, partial(two_node, p)) for p in self.two_node_paths]

    def outputs(self) -> dict:
        text = repr([(r.parameters, r.residual_rms)
                     for r in self.fopdt_fits + self.two_node_fits])
        return {"fits": hashlib.sha256(text.encode()).hexdigest()}

    def check(self) -> tuple[list, dict]:
        hp = self.params
        pole = hp.R_c * hp.C_c

        def rel(value, truth):
            return abs(value - truth) / truth

        errs = {
            "R_com_C_com": [rel(r.parameters["R_com_C_com"], hp.R_com_C_com)
                            for r in self.fopdt_fits],
            "L_d": [rel(r.parameters["L_d"], hp.L_d)
                    for r in self.fopdt_fits],
            "R_c*C_c": [rel(r.parameters["R_c"] * r.parameters["C_c"], pole)
                        for r in self.two_node_fits],
        }
        for name in ("R_w", "C_w", "R_aw"):
            errs[name] = [rel(r.parameters[name], getattr(hp, name))
                          for r in self.two_node_fits]
        medians = {k: _median(v) for k, v in errs.items()}
        # criterion 08: median relative errors over the noisy draws
        limits = {"R_com_C_com": 0.10, "L_d": 0.10, "R_w": 0.15,
                  "C_w": 0.15, "R_aw": 0.15, "R_c*C_c": 0.15}
        failures = [f"median relative error of {k} is {medians[k]:.4f}, "
                    f"limit {lim}"
                    for k, lim in limits.items() if not medians[k] < lim]
        rms = max(_median([r.residual_rms for r in self.fopdt_fits]),
                  _median([r.residual_rms for r in self.two_node_fits]))
        return failures, {
            "result_err_K": rms,
            "report.track_err_max_K": 0.0,
            "detect.errors": 0,
            "sysid.fit_err_median": max(medians.values()),
        }


def _median(values):
    return statistics.median(values) if values else float("nan")


def _open_loop_step_run(hp):
    """Noise-free plant response: step at the second sample, pump stopped
    halfway, ten RK4 substeps per sample (criterion 08's recording)."""
    params = _mod("params")
    plant = _mod("plant")
    ambient = params.AmbientConfig()
    state = plant.PlantState.uniform(BASE)
    nodes = np.empty((3, N_SAMPLES))
    pump = np.arange(N_SAMPLES) < PUMP_OFF_AT
    for k in range(N_SAMPLES):
        nodes[:, k] = (state.T_co, state.T_w, state.T_c)
        cmd = BASE if k == 0 else LEVEL
        for _ in range(10):
            state = plant.step_plant(state, cmd, bool(pump[k]), 0.0, hp,
                                     ambient, 0.1, peltier_lag=0.0,
                                     peltier_power=float("inf"))
    return nodes, pump


def _write_recording(path, t, u, T_co, T_w, T_c, pump_on):
    """Write a step recording as an 11-column trace CSV.

    Columns the fits do not read (flows, contact) are zero.
    """
    trace = _mod("trace")
    zeros = np.zeros_like(t)
    trace.SimTrace(t=t, T_p_cmd=u, T_p=u, T_co=T_co, T_w=T_w, T_c=T_c,
                   pump_on=pump_on, q_w=zeros, q_i_true=zeros,
                   q_i_hat=zeros,
                   contact_flag=np.zeros(len(t), dtype=bool)).to_csv(path)


WORKLOADS = {"staircase": Staircase, "touch": Touch, "identify": Identify}
