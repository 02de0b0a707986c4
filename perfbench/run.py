"""Benchmark of the thermocover library, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload staircase --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run times untraced passes and reports the end-to-end
metrics.  With ``--trace 1`` it alternates untraced and traced repetitions
(set-up plus one pass) and reports the per-layer metrics, taken from
wrappers installed around the library's public functions (see tracer.py).
Times are reported at the reference speed of a calibration loop (see
``CAL_REF_S``), so that other tenants of a shared host move them less.
Every run checks the library's outputs and fails if any check fails.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it describes
the run (environment, seed use, output digests, failed checks).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
MIN_PASSES = 3
TIME_UNITS = ("s", "ms")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("staircase", "touch", "identify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the timed passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_library():
    """Import thermocover from this checkout's src/; returns its seconds.

    Exits with a message and a non-zero code when the sources are missing.
    """
    src = ROOT / "src"
    if not (src / "thermocover" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library sources at {src}/thermocover")
    # one BLAS thread, fixed before numpy is first imported
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    import numpy  # noqa: F401
    import scipy.optimize  # noqa: F401
    import scipy.signal  # noqa: F401
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    import thermocover.cli  # noqa: F401  (loads every module tracer wraps)
    import_s = perf_counter() - t0
    loaded = Path(sys.modules["thermocover"].__file__).resolve()
    if src.resolve() not in loaded.parents:
        sys.exit(f"perfbench: thermocover imported from {loaded}, "
                 f"not from {src}")
    return import_s


def environment() -> dict:
    import ctypes
    import glob

    import numpy
    import scipy

    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), "..",
                                  "numpy.libs", "libscipy_openblas*"))
    for lib in libs:
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_",
                     None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = fn()
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


#: Seconds the calibration loop takes on the reference host (2-core Xeon,
#: Python 3.11) when no other tenant slows it down.  Timings are reported
#: at this speed: the mean host seconds times CAL_REF_S over the mean
#: calibration seconds of the run.  Means, not medians: the scale is a
#: ratio of means, and both sides must average over the same stretches
#: of contention.
CAL_REF_S = 0.005


def calibration_loop() -> float:
    """A fixed slice of Python and small-array work; returns its seconds.

    It calls no library code, so a change to the library cannot move it.
    Other tenants of a shared host slow this process by up to 2x, in
    stretches from a fraction of a second to many seconds; the loop, run
    between the library calls, measures how much.
    """
    import numpy as np
    t0 = perf_counter()
    acc = 0.0
    for i in range(40_000):
        acc += (i * 0.5) % 7.0
    a = np.ones(64)
    for _ in range(1_500):
        a = a * 1.0000001 + 1e-9
    return perf_counter() - t0


class Run:
    """Bookkeeping shared by the untraced and traced procedures."""

    def __init__(self, workload, errors):
        self.wl = workload
        self.errors = errors        # exceptions that mark a failed call
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.digests = {}
        self.calibration = []       # seconds of each calibration loop

    def record(self, outputs: dict, label: str):
        """Every repeat must write byte-identical outputs."""
        for name, digest in outputs.items():
            first = self.digests.setdefault(name, digest)
            if digest != first:
                self.failures.append(f"{name} differs in {label}")

    def calibrate(self):
        self.calibration.append(calibration_loop())

    def scale(self) -> float:
        """Factor from this run's host seconds to reference seconds."""
        return CAL_REF_S / statistics.mean(self.calibration)

    def setup(self, label) -> float:
        """Run the workload's set-up; returns its host seconds."""
        t0 = perf_counter()
        try:
            self.wl.setup()
        except self.errors as exc:
            self.failures.append(f"{label}: {exc}")
        dt = perf_counter() - t0
        self.record(self.wl.setup_outputs(), label)
        return dt

    def one_pass(self, label) -> float:
        """Run every call of a pass, calibrating before each one.

        Returns the host seconds spent in the calls.
        """
        total = 0.0
        for name, call in self.wl.calls():
            self.calibrate()
            self.attempted += 1
            t0 = perf_counter()
            try:
                ok = call()
            except self.errors as exc:
                self.failures.append(f"{label}, {name}: {exc}")
                ok = False
            total += perf_counter() - t0
            self.failed += not ok
        self.record(self.wl.outputs(), label)
        return total


def untraced(run: Run, seconds: float, rss_import_mb: float) -> dict:
    wl = run.wl
    # the first set-up and pass fill caches and are not measured
    run.setup("warm-up set-up")
    run.one_pass("warm-up pass")
    run.calibration.clear()
    setup_s, pass_s = [], []
    start = perf_counter()
    last = 0.0
    while len(pass_s) < MIN_PASSES or perf_counter() - start + last < seconds:
        t0 = perf_counter()
        run.calibrate()
        setup_s += [run.setup(f"set-up {len(setup_s)}")
                    for _ in range(wl.setups_per_round)]
        pass_s.append(run.one_pass(f"pass {len(pass_s)}"))
        last = perf_counter() - t0
    run.calibrate()
    failures, quality = wl.check()
    run.failures += failures
    scale = run.scale()
    wall = statistics.mean(pass_s) * scale
    return {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.mean(setup_s) * scale, "s"),
        "samples_per_s": (wl.samples_per_pass / wall, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        # the interpreter, numpy, scipy and the library's import make up
        # nearly all of peak_rss_mb; this is what the workload adds to it
        "rss_above_import_mb": (peak_rss_mb() - rss_import_mb, "MB"),
        "result_err_K": (quality["result_err_K"], "K"),
    }, {"host_pass_s": pass_s, "host_setup_s": setup_s, "scale": scale,
        "calibration_s": run.calibration}


def traced(run: Run, seconds: float, workload_name: str) -> dict:
    from tracer import Tracer, layer_metrics, span_names
    wl = run.wl
    plain_s, traced_s, layers, fired = [], [], [], []
    start = perf_counter()
    last = 0.0
    while not layers or perf_counter() - start + last < seconds:
        t0 = perf_counter()
        run.setup(f"untraced set-up {len(plain_s)}")
        plain_s.append(run.one_pass(f"untraced pass {len(plain_s)}"))
        tr = Tracer()
        with tr.installed():
            run.setup(f"traced set-up {len(traced_s)}")
            traced_s.append(run.one_pass(f"traced pass {len(traced_s)}"))
        last = perf_counter() - t0
        layers.append(layer_metrics(tr))
        fired.append({name: tr.calls[name] for name in span_names()})
    run.calibrate()
    failures, quality = wl.check()
    run.failures += failures
    run.failures += check_layers(workload_name, layers, fired)

    # timings: mean over repetitions at reference speed; counts are equal
    # in every repetition (checked above)
    scale = run.scale()
    units = metric_units("per_layer")
    metrics = {}
    for name in layers[0]:
        values = [r[name] for r in layers]
        value = statistics.mean(values) * scale \
            if units[name] in TIME_UNITS else values[0]
        metrics[name] = (value, units[name])
    for name in ("report.track_err_max_K", "detect.errors",
                 "sysid.fit_err_median"):
        metrics[name] = (quality[name], units[name])
    metrics["tracing.overhead_s"] = (
        (statistics.mean(traced_s) - statistics.mean(plain_s)) * scale, "s")
    return metrics, {"host_untraced_pass_s": plain_s,
                     "host_traced_pass_s": traced_s, "scale": scale,
                     "calls": fired[0]}


def check_layers(workload, layers, fired) -> list:
    """Wrappers fire exactly where predicted; counts repeat exactly."""
    pred = load_json(HERE / "predictions.json")
    failures = [f"span {span} has no prediction"
                for span in sorted(fired[0].keys() - pred["fires"].keys())]
    listed = [m for layer in pred["layers"] for m in layer["metrics"]]
    per_layer = set(metric_units("per_layer")) - {"tracing.overhead_s"}
    if sorted(listed) != sorted(per_layer):
        failures.append("predictions.json layers do not list each "
                        "per_layer metric of BENCHMARK.json once")
    for span, where in pred["fires"].items():
        calls = fired[0].get(span)
        if calls is None:
            failures.append(f"prediction names unknown span {span}")
        elif (calls > 0) != (workload in where):
            failures.append(f"span {span} made {calls} calls, predicted "
                            f"{'some' if workload in where else 'none'}")
    for metric, where in pred["nonzero"].items():
        value = layers[0][metric]
        if (value > 0) != (workload in where):
            failures.append(f"{metric} = {value}, predicted "
                            f"{'> 0' if workload in where else '0'}")
    units = metric_units("per_layer")
    counts = [{k: v for k, v in r.items() if units[k] not in TIME_UNITS}
              for r in layers]
    if any(c != counts[0] for c in counts[1:]) \
            or any(f != fired[0] for f in fired[1:]):
        failures.append("counts differ between traced repetitions")
    return failures


def metric_units(kind: str) -> dict:
    """Name -> unit of the end_to_end or per_layer metrics."""
    bench = load_json(ROOT / "BENCHMARK.json")
    return {m["name"]: m["unit"] for m in bench[kind]}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_library()
    from thermocover.errors import ThermocoverError
    from workloads import WORKLOADS, CheckFailed
    rss_import_mb = peak_rss_mb()

    work_dir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        run = Run(WORKLOADS[args.workload](work_dir, args.seed),
                  (ThermocoverError, CheckFailed))
        if args.trace:
            metrics, timings = traced(run, args.seconds, args.workload)
        else:
            metrics, timings = untraced(run, args.seconds, rss_import_mb)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        parent = work_dir.parent
        if parent.is_dir() and not any(parent.iterdir()):
            parent.rmdir()

    units = metric_units("per_layer" if args.trace else "end_to_end")
    if {n: u for n, (_, u) in metrics.items()} != units:
        run.failures.append("metrics differ from BENCHMARK.json")
    correct = not run.failures and run.failed == 0
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": run.wl.seed_used,
        "trace": args.trace,
        "env": environment(),
        "import_s": import_s,
        "timings": timings,
        "outputs_sha256": run.digests,
        "failures": run.failures,
    }
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
