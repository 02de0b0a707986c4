"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --out baseline.json

Runs ``run.py`` on every workload of BENCHMARK.json, once per seed with
tracing off (seeds 1..RUNS), then once with tracing on (seed 1), one
process at a time, each for the ``run_seconds`` of BENCHMARK.json.  For
each end-to-end metric it reports the median, the quartiles and the
spread (interquartile distance over the median) against the bound in
BENCHMARK.json; for each per-layer metric, the value of the traced run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10   # runs per workload whose spread the acceptance check takes


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                 f"{proc.stdout}{proc.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarise(values, bound):
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    return {"median": med, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    summary = {"run_seconds": seconds, "runs": RUNS, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        values = {name: [] for name in bounds}
        for seed in range(1, RUNS + 1):
            detail, result = run_once(workload, seed, seconds, 0)
            summary["env"] = detail["env"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        entry = {"end_to_end": {name: summarise(v, bounds[name])
                                for name, v in values.items()}}
        _, result = run_once(workload, 1, seconds, 1)
        entry["per_layer_seed1"] = {
            k: v["value"] for k, v in result["metrics"].items()}
        summary["workloads"][workload] = entry
        for name, s in entry["end_to_end"].items():
            print(f"{workload:10s} {name:14s} median {s['median']:.6g} "
                  f"spread {s['spread']:.4f} (bound {s['bound']})",
                  flush=True)
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n",
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
