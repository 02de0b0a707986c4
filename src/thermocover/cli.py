"""Command-line harness for running scenarios and fitting traces.

Verbs: ``run``, ``list``, ``print-config``, ``fit``.  Exit codes: 0 ok,
2 configuration error, 3 numeric failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import kvio
from .detect import detect_contacts
from .errors import ConfigError, IllConditionedFitError, NumericError
from .report import analyze_segments, render_report
from .scenario import (ScenarioSpec, apply_overrides, builtin_scenarios,
                       load_scenario, scenario_to_kv)
from .simulate import simulate
from .sysid import StepTrace, fit_fopdt, fit_two_node

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _resolve_scenario(name: str) -> ScenarioSpec:
    scenarios = builtin_scenarios()
    if name in scenarios:
        return scenarios[name]
    path = Path(name)
    if path.exists():
        return load_scenario(path)
    raise ConfigError(
        f"unknown scenario {name!r}; available: "
        + ", ".join(sorted(scenarios))
    )


def cmd_run(args) -> int:
    spec = _resolve_scenario(args.scenario)
    overrides = args.set or []
    if overrides:
        spec = apply_overrides(spec, overrides)

    trace = simulate(spec)
    detection = detect_contacts(trace, spec.detection)
    segments = analyze_segments(trace, spec)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace.to_csv(out_dir / f"{spec.name}_trace.csv")
    report = render_report(spec, segments, detection, overrides=overrides)
    (out_dir / f"{spec.name}_report.txt").write_text(report, encoding="utf-8")
    print(f"wrote {out_dir / (spec.name + '_trace.csv')}")
    print(f"wrote {out_dir / (spec.name + '_report.txt')}")
    return EXIT_OK


def cmd_list(_args) -> int:
    for name, spec in sorted(builtin_scenarios().items()):
        sp = ", ".join(f"{v:g}" for v, _ in spec.setpoints)
        print(f"{name:24s} target={spec.target.value:5s} "
              f"setpoints=[{sp}] contacts={len(spec.contacts)}")
    return EXIT_OK


def cmd_print_config(args) -> int:
    if args.scenario:
        spec = _resolve_scenario(args.scenario)
    else:
        spec = builtin_scenarios()["exp1_heat"]
    if args.set:
        spec = apply_overrides(spec, args.set)
    sys.stdout.write(kvio.dumps(scenario_to_kv(spec),
                                header=f"scenario {spec.name}"))
    return EXIT_OK


def cmd_fit(args) -> int:
    trace = StepTrace.from_csv(args.csv, signal=args.signal)
    if args.model == "fopdt":
        report = fit_fopdt(trace)
    else:
        report = fit_two_node([trace], C_co=args.c_co, R_co=args.r_co)
    text = kvio.dumps(report.to_kv(),
                      header=f"{args.model} fit of {args.csv}")
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermocover",
        description="Simulate and analyze the thermal robotic cover system",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario end to end")
    p_run.add_argument("scenario", help="builtin name or scenario file")
    p_run.add_argument("--out-dir", default=".", help="output directory")
    p_run.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a scenario key (repeatable)")
    p_run.set_defaults(func=cmd_run)

    p_list = sub.add_parser("list", help="list builtin scenarios")
    p_list.set_defaults(func=cmd_list)

    p_cfg = sub.add_parser("print-config",
                           help="print a scenario as key-value text")
    p_cfg.add_argument("scenario", nargs="?", default=None)
    p_cfg.add_argument("--set", action="append", metavar="KEY=VALUE")
    p_cfg.set_defaults(func=cmd_print_config)

    p_fit = sub.add_parser("fit", help="fit model parameters to a trace CSV")
    p_fit.add_argument("csv")
    p_fit.add_argument("--model", choices=["fopdt", "two-node"],
                       default="fopdt")
    p_fit.add_argument("--signal", default="T_w",
                       help="measured column (T_w, T_c or T_co)")
    p_fit.add_argument("--c-co", type=float, default=1152.57,
                       help="known tank capacitance for the two-node fit")
    p_fit.add_argument("--r-co", type=float, default=0.09,
                       help="known tank resistance for the two-node fit")
    p_fit.add_argument("--out", default=None,
                       help="write the fitted parameters to this file")
    p_fit.set_defaults(func=cmd_fit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except UnicodeDecodeError as exc:
        print(f"error: input is not UTF-8 text: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConfigError, IllConditionedFitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
