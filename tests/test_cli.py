"""Command-line verbs, exit codes, and artifact outputs."""

import contextlib
import functools
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_fopdt_trace, make_plant_step_run
from thermocover import kvio, mpc
from thermocover.cli import build_parser, main
from thermocover.errors import ConvergenceError
from thermocover.params import Mode, preset_params
from thermocover.report import parse_report
from thermocover.scenario import (builtin_scenarios, load_scenario,
                                  scenario_from_kv, scenario_to_kv)
from thermocover.trace import COLUMNS, SimTrace


SHORT_SCENARIO = """\
name = mini
target = cover
t_s = 1.0
dt = 0.1
initial_temp = ambient
setpoints = 23:60
"""


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("exp1_heat", "exp1_cool", "exp2_grasp", "exp2_nocontact"):
        assert name in out


def test_print_config(capsys):
    assert main(["print-config", "exp2_grasp"]) == 0
    items = kvio.loads(capsys.readouterr().out)
    assert items["name"] == "exp2_grasp"
    assert float(items["contact.0.duration"]) == 5.0


def test_print_config_with_override(capsys):
    # a key set again applies on top of the one before
    assert main(["print-config", "exp1_heat", "--set", "controller.H=5",
                 "--set", "controller.H=7"]) == 0
    assert int(kvio.loads(capsys.readouterr().out)["controller.H"]) == 7


def test_one_parser_carries_nothing_between_calls(tmp_path, capsys,
                                                   monkeypatch):
    # main builds its parser once per process; a second call sees none of
    # the first's overrides, fit flags or output directory
    assert build_parser() is build_parser()
    assert main(["print-config", "exp1_heat", "--set", "controller.H=7"]) == 0
    assert int(kvio.loads(capsys.readouterr().out)["controller.H"]) == 7
    assert main(["print-config", "exp1_heat"]) == 0
    assert int(kvio.loads(capsys.readouterr().out)["controller.H"]) == 20

    parser = build_parser()
    fit = parser.parse_args(["fit", "a.csv", "--model", "two-node",
                             "--signal", "T_c", "--c-co", "5", "--r-co", "6",
                             "--out", "x.txt"])
    assert (fit.model, fit.signal, fit.c_co, fit.r_co, fit.out) == \
        ("two-node", "T_c", 5.0, 6.0, "x.txt")
    tank = preset_params(Mode.HEAT)
    fit = parser.parse_args(["fit", "a.csv"])
    assert (fit.model, fit.signal, fit.c_co, fit.r_co, fit.out) == \
        ("fopdt", "T_w", tank.C_co, tank.R_co, None)

    scenario = tmp_path / "mini.txt"
    scenario.write_text(SHORT_SCENARIO)
    first, second = tmp_path / "first", tmp_path / "second"
    second.mkdir()
    assert main(["run", str(scenario), "--out-dir", str(first),
                 "--set", "detection.threshold=0.2"]) == 0
    monkeypatch.chdir(second)
    assert main(["run", str(scenario)]) == 0
    report = (second / "mini_report.txt").read_text()
    assert "# override" not in report
    assert parse_report(report)["detection.threshold"] == "0.12"
    assert "# override: detection.threshold=0.2" in \
        (first / "mini_report.txt").read_text()


def test_run_scenario_file_with_override(tmp_path, capsys):
    scenario = tmp_path / "mini.txt"
    scenario.write_text(SHORT_SCENARIO)
    assert main(["run", str(scenario), "--out-dir", str(tmp_path / "out"),
                 "--set", "detection.threshold=0.2"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"wrote {tmp_path / 'out' / 'mini_trace.csv'}",
        f"wrote {tmp_path / 'out' / 'mini_report.txt'}"]

    trace = SimTrace.from_csv(tmp_path / "out" / "mini_trace.csv")
    assert len(trace) == 60
    assert np.allclose(np.diff(trace.t), 1.0)

    report = (tmp_path / "out" / "mini_report.txt").read_text()
    assert "# override: detection.threshold=0.2" in report
    assert parse_report(report)["detection.threshold"] == "0.2"


def test_run_solver_failure_exits_numeric(tmp_path, capsys, monkeypatch):
    def failing_solve(*args, **kwargs):
        raise ConvergenceError("active-set updates hit 10000 before the "
                               "KKT test passed", residual=0.25)

    monkeypatch.setattr(mpc, "solve_mpc", failing_solve)
    scenario = tmp_path / "mini.txt"
    scenario.write_text(SHORT_SCENARIO)
    assert main(["run", str(scenario), "--out-dir", str(tmp_path)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: mini: at t = 0 s: active-set updates hit 10000 "
                   "before the KKT test passed"]


def test_run_with_large_weights_exits_ok(tmp_path, capsys):
    # a Hessian scaled by about 1e8 still meets the stopping test in K
    assert main(["run", "exp1_heat", "--out-dir", str(tmp_path),
                 "--set", "controller.W1=1e12",
                 "--set", "controller.W2=1e8"]) == 0
    capsys.readouterr()


def test_run_unknown_scenario(capsys):
    assert main(["run", "no_such_scenario"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


@pytest.mark.parametrize("override", [
    "nonsense", "t_s=abc", "t_s=nan", "controller.W1=nan",
    "detection.threshold=nan", "controller.H=2.5",
    # each key parses its own type: true is not a number
    "controller.H=true", "t_s=true", "detection.threshold=true",
    # QP or run too large: horizon, preview past the dead time, run size
    "controller.H=1001", "t_s=0.01 dt=0.001", "total_duration=1e7",
    "dt=1e-300",
    # the name is a file-name stem: no path, no comment, not empty
    "name=../escape", "name=a#b", "name=",
    # pump bands below zero
    "pump.on_band=-1 pump.off_band=-2", "pump.off_band=-1",
    # temperatures below absolute zero
    "initial_temp=-500", "controller.T_min_th=-300",
])
def test_run_bad_override(tmp_path, capsys, override):
    scenario = tmp_path / "mini.txt"
    scenario.write_text(SHORT_SCENARIO)
    sets = [arg for item in override.split() for arg in ("--set", item)]
    assert main(["run", str(scenario), "--out-dir", str(tmp_path / "out"),
                 *sets]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [scenario]


@pytest.mark.parametrize("override, code", [
    # filter constants with no well-conditioned discrete observer
    ("observer_tc=1e-200", 2), ("observer_tc=1e-160", 2),
    ("observer_tc=1e-100", 2), ("observer_tc=1e-8", 2),
    ("observer_tc=1e300", 2),
    # a hold or a gate longer than the run: no detection
    ("detection.min_hold=1e308", 0), ("detection.switch_gate=1e308", 0),
    # weights that overflow the QP's Hessian or the cached map
    ("controller.W1=1e308", 2), ("controller.W2=1e308", 2),
])
def test_run_time_failure_exits_with_one_line(tmp_path, capsys, override,
                                              code):
    # these values pass the scenario checks and fail, if at all, in the run
    assert main(["run", "exp2_nocontact", "--out-dir", str(tmp_path),
                 "--set", "total_duration=20", "--set", override]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == (code != 0)
    assert all(line.startswith("error: ") for line in err)


@pytest.mark.parametrize("scenario, override", [
    # the held contact flow overshot the skin, g dt / C_c = 2.5: exit 0
    # with T_c = 6.1e18 in the trace
    ("exp2_grasp", "contact.0.conductance=20"),
])
def test_run_past_plant_stability_margin_exits_config(tmp_path, capsys,
                                                      scenario, override):
    out = tmp_path / "out"
    assert main(["run", scenario, "--out-dir", str(out),
                 "--set", override]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "stability margin" in err
    assert not out.exists()


def test_run_with_plate_lag_far_below_dt_exits_ok(tmp_path):
    # the plant's maps are exact in the plate lag, so a lag of a tenth of
    # dt runs and settles where the snapped plate (lag 0) does
    errors = []
    for lag in ("0.01", "0"):
        out = tmp_path / lag
        assert main(["run", "exp1_heat", "--out-dir", str(out),
                     "--set", f"peltier_lag={lag}"]) == 0
        report = parse_report((out / "exp1_heat_report.txt").read_text())
        errors.append(np.array([float(report[f"segment.{i}.{key}"])
                                for i in range(3)
                                for key in ("steady_state_error",
                                            "mean_abs_error_tail")]))
    assert np.max(np.abs(errors[0] - errors[1])) < 1e-3


@pytest.mark.parametrize("lag", ["1e-9", "1e-30", "1e-50", "1e-300",
                                 "5e-324"])
def test_plate_lag_below_the_snap_floor_runs_as_lag_zero(tmp_path, lag):
    # a lag below a millionth of dt snaps the plate: the run writes lag 0's
    # trace, where the exact map's exponential loses its accuracy or is
    # not finite
    traces = []
    for value in (lag, "0"):
        out = tmp_path / value
        assert main(["run", "exp1_heat", "--out-dir", str(out),
                     "--set", "total_duration=300", "--set", "peltier_power=6",
                     "--set", f"peltier_lag={value}"]) == 0
        traces.append((out / "exp1_heat_trace.csv").read_bytes())
    assert traces[0] == traces[1]


@pytest.mark.parametrize("name, switches", [
    ("exp1_heat", 4), ("exp1_cool", 2), ("exp1_heat_after_cool", 3),
    ("exp2_grasp", 0), ("exp2_softtouch", 0), ("exp2_nocontact", 0)])
def test_run_reports_mode_switches(tmp_path, name, switches):
    # the staircases' 4 + 2 + 3 switches; the exp2 runs heat throughout
    assert main(["run", name, "--out-dir", str(tmp_path)]) == 0
    report = parse_report((tmp_path / f"{name}_report.txt").read_text())
    assert report["mpc.mode_switches"] == str(switches)
    times = [float(report[f"mpc.mode_switch.{i}.time"])
             for i in range(switches)]
    assert f"mpc.mode_switch.{switches}.time" not in report
    assert times == sorted(set(times)) and all(t > 0.0 for t in times)


def test_run_grasp_on_cool_staircase_exits_ok(tmp_path):
    # a grasp in cool mode, g dt / C_c = 0.8, stays inside the margin
    assert main(["run", "exp1_cool", "--out-dir", str(tmp_path),
                 "--set", "total_duration=40", "--set", "contact.0.start=10",
                 "--set", "contact.0.conductance=0.8"]) == 0


def test_scenario_file_unknown_key_exits_config(tmp_path, capsys):
    scenario = tmp_path / "mini.txt"
    scenario.write_text(SHORT_SCENARIO + "detection.smoothing_cutoff = 0\n")
    assert main(["run", str(scenario), "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown scenario keys") \
        and err.count("\n") == 1


def test_scenario_file_repeated_key_exits_config(tmp_path, capsys):
    scenario = tmp_path / "mini.txt"
    scenario.write_text(SHORT_SCENARIO + "controller.H = 7\n"
                        "controller.H = 9\n")
    assert main(["run", str(scenario), "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "error: line 8: 'controller.H' repeats line 7\n")
    assert list(tmp_path.iterdir()) == [scenario]


@pytest.mark.parametrize("verb", ["print-config", "run"])
def test_scenario_directory_exits_io(tmp_path, capsys, verb):
    # a path that exists is read as a scenario file
    assert main([verb, str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_scenario_file_not_utf8_exits_config(tmp_path, capsys):
    scenario = tmp_path / "mini.txt"
    scenario.write_bytes(SHORT_SCENARIO.encode() + b"# caf\xe9\n")
    assert main(["run", str(scenario), "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [scenario]


@pytest.mark.parametrize("argv", [["run", "exp1_heat", "--t-step", "1"],
                                  ["fit", "step.csv", "--mode", "heat"]],
                         ids=["run--t-step", "fit--mode"])
def test_unknown_flag_exits_config(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.count("error:") == 1


def test_print_config_round_trips_setpoints(capsys):
    # the name is text whatever it looks like
    for name in ("exp1_heat", "1e3", "true"):
        assert main(["print-config", "exp1_heat", "--set", f"name={name}",
                     "--set", "setpoints=23.1234567:60.25"]) == 0
        spec = scenario_from_kv(kvio.loads(capsys.readouterr().out))
        assert spec.setpoints == ((23.1234567, 60.25),)
        assert spec.name == name


# every scenario key: the table's own keys, one contact's keys, and the
# optional total_duration that built-in scenarios leave unset
SCENARIO_KEYS = sorted(scenario_to_kv(builtin_scenarios()["exp2_grasp"])) \
    + ["total_duration"]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(key=st.sampled_from(SCENARIO_KEYS),
       value=st.one_of(st.text(), st.integers(),
                       st.floats(allow_nan=True, allow_infinity=True),
                       st.sampled_from(["nan", "-inf", "1e400", "1e308",
                                        "2.5", "ambient", "23:1e308",
                                        "true", "false", "1e3", "007"])))
def test_any_override_value_exits_ok_or_config_error(key, value):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(["print-config", "exp1_heat", "--set", f"{key}={value}"])
    assert code in (0, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ")


# zeros of both signs, huge and non-finite numbers, the empty string, enum
# names and setpoint schedules
HOSTILE_VALUES = ["0", "-0", "1e300", "-1e300", "nan", "inf", "-inf", "",
                  "heat", "cool", "cover", "pipe", "magnitude", "increment",
                  "grasp", "soft_touch", "ambient", "23:10", "23:1e300",
                  "1e300:10", "nan:10", "21:5 30:5"]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(name=st.sampled_from(["exp1_heat", "exp2_nocontact"]),
       overrides=st.lists(st.tuples(st.sampled_from(SCENARIO_KEYS),
                                    st.sampled_from(HOSTILE_VALUES)),
                          min_size=1, max_size=3))
def test_any_run_override_exits_ok_config_or_numeric(name, overrides):
    # a run forced short, then given hostile overrides, finishes, or fails
    # with one error line as a config or a numeric error: nothing escapes
    argv = ["run", name, "--set", "total_duration=20"]
    for key, value in overrides:
        argv += ["--set", f"{key}={value}"]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main([*argv, "--out-dir", tmp])
    assert code in (0, 2, 3)
    lines = err.getvalue().splitlines()
    assert len(lines) == (code != 0)
    assert all(line.startswith("error: ") for line in lines)


@functools.lru_cache(maxsize=None)
def _printed_config(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["print-config", name]) == 0
    return out.getvalue().encode()


# what one line of a scenario file becomes: None drops it, bytes replace
# it, and (offset, bytes) insert the bytes into it
LINE_EDITS = st.one_of(
    st.none(),
    st.sampled_from([b"\xff", b"name = caf\xe9", b"t_s = \xc3", b"=",
                     b"setpoints =", b"controller.H = 0"]),
    st.binary(max_size=30),
    st.text(max_size=30).map(str.encode),
    st.tuples(st.integers(0, 40), st.binary(min_size=1, max_size=3)),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(builtin_scenarios())),
       row=st.integers(0, 40), edit=LINE_EDITS)
def test_any_scenario_file_exits_ok_or_config_error(name, row, edit):
    lines = _printed_config(name).splitlines()
    row %= len(lines)
    if edit is None:
        del lines[row]
    elif isinstance(edit, bytes):
        lines[row] = edit
    else:
        at, junk = edit
        lines[row] = lines[row][:at] + junk + lines[row][at:]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.txt"
        path.write_bytes(b"\n".join(lines) + b"\n")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = main(["print-config", str(path)])
        assert code in (0, 2)
        if code == 2:
            assert err.getvalue().startswith("error: ")
        else:
            assert scenario_from_kv(kvio.loads(out.getvalue())) \
                == load_scenario(path)


def test_fit_missing_file(capsys):
    assert main(["fit", "/definitely/not/here.csv"]) == 4


def test_fit_truncated_file(tmp_path, capsys):
    csv = tmp_path / "cut.csv"
    csv.write_text(",".join(COLUMNS) + "\n" + "0," * 10 + "0\n" + "1,2,3")
    assert main(["fit", str(csv)]) == 2
    assert str(csv) in capsys.readouterr().err


def test_fit_fopdt_round_trip(tmp_path, capsys):
    # write a synthetic step trace in the simulator CSV format and fit it
    params = preset_params(Mode.HEAT)
    tr = make_fopdt_trace(params, n=3000)
    n = len(tr.t)
    z = np.zeros(n)
    trace = SimTrace(t=tr.t, T_p_cmd=tr.u, T_p=tr.u, T_co=z, T_w=tr.y,
                     T_c=z, pump_on=np.ones(n, dtype=bool), q_w=z,
                     q_i_true=z, q_i_hat=z,
                     contact_flag=np.zeros(n, dtype=bool))
    csv = tmp_path / "step.csv"
    trace.to_csv(csv)

    out = tmp_path / "fit.txt"
    assert main(["fit", str(csv), "--model", "fopdt", "--signal", "T_w",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    items = kvio.load(out)
    assert abs(float(items["R_com_C_com"]) - params.R_com_C_com) \
        < 0.01 * params.R_com_C_com
    assert abs(float(items["L_d"]) - params.L_d) < 0.01 * params.L_d
    assert int(items["nfev"]) > 0


# a short open-loop recording, pump stopped halfway, as an 11-column CSV
STEP_ROWS = 60


@functools.lru_cache(maxsize=1)
def _step_csv_rows():
    t, u, y_co, y_w, y_c, pump = make_plant_step_run(
        preset_params(Mode.HEAT), n=STEP_ROWS, pump_off_at=STEP_ROWS // 2)
    z = np.zeros(STEP_ROWS)
    trace = SimTrace(t=t, T_p_cmd=u, T_p=u, T_co=y_co, T_w=y_w, T_c=y_c,
                     pump_on=pump, q_w=z, q_i_true=z, q_i_hat=z,
                     contact_flag=z.astype(bool))
    return tuple(trace.to_csv_text().splitlines())


def _step_csv(column=None, row=0, value=""):
    """The recording's CSV text, with one cell replaced by ``value``."""
    lines = list(_step_csv_rows())
    if column is not None:
        cells = lines[row + 1].split(",")
        cells[COLUMNS.index(column)] = value
        lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _fit_exit(path, *args):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(["fit", str(path), *args])
    return code, err.getvalue()


def test_fit_step_recording_ok(tmp_path):
    csv = tmp_path / "step.csv"
    csv.write_text(_step_csv())
    for model in ("fopdt", "two-node"):
        assert _fit_exit(csv, "--model", model)[0] == 0


def test_fit_two_node_prints_cover_time_constant(tmp_path, capsys):
    csv = tmp_path / "step.csv"
    csv.write_text(_step_csv())
    assert main(["fit", str(csv), "--model", "two-node"]) == 0
    items = kvio.loads(capsys.readouterr().out)
    assert float(items["tau_c"]) == pytest.approx(
        float(items["R_c"]) * float(items["C_c"]), rel=1e-9)
    assert "confidence.tau_c" in items
    assert int(items["nfev"]) > 0


def test_fit_two_node_of_closed_loop_water_trace_exits_ok(tmp_path, capsys):
    # a single water sensor of a closed-loop run determines only tau_c
    # and the water node's constants; searched in log tau_c, the fit does
    # not run R_c onto its lower bound, where its column vanishes
    assert main(["run", "exp1_heat", "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["fit", str(tmp_path / "exp1_heat_trace.csv"),
                 "--model", "two-node", "--signal", "T_w"]) == 0
    items = kvio.loads(capsys.readouterr().out)
    assert float(items["residual_rms"]) == pytest.approx(0.128439,
                                                         abs=1e-6)


def test_fit_two_node_without_step_or_toggle_exits_config(tmp_path):
    # a flat recording: the input never steps and the pump never toggles
    n = 50
    z = np.zeros(n)
    flat = np.full(n, 20.0)
    trace = SimTrace(t=np.arange(n, dtype=float), T_p_cmd=flat, T_p=flat,
                     T_co=flat, T_w=flat, T_c=flat,
                     pump_on=np.ones(n, dtype=bool), q_w=z, q_i_true=z,
                     q_i_hat=z, contact_flag=z.astype(bool))
    csv = tmp_path / "flat.csv"
    trace.to_csv(csv)
    code, err = _fit_exit(csv, "--model", "two-node", "--signal", "T_w")
    assert code == 2
    assert err == "error: input never steps and pump never toggles\n"


@pytest.mark.parametrize("model", ["fopdt", "two-node"])
@pytest.mark.parametrize("column,row,value", [
    ("T_w", 10, "nan"), ("T_w", 10, "inf"), ("T_w", 0, "-inf"),
    ("T_w", 10, "1e300"), ("T_p_cmd", 1, "-1e300"),
    ("t", 10, "nan"), ("pump_on", 10, "nan"), ("pump_on", 10, "0.5"),
])
def test_fit_bad_trace_value_exits_config(tmp_path, model, column, row,
                                          value):
    csv = tmp_path / "step.csv"
    csv.write_text(_step_csv(column, row, value))
    code, err = _fit_exit(csv, "--model", model)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("model", ["fopdt", "two-node"])
@pytest.mark.parametrize("signal", ["pump_on", "T_p_cmd", "t", "T_x"])
def test_fit_signal_other_than_a_node_exits_config(tmp_path, model, signal):
    csv = tmp_path / "step.csv"
    csv.write_text(_step_csv())
    code, err = _fit_exit(csv, "--model", model, "--signal", signal)
    assert code == 2
    assert err == ("error: --signal must be T_w, T_c or T_co, "
                   f"got {signal!r}\n")


@pytest.mark.parametrize("model", ["fopdt", "two-node"])
def test_fit_reversed_time_exits_config(tmp_path, model):
    header, *rows = _step_csv_rows()
    csv = tmp_path / "reversed.csv"
    csv.write_text("\n".join([header, *rows[::-1]]) + "\n")
    code, err = _fit_exit(csv, "--model", model)
    assert code == 2
    assert err == "error: trace time must increase in finite steps\n"


def test_trace_csv_not_utf8_exits_config(tmp_path):
    csv = tmp_path / "step.csv"
    csv.write_bytes(_step_csv().encode().replace(b"\n1.0", b"\n\xff1.0", 1))
    code, err = _fit_exit(csv)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--c-co", "--r-co"])
@pytest.mark.parametrize("value", ["0", "nan", "-1", "inf"])
def test_fit_bad_tank_constant_exits_config(tmp_path, flag, value):
    csv = tmp_path / "step.csv"
    csv.write_text(_step_csv())
    code, err = _fit_exit(csv, "--model", "two-node", f"{flag}={value}")
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


@settings(derandomize=True, max_examples=200, deadline=None)
@given(column=st.sampled_from(["t", "T_p_cmd", "T_w", "pump_on"]),
       row=st.integers(0, STEP_ROWS - 1),
       value=st.one_of(st.sampled_from(["nan", "inf", "-inf", "1e300",
                                        "-1e300", ""]),
                       st.text()))
def test_any_trace_cell_exits_ok_config_or_numeric(column, row, value):
    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / "step.csv"
        csv.write_text(_step_csv(column, row, value), encoding="utf-8")
        for model in ("fopdt", "two-node"):
            code, err = _fit_exit(csv, "--model", model, "--signal", "T_w")
            assert code in (0, 2, 3)
            if code != 0:
                assert err.startswith("error: ")
