import contextlib
import io
import json
import os
import signal
import subprocess
import sys
import warnings

import numpy as np
import pytest

from sltwist import cli
from sltwist import curve as curve_mod
from sltwist.cli import main


def run_cli(*args):
    """A CLI call in a new interpreter, for what only a process shows."""
    proc = subprocess.run([sys.executable, "-m", "sltwist.cli", *args],
                          capture_output=True, text=True)
    return proc


def run(capsys, *argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    try:
        code = main(list(argv))
    except SystemExit as exc:           # argparse refuses the arguments
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_periods_json_output(capsys):
    code, out, _ = run(capsys, "periods", "--p", "1", "--q", "2", "--tau", "0.1", "--json")
    assert code == 0
    data = json.loads(out)
    assert abs(float(data["p_tau"]) - 1.8677652614711293) < 1e-10
    assert "pthat_quadrature" in data and "p_plus_quadrature" in data


def test_identical_invocations_bit_identical():
    a = run_cli("periods", "--p", "2", "--q", "3", "--tau", "0.05", "--json")
    b = run_cli("periods", "--p", "2", "--q", "3", "--tau", "0.05", "--json")
    assert a.stdout == b.stdout


def test_necklace_output(capsys):
    code, out, _ = run(capsys, "necklace", "--p", "1", "--q", "2", "--m", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["k0"] == 7
    assert 0.15 < float(data["tau"]) < 0.17


def test_closure_subcommand(capsys):
    code, out, _ = run(capsys, "closure", "--p", "1", "--q", "2", "--target", "4/7", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["report"]["k0"] == 7
    assert float(data["pthat_error"]) <= 1e-10
    assert float(data["closure_residual"]) <= 1e-7


def test_verify_passes_for_symmetric_pair():
    assert main(["verify", "--p", "2", "--q", "2", "--tau", "0.06"]) == 0


@pytest.mark.parametrize("p,q,tau", [(1, 2, -0.1), (2, 3, -0.05), (2, 2, -0.06),
                                     (3, 4, -0.01)])
def test_verify_passes_at_negative_twist(p, q, tau, capsys):
    assert main(["verify", "--p", str(p), "--q", str(q), "--tau", str(tau)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == (18 if p == q else 17)     # the p = q exchange check
    assert all(line.startswith("PASS") for line in lines)


def test_argument_errors_exit_two(capsys):
    assert run(capsys, "closure", "--p", "1", "--q", "2")[0] == 2
    assert run(capsys, "closure", "--p", "1", "--q", "2", "--target", "4:7")[0] == 2
    assert run(capsys, "periods", "--p", "2", "--q", "1", "--tau", "0.1")[0] == 2
    assert run(capsys, "periods", "--p", "1", "--q", "2", "--tau", "0.9")[0] == 2


def test_negative_exponent_tau_is_a_value(capsys):
    # argparse alone reads -9.3e-05 as a flag: "expected one argument"
    tau = "-9.295160030897801e-05"
    code, out, err = run(capsys, "periods", "--p", "2", "--q", "3", "--tau", tau)
    assert code == 0 and err == ""
    assert run(capsys, "periods", "--p", "2", "--q", "3", f"--tau={tau}") == (0, out, "")


# a window must be positive and finite, a sample count at least 2
@pytest.mark.parametrize("argv,flag", [
    (["neck", "--p", "1", "--q", "2", "--tau", "0.001", "--window", "-1"], "--window"),
    (["solve", "--p", "1", "--q", "2", "--tau", "0.1", "--window", "0"], "--window"),
    (["solve", "--p", "1", "--q", "2", "--tau", "0.1", "--window", "-1"], "--window"),
    (["solve", "--p", "1", "--q", "2", "--tau", "0.1", "--window", "inf"], "--window"),
    (["closure", "--p", "1", "--q", "2", "--target", "4/7", "--samples", "0"], "--samples"),
    (["export", "--p", "1", "--q", "2", "--tau", "0.1", "--format", "obj",
      "--samples", "1", "--out", "never-written.obj"], "--samples"),
])
def test_window_and_samples_out_of_range_exit_two(argv, flag, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert f"argument {flag}: " in err


# NaN passes every range test; TwistParam refuses it for every p
@pytest.mark.parametrize("argv", [
    ["solve", "--p", "2", "--q", "3", "--tau", "nan", "--window", "1"],
    ["torque", "--p", "2", "--q", "3", "--tau", "nan", "--json"],
    ["export", "--p", "2", "--q", "3", "--tau", "nan", "--format", "csv",
     "--samples", "5", "--out", "nan.csv"],
    ["solve", "--p", "1", "--q", "2", "--tau", "nan", "--window", "1"],
])
def test_nan_tau_exits_two(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: tau is NaN\n"
    assert list(tmp_path.iterdir()) == []


# below what doubles resolve: 4 tau^2 underflows, 1 - y_max is under one ulp
# of 1, or the branch quadrature is not finite
@pytest.mark.parametrize("argv,expected", [
    (["periods", "--p", "2", "--q", "3", "--tau", "1e-200"], 2),
    (["asymptotics", "--p", "2", "--q", "3", "--tau-list", "1e-200"], 2),
    (["asymptotics", "--p", "1", "--q", "2", "--tau-list", "1e-9"], 2),
    (["asymptotics", "--p", "4", "--q", "4", "--tau-list", "1e-30"], 3),
])
def test_unresolved_tiny_tau_is_refused_at_once(argv, expected, capsys):
    def hung(signum, frame):
        raise TimeoutError(f"{argv} still runs after 20 s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(20)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, *argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert (code, out, caught) == (expected, "", [])
    prefix = {2: "error: ", 3: "numerical failure: "}[expected]
    assert err.startswith(prefix) and err.count("\n") == 1 and err.endswith("\n")
    assert f"|tau|={float(argv[-1])} " in err


def test_failed_cross_check_prints_only_its_verify_line(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "verify", "--p", "2", "--q", "2", "--tau", "1e-5")
    assert code == 1
    assert [line.split()[0] for line in out.splitlines() if "dpthat/dtau" in line] == ["FAIL"]
    assert err == "" and caught == []


def test_verify_json_pass_flags_are_booleans(capsys):
    # a numpy bool, which a numpy float64 value gives, is encoded as the string "True"
    code, out, _ = run(capsys, "verify", "--p", "2", "--q", "5", "--tau", "0.01", "--json")
    checks = json.loads(out)["checks"]
    assert {"symmetry det_rotation", "symmetry omega_reflection"} <= set(checks)
    assert {type(c["pass"]) for c in checks.values()} == {bool}
    assert code == (0 if all(c["pass"] for c in checks.values()) else 1)


# one argv of each shape the perfbench workloads send
@pytest.mark.parametrize("argv", [
    ["verify", "--p", "2", "--q", "3", "--tau", "0.05", "--json"],
    ["periods", "--p", "1", "--q", "2", "--tau", "1e-05", "--json"],
    ["neck", "--p", "1", "--q", "2", "--tau", "0.0005", "--window", "2.0", "--json"],
    ["asymptotics", "--p", "2", "--q", "2", "--tau-list", "0.001,0.0001", "--json"],
    ["export", "--p", "1", "--q", "3", "--tau", "-0.05", "--format", "csv",
     "--samples", "12000", "--out", "r-export.csv"],
    ["solve", "--p", "2", "--q", "3", "--tau", "0.03", "--samples", "15000",
     "--out", "r-solve.csv"],
    ["closure", "--p", "1", "--q", "2", "--target", "4/7", "--json"],
    ["necklace", "--p", "2", "--q", "2", "--m", "3", "--json"],
    ["torque", "--p", "3", "--q", "4", "--tau", "-0.01", "--json"],
])
def test_benchmark_argv_shapes_parse(argv):
    args = cli.build_parser().parse_args(argv)
    assert args.fn is getattr(cli, f"cmd_{argv[0]}")
    assert (args.p, args.q) == (int(argv[2]), int(argv[4]))
    for flag, text in zip(argv[5:], argv[6:]):
        if not flag.startswith("--") or text.startswith("--"):
            continue                            # --json, or a value
        value = getattr(args, flag[2:].replace("-", "_"))
        if flag == "--target":
            assert f"{value.numerator}/{value.denominator}" == text
        else:
            assert value == type(value)(text)


@pytest.mark.parametrize("argv", [
    ["periods", "--p", "1", "--q", "2", "--tau", "0.1", "--m", "3"],
    ["verify", "--p", "1", "--q", "2", "--tau", "0.1", "--tol", "fast"],
])
def test_foreign_or_unchecked_options_exit_two(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_unattainable_target_exits_three():
    proc = run_cli("closure", "--p", "1", "--q", "2", "--target", "1/2")
    assert proc.returncode == 3         # through `python -m sltwist.cli`


def test_closure_refuses_order_above_cap_before_search(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "find_tau_for_angular_period",
                        lambda *args, **kwargs: calls.append(args))
    assert main(["closure", "--p", "1", "--q", "2", "--target", "550001/1000000"]) == 2
    err = capsys.readouterr().err
    assert "k0 = 2000000" in err and "cap 1000000" in err
    assert calls == []


@pytest.mark.parametrize("argv", [
    ("closure", "--p", "2", "--q", "3", "--target", "3/5"),
    ("necklace", "--p", "1", "--q", "2", "--m", "8"),
])
def test_closure_search_hands_back_the_curve_it_checked(monkeypatch, capsys, argv):
    # the found tau is integrated once for its period inside the search and
    # once more over the closing span, not a third time for a new Curve
    spans = []
    solve_w = curve_mod.solve_w

    def counted(param, span, tol):
        spans.append((param.tau, span))
        return solve_w(param, span, tol)

    monkeypatch.setattr(curve_mod, "solve_w", counted)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    tau = float(out.split()[2])             # "tau = <repr>"
    found = [span for t, span in spans if t == tau]
    assert len(found) == 2
    assert found[0][0] == found[1][0] and found[0][1] < found[1][1]


def test_solve_csv(tmp_path):
    out = tmp_path / "w.csv"
    code = main(["solve", "--p", "1", "--q", "2", "--tau", "0.1",
                 "--out", str(out), "--samples", "11", "--window", "1.0"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,re_w1,im_w1,re_w2,im_w2"
    assert len(lines) == 12


def test_torque_subcommand(capsys):
    code, out, _ = run(capsys, "torque", "--p", "1", "--q", "2", "--tau", "0.1", "--json")
    assert code == 0
    data = json.loads(out)
    assert float(data["meridian_gap"]) < 1e-8


def test_torque_json_reports_carry_no_basis_and_no_negative_zero(capsys):
    code, out, _ = run(capsys, "torque", "--p", "2", "--q", "3", "--tau", "-0.05", "--json")
    assert code == 0
    reports = json.loads(out)["reports"]
    assert reports[2]["closed_form"] == "0"          # the off-diagonal direction
    assert all("basis" not in r for r in reports)


def test_asymptotics_subcommand(capsys):
    code, out, _ = run(capsys, "asymptotics", "--p", "2", "--q", "2",
                       "--tau-list", "1e-2,1e-3", "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data["reports"]) > 0


def test_neck_subcommand(capsys):
    code, out, _ = run(capsys, "neck", "--p", "1", "--q", "2", "--tau", "1e-3",
                       "--window", "1.5", "--json")
    assert code == 0
    data = json.loads(out)
    assert float(data["max_error"]) < 0.1


@pytest.mark.parametrize("p,q,waist,degree", [(2, 3, 0, 2), (2, 3, 1, 3), (1, 4, 1, 4)])
def test_neck_reports_the_profile_symmetry(p, q, waist, degree, capsys):
    # the reflection residual of the unit profile the neck is compared with
    code, out, err = run(capsys, "neck", "--p", str(p), "--q", str(q), "--tau", "0.001",
                         "--waist", str(waist), "--json")
    assert code == 0, err
    data = json.loads(out)
    assert data["catenoid_degree"] == degree
    assert float(data["profile_symmetry"]) <= 1e-9


@pytest.mark.parametrize("p,q", [(1, 3), (2, 3)])
def test_neck_default_window_is_half_the_degree_three_lifetime(p, q, capsys):
    from sltwist.catenoid import catenoid_lifetime

    code, out, err = run(capsys, "neck", "--p", str(p), "--q", str(q), "--tau", "0.001",
                         "--json")
    assert code == 0, err
    data = json.loads(out)
    assert data["catenoid_degree"] == 3
    assert float(data["window"]) == 0.5 * catenoid_lifetime(3)


def test_neck_explicit_window_past_lifetime_exits_two(capsys):
    code, _, err = run(capsys, "neck", "--p", "1", "--q", "3", "--tau", "0.001",
                       "--window", "2.0")
    assert code == 2
    assert "window 2.0 exceeds the degree-3 catenoid lifetime" in err


def test_export_obj(tmp_path):
    out = tmp_path / "x.obj"
    code = main(["export", "--p", "1", "--q", "2", "--tau", "0.1",
                 "--format", "obj", "--out", str(out), "--samples", "12"])
    assert code == 0
    from sltwist.geometry import validate_obj

    verts, faces = validate_obj(out)
    assert verts == 144


@pytest.mark.parametrize("k", range(-8, 9))
def test_neck_finds_every_waist_at_p_one(k, capsys):
    # waist k of a p = 1 curve sits at (2k - 1) p_tau; k = 6, 7, -5 and -6 once exited 2
    code, out, err = run(capsys, "neck", "--p", "1", "--q", "2", "--tau", "0.05",
                         "--waist", str(k), "--json")
    assert code == 0, err
    assert json.loads(out)["waist_index"] == k


def _curve(p, q, tau):
    from sltwist.curve import Curve
    from sltwist.twisted_curve import AdmissiblePair, TwistParam

    return Curve(TwistParam(AdmissiblePair(p, q), tau), cli.TOL_PRESETS["standard"])


def test_export_json_round_trips_the_period_data(tmp_path, capsys):
    from sltwist.geometry import report_from_json
    from sltwist.periods import PeriodData

    out = tmp_path / "p.json"
    code, stdout, _ = run(capsys, "export", "--p", "1", "--q", "2", "--tau", "0.1",
                          "--format", "json", "--out", str(out))
    assert (code, stdout) == (0, f"wrote {out}\n")
    back = report_from_json(out.read_text(), PeriodData, "PeriodData")
    assert back == _curve(1, 2, 0.1).period


def test_export_csv_rows_are_the_curve(tmp_path, capsys):
    from sltwist.geometry import format_float

    out = tmp_path / "w.csv"
    code, _, _ = run(capsys, "export", "--p", "2", "--q", "3", "--tau", "0.05",
                     "--samples", "9", "--out", str(out))
    assert code == 0
    ts = np.linspace(-5.0, 5.0, 9)             # the default csv window is 5.0
    w1, w2 = _curve(2, 3, 0.05).traj(-5.0, 5.0).w(ts)
    rows = [",".join(format_float(v) for v in (t, a.real, a.imag, b.real, b.imag))
            for t, a, b in zip(ts, w1, w2)]
    assert out.read_text() == "\n".join(["t,re_w1,im_w1,re_w2,im_w2", *rows]) + "\n"


def test_solve_without_out_reports_the_drift(capsys):
    code, out, _ = run(capsys, "solve", "--p", "1", "--q", "2", "--tau", "0.1", "--json")
    assert code == 0
    data = json.loads(out)
    curve = _curve(1, 2, 0.1)
    window = 2.0 * curve.period.p_tau          # the default half window
    assert float(data["window"]) == window
    assert {k: float(v) for k, v in data["drift"].items()} == curve.traj(-window, window).drift
    code, out, _ = run(capsys, "solve", "--p", "1", "--q", "2", "--tau", "0.1",
                       "--window", "1.5")
    assert code == 0
    assert out.startswith("drift over [-1.5, 1.5]: I1=")


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_report_out_writes_what_stdout_would_show(json_flag, tmp_path, capsys):
    argv = ["periods", "--p", "2", "--q", "3", "--tau", "0.05", *json_flag]
    _, shown, _ = run(capsys, *argv)
    out = tmp_path / "report.txt"
    code, stdout, _ = run(capsys, *argv, "--out", str(out))
    assert (code, stdout) == (0, "")
    assert out.read_text() == shown


def test_strict_preset_never_looser():
    from sltwist.cli import TOL_PRESETS

    std, strict = TOL_PRESETS["standard"], TOL_PRESETS["strict"]
    assert strict.tol <= std.tol
    assert strict.event_tol <= std.event_tol


_TORQUE = ("torque", "--p", "3", "--q", "4", "--tau", "-0.01", "--json")


def test_broken_pipe_in_process_exits_141_and_leaves_stdout_alone(monkeypatch):
    # an in-process caller's redirected stdout has no file descriptor to point at devnull
    def closed_reader(args):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(cli, "cmd_torque", closed_reader)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(list(_TORQUE)) == 141
        print("still open")
    assert buf.getvalue() == "still open\n"


@pytest.mark.parametrize("argv", [
    _TORQUE,
    ("export", "--p", "1", "--q", "2", "--tau", "0.1", "--format", "csv",
     "--samples", "2000", "--out", "/dev/stdout"),
])
def test_reader_closing_stdout_early_exits_141_without_traceback(argv):
    # the read end is closed before the child writes, as `| head -c 0` closes it;
    # stdout is block-buffered, as in a shell, so unwritten bytes outlive the error
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen([sys.executable, "-m", "sltwist.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 141
    assert err == b""


def test_out_fifo_closed_early_exits_141_without_traceback(tmp_path):
    # the broken pipe is the --out file, not stdout
    fifo = tmp_path / "out.csv"
    os.mkfifo(fifo)
    proc = subprocess.Popen([sys.executable, "-m", "sltwist.cli", "export", "--p", "1",
                             "--q", "2", "--tau", "0.1", "--format", "csv",
                             "--samples", "2000", "--out", str(fifo)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    os.close(os.open(fifo, os.O_RDONLY))      # waits for the writer, then leaves
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 141
    assert err == b""
